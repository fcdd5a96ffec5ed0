"""Finite categories, functors, and natural transformations.

Objects and arrows are integer ids.  ``comp[(f, g)]`` stores the
diagrammatic composite "f then g".  Products are strictly associative by
construction: the n-fold product encodes object/arrow tuples row-major with
mixed radix, so C^(m*k) and (C^k)-tuples-of-length-m are literally the same
indexing and never need re-bracketing.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

from .search import EnumerationBound, search

# Largest table, in entries, built for a product category or a functor on one.
POWER_BOUND = 1 << 22
# Most object maps a functor enumeration may range over.
FUNCTOR_ENUMERATION_BOUND = 1 << 22


@dataclass(frozen=True)
class FinCategory:
    n_objects: int
    src: tuple[int, ...]
    dst: tuple[int, ...]
    identity: tuple[int, ...]              # per object
    comp: tuple[tuple[int, int, int], ...]  # (f, g, f-then-g); empty when lazy

    _comp_map: dict = field(default_factory=dict, compare=False, repr=False, hash=False)
    _product: ProductCategory | None = field(default=None, compare=False, repr=False, hash=False)
    _inverse_cache: dict = field(default_factory=dict, compare=False, repr=False, hash=False)

    def __post_init__(self):
        table = {(f, g): h for f, g, h in self.comp}
        object.__setattr__(self, "_comp_map", table)

    @property
    def n_arrows(self) -> int:
        return len(self.src)

    def arrows(self):
        return range(self.n_arrows)

    def hom(self, a: int, b: int) -> list[int]:
        return [f for f in self.arrows() if self.src[f] == a and self.dst[f] == b]

    def then(self, f: int, g: int) -> int:
        if self.dst[f] != self.src[g]:
            raise ValueError(f"arrows {f} and {g} are not composable")
        if f == self.identity[self.src[f]]:
            return g
        if g == self.identity[self.dst[f]]:
            return f
        hit = self._comp_map.get((f, g))
        if hit is not None:
            return hit
        if self._product is not None:
            return self._product.then_arr(f, g)
        raise ValueError(f"missing composite for ({f}, {g})")

    def composites(self) -> list[list[tuple[int, int]]]:
        """For each arrow ``f``, the pairs ``(g, f;g)`` over the arrows ``g``
        composable after ``f``, in ascending ``g``: the composable pairs in
        the order of a scan over all pairs ``(f, g)``."""
        if self._product is not None:
            return self._product.composites()
        after: list[list[int]] = [[] for _ in range(self.n_objects)]
        for g in self.arrows():
            after[self.src[g]].append(g)
        return [[(g, self.then(f, g)) for g in after[self.dst[f]]] for f in self.arrows()]

    def is_identity(self, f: int) -> bool:
        return self.identity[self.src[f]] == f

    def inverse(self, f: int) -> int | None:
        if f in self._inverse_cache:
            return self._inverse_cache[f]
        out = None
        for g in self.hom(self.dst[f], self.src[f]):
            if self.then(f, g) == self.identity[self.src[f]] and \
               self.then(g, f) == self.identity[self.src[g]]:
                out = g
                break
        self._inverse_cache[f] = out
        return out


class CategoryViolation(NamedTuple):
    kind: str
    data: tuple


def build_category(n_objects: int, src: list[int], dst: list[int], identity: list[int],
                   comp: dict[tuple[int, int], int]) -> FinCategory:
    # Canonical form: store every composable pair, identity composites included,
    # so structurally equal categories compare equal.
    full = dict(comp)
    for f in range(len(src)):
        for g in range(len(src)):
            if dst[f] != src[g] or (f, g) in full:
                continue
            if identity[src[f]] == f:
                full[(f, g)] = g
            elif identity[src[g]] == g:
                full[(f, g)] = f
    triples = tuple(sorted((f, g, h) for (f, g), h in full.items()))
    return FinCategory(n_objects, tuple(src), tuple(dst), tuple(identity), triples)


def category_from_keys(n_objects: int, keys: list[tuple[int, int, object]],
                       identity: Callable[[int], object],
                       compose: Callable[[int, int], object]) -> FinCategory:
    """The category whose arrows are ``keys``, each ``(src, dst, payload)``.

    ``identity(a)`` gives the payload of object ``a``'s identity and
    ``compose(f, g)`` that of "f then g" for arrow ids ``f``, ``g``; each is
    looked up among the keys, which must be distinct."""
    index = {key: f for f, key in enumerate(keys)}
    out: list[list[int]] = [[] for _ in range(n_objects)]  # arrow ids by source
    for f, (a, _, _) in enumerate(keys):
        out[a].append(f)
    comp = {(f, g): index[(a, keys[g][1], compose(f, g))]
            for f, (a, b, _) in enumerate(keys) for g in out[b]}
    return build_category(n_objects, [k[0] for k in keys], [k[1] for k in keys],
                          [index[(a, a, identity(a))] for a in range(n_objects)], comp)


def validate_category(cat: FinCategory) -> CategoryViolation | None:
    n = cat.n_arrows
    for a in range(cat.n_objects):
        i = cat.identity[a]
        if not 0 <= i < n or cat.src[i] != a or cat.dst[i] != a:
            return CategoryViolation("identity", (a,))
    for f in cat.arrows():
        for g in cat.arrows():
            if cat.dst[f] != cat.src[g]:
                continue
            # ``build_category`` stores every identity composite; a lazy product has none.
            if cat._product is None and (f, g) not in cat._comp_map:
                return CategoryViolation("missing-composite", (f, g))
            h = cat.then(f, g)
            if cat.src[h] != cat.src[f] or cat.dst[h] != cat.dst[g]:
                return CategoryViolation("composite-endpoints", (f, g, h))
    for f in cat.arrows():
        for g in cat.arrows():
            if cat.dst[f] != cat.src[g]:
                continue
            for h in cat.arrows():
                if cat.dst[g] != cat.src[h]:
                    continue
                if cat.then(cat.then(f, g), h) != cat.then(f, cat.then(g, h)):
                    return CategoryViolation("associativity", (f, g, h))
    return None


def terminal_category() -> FinCategory:
    return build_category(1, [0], [0], [0], {})


def graded_scalar_category(grading: int, scalars: int) -> FinCategory:
    """Objects Z/grading; End(x) = Z/scalars written additively; no cross arrows.

    Arrow id = x * scalars + s for the scalar s at object x.
    """
    n_arr = grading * scalars
    src = [a // scalars for a in range(n_arr)]
    dst = list(src)
    identity = [x * scalars for x in range(grading)]
    comp = {}
    for x in range(grading):
        for s in range(scalars):
            for t in range(scalars):
                comp[(x * scalars + s, x * scalars + t)] = x * scalars + (s + t) % scalars
    return build_category(grading, src, dst, identity, comp)


# -- products -------------------------------------------------------------------

def encode(parts: tuple[int, ...], radices: tuple[int, ...]) -> int:
    idx = 0
    for p, r in zip(parts, radices):
        idx = idx * r + p
    return idx


def decode(idx: int, radices: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for r in reversed(radices):
        out.append(idx % r)
        idx //= r
    return tuple(reversed(out))


class ProductCategory:
    """Strict product with row-major mixed-radix encoding of tuples.

    Radices and sizes are fixed at construction.  The underlying FinCategory
    is built on first access; encodings are available without it, which
    keeps large powers cheap to index.
    """

    def __init__(self, factors: tuple[FinCategory, ...]):
        self.factors = factors
        self._obj_radices = tuple(c.n_objects for c in factors)
        self._arr_radices = tuple(c.n_arrows for c in factors)
        self.n_objects = math.prod(self._obj_radices)
        self.n_arrows = math.prod(self._arr_radices)
        self._cat: FinCategory | None = None

    def encode_obj(self, parts: tuple[int, ...]) -> int:
        return encode(parts, self._obj_radices)

    def decode_obj(self, idx: int) -> tuple[int, ...]:
        return decode(idx, self._obj_radices)

    def encode_arr(self, parts: tuple[int, ...]) -> int:
        return encode(parts, self._arr_radices)

    def decode_arr(self, idx: int) -> tuple[int, ...]:
        return decode(idx, self._arr_radices)

    def then_arr(self, f: int, g: int) -> int:
        fp = decode(f, self._arr_radices)
        gp = decode(g, self._arr_radices)
        return encode(tuple(c.then(a, b) for c, a, b in zip(self.factors, fp, gp)),
                      self._arr_radices)

    def arr_src(self, a: int) -> int:
        parts = decode(a, self._arr_radices)
        return encode(tuple(c.src[p] for c, p in zip(self.factors, parts)), self._obj_radices)

    def arr_dst(self, a: int) -> int:
        parts = decode(a, self._arr_radices)
        return encode(tuple(c.dst[p] for c, p in zip(self.factors, parts)), self._obj_radices)

    def composites(self) -> list[list[tuple[int, int]]]:
        """``FinCategory.composites`` of the product, built by extension from
        the factors' own, one factor at a time; the size is checked first."""
        tables = [c.composites() for c in self.factors]
        size = math.prod(sum(map(len, t)) for t in tables)
        if size > POWER_BOUND:
            raise EnumerationBound(f"{size} composable pairs exceed bound {POWER_BOUND}")
        out: list[list[tuple[int, int]]] = [[(0, 0)]]
        for table, radix in zip(tables, self._arr_radices):
            out = [[(g * radix + g2, h * radix + h2) for g, h in row for g2, h2 in row2]
                   for row in out for row2 in table]
        return out

    @property
    def cat(self) -> FinCategory:
        if self._cat is None:
            if not self.factors:
                self._cat = terminal_category()
            elif len(self.factors) == 1:
                self._cat = self.factors[0]
            else:
                objs = self._obj_radices
                src = row_major([c.src for c in self.factors], objs)
                dst = row_major([c.dst for c in self.factors], objs)
                identity = row_major([c.identity for c in self.factors], self._arr_radices)
                self._cat = FinCategory(self.n_objects, src, dst, identity, (),
                                        _product=self)
        return self._cat


def row_major(tables, radices) -> tuple[int, ...]:
    """The product of the maps ``tables[i]`` into ``range(radices[i])``,
    tabulated row-major: the entry at ``encode(parts, tuple(map(len, tables)))``
    is ``encode(tuple(t[p] for t, p in zip(tables, parts)), radices)``.
    Built by extension, one factor at a time; the size is checked first.
    """
    size = math.prod(len(t) for t in tables)
    if size > POWER_BOUND:
        raise EnumerationBound(f"a product of {size} entries exceeds bound {POWER_BOUND}")
    out = [0]
    for table, radix in zip(tables, radices):
        out = [x * radix + y for x in out for y in table]
    return tuple(out)


def product(factors: list[FinCategory]) -> ProductCategory:
    """Componentwise product; the empty product is the terminal category."""
    return ProductCategory(tuple(factors))


def power(cat: FinCategory, n: int) -> ProductCategory:
    return product([cat] * n)


# -- functors and natural transformations ---------------------------------------

@dataclass(frozen=True)
class FinFunctor:
    source: FinCategory
    target: FinCategory
    obj_map: tuple[int, ...]
    arr_map: tuple[int, ...]

    _powers: dict = field(default_factory=dict, compare=False, repr=False, hash=False)


def validate_functor(fun: FinFunctor) -> CategoryViolation | None:
    c, d = fun.source, fun.target
    for f in c.arrows():
        g = fun.arr_map[f]
        if d.src[g] != fun.obj_map[c.src[f]] or d.dst[g] != fun.obj_map[c.dst[f]]:
            return CategoryViolation("functor-endpoints", (f,))
    for a in range(c.n_objects):
        if fun.arr_map[c.identity[a]] != d.identity[fun.obj_map[a]]:
            return CategoryViolation("functor-identity", (a,))
    # Composable pairs only, in the order of a scan over all pairs (f, g).
    for f, pairs in enumerate(fun.source.composites()):
        for g, h in pairs:
            if fun.arr_map[h] != d.then(fun.arr_map[f], fun.arr_map[g]):
                return CategoryViolation("functor-composition", (f, g))
    return None


def compose_functors(f: FinFunctor, g: FinFunctor) -> FinFunctor:
    if f.target != g.source:
        raise ValueError("functor composition mismatch")
    return FinFunctor(f.source, g.target,
                      tuple(g.obj_map[o] for o in f.obj_map),
                      tuple(g.arr_map[a] for a in f.arr_map))


class FinNat(NamedTuple):
    source: FinFunctor
    target: FinFunctor
    components: tuple[int, ...]  # arrow in the common target per source object


def validate_nat(nat: FinNat) -> CategoryViolation | None:
    f, g = nat.source, nat.target
    if f.source != g.source or f.target != g.target:
        return CategoryViolation("nat-boundary", ())
    c, d = f.source, f.target
    for a in range(c.n_objects):
        comp = nat.components[a]
        if d.src[comp] != f.obj_map[a] or d.dst[comp] != g.obj_map[a]:
            return CategoryViolation("nat-component", (a,))
    for h in c.arrows():
        a, b = c.src[h], c.dst[h]
        left = d.then(f.arr_map[h], nat.components[b])
        right = d.then(nat.components[a], g.arr_map[h])
        if left != right:
            return CategoryViolation("naturality", (h,))
    return None


def identity_components(fun: FinFunctor) -> tuple[int, ...]:
    """The components of the identity transformation on ``fun``."""
    return tuple(fun.target.identity[o] for o in fun.obj_map)


def enumerate_functors(c: FinCategory, d: FinCategory) -> list[FinFunctor]:
    """All functors c -> d, ordered lexicographically by (obj_map, arr_map).

    One search slot per object, then one per arrow; an identity arrow's only
    candidate is forced, and f;g is checked once f, g and f;g are assigned.
    """
    if d.n_objects ** c.n_objects > FUNCTOR_ENUMERATION_BOUND:
        raise EnumerationBound(f"{d.n_objects ** c.n_objects} object maps exceed "
                               f"functor enumeration bound {FUNCTOR_ENUMERATION_BOUND}")
    n = c.n_objects

    def domain(i: int, a: list[int]):
        f = i - n
        if f < 0:
            return range(d.n_objects)
        if c.is_identity(f):
            return (d.identity[a[c.src[f]]],)
        return d.hom(a[c.src[f]], a[c.dst[f]])

    def composition(f: int, g: int, h: int):
        return lambda a: a[n + h] == d.then(a[n + f], a[n + g])

    checks: list[list] = [[] for _ in range(n + c.n_arrows)]
    for f in c.arrows():
        for g in c.arrows():
            if c.dst[f] == c.src[g] and not c.is_identity(f) and not c.is_identity(g):
                h = c.then(f, g)
                checks[n + max(f, g, h)].append(composition(f, g, h))
    return [FinFunctor(c, d, a[:n], a[n:]) for a in search(domain, checks)]


def enumerate_naturals(f: FinFunctor, g: FinFunctor) -> list[FinNat]:
    """All transformations f => g, one search slot per object; the naturality
    square at an arrow is checked once both of its endpoints are assigned."""
    if f.source != g.source or f.target != g.target:
        raise ValueError("natural transformations need parallel functors")
    c, d = f.source, f.target
    choices = [d.hom(f.obj_map[a], g.obj_map[a]) for a in range(c.n_objects)]

    def naturality(h: int):
        x, y = c.src[h], c.dst[h]
        return lambda a: d.then(f.arr_map[h], a[y]) == d.then(a[x], g.arr_map[h])

    checks: list[list] = [[] for _ in range(c.n_objects)]
    for h in c.arrows():
        checks[max(c.src[h], c.dst[h])].append(naturality(h))
    return [FinNat(f, g, comps) for comps in search(lambda i, a: choices[i], checks)]
