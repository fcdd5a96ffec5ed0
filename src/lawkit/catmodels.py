"""Models of 2-theories in finite categories and everything built on them:
lax/colax/pseudo homomorphisms, modifications, internal (co)algebras,
lifting along an exchange table, internal homs, and convolution.

Cell direction convention, fixed once: a lax structure cell at a generator
a: n -> 1 for a homomorphism f: X -> Y points

    Y(a) o f1^n  ==>  f1 o X(a)

(colax is reversed, pseudo is invertible componentwise, strict stores
identities).  The lift of an operation along an exchange table
(``lift_hom``) is such a homomorphism whose cells are the evaluated
exchange cells.

Every 2-cell here, a model's cell, a hom's structure cell or a
modification, is stored as its component table, one arrow per object of
its source, in code order.  Its boundary functors are fixed by the 1-cells
around it, so they are not stored: ``CatModel.functor_of`` of the cell's
sides, ``cell_boundary`` or the two homs' underlying functors give them
where a naturality check needs a ``fincat.FinNat``.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from . import fincat, finset
from .cells import (
    Gen,
    Inverse,
    PowerR,
    SigmaTable,
    _decompose,
    _is_plain_generator,
    derive_sigma,
    pasting_components,
    power_rows,
)
from .fincat import (
    FinCategory,
    FinFunctor,
    FinNat,
    ProductCategory,
    compose_functors,
    enumerate_functors,
    enumerate_naturals,
    identity_components,
    validate_functor,
    validate_nat,
)
from .search import EnumerationBound, search
from .theory import (
    InputError,
    Morphism,
    TwoTheoryPresentation,
    compile_term,
    generator_morphism,
    is_inert,
    occurring_variables,
    par as par_morphism,
    power_right,
)

HOM_ENUMERATION_BOUND = 256
# Reasons ``internal_hom`` and ``multimaps.curry`` give for not applying.
NOT_AN_OBJECT = "hom is not an object of this category"
NOT_AN_ARROW = "modification is not an arrow of this category"


@dataclass(frozen=True)
class CatModel:
    theory: TwoTheoryPresentation
    carrier: FinCategory
    op_functors: tuple[tuple[str, FinFunctor], ...]
    # Each 2-cell's components, one arrow of C^b per object of C^a; its
    # boundary functors are those of the cell's source and target.
    cell_tables: tuple[tuple[str, tuple[int, ...]], ...] = ()

    _powers: dict = field(default_factory=dict, compare=False, repr=False, hash=False)
    _functors: dict = field(default_factory=dict, compare=False, repr=False, hash=False)
    _closures: dict = field(default_factory=dict, compare=False, repr=False, hash=False)
    _boundaries: dict = field(default_factory=dict, compare=False, repr=False, hash=False)
    _agreements: dict = field(default_factory=dict, compare=False, repr=False, hash=False)
    # Each pasting node's rows (see cells.pasting_components), keyed on the node.
    _rows: dict = field(default_factory=dict, compare=False, repr=False, hash=False)

    def power(self, n: int) -> ProductCategory:
        if n not in self._powers:
            self._powers[n] = fincat.power(self.carrier, n)
        return self._powers[n]

    def op_functor(self, name: str) -> FinFunctor:
        for n, f in self.op_functors:
            if n == name:
                return f
        raise LookupError(f"model has no operation {name}")

    def cell(self, name: str) -> tuple[int, ...]:
        """The components of a 2-cell.  Reading one the model has no ``nat``
        for is an input fault: a looked-up model has one for each 2-cell of
        its theory (``problems``)."""
        for n, table in self.cell_tables:
            if n == name:
                return table
        raise InputError(f"model has no 2-cell {name}")

    @functools.cached_property
    def op_problems(self) -> tuple[ModelViolation, ...]:
        """The op functors' violations, in generator order.  Each is checked
        on the composable pairs of its source power, which
        ``fincat.ProductCategory.composites`` builds from the carrier's."""
        problems = []
        for g in self.theory.base.generators:
            fun = self.op_functor(g.name)
            if fun.source != self.power(g.arity).cat or fun.target != self.carrier:
                problems.append(ModelViolation("op-shape", g.name))
            elif validate_functor(fun) is not None:
                problems.append(ModelViolation("op-functor", g.name))
        return tuple(problems)

    @functools.cached_property
    def problems(self) -> tuple[ModelViolation, ...]:
        """The model's violations short of its cell equations: its op
        functors', then each base equation's and each cell's, in the
        theory's order.  Equations are compared by ``functors_agree``; a
        cell's table is checked for naturality between the functors of its
        source and target, which are functors once the op functors are.
        ``dsl.Document.cat_model`` refuses a model that has any."""
        problems = list(self.op_problems)
        for eq in self.theory.base.equations:
            if not self.functors_agree(eq.lhs, eq.rhs):
                problems.append(ModelViolation("equation", eq.name))
        tables = dict(self.cell_tables)
        for cell in self.theory.cells:
            table = tables.get(cell.name)
            if table is None:
                problems.append(ModelViolation("missing-cell", cell.name))
                continue
            if not self.op_problems:
                nat = FinNat(self.functor_of(cell.source), self.functor_of(cell.target), table)
                if validate_nat(nat) is not None:
                    problems.append(ModelViolation("cell-naturality", cell.name))
            if cell.invertible and any(self.carrier.inverse(c) is None for c in table):
                problems.append(ModelViolation("cell-invertibility", cell.name))
        return tuple(problems)

    def functor_of(self, f: Morphism) -> FinFunctor:
        if f in self._functors:
            return self._functors[f]
        # Building the power categories first checks their size against
        # fincat.POWER_BOUND before anything of that size is tabulated.
        dom, cod = self.power(f.source).cat, self.power(f.target).cat
        obj_map = arr_map = ()
        if dom.n_objects:  # an empty carrier has nothing to evaluate
            obj_map = tuple(map(self._encoder(f, False), itertools.product(
                range(self.carrier.n_objects), repeat=f.source)))
            arr_map = tuple(map(self._encoder(f, True), itertools.product(
                range(self.carrier.n_arrows), repeat=f.source)))
        fun = FinFunctor(dom, cod, obj_map, arr_map)
        self._functors[f] = fun
        return fun

    def functors_agree(self, f: Morphism, g: Morphism) -> bool:
        """Whether ``functor_of(f) == functor_of(g)``, without tabulating either.

        Parallel sides are compared pointwise over the variables that occur
        in them (``theory.occurring_variables``).  They are compared on every
        object and on every arrow, or, once every op functor is a functor, on
        every one-variable arrow ``(id, ..., a, ..., id)`` only: both sides
        are then functors, and every arrow of C^n is a composite of
        one-variable arrows.  The second way is taken where it reads fewer
        points, counting the pairs that checking the op functors reads.  The
        number of points is checked against ``fincat.POWER_BOUND`` before any
        is evaluated.  Memoized per pair."""
        key = (f, g)
        if key not in self._agreements:
            self._agreements[key] = self._agree(f, g)
        return self._agreements[key]

    def _agree(self, f: Morphism, g: Morphism) -> bool:
        if (f.source, f.target) != (g.source, g.target):
            return self.functor_of(f) == self.functor_of(g)
        c = self.carrier
        if f.source and not c.n_objects:
            return True  # C^n is empty
        occurs = occurring_variables(f, g)

        def block(domain, at=None, rest=None) -> list:
            """A domain per variable: ``domain`` at the variable ``at`` (at
            every one that occurs when None), ``rest`` at the others that
            occur, and 0 at those that do not; its points are the product."""
            return [(0,) if i not in occurs else domain if at in (None, i) else rest
                    for i in range(f.source)]

        objects, arrows = [block(range(c.n_objects))], [block(c.arrows())]
        k, moving = len(occurs), [a for a in c.arrows() if not c.is_identity(a)]
        full, few = c.n_arrows ** k, k and k * len(moving) * c.n_objects ** (k - 1)
        if few < full:
            # Checking the op functors reads each one's composable pairs.
            pairs = sum(c.src.count(b) * c.dst.count(b) for b in range(c.n_objects))
            if few + sum(pairs ** op.arity for op in self.theory.base.generators) < full \
                    and not self.op_problems:
                arrows = [block(moving, i, c.identity) for i in occurs]
        size = sum(math.prod(map(len, b)) for b in objects + arrows)
        if size > fincat.POWER_BOUND:
            raise EnumerationBound(f"comparing two functors at {size} points "
                                   f"exceeds bound {fincat.POWER_BOUND}")
        for on_arrows, blocks in ((False, objects), (True, arrows)):
            lhs, rhs = self._encoder(f, on_arrows), self._encoder(g, on_arrows)
            for b in blocks:
                if list(map(lhs, itertools.product(*b))) != list(map(rhs, itertools.product(*b))):
                    return False
        return True

    def _compiled(self, f: Morphism, arrows: bool) -> tuple:
        """``theory.compile_term`` of each component of ``f``, on objects or arrows."""
        key = (f, arrows)
        if key not in self._closures:
            if arrows:
                table, radix = lambda name: self.op_functor(name).arr_map, self.carrier.n_arrows
            else:
                table, radix = lambda name: self.op_functor(name).obj_map, self.carrier.n_objects
            self._closures[key] = tuple(compile_term(t, table, radix) for t in f.components)
        return self._closures[key]

    def _encoder(self, f: Morphism, arrows: bool):
        """A closure sending an argument tuple to the row-major code of the
        tuple of ``f``'s components."""
        comps = self._compiled(f, arrows)
        if len(comps) == 1:
            return comps[0]
        radix = self.carrier.n_arrows if arrows else self.carrier.n_objects

        def encode(xs):
            idx = 0
            for c in comps:
                idx = idx * radix + c(xs)
            return idx
        return encode


class ModelViolation(NamedTuple):
    kind: str
    detail: str


def validate_cat_model(model: CatModel) -> list[ModelViolation]:
    """``CatModel.problems``, or, on a model with none, each failing cell
    equation, in the theory's order: its sides compared by their components
    on objects and their boundaries by ``CatModel.functors_agree``."""
    if model.problems:
        return list(model.problems)
    return [ModelViolation("cell-equation", name) for name, lhs, rhs in model.theory.cell_equations
            if not (pasting_components(lhs, model) == pasting_components(rhs, model)
                    and model.functors_agree(lhs.source(), rhs.source())
                    and model.functors_agree(lhs.target(), rhs.target()))]


def terminal_model(theory2: TwoTheoryPresentation) -> CatModel:
    term = fincat.terminal_category()
    ops = tuple(
        (g.name, FinFunctor(fincat.power(term, g.arity).cat, term, (0,), (0,)))
        for g in theory2.base.generators
    )
    return CatModel(theory2, term, ops, tuple((c.name, (0,)) for c in theory2.cells))


def power_cat_model(model: CatModel, n: int) -> CatModel:
    """The n-th power model: carrier C^n, operations computed coordinatewise."""
    carrier = model.power(n).cat
    ops = tuple(
        (g.name, model.functor_of(power_right(generator_morphism(g), n)))
        for g in model.theory.base.generators
    )
    cells = tuple(
        (c.name, pasting_components(PowerR(Gen(c), n), model))
        for c in model.theory.cells
    )
    return CatModel(model.theory, carrier, ops, cells)


# -- homomorphisms of models -----------------------------------------------------

class LaxHom(NamedTuple):
    source: CatModel
    target: CatModel
    weakness: str  # strict | pseudo | lax | colax
    f1: FinFunctor
    # Each generator's structure cell, as its components: one arrow of Y per
    # object of X^a, between the functors ``cell_boundary`` gives.
    cells: tuple[tuple[str, tuple[int, ...]], ...]

    def cell(self, name: str) -> tuple[int, ...]:
        for n, c in self.cells:
            if n == name:
                return c
        raise LookupError(f"hom has no structure cell for {name}")

    def point(self) -> int:
        """Underlying object, for homs out of the terminal model."""
        return self.f1.obj_map[0]


def functor_power(fun: FinFunctor, n: int, src_pow: ProductCategory,
                  dst_pow: ProductCategory) -> FinFunctor:
    """The n-fold power of ``fun``, from ``src_pow`` (the n-th power of its
    source) to ``dst_pow`` (of its target); cached on ``fun`` per ``n``."""
    if n not in fun._powers:
        obj_map = fincat.row_major([fun.obj_map] * n, [fun.target.n_objects] * n)
        arr_map = fincat.row_major([fun.arr_map] * n, [fun.target.n_arrows] * n)
        fun._powers[n] = FinFunctor(src_pow.cat, dst_pow.cat, obj_map, arr_map)
    return fun._powers[n]


def cell_boundary(X: CatModel, Y: CatModel, f1: FinFunctor, f: Morphism,
                  weakness: str) -> tuple[FinFunctor, FinFunctor]:
    """Source and target of the structure cell at ``f: a -> b`` of a hom
    ``X -> Y`` with underlying functor ``f1``: ``F^a ; Y(f)`` and
    ``X(f) ; F^b`` (swapped for colax).

    Both functors are memoized on ``X`` per target model, ``f1`` tables and
    ``f``.  A hit needs the stored target to be ``Y`` itself and the stored
    functor to equal ``f1``, so it returns what composing would.
    """
    key = (id(Y), f1.obj_map, f1.arr_map, f)
    hit = X._boundaries.get(key)
    if hit is None or hit[0] is not Y or hit[1] != f1:
        a, b = f.source, f.target
        via_target = compose_functors(functor_power(f1, a, X.power(a), Y.power(a)),
                                      Y.functor_of(f))
        via_source = compose_functors(X.functor_of(f),
                                      functor_power(f1, b, X.power(b), Y.power(b)))
        hit = X._boundaries[key] = (Y, f1, via_target, via_source)
    if weakness == "colax":
        return hit[3], hit[2]
    return hit[2], hit[3]


def hom_from_components(X: CatModel, Y: CatModel, weakness: str, f1: FinFunctor,
                        tables: Sequence[Sequence[int]] | None = None) -> LaxHom:
    """The hom ``X -> Y`` of the given weakness over ``f1`` whose cell at the
    ``i``-th generator has the component table ``tables[i]``.  With no tables
    each cell is an identity, which needs its two boundary functors
    (``cell_boundary``) to be equal."""
    gens = X.theory.base.generators
    if tables is not None:
        return LaxHom(X, Y, weakness, f1, tuple((g.name, tuple(t)) for g, t in zip(gens, tables)))
    cells = []
    for g in gens:
        src, tgt = cell_boundary(X, Y, f1, generator_morphism(g), weakness)
        if src != tgt:
            raise ValueError(f"expected a strict homomorphism at {g.name}")
        cells.append((g.name, identity_components(src)))
    return LaxHom(X, Y, weakness, f1, tuple(cells))


# -- coherence of homomorphisms ---------------------------------------------------

class CoherenceCheck(NamedTuple):
    """One law on a hom's structure cells, listed in generator order:
    ``holds(cells)`` reads no cell after ``cells[slot]`` (none at all when
    ``slot`` is -1), and a failure is reported as ``violation``."""
    slot: int
    violation: ModelViolation
    holds: Callable[[Sequence[tuple[int, ...]]], bool]


class HomCoherence:
    """The coherence of the weakness-``w`` homs ``X -> Y`` over one
    underlying functor ``f1``, as checks on their structure cells listed in
    generator order.

    ``cell_violations(i, comps)`` checks generator ``i``'s own cell, given
    as its components: its naturality between the boundary functors, then
    strictness and invertibility where ``w`` asks for them.  ``laws`` are
    every base equation, then every 2-cell compatibility, each tagged with
    the last generator slot it reads.  A law compares extended cells
    computed on components from the hom's cells and the models' tables; the
    boundary functors of an equation's two sides come from the
    ``cell_boundary`` memo and are compared once, when the law is built.
    """

    def __init__(self, X: CatModel, Y: CatModel, weakness: str, f1: FinFunctor):
        self.X, self.Y, self.weakness, self.f1 = X, Y, weakness, f1
        gens = X.theory.base.generators
        self._slots = {g.name: i for i, g in enumerate(gens)}
        self.boundaries = [cell_boundary(X, Y, f1, generator_morphism(g), weakness)
                           for g in gens]
        self._extensions: dict = {}
        self._laws: list[CoherenceCheck] | None = None

    def cell_violations(self, i: int, comps: tuple[int, ...]) -> list[ModelViolation]:
        name = self.X.theory.base.generators[i].name
        src, tgt = self.boundaries[i]
        problems = []
        if validate_nat(FinNat(src, tgt, comps)) is not None:
            problems.append(ModelViolation("hom-cell-naturality", name))
        carrier = self.Y.carrier
        if self.weakness == "strict" and src != tgt:
            problems.append(ModelViolation("hom-not-strict", name))
        if self.weakness in ("strict", "pseudo") and \
           any(carrier.inverse(c) is None for c in comps):
            problems.append(ModelViolation("hom-cell-invertibility", name))
        if self.weakness == "strict" and \
           any(not carrier.is_identity(c) for c in comps):
            problems.append(ModelViolation("hom-strict-cells", name))
        return problems

    def admissible(self, i: int, candidates) -> list[tuple[int, ...]]:
        """The candidates for generator ``i``'s cell that pass its own checks."""
        return [comps for comps in candidates if not self.cell_violations(i, comps)]

    @property
    def laws(self) -> list[CoherenceCheck]:
        if self._laws is None:
            theory2 = self.X.theory
            self._laws = [self._equation_law(eq) for eq in theory2.base.equations]
            self._laws += [self._compatibility_law(cell) for cell in theory2.cells]
        return self._laws

    def assignments(self, domains: list[list[tuple[int, ...]]]):
        """Every tuple of cells, the ``i``-th from ``domains[i]``, that passes
        every law, in lexicographic order; each law is tried as soon as its
        slot is assigned, so a failure prunes every completion of the prefix.
        The domains are taken to hold admissible cells only."""
        checks: list[list] = [[] for _ in domains]
        for law in self.laws:
            if law.slot >= 0:
                checks[law.slot].append(law.holds)
            elif not law.holds(()):
                return
        yield from search(lambda i, a: domains[i], checks)

    def extension(self, f: Morphism) -> tuple[int, Callable]:
        """``(slot, comps)``: ``comps(cells)`` is the component table of the
        canonical structure cell at ``f``, reading no cell after ``slot``."""
        hit = self._extensions.get(f)
        if hit is None:
            hit = self._extensions[f] = self._extend(f)
        return hit

    def _extend(self, f: Morphism) -> tuple[int, Callable]:
        X, Y = self.X, self.Y
        if is_inert(f):
            # Identities on F^a ; Y(f), which for an inert f is X(f) ; F^b.
            fpow = functor_power(self.f1, f.source, X.power(f.source), Y.power(f.source))
            yf = Y.functor_of(f).obj_map
            identity = Y.power(f.target).cat.identity
            comps = tuple(identity[yf[o]] for o in fpow.obj_map)
            return -1, lambda cells: comps
        if _is_plain_generator(f):
            i = self._slots[f.components[0].op.name]  # type: ignore[union-attr]
            return i, lambda cells: cells[i]
        # f = u ; v with v = par(heads): at o, the cell at u pushed along Y(v),
        # then the heads' cells stacked at X(u)(o) (the reverse for colax).
        # blocks[k][o] indexes head k's block of X(u)(o) in its power.
        u, heads = _decompose(f)
        stacked = X.power(sum(h.source for h in heads))
        blocks: list[list[int]] = [[] for _ in heads]
        for xo in X.functor_of(u).obj_map:
            objs = stacked.decode_obj(xo)
            off = 0
            for h, block in zip(heads, blocks):
                block.append(X.power(h.source).encode_obj(objs[off:off + h.source]))
                off += h.source
        u_slot, extend_u = self.extension(u)
        parts = [self.extension(h) for h in heads]
        yv = Y.functor_of(par_morphism(heads)).arr_map
        radix = Y.carrier.n_arrows
        then = Y.power(f.target).cat.then
        head_comps = [comps for _, comps in parts]
        colax = self.weakness == "colax"

        def comps(cells):
            heads_at = [(c(cells), block) for c, block in zip(head_comps, blocks)]
            out = []
            for o, e in enumerate(extend_u(cells)):
                p = 0
                for hc, block in heads_at:
                    p = p * radix + hc[block[o]]
                out.append(then(p, yv[e]) if colax else then(yv[e], p))
            return tuple(out)
        return max([u_slot] + [s for s, _ in parts]), comps

    def _equation_law(self, eq) -> CoherenceCheck:
        violation = ModelViolation("hom-equation", eq.name)
        X, Y, f1, w = self.X, self.Y, self.f1, self.weakness
        # Sides equal in both models have equal boundaries over every f1.
        if not (X.functors_agree(eq.lhs, eq.rhs) and Y.functors_agree(eq.lhs, eq.rhs)) and \
           cell_boundary(X, Y, f1, eq.lhs, w) != cell_boundary(X, Y, f1, eq.rhs, w):
            return CoherenceCheck(-1, violation, lambda cells: False)
        l_slot, lhs = self.extension(eq.lhs)
        r_slot, rhs = self.extension(eq.rhs)
        return CoherenceCheck(max(l_slot, r_slot), violation,
                              lambda cells: lhs(cells) == rhs(cells))

    def _compatibility_law(self, cell) -> CoherenceCheck:
        """The cell's X-components pushed along F^b, then the extended cell at
        its target, against the extended cell at its source, then its
        Y-components at F^a (each side composed the other way for colax).
        Both sides run between the same boundary functors by construction."""
        X, Y = self.X, self.Y
        a, b = cell.source.source, cell.source.target
        xs, ys = X.cell(cell.name), Y.cell(cell.name)
        fa = functor_power(self.f1, a, X.power(a), Y.power(a)).obj_map
        fb = functor_power(self.f1, b, X.power(b), Y.power(b)).arr_map
        then = Y.power(b).cat.then
        s_slot, at_source = self.extension(cell.source)
        t_slot, at_target = self.extension(cell.target)
        if self.weakness == "colax":
            def holds(cells):
                s, t = at_source(cells), at_target(cells)
                return all(then(fb[xs[o]], t[o]) == then(s[o], ys[fa[o]])
                           for o in range(len(s)))
        else:
            def holds(cells):
                s, t = at_source(cells), at_target(cells)
                return all(then(s[o], fb[xs[o]]) == then(ys[fa[o]], t[o])
                           for o in range(len(s)))
        return CoherenceCheck(max(s_slot, t_slot),
                              ModelViolation("hom-cell-compat", cell.name), holds)


def validate_lax_hom(hom: LaxHom) -> list[ModelViolation]:
    if validate_functor(hom.f1) is not None:
        return [ModelViolation("hom-functor", "underlying map")]
    coherence = HomCoherence(hom.source, hom.target, hom.weakness, hom.f1)
    cells = [hom.cell(g.name) for g in hom.source.theory.base.generators]
    problems = [p for i, comps in enumerate(cells) for p in coherence.cell_violations(i, comps)]
    if problems:
        return problems
    return [law.violation for law in coherence.laws if not law.holds(cells)]


def compose_homs(f: LaxHom, g: LaxHom) -> LaxHom:
    """The composite hom ``f ; g``.  Its cell at a generator has, at ``o``,
    the component ``g.cell[F^n o] ; G(f.cell[o])`` (lax) or the reverse
    (colax): the vertical composite of ``F^n`` whiskered into ``g``'s cell
    and ``f``'s cell whiskered by ``G``."""
    if f.target is not g.source and f.target != g.source:
        raise ValueError("hom composition mismatch")
    if f.weakness != g.weakness:
        raise ValueError("hom composition across weaknesses")
    f1 = compose_functors(f.f1, g.f1)
    then = g.target.carrier.then
    g_arr = g.f1.arr_map
    tables = []
    for gen in f.source.theory.base.generators:
        n = gen.arity
        fpow = functor_power(f.f1, n, f.source.power(n), f.target.power(n)).obj_map
        f_cell, g_cell = f.cell(gen.name), g.cell(gen.name)
        if f.weakness == "colax":
            tables.append([then(g_arr[c], g_cell[fpow[o]]) for o, c in enumerate(f_cell)])
        else:
            tables.append([then(g_cell[fpow[o]], g_arr[c]) for o, c in enumerate(f_cell)])
    return hom_from_components(f.source, g.target, f.weakness, f1, tables)


def tuple_homs(homs: list[LaxHom], target_power: CatModel, source_model: CatModel,
               weakness: str) -> LaxHom:
    """Pair homs X -> Y of the given weakness into a single hom X -> Y^n;
    the empty tuple is the unique hom into the zeroth power."""
    X = source_model
    if not homs:
        f1 = FinFunctor(X.carrier, target_power.carrier,
                        (0,) * X.carrier.n_objects, (0,) * X.carrier.n_arrows)
        return hom_from_components(X, target_power, weakness, f1)
    ypow = homs[0].target.power(len(homs))
    obj_map = tuple(ypow.encode_obj(tuple(h.f1.obj_map[o] for h in homs))
                    for o in range(X.carrier.n_objects))
    arr_map = tuple(ypow.encode_arr(tuple(h.f1.arr_map[a] for h in homs))
                    for a in range(X.carrier.n_arrows))
    f1 = FinFunctor(X.carrier, target_power.carrier, obj_map, arr_map)
    tables = [[ypow.encode_arr(comps)
               for comps in zip(*(h.cell(gen.name) for h in homs))]
              for gen in X.theory.base.generators]
    return hom_from_components(X, target_power, weakness, f1, tables)


def power_hom(hom: LaxHom, n: int, src_power: CatModel, dst_power: CatModel) -> LaxHom:
    """The induced hom X^n -> Y^n acting coordinatewise: its cell at an
    m-ary generator is n copies of ``hom``'s, one per column of the m x n
    matrix that an object of (X^n)^m is."""
    X, Y = hom.source, hom.target
    f1 = functor_power(hom.f1, n, X.power(n), Y.power(n))
    f1 = FinFunctor(src_power.carrier, dst_power.carrier, f1.obj_map, f1.arr_map)
    encode = Y.power(n).encode_arr
    tables = [list(map(encode, power_rows([(c,) for c in hom.cell(gen.name)],
                                          gen.arity, n, X.carrier.n_objects, True)))
              for gen in X.theory.base.generators]
    return hom_from_components(src_power, dst_power, hom.weakness, f1, tables)


def enumerate_homs_w(X: CatModel, Y: CatModel, weakness: str) -> list[LaxHom]:
    """All weakness-w homomorphisms X -> Y, deterministically ordered.

    Per underlying functor, each generator's candidate cells are the
    transformations between its boundary functors (the identity for strict)
    that pass their own checks; the product of their counts is held to
    ``HOM_ENUMERATION_BOUND`` before the search, which prunes on the laws.
    A hom found has passed every check of ``validate_lax_hom``.
    """
    names = [g.name for g in X.theory.base.generators]
    out = []
    for f1 in enumerate_functors(X.carrier, Y.carrier):
        coherence = HomCoherence(X, Y, weakness, f1)
        domains: list[list[tuple[int, ...]]] = []
        total = 1
        for i, (src, tgt) in enumerate(coherence.boundaries):
            candidates = [identity_components(src)] if weakness == "strict" \
                else [nat.components for nat in enumerate_naturals(src, tgt)]
            tables = coherence.admissible(i, candidates)
            if not tables:
                break
            domains.append(tables)
            total *= len(tables)
            if total > HOM_ENUMERATION_BOUND:
                raise EnumerationBound(f"{total} candidate structure-cell assignments "
                                       f"exceed bound {HOM_ENUMERATION_BOUND}")
        else:
            out += [LaxHom(X, Y, weakness, f1, tuple(zip(names, cells)))
                    for cells in coherence.assignments(domains)]
    return out


# -- modifications ------------------------------------------------------------------

class Modification(NamedTuple):
    source: LaxHom
    target: LaxHom
    components: tuple[int, ...]  # from f1 to g1, one arrow of Y per object of X


def validate_modification(mod: Modification) -> list[ModelViolation]:
    """The modification's checks, on components: that its homs are parallel,
    then its naturality from ``f1`` to ``g1``, then at each generator ``g``
    and each object ``o`` of ``X^n`` the square
    ``Y(g)(t^n o) ; g_cell[o] == f_cell[o] ; t[X(g) o]``
    (``f_cell[o] ; Y(g)(t^n o) == t[X(g) o] ; g_cell[o]`` for colax).  The
    squares are not formed when a component does not run ``f1(o) -> g1(o)``."""
    f, g = mod.source, mod.target
    problems = []
    if f.source != g.source or f.target != g.target or f.weakness != g.weakness:
        return [ModelViolation("modification-boundary", "homs not parallel")]
    t = mod.components
    violation = validate_nat(FinNat(f.f1, g.f1, t))
    if violation is not None:
        problems.append(ModelViolation("modification-naturality", ""))
        if violation.kind == "nat-component":
            return problems
    X, Y = f.source, f.target
    then = Y.carrier.then
    for gen in X.theory.base.generators:
        n = gen.arity
        tpow = fincat.row_major([t] * n, [Y.carrier.n_arrows] * n)
        op = generator_morphism(gen)
        xg, yg = X.functor_of(op).obj_map, Y.functor_of(op).arr_map
        f_cell, g_cell = f.cell(gen.name), g.cell(gen.name)
        if f.weakness == "colax":
            holds = all(then(f_cell[o], yg[tpow[o]]) == then(t[xg[o]], g_cell[o])
                        for o in range(len(xg)))
        else:
            holds = all(then(yg[tpow[o]], g_cell[o]) == then(f_cell[o], t[xg[o]])
                        for o in range(len(xg)))
        if not holds:
            problems.append(ModelViolation("modification-structure", gen.name))
    return problems


def enumerate_modifications(f: LaxHom, g: LaxHom) -> list[Modification]:
    out = []
    for nat in enumerate_naturals(f.f1, g.f1):
        mod = Modification(f, g, nat.components)
        if not validate_modification(mod):
            out.append(mod)
    return out


def identity_modification(f: LaxHom) -> Modification:
    return Modification(f, f, identity_components(f.f1))


def compose_modifications(s: Modification, t: Modification) -> Modification:
    if s.target != t.source:
        raise ValueError("modification composition mismatch")
    then = s.source.target.carrier.then
    return Modification(s.source, t.target, tuple(map(then, s.components, t.components)))


# -- homomorphism categories ----------------------------------------------------------

@dataclass(frozen=True)
class HomCategory:
    cat: FinCategory
    objects: tuple[LaxHom, ...]
    arrows: tuple[Modification, ...]

    # Objects keyed on their tables, arrows on their endpoints' indices and
    # components; the first object or arrow with a key wins.
    _index: dict = field(default_factory=dict, compare=False, repr=False, hash=False)

    def __post_init__(self):
        for i, h in enumerate(self.objects):
            self._index.setdefault(_object_key(h), i)
        for i, m in enumerate(self.arrows):
            self._index.setdefault((self.cat.src[i], self.cat.dst[i], m.components), i)

    def find_object(self, hom: LaxHom) -> int | None:
        """The index of the object ``hom``, or None if it is none."""
        i = self._index.get(_object_key(hom))
        return i if i is not None and self.objects[i] == hom else None

    def find_arrow(self, mod: Modification) -> int | None:
        """The index of the arrow ``mod``, or None if it is none."""
        i = self._index.get((self.find_object(mod.source), self.find_object(mod.target),
                             mod.components))
        return i if i is not None and self.arrows[i] == mod else None

    def object_index(self, hom: LaxHom) -> int:
        if (i := self.find_object(hom)) is None:
            raise LookupError(NOT_AN_OBJECT)
        return i

    def arrow_index(self, mod: Modification) -> int:
        if (i := self.find_arrow(mod)) is None:
            raise LookupError(NOT_AN_ARROW)
        return i


def _object_key(hom: LaxHom) -> tuple:
    return (hom.f1.obj_map, hom.f1.arr_map, tuple(table for _, table in hom.cells))


def build_hom_category(X: CatModel, Y: CatModel, weakness: str) -> HomCategory:
    homs = enumerate_homs_w(X, Y, weakness)
    arrows: list[Modification] = []
    keys = []
    for i, f in enumerate(homs):
        for j, g in enumerate(homs):
            # Each modification found runs from f itself to g itself.
            for m in enumerate_modifications(f, g):
                arrows.append(m)
                keys.append((i, j, m.components))
    cat = fincat.category_from_keys(
        len(homs), keys, lambda i: identity_modification(homs[i]).components,
        lambda x, y: compose_modifications(arrows[x], arrows[y]).components)
    return HomCategory(cat, tuple(homs), tuple(arrows))


def internal_algebras(model: CatModel) -> HomCategory:
    """Objects: lax homomorphisms from the terminal model; arrows: modifications."""
    return build_hom_category(terminal_model(model.theory), model, "lax")


def internal_coalgebras(model: CatModel) -> HomCategory:
    return build_hom_category(terminal_model(model.theory), model, "colax")


def algebra_view(hom: LaxHom) -> dict:
    """A hom's underlying object and, per generator, its structure arrow."""
    return {"obj": hom.point(),
            "structure": tuple((name, table[0]) for name, table in hom.cells)}


# -- lifting along an exchange table --------------------------------------------------

def lift_hom(model: CatModel, sigma: SigmaTable, beta: Morphism, weakness: str,
             src_power: CatModel) -> LaxHom:
    """The operation X(beta): X^k -> X as a homomorphism of models;
    ``src_power`` is the power model X^k.

    Structure cells are the evaluated exchange cells sigma_{alpha, beta}.
    A colax lift inverts them, which needs an invertible table.
    """
    if beta.target != 1:
        raise ValueError("lift expects a map with target 1")
    f1 = model.functor_of(beta)
    f1 = FinFunctor(src_power.carrier, model.carrier, f1.obj_map, f1.arr_map)
    tables = []
    for gen in model.theory.base.generators:
        pasting = derive_sigma(model.theory, sigma, generator_morphism(gen), beta)
        if weakness == "colax":
            pasting = Inverse(pasting)
        tables.append(pasting_components(pasting, model))
    return hom_from_components(src_power, model, weakness, f1, tables)


def internal_hom(X: CatModel, Y: CatModel, sigma: SigmaTable,
                 weakness: str) -> tuple[CatModel, HomCategory] | str:
    """The homomorphism category made into a model: operations act by
    postcomposition with the lifted operations of Y; or the reason it does
    not apply: a lifted operation sends a tuple of homs to no object (under
    ``strict``, a lift whose exchange cells are not identities)."""
    homcat = build_hom_category(X, Y, weakness)
    theory2 = X.theory
    objects, arrows = homcat.objects, homcat.arrows
    n_x = X.carrier.n_objects

    def arrow_index(s: int, t: int, comps: tuple[int, ...]) -> int:
        return homcat.arrow_index(Modification(objects[s], objects[t], comps))

    ops = []
    for gen in theory2.base.generators:
        n = gen.arity
        ypow_model = power_cat_model(Y, n)
        ypow = Y.power(n)
        lifted = lift_hom(Y, sigma, generator_morphism(gen), weakness, ypow_model)
        hpow = fincat.power(homcat.cat, n)
        obj_map = []
        for o in range(hpow.n_objects):
            idxs = hpow.decode_obj(o)
            tup = tuple_homs([objects[i] for i in idxs], ypow_model, X, weakness)
            if (i := homcat.find_object(compose_homs(tup, lifted))) is None:
                return NOT_AN_OBJECT
            obj_map.append(i)
        # An arrow of H^n is a tuple of modifications; its image runs between
        # the images of its endpoints, with lifted(f1) of the tuple of
        # components at each x.
        arr_map = []
        for a in range(hpow.n_arrows):
            mods = [arrows[i].components for i in hpow.decode_arr(a)]
            comps = tuple(lifted.f1.arr_map[ypow.encode_arr(tuple(m[x] for m in mods))]
                          for x in range(n_x))
            arr_map.append(arrow_index(obj_map[hpow.arr_src(a)],
                                       obj_map[hpow.arr_dst(a)], comps))
        ops.append((gen.name, FinFunctor(hpow.cat, homcat.cat, tuple(obj_map), tuple(arr_map))))

    # The cells' boundaries are evaluated on the model without cells, and
    # the model with them shares its memos: a model without cells evaluates
    # no pasting, and every other memo depends on the operations alone.  A
    # hom cell runs between the boundaries' objects, so only their object
    # codes are read.
    hommodel = CatModel(theory2, homcat.cat, tuple(ops))
    tables = []
    for cellsym in theory2.cells:
        a = cellsym.source.source
        ycomps = Y.cell(cellsym.name)
        hpow = fincat.power(homcat.cat, a)
        src_obj = hommodel._encoder(cellsym.source, False)
        tgt_obj = hommodel._encoder(cellsym.target, False)
        comps = []
        for o in range(hpow.n_objects):
            idxs = hpow.decode_obj(o)
            homs = [objects[i] for i in idxs]
            mod_comps = tuple(
                ycomps[Y.power(a).encode_obj(tuple(h.f1.obj_map[x] for h in homs))]
                for x in range(n_x))
            comps.append(arrow_index(src_obj(idxs), tgt_obj(idxs), mod_comps))
        tables.append((cellsym.name, tuple(comps)))
    return replace(hommodel, cell_tables=tuple(tables)), homcat


# -- convolution -----------------------------------------------------------------------

def convolution_algebra(model: CatModel, algebra: LaxHom, coalgebra: LaxHom):
    """Operations on the hom-set from the coalgebra's object to the algebra's.

    Each n-ary operation sends (f_1,...,f_n) to
    o_coalgebra ; X(op)(f_1,...,f_n) ; o_algebra.
    Returns (FinSetModel on the hom-set, list of carrier arrow ids), or the
    reason there is none: an empty hom-set, or tables that break an equation.
    """
    if algebra.weakness != "lax" or coalgebra.weakness != "colax":
        raise ValueError("convolution needs a lax algebra and a colax coalgebra")
    cat = model.carrier
    a = algebra.point()
    c = coalgebra.point()
    hom = cat.hom(c, a)
    if not hom:
        return "empty hom-set: no convolution carrier"
    index = {arrow: i for i, arrow in enumerate(hom)}
    base = model.theory.base
    tables = {}
    for g in base.generators:
        n = g.arity
        fun = model.op_functor(g.name)
        o_a = algebra.cell(g.name)[0]
        o_c = coalgebra.cell(g.name)[0]
        table = []
        for args in itertools.product(range(len(hom)), repeat=n):
            arrows = tuple(hom[i] for i in args)
            mid = fun.arr_map[model.power(n).encode_arr(arrows)]
            value = cat.then(cat.then(o_c, mid), o_a)
            if value not in index:
                raise ValueError("convolution value escaped the hom-set")
            table.append(index[value])
        tables[g.name] = tuple(table)
    result = finset.validate_model(base, len(hom), tables)
    if not isinstance(result, finset.FinSetModel):
        return f"convolution tables violate {result.equation} at {result.env}"
    return result, hom

