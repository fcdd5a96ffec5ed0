"""Constructions that tests build on and no command runs: a term evaluator,
first-order matching and model validation by full scan, small categories,
whiskering and vertical composition of transformations, identity
homomorphisms, and morphism builders.  Tests compare
production paths against these or use them to set up inputs.
"""

import itertools

from lawkit.catmodels import CatModel, LaxHom, hom_from_components
from lawkit.fincat import (
    CategoryViolation,
    FinCategory,
    FinFunctor,
    FinNat,
    build_category,
    compose_functors,
)
from lawkit.finset import FinSetModel, Violation
from lawkit.theory import Apply, Morphism, Proj, Term, TheoryError


# -- terms and finite-set models ---------------------------------------------------

def reference_value(t: Term, table, radix: int, env) -> int:
    """The value of ``t`` at ``env`` by recursion over the term, where the
    operation ``name`` has the flat table ``table(name)``, indexed row-major
    by its arguments, ``radix`` values each."""
    if isinstance(t, Proj):
        return env[t.index]
    idx = 0
    for a in t.args:
        idx = idx * radix + reference_value(a, table, radix, env)
    return table(t.op.name)[idx]


def match(pattern: Term, t: Term, binding: dict[int, Term]) -> dict[int, Term] | None:
    """First-order matching; pattern projections are (possibly repeated)
    metavariables, bound on first occurrence and compared with ``==`` after."""
    if isinstance(pattern, Proj):
        bound = binding.get(pattern.index)
        if bound is None:
            out = dict(binding)
            out[pattern.index] = t
            return out
        return binding if bound == t else None
    assert isinstance(pattern, Apply)
    if not isinstance(t, Apply) or t.op != pattern.op:
        return None
    for pa, ta in zip(pattern.args, t.args):
        binding = match(pa, ta, binding)  # type: ignore[assignment]
        if binding is None:
            return None
    return binding


def reference_eval_morphism(model: FinSetModel, f: Morphism, env) -> tuple[int, ...]:
    return tuple(reference_value(c, model.table, model.size, env) for c in f.components)


def reference_validate_model(theory, size, tables):
    """Scan every input tuple of every equation's full context."""
    model = FinSetModel(theory, size, tuple((g.name, tuple(tables[g.name]))
                                            for g in theory.generators))
    for eq in theory.equations:
        for env in itertools.product(range(size), repeat=eq.lhs.source):
            lv = reference_eval_morphism(model, eq.lhs, env)
            rv = reference_eval_morphism(model, eq.rhs, env)
            if lv != rv:
                return Violation(eq.name, env, lv, rv)
    return model


# -- morphisms ---------------------------------------------------------------------

def proj_morphism(i: int, n: int) -> Morphism:
    return Morphism(n, 1, (Proj(i, n),))


def tupling(fs: list[Morphism]) -> Morphism:
    """Pair morphisms with a common source into one map onto the product."""
    if not fs:
        raise TheoryError("tupling of nothing needs an explicit source")
    src = fs[0].source
    if any(f.source != src for f in fs):
        raise TheoryError("tupling requires a common source")
    comps = tuple(c for f in fs for c in f.components)
    return Morphism(src, sum(f.target for f in fs), comps)


# -- small categories --------------------------------------------------------------

def discrete_category(n: int) -> FinCategory:
    return build_category(n, list(range(n)), list(range(n)), list(range(n)), {})


def poset_category(relation: list[tuple[int, int]], n: int) -> FinCategory:
    """Thin category from a reflexive-transitive relation given as pairs (a<=b).

    Arrows are ordered with the identities first, matching the text format.
    """
    strict = sorted(set(relation) - {(a, a) for a in range(n)})
    pairs = [(a, a) for a in range(n)] + strict
    src = [a for a, _ in pairs]
    dst = [b for _, b in pairs]
    idx = {p: i for i, p in enumerate(pairs)}
    identity = [idx[(a, a)] for a in range(n)]
    comp = {}
    for (a, b) in pairs:
        for (b2, c) in pairs:
            if b2 != b:
                continue
            if (a, c) not in idx:
                raise ValueError("relation is not transitive")
            comp[(idx[(a, b)], idx[(b, c)])] = idx[(a, c)]
    return build_category(n, src, dst, identity, comp)


def group_delooping(n: int) -> FinCategory:
    """One object, arrows Z/n under addition."""
    comp = {(a, b): (a + b) % n for a in range(n) for b in range(n)}
    return build_category(1, [0] * n, [0] * n, [0], comp)


# -- functors, whiskering, identity homomorphisms ----------------------------------

def identity_functor(cat: FinCategory) -> FinFunctor:
    return FinFunctor(cat, cat, tuple(range(cat.n_objects)), tuple(range(cat.n_arrows)))


def reference_validate_functor(fun: FinFunctor) -> CategoryViolation | None:
    """Every check over every pair of arrows, composable or not, composing
    through ``then`` (on a lazy power, through ``ProductCategory.then_arr``)."""
    c, d = fun.source, fun.target
    for f in c.arrows():
        g = fun.arr_map[f]
        if d.src[g] != fun.obj_map[c.src[f]] or d.dst[g] != fun.obj_map[c.dst[f]]:
            return CategoryViolation("functor-endpoints", (f,))
    for a in range(c.n_objects):
        if fun.arr_map[c.identity[a]] != d.identity[fun.obj_map[a]]:
            return CategoryViolation("functor-identity", (a,))
    for f in c.arrows():
        for g in c.arrows():
            if c.dst[f] == c.src[g] and \
               fun.arr_map[c.then(f, g)] != d.then(fun.arr_map[f], fun.arr_map[g]):
                return CategoryViolation("functor-composition", (f, g))
    return None


def whisker_left(fun: FinFunctor, nat: FinNat) -> FinNat:
    """Precompose: the transformation fun;nat with components at fun-images."""
    if fun.target != nat.source.source:
        raise ValueError("left whisker mismatch")
    comps = tuple(nat.components[fun.obj_map[a]] for a in range(fun.source.n_objects))
    return FinNat(compose_functors(fun, nat.source), compose_functors(fun, nat.target), comps)


def whisker_right(nat: FinNat, fun: FinFunctor) -> FinNat:
    """Postcompose: apply fun to every component."""
    if nat.source.target != fun.source:
        raise ValueError("right whisker mismatch")
    comps = tuple(fun.arr_map[c] for c in nat.components)
    return FinNat(compose_functors(nat.source, fun), compose_functors(nat.target, fun), comps)


def vert_nat(p: FinNat, q: FinNat) -> FinNat:
    """The vertical composite ``p`` then ``q``, componentwise."""
    if p.target != q.source:
        raise ValueError("vertical composition mismatch")
    d = p.source.target
    return FinNat(p.source, q.target, tuple(map(d.then, p.components, q.components)))


def identity_hom(model: CatModel, weakness: str) -> LaxHom:
    return hom_from_components(model, model, weakness, identity_functor(model.carrier))
