import itertools
import random
from collections import Counter
from dataclasses import replace

import pytest

import oracles
import fixtures as fx
from fixtures import shipped_models
from lawkit import catmodels, dsl, fincat
from lawkit.catmodels import (
    CatModel,
    HomCategory,
    HomCoherence,
    LaxHom,
    Modification,
    ModelViolation,
    algebra_view,
    build_hom_category,
    cell_boundary,
    compose_homs,
    compose_modifications,
    convolution_algebra,
    enumerate_homs_w,
    enumerate_modifications,
    functor_power,
    hom_from_components,
    identity_modification,
    internal_algebras,
    internal_coalgebras,
    internal_hom,
    lift_hom,
    power_cat_model,
    power_hom,
    terminal_model,
    tuple_homs,
    validate_cat_model,
    validate_lax_hom,
    validate_modification,
)
from lawkit.cells import (
    Gen,
    Id,
    _decompose,
    _is_plain_generator,
    pasting_components,
)
from lawkit.fincat import (
    FinFunctor,
    FinNat,
    build_category,
    compose_functors,
    enumerate_functors,
    enumerate_naturals,
    identity_components,
    power,
    validate_functor,
    validate_nat,
)
from lawkit.search import EnumerationBound
from lawkit.theory import (
    Apply,
    InputError,
    Morphism,
    Proj,
    compose,
    generator_morphism,
    is_inert,
    par,
)
from references import (
    discrete_category,
    identity_hom,
    reference_validate_functor,
    vert_nat,
    whisker_left,
    whisker_right,
)

# Discrete two objects swapped by the involution.
TWO_OBJECT_INVOLUTION = """
import "t_inv.law";
model two_object_involution of t_inv in fincat {
  objects 2;
  functor inv { obj [1, 0]; arr auto; }
  nat iota auto;
}
"""


def test_validate_fixture_models():
    two_object = fx.parse(TWO_OBJECT_INVOLUTION).cat_model("two_object_involution")
    for model in (fx.model("poset_meet"), fx.model("graded_lines"),
                  fx.model("graded_lines_z3"),
                  fx.model("delooping_z2"), fx.model("discrete_z2"),
                  fx.model("pointed_poset"), fx.model("scalar_involution"),
                  fx.model("poset_involution"), fx.model("gl2_action"), two_object):
        assert validate_cat_model(model) == []


def test_mutant_fails_validation():
    problems = validate_cat_model(fx.model("graded_lines_mutant"))
    assert any(p.detail.startswith("hex") for p in problems)


def test_identity_hom_valid_every_weakness():
    model = fx.model("poset_meet")
    for weakness in ("strict", "pseudo", "lax", "colax"):
        assert validate_lax_hom(identity_hom(model, weakness)) == []


def test_wrong_direction_cell_is_rejected():
    # the coalgebra at the bottom has a genuinely one-way unit cell: re-tagging
    # the colax homomorphism as lax must fail the naturality check, whose
    # boundaries follow the weakness
    model = fx.model("poset_meet")
    coalgs = enumerate_homs_w(terminal_model(fx.theory("t_comm_flat")), model, "colax")
    bottom = [h for h in coalgs if h.point() == 0][0]
    assert not model.carrier.is_identity(bottom.cell("u")[0])
    bad = LaxHom(bottom.source, bottom.target, "lax", bottom.f1, bottom.cells)
    assert ModelViolation("hom-cell-naturality", "u") in validate_lax_hom(bad)


def test_internal_algebra_counts_match_oracle():
    poset = fx.model("poset_meet")
    assert internal_algebras(poset).cat.n_objects == \
        len(oracles.count_monoid_objects(oracles.poset2_meet())) == 1
    assert internal_coalgebras(poset).cat.n_objects == \
        len(oracles.count_comonoid_objects(oracles.poset2_meet())) == 2

    disc = fx.model("discrete_z2")
    assert internal_algebras(disc).cat.n_objects == \
        len(oracles.count_monoid_objects(oracles.discrete_z2())) == 1

    deloop = fx.model("delooping_z2")
    assert internal_coalgebras(deloop).cat.n_objects == \
        len(oracles.count_comonoid_objects(oracles.delooped_z2())) == 2


def test_terminal_model_has_one_algebra():
    term = terminal_model(fx.theory("t_comm_flat"))
    assert internal_algebras(term).cat.n_objects == 1
    assert internal_coalgebras(term).cat.n_objects == 1


def test_pointed_algebras_are_slices():
    model = fx.model("pointed_poset")
    H = internal_algebras(model)
    # point is the bottom: every object receives an arrow from it
    assert H.cat.n_objects == 2
    want = oracles.count_pointed_objects(oracles.poset2_meet(), 0)
    assert H.cat.n_objects == len(want)


def test_delooping_comonoids_pair_delta_epsilon():
    model = fx.model("delooping_z2")
    C = internal_coalgebras(model)
    structures = {tuple(dict(algebra_view(h)["structure"]).items()) for h in C.objects}
    assert structures == {(("m", 0), ("u", 0)), (("m", 1), ("u", 1))}


def test_convolution_examples():
    model = fx.model("delooping_z2")
    algs = internal_algebras(model).objects
    coalgs = internal_coalgebras(model).objects
    a1 = [h for h in algs if h.cell("m")[0] == 1][0]
    c1 = [h for h in coalgs if h.cell("m")[0] == 1][0]
    conv, hom = convolution_algebra(model, a1, c1)
    assert conv.table("m") == (0, 1, 1, 0) and conv.table("u") == (0,)

    poset = fx.model("poset_meet")
    palg = internal_algebras(poset).objects[0]        # the top object
    pcoalgs = internal_coalgebras(poset).objects
    bottom = [h for h in pcoalgs if h.point() == 0][0]
    conv, hom = convolution_algebra(poset, palg, bottom)
    assert conv.size == 1  # Hom(0, 1) is a single arrow: the trivial monoid

    top = [h for h in pcoalgs if h.point() == 1][0]
    conv, hom = convolution_algebra(poset, palg, top)
    assert conv.size == 1


def test_lift_hom_fixtures():
    for model_name, sigma_name, weakness in (("poset_meet", "sigma_comm_flat", "pseudo"),
                                             ("graded_lines", "sigma_comm_flat", "pseudo"),
                                             ("poset_involution", "sigma_inv", "lax")):
        model = fx.model(model_name)
        for op in model.theory.base.basis_ops():
            hom = lift_hom(model, fx.sigma(sigma_name), generator_morphism(op), weakness,
                           power_cat_model(model, op.arity))
            assert validate_lax_hom(hom) == [], (model_name, op.name)


def test_internal_hom_matches_internal_algebras():
    model = fx.model("poset_meet")
    term = terminal_model(fx.theory("t_comm_flat"))
    hom_model, homcat = internal_hom(term, model, fx.sigma("sigma_comm_flat"), "lax")
    alg = internal_algebras(model)
    assert homcat.cat.n_objects == alg.cat.n_objects
    assert homcat.cat.n_arrows == alg.cat.n_arrows
    assert validate_cat_model(hom_model) == []


def test_internal_hom_contains_identity():
    model = fx.model("poset_meet")
    hom_model, homcat = internal_hom(model, model, fx.sigma("sigma_comm_flat"), "lax")
    idx = homcat.object_index
    ident = [h for h in homcat.objects
             if h.f1.obj_map == tuple(range(model.carrier.n_objects))]
    assert ident, "identity homomorphism must appear"


def test_internal_hom_pointwise_tensor():
    model = fx.model("poset_meet")
    hom_model, homcat = internal_hom(model, model, fx.sigma("sigma_comm_flat"), "lax")
    hp2 = power(homcat.cat, 2)
    mf = hom_model.op_functor("m")
    for i, f in enumerate(homcat.objects):
        for j, g in enumerate(homcat.objects):
            prod_hom = homcat.objects[mf.obj_map[hp2.encode_obj((i, j))]]
            for x in range(model.carrier.n_objects):
                assert prod_hom.f1.obj_map[x] == \
                    min(f.f1.obj_map[x], g.f1.obj_map[x])


def test_modifications_lift_uniquely():
    # local full faithfulness: each modification between homs has exactly one
    # counterpart between the lifted homs with the same underlying component
    X = fx.model("poset_meet")
    homs = enumerate_homs_w(X, X, "lax")
    for f in homs:
        for g in homs:
            mods = enumerate_modifications(f, g)
            assert len({m.components for m in mods}) == len(mods)


def test_power_model_consistency():
    model = fx.model("graded_lines")
    sq = power_cat_model(model, 2)
    assert validate_cat_model(sq) == []
    assert sq.carrier == model.power(2).cat


def reference_power_hom(hom, n, src_power, dst_power):
    """``power_hom`` with its own column interleave: each object of
    (X^n)^m is decoded, and its n columns encoded, one by one."""
    X, Y = hom.source, hom.target
    f1 = functor_power(hom.f1, n, X.power(n), Y.power(n))
    f1 = FinFunctor(src_power.carrier, dst_power.carrier, f1.obj_map, f1.arr_map)
    tables = []
    for gen in X.theory.base.generators:
        m = gen.arity
        dom = X.power(m * n)
        comps = []
        for o in range(dom.n_objects):
            objs = dom.decode_obj(o)
            arrows = [0] * n
            for j in range(n):
                col = tuple(objs[i * n + j] for i in range(m))
                arrows[j] = hom.cell(gen.name)[X.power(m).encode_obj(col)]
            comps.append(Y.power(n).encode_arr(tuple(arrows)))
        tables.append(comps)
    return hom_from_components(src_power, dst_power, hom.weakness, f1, tables)


def test_power_hom_matches_the_column_interleave():
    models = [fx.model(name) for name in ("poset_meet", "poset_join", "graded_lines")]
    compared = 0
    for n in (1, 2, 3):
        powers = {id(X): power_cat_model(X, n) for X in models}
        for X in models:
            for Y in models:
                for hom in enumerate_homs_w(X, Y, "lax"):
                    args = (hom, n, powers[id(X)], powers[id(Y)])
                    assert power_hom(*args) == reference_power_hom(*args)
                    compared += 1
    assert compared == 84


def test_compose_homs_associative_on_algebras():
    model = fx.model("poset_meet")
    H = build_hom_category(model, model, "lax")
    for f in H.objects:
        for g in H.objects:
            fg = compose_homs(f, g)
            assert validate_lax_hom(fg) == []


def test_internal_hom_matches_algebras_on_more_models():
    cases = [
        (fx.theory("t_pointed_flat"), fx.sigma("sigma_pointed_flat"),
         fx.model("pointed_poset")),
        (fx.theory("t_inv"), fx.sigma("sigma_inv"), fx.model("scalar_involution")),
    ]
    for theory2, sigma, model in cases:
        term = terminal_model(theory2)
        hom_model, homcat = internal_hom(term, model, sigma, "lax")
        alg = internal_algebras(model)
        assert homcat.cat.n_objects == alg.cat.n_objects
        assert homcat.cat.n_arrows == alg.cat.n_arrows
        assert validate_cat_model(hom_model) == []


def test_join_poset_counts_match_oracle():
    J = fx.model("poset_join")
    assert validate_cat_model(J) == []
    assert internal_algebras(J).cat.n_objects == \
        len(oracles.count_monoid_objects(oracles.poset2_join())) == 2
    assert internal_coalgebras(J).cat.n_objects == \
        len(oracles.count_comonoid_objects(oracles.poset2_join())) == 1


def test_lift_cells_carry_the_braiding_sign():
    # the lifted multiplication of the sign-graded lines is a homomorphism
    # whose binary structure cell at ((a,b),(c,d)) is the middle exchange sign
    model = fx.model("graded_lines")
    from lawkit.theory import generator_morphism
    lift = lift_hom(model, fx.sigma("sigma_comm_flat"),
                    generator_morphism(fx.theory("t_comm_flat").base.op("m")), "pseudo",
                    power_cat_model(model, 2))
    assert validate_lax_hom(lift) == []
    cell = lift.cell("m")
    dom = model.power(4)
    for o in range(dom.n_objects):
        a, b, c, d = dom.decode_obj(o)
        scalar = cell[o]
        assert scalar % 2 == (b * c) % 2


# -- tabulators against per-element evaluation -------------------------------------------

def reference_functor_of(model, f):
    """Decode every tuple, evaluate each term recursively, encode the result."""
    dom, cod = model.power(f.source), model.power(f.target)

    def ev(t, xs, arrows):
        if isinstance(t, Proj):
            return xs[t.index]
        args = tuple(ev(a, xs, arrows) for a in t.args)
        fun, pw = model.op_functor(t.op.name), model.power(t.op.arity)
        return fun.arr_map[pw.encode_arr(args)] if arrows else fun.obj_map[pw.encode_obj(args)]

    obj_map = tuple(cod.encode_obj(tuple(ev(c, dom.decode_obj(o), False) for c in f.components))
                    for o in range(dom.n_objects))
    arr_map = tuple(cod.encode_arr(tuple(ev(c, dom.decode_arr(a), True) for c in f.components))
                    for a in range(dom.n_arrows))
    return FinFunctor(dom.cat, cod.cat, obj_map, arr_map)


def reference_functor_power(fun, src_pow, dst_pow):
    obj_map = tuple(dst_pow.encode_obj(tuple(fun.obj_map[p] for p in src_pow.decode_obj(o)))
                    for o in range(src_pow.n_objects))
    arr_map = tuple(dst_pow.encode_arr(tuple(fun.arr_map[p] for p in src_pow.decode_arr(a)))
                    for a in range(src_pow.n_arrows))
    return FinFunctor(src_pow.cat, dst_pow.cat, obj_map, arr_map)


def product_identity(prod, o):
    """The identity arrow on object ``o`` of a product category, factor by factor."""
    return prod.encode_arr(tuple(c.identity[p]
                                 for c, p in zip(prod.factors, prod.decode_obj(o))))


def _first_projection_variant(model):
    """The same carrier with every operation of arity >= 2 replaced by the
    projection to its first argument, a table that no argument swap fixes."""
    ops = []
    for g in model.theory.base.generators:
        fun = model.op_functor(g.name)
        if g.arity >= 2:
            dom = model.power(g.arity)
            fun = FinFunctor(dom.cat, model.carrier,
                             tuple(dom.decode_obj(o)[0] for o in range(dom.n_objects)),
                             tuple(dom.decode_arr(a)[0] for a in range(dom.n_arrows)))
        ops.append((g.name, fun))
    return CatModel(model.theory, model.carrier, tuple(ops))


def test_functor_of_matches_per_element_evaluation():
    checked = 0
    for shipped in shipped_models("fincat", "moncat"):
        pairs = [(eq.lhs, eq.rhs) for eq in shipped.theory.base.equations]
        pairs += [(cell.source, cell.target) for cell in shipped.theory.cells]
        for model in (shipped, _first_projection_variant(shipped)):
            for f, g in pairs:
                both = Morphism(f.source, 2, f.components + g.components)
                for side in (f, g, both):
                    assert model.functor_of(side) == reference_functor_of(model, side)
                    checked += 1
    assert checked > 100


def test_functor_power_matches_per_element_encoding():
    carriers = []
    for model in shipped_models("fincat", "moncat"):
        if model.carrier not in carriers:
            carriers.append(model.carrier)
    for c in carriers:
        for d in carriers:
            functors = enumerate_functors(c, d)
            # Cap: the 729 endofunctors of the 9-arrow graded_lines_z3 carrier
            # are sampled, at most 64 functors per pair.
            for fun in functors[::max(1, len(functors) // 64)]:
                for n in range(4):
                    src_pow, dst_pow = power(c, n), power(d, n)
                    assert functor_power(fun, n, src_pow, dst_pow) == \
                        reference_functor_power(fun, src_pow, dst_pow)


# -- the boundary memo against from-scratch composition -----------------------------------

WEAKNESSES = ("strict", "pseudo", "lax", "colax")


class FromScratch:
    """Boundary functors and extended structure cells rebuilt without
    lawkit's memos: every functor comes from the per-element references
    above, kept here per model and morphism only to save time."""

    def __init__(self):
        self.functors = {}

    def functor_of(self, model, f):
        key = (id(model), f)
        if key not in self.functors:
            self.functors[key] = (model, reference_functor_of(model, f))
        return self.functors[key][1]

    def boundary(self, X, Y, f1, f, weakness):
        a, b = f.source, f.target
        via_target = compose_functors(reference_functor_power(f1, X.power(a), Y.power(a)),
                                      self.functor_of(Y, f))
        via_source = compose_functors(self.functor_of(X, f),
                                      reference_functor_power(f1, X.power(b), Y.power(b)))
        if weakness == "colax":
            return via_source, via_target
        return via_target, via_source

    def extend(self, hom, f):
        X, Y = hom.source, hom.target
        outer_src, outer_tgt = self.boundary(X, Y, hom.f1, f, hom.weakness)
        if is_inert(f):
            return FinNat(outer_src, outer_tgt,
                          tuple(product_identity(Y.power(f.target), outer_src.obj_map[o])
                                for o in range(outer_src.source.n_objects)))
        if _is_plain_generator(f):
            return FinNat(outer_src, outer_tgt, hom.cell(f.components[0].op.name))
        u, heads = _decompose(f)
        dom = X.power(sum(h.source for h in heads))
        head_nats = [self.extend(hom, h) for h in heads]
        comps = []
        for o in range(dom.n_objects):
            objs, out, off = dom.decode_obj(o), [], 0
            for h, nat in zip(heads, head_nats):
                c = nat.components[X.power(h.source).encode_obj(objs[off:off + h.source])]
                out.extend(Y.power(h.target).decode_arr(c))
                off += h.source
            comps.append(Y.power(f.target).encode_arr(tuple(out)))
        v = par(heads)
        par_nat = FinNat(*self.boundary(X, Y, hom.f1, v, hom.weakness), tuple(comps))
        first = whisker_right(self.extend(hom, u), self.functor_of(Y, v))
        second = whisker_left(self.functor_of(X, u), par_nat)
        if hom.weakness == "colax":
            first, second = second, first
        return FinNat(outer_src, outer_tgt, vert_nat(first, second).components)


def extend_hom_cell(hom: LaxHom, f: Morphism) -> FinNat:
    """Canonical structure cell of a homomorphism at an arbitrary morphism."""
    X, Y = hom.source, hom.target
    cells = [hom.cell(g.name) for g in X.theory.base.generators]
    _, comps = HomCoherence(X, Y, hom.weakness, hom.f1).extension(f)
    return FinNat(*cell_boundary(X, Y, hom.f1, f, hom.weakness), comps(cells))


def structure_nat(hom: LaxHom, gen) -> FinNat:
    """A hom's structure cell at the generator ``gen``, between its boundary functors."""
    f = generator_morphism(gen)
    return FinNat(*cell_boundary(hom.source, hom.target, hom.f1, f, hom.weakness),
                  hom.cell(gen.name))


def tabulated_pasting(p, model) -> FinNat:
    """A pasting's components between its tabulated boundary functors."""
    return FinNat(model.functor_of(p.source()), model.functor_of(p.target()),
                  pasting_components(p, model))


def _models_by_theory():
    """The valid shipped cat models, grouped by theory (the mutant is left out)."""
    groups = []
    for model in shipped_models("fincat", "moncat"):
        if validate_cat_model(model):
            continue
        for group in groups:
            if group[0].theory == model.theory:
                group.append(model)
                break
        else:
            groups.append([model])
    return groups


def test_boundary_memo_matches_from_scratch_composition():
    scratch = FromScratch()
    homs = 0
    for models in _models_by_theory():
        base = models[0].theory.base
        morphisms = [side for eq in base.equations for side in (eq.lhs, eq.rhs)]
        morphisms += [side for cell in models[0].theory.cells
                      for side in (cell.source, cell.target)]
        for X in models:
            for Y in models:
                for weakness in WEAKNESSES:
                    try:
                        found = enumerate_homs_w(X, Y, weakness)
                    except EnumerationBound:
                        continue
                    for hom in found:
                        homs += 1
                        # An equal functor that is another object must hit too.
                        twin = FinFunctor(hom.f1.source, hom.f1.target,
                                          tuple(hom.f1.obj_map), tuple(hom.f1.arr_map))
                        for g in base.generators:
                            expected = scratch.boundary(X, Y, hom.f1,
                                                        generator_morphism(g), weakness)
                            for f1 in (hom.f1, twin, hom.f1):
                                assert cell_boundary(X, Y, f1, generator_morphism(g),
                                                     weakness) == expected
                        for f in morphisms:
                            assert extend_hom_cell(hom, f) == scratch.extend(hom, f)
    assert homs > 100


def test_boundary_memo_tells_equal_target_models_apart():
    X = fx.model("poset_meet")
    Y1 = fx.parse('import "t_comm_flat.law";').cat_model("graded_lines")
    Y2 = fx.parse('import "t_comm_flat.law";').cat_model("graded_lines")
    assert Y1 == Y2 and Y1 is not Y2
    f1 = enumerate_homs_w(X, Y1, "lax")[0].f1
    m = generator_morphism(X.theory.base.op("m"))
    for Y in (Y1, Y2, Y1, Y2):
        src, tgt = cell_boundary(X, Y, f1, m, "lax")
        # F^2 ; Y(m) ends in Y's own carrier power, so a hit stored for the
        # other, equal model would show here.
        assert src.target is Y.power(1).cat
        assert (src, tgt) == FromScratch().boundary(X, Y, f1, m, "lax")


# -- the indexed hom category against linear scans ----------------------------------------

def reference_compose_homs(f, g):
    """``f ; g`` with each cell the vertical composite of the two whiskered cells."""
    f1 = compose_functors(f.f1, g.f1)
    cells = []
    for gen in f.source.theory.base.generators:
        n = gen.arity
        fpow = functor_power(f.f1, n, f.source.power(n), f.target.power(n))
        steps = [whisker_left(fpow, structure_nat(g, gen)),
                 whisker_right(structure_nat(f, gen), g.f1)]
        if f.weakness == "colax":
            steps.reverse()
        cells.append((gen.name, vert_nat(*steps).components))
    return LaxHom(f.source, g.target, f.weakness, f1, tuple(cells))


def scan_index(items, item):
    for i, x in enumerate(items):
        if x == item:
            return i
    raise LookupError("not found by the scan")


def reference_build_hom_category(X, Y, weakness):
    """Every endpoint, identity and composite found by an equality scan."""
    homs = enumerate_homs_w(X, Y, weakness)
    arrows = [m for f in homs for g in homs for m in enumerate_modifications(f, g)]
    src = [scan_index(homs, m.source) for m in arrows]
    dst = [scan_index(homs, m.target) for m in arrows]
    identity = [scan_index(arrows, identity_modification(h)) for h in homs]
    comp = {}
    for i, m1 in enumerate(arrows):
        for j, m2 in enumerate(arrows):
            if m1.target == m2.source:
                comp[(i, j)] = scan_index(arrows, compose_modifications(m1, m2))
    return HomCategory(build_category(len(homs), src, dst, identity, comp),
                       tuple(homs), tuple(arrows))


def reference_internal_hom(X, Y, sigma, weakness):
    """Each arrow's endpoints rebuilt by tupling and composing homs, and every
    object and arrow found by an equality scan."""
    homcat = reference_build_hom_category(X, Y, weakness)
    theory2 = X.theory
    ops = []
    for gen in theory2.base.generators:
        n = gen.arity
        ypow_model = power_cat_model(Y, n)
        lifted = lift_hom(Y, sigma, generator_morphism(gen), weakness, ypow_model)
        hpow = power(homcat.cat, n)

        def image(homs):
            return reference_compose_homs(tuple_homs(homs, ypow_model, X, weakness), lifted)
        obj_map = [scan_index(homcat.objects,
                              image([homcat.objects[i] for i in hpow.decode_obj(o)]))
                   for o in range(hpow.n_objects)]
        arr_map = []
        for a in range(hpow.n_arrows):
            mods = [homcat.arrows[i] for i in hpow.decode_arr(a)]
            s, t = image([m.source for m in mods]), image([m.target for m in mods])
            comps = tuple(lifted.f1.arr_map[Y.power(n).encode_arr(
                tuple(m.components[x] for m in mods))]
                for x in range(X.carrier.n_objects))
            arr_map.append(scan_index(homcat.arrows, Modification(s, t, comps)))
        ops.append((gen.name, FinFunctor(hpow.cat, homcat.cat, tuple(obj_map), tuple(arr_map))))
    hommodel = CatModel(theory2, homcat.cat, tuple(ops))
    cell_tables = []
    for cellsym in theory2.cells:
        a = cellsym.source.source
        ycomps = pasting_components(Gen(cellsym), Y)
        hpow = power(homcat.cat, a)
        src_fun = hommodel.functor_of(cellsym.source)
        tgt_fun = hommodel.functor_of(cellsym.target)
        comps = []
        for o in range(hpow.n_objects):
            homs = [homcat.objects[i] for i in hpow.decode_obj(o)]
            s = homcat.objects[src_fun.obj_map[o]]
            t = homcat.objects[tgt_fun.obj_map[o]]
            mod_comps = tuple(ycomps[Y.power(a).encode_obj(
                tuple(h.f1.obj_map[x] for h in homs))] for x in range(X.carrier.n_objects))
            comps.append(scan_index(homcat.arrows, Modification(s, t, mod_comps)))
        cell_tables.append((cellsym.name, tuple(comps)))
    return CatModel(theory2, homcat.cat, tuple(ops), tuple(cell_tables)), homcat


def assert_indexed(homcat):
    """Objects are pairwise distinct, and every lookup finds its own index."""
    assert len(set(map(catmodels._object_key, homcat.objects))) == len(homcat.objects)
    for i, h in enumerate(homcat.objects):
        assert homcat.object_index(h) == i
    for i, m in enumerate(homcat.arrows):
        assert homcat.arrow_index(m) == i


@pytest.mark.parametrize("sigma_name, names, refused", [
    # A strict lift whose exchange cell is not an identity is no strict hom,
    # so the images it makes are no objects: both sides refuse.
    ("sigma_comm_flat", ("poset_meet", "poset_join", "graded_lines"),
     [("graded_lines", "graded_lines", "strict")]),
    ("sigma_inv", ("scalar_involution", "poset_involution"), []),
    ("sigma_pointed_flat", ("pointed_poset",), []),
    ("sigma_gl", ("gl2_action",), [("gl2_action", "gl2_action", "strict")]),
])
def test_internal_hom_matches_linear_scan_reference(sigma_name, names, refused):
    sigma = fx.sigma(sigma_name)
    term = terminal_model(fx.model(names[0]).theory)
    found = []
    for x in ("terminal",) + names:
        for y in names:
            X, Y = (term if x == "terminal" else fx.model(x)), fx.model(y)
            for weakness in WEAKNESSES:
                try:
                    expected_model, expected = reference_internal_hom(X, Y, sigma, weakness)
                except LookupError:
                    # An image that is not an object is refused on both sides.
                    assert internal_hom(X, Y, sigma, weakness) == \
                        "hom is not an object of this category"
                    found.append((x, y, weakness))
                    continue
                hom_model, homcat = internal_hom(X, Y, sigma, weakness)
                assert (homcat.cat, homcat.objects, homcat.arrows) == \
                    (expected.cat, expected.objects, expected.arrows)
                assert hom_model == expected_model
                assert_indexed(homcat)
    assert found == refused


def test_internal_algebras_match_linear_scan_reference():
    checked = 0
    for model in shipped_models("fincat", "moncat"):
        term = terminal_model(model.theory)
        for build, weakness in ((internal_algebras, "lax"), (internal_coalgebras, "colax")):
            try:
                expected = reference_build_hom_category(term, model, weakness)
            except EnumerationBound:
                continue
            homcat = build(model)
            assert (homcat.cat, homcat.objects, homcat.arrows) == \
                (expected.cat, expected.objects, expected.arrows)
            assert_indexed(homcat)
            checked += 1
    assert checked > 10


def test_hom_category_lookups_confirm_their_hits():
    X = fx.model("poset_meet")
    homcat = build_hom_category(X, X, "lax")
    h, m = homcat.objects[0], homcat.arrows[0]
    # The same tables with another weakness: the key hits, the check refuses.
    # A find gives None; an index, which expects a hit, raises.
    strangers = [(homcat.find_object, homcat.object_index, "not an object",
                  h._replace(weakness="colax")),
                 (homcat.find_object, homcat.object_index, "not an object",
                  h._replace(cells=h.cells[::-1])),
                 (homcat.find_arrow, homcat.arrow_index, "not an arrow",
                  m._replace(components=(99,))),
                 (homcat.find_arrow, homcat.arrow_index, "not an arrow",
                  m._replace(source=h._replace(weakness="colax")))]
    for find, index, message, stranger in strangers:
        assert find(stranger) is None
        with pytest.raises(LookupError, match=message):
            index(stranger)

    # Objects that differ only in the arrow map, or only in a cell, are told apart.
    f1 = replace(h.f1, arr_map=h.f1.arr_map[::-1])
    cell = h.cells[0][1][::-1]
    for twin in (h._replace(f1=f1), h._replace(cells=((h.cells[0][0], cell),) + h.cells[1:])):
        assert twin != h
        pair = HomCategory(discrete_category(2), (h, twin), ())
        assert (pair.object_index(h), pair.object_index(twin)) == (0, 1)


def test_compose_homs_matches_whiskered_reference():
    composed = 0
    for models in _models_by_theory():
        for X in models:
            for Y in models:
                for weakness in ("lax", "colax"):
                    try:
                        homs = enumerate_homs_w(X, Y, weakness)
                        ends = enumerate_homs_w(Y, Y, weakness)
                    except EnumerationBound:
                        continue
                    for f in homs[:8]:
                        for g in ends[:8]:
                            assert compose_homs(f, g) == reference_compose_homs(f, g)
                            composed += 1
    assert composed > 100


def test_internal_hom_composes_homs_once_per_power_object(monkeypatch):
    calls = []

    def counted(f, g):
        calls.append(1)
        return compose_homs(f, g)

    monkeypatch.setattr(catmodels, "compose_homs", counted)
    Y = fx.model("graded_lines")
    hom_model, homcat = internal_hom(Y, Y, fx.sigma("sigma_comm_flat"), "lax")
    per_power = sum(homcat.cat.n_objects ** g.arity for g in Y.theory.base.generators)
    assert homcat.cat.n_objects == 8 and per_power == 64 + 1
    assert len(calls) <= per_power


# -- the pruned hom search against product-then-validate --------------------------------

def reference_validate_lax_hom(hom, scratch):
    """Every check on the whole hom, each extended cell a vertical composite of
    whiskered cells (``FromScratch.extend``)."""
    problems = []
    X, Y = hom.source, hom.target
    if validate_functor(hom.f1) is not None:
        return [ModelViolation("hom-functor", "underlying map")]
    for g in X.theory.base.generators:
        src, tgt = scratch.boundary(X, Y, hom.f1, generator_morphism(g), hom.weakness)
        nat = FinNat(src, tgt, hom.cell(g.name))
        if validate_nat(nat) is not None:
            problems.append(ModelViolation("hom-cell-naturality", g.name))
        if hom.weakness == "strict" and src != tgt:
            problems.append(ModelViolation("hom-not-strict", g.name))
        if hom.weakness in ("strict", "pseudo"):
            if any(Y.carrier.inverse(c) is None for c in nat.components):
                problems.append(ModelViolation("hom-cell-invertibility", g.name))
        if hom.weakness == "strict" and \
           any(not Y.carrier.is_identity(c) for c in nat.components):
            problems.append(ModelViolation("hom-strict-cells", g.name))
    if problems:
        return problems
    for eq in X.theory.base.equations:
        if scratch.extend(hom, eq.lhs) != scratch.extend(hom, eq.rhs):
            problems.append(ModelViolation("hom-equation", eq.name))
    for cell in X.theory.cells:
        a, b = cell.source.source, cell.source.target
        xs = tabulated_pasting(Gen(cell), X)
        ys = tabulated_pasting(Gen(cell), Y)
        fpow_a = functor_power(hom.f1, a, X.power(a), Y.power(a))
        fpow_b = functor_power(hom.f1, b, X.power(b), Y.power(b))
        if hom.weakness == "colax":
            lhs = vert_nat(whisker_right(xs, fpow_b), scratch.extend(hom, cell.target))
            rhs = vert_nat(scratch.extend(hom, cell.source), whisker_left(fpow_a, ys))
        else:
            lhs = vert_nat(scratch.extend(hom, cell.source), whisker_right(xs, fpow_b))
            rhs = vert_nat(whisker_left(fpow_a, ys), scratch.extend(hom, cell.target))
        if lhs != rhs:
            problems.append(ModelViolation("hom-cell-compat", cell.name))
    return problems


def reference_candidates(X, Y, weakness):
    """Every full assignment of candidate cells, functor by functor, in product
    order, with the bound checked as the hom search checks it."""
    bound = catmodels.HOM_ENUMERATION_BOUND
    out = []
    for f1 in enumerate_functors(X.carrier, Y.carrier):
        per_gen = []
        total = 1
        for g in X.theory.base.generators:
            src, tgt = cell_boundary(X, Y, f1, generator_morphism(g), weakness)
            if weakness == "strict":
                if src != tgt:
                    break
                per_gen.append([identity_components(src)])
                continue
            nats = [n.components for n in enumerate_naturals(src, tgt)]
            if weakness == "pseudo":
                nats = [n for n in nats if all(Y.carrier.inverse(c) is not None for c in n)]
            if not nats:
                break
            per_gen.append(nats)
            total *= len(nats)
            if total > bound:
                raise EnumerationBound(
                    f"{total} candidate structure-cell assignments exceed bound {bound}")
        else:
            names = [g.name for g in X.theory.base.generators]
            out += [LaxHom(X, Y, weakness, f1, tuple(zip(names, picks)))
                    for picks in itertools.product(*per_gen)]
    return out


def _variants(hom):
    """The hom under every weakness, and with one component of one cell
    swapped for another arrow between its endpoints."""
    yield from (hom._replace(weakness=w) for w in WEAKNESSES)
    carrier = hom.target.carrier
    for i, (name, table) in enumerate(hom.cells):
        for o, c in enumerate(table):
            for alt in carrier.hom(carrier.src[c], carrier.dst[c]):
                if alt != c:
                    cells = list(hom.cells)
                    cells[i] = (name, table[:o] + (alt,) + table[o + 1:])
                    yield hom._replace(cells=tuple(cells))


def test_pruned_hom_search_matches_product_reference():
    scratch = FromScratch()
    kinds = Counter()
    searched = refused = 0
    for models in _models_by_theory():
        for X in [terminal_model(models[0].theory)] + models:
            for Y in models:
                for weakness in WEAKNESSES:
                    try:
                        candidates = reference_candidates(X, Y, weakness)
                    except EnumerationBound as e:
                        with pytest.raises(EnumerationBound) as got:
                            enumerate_homs_w(X, Y, weakness)
                        assert str(got.value) == str(e)
                        refused += 1
                        continue
                    verdicts = [reference_validate_lax_hom(c, scratch) for c in candidates]
                    expected = [c for c, v in zip(candidates, verdicts) if not v]
                    assert enumerate_homs_w(X, Y, weakness) == expected
                    searched += 1
                    for c, v in zip(candidates, verdicts):
                        assert validate_lax_hom(c) == v
                        kinds.update(p.kind for p in v)
                    for c in candidates[:2]:
                        for variant in _variants(c):
                            v = reference_validate_lax_hom(variant, scratch)
                            assert validate_lax_hom(variant) == v
                            kinds.update(p.kind for p in v)
    assert searched > 100 and refused > 0
    # Every violation kind but an invalid underlying functor showed up.
    assert set(kinds) == {"hom-cell-naturality", "hom-not-strict", "hom-cell-invertibility",
                          "hom-strict-cells", "hom-equation", "hom-cell-compat"}


def test_hom_search_checks_coherence_on_components(monkeypatch):
    """Neither the hom search nor the hom category whiskers: hom coherence and
    modifications are both checked on components."""
    for module in (catmodels, fincat):
        assert not hasattr(module, "whisker_left") and not hasattr(module, "whisker_right")
    calls = Counter()
    for name in ("compose_modifications", "validate_lax_hom"):
        def counted(*args, _name=name, _f=getattr(catmodels, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(catmodels, name, counted)
    Y = fx.model("graded_lines")
    homs = enumerate_homs_w(Y, Y, "lax")
    assert len(homs) == 8
    assert calls == Counter()
    homcat = build_hom_category(Y, Y, "lax")
    cat = homcat.cat
    # Modifications are composed once per composable pair.
    composable = sum(cat.dst[a] == cat.src[b] for a in cat.arrows() for b in cat.arrows())
    assert composable > 0 and calls == Counter({"compose_modifications": composable})


# -- modifications on components against the whiskered check ----------------------------

def reference_validate_modification(mod):
    """Each generator's square as an equation of vertical composites of
    whiskered transformations."""
    f, g = mod.source, mod.target
    problems = []
    if f.source != g.source or f.target != g.target or f.weakness != g.weakness:
        return [ModelViolation("modification-boundary", "homs not parallel")]
    X, Y = f.source, f.target
    t = FinNat(f.f1, g.f1, mod.components)
    if validate_nat(t) is not None:
        problems.append(ModelViolation("modification-naturality", ""))
        # Components off f1(o) -> g1(o) form no squares.
        if any((Y.carrier.src[c], Y.carrier.dst[c]) != ends
               for c, ends in zip(t.components, zip(f.f1.obj_map, g.f1.obj_map))):
            return problems
    for gen in X.theory.base.generators:
        n = gen.arity
        tpow_comps = []
        for o in range(X.power(n).n_objects):
            objs = X.power(n).decode_obj(o)
            tpow_comps.append(Y.power(n).encode_arr(
                tuple(t.components[p] for p in objs)))
        fpow = functor_power(f.f1, n, X.power(n), Y.power(n))
        gpow = functor_power(g.f1, n, X.power(n), Y.power(n))
        tpow = FinNat(fpow, gpow, tuple(tpow_comps))
        op = X.functor_of(generator_morphism(gen))
        yop = Y.functor_of(generator_morphism(gen))
        f_cell, g_cell = structure_nat(f, gen), structure_nat(g, gen)
        if f.weakness == "colax":
            lhs = vert_nat(f_cell, whisker_right(tpow, yop))
            rhs = vert_nat(whisker_left(op, t), g_cell)
        else:
            lhs = vert_nat(whisker_right(tpow, yop), g_cell)
            rhs = vert_nat(f_cell, whisker_left(op, t))
        if lhs != rhs:
            problems.append(ModelViolation("modification-structure", gen.name))
    return problems


def _modification_candidates(f, g):
    """A candidate for every table of arrows ``f1(o) -> g1(o)``, natural or
    not; then the first table between non-parallel homs, and between the
    homs the other way round."""
    carrier = f.target.carrier
    homsets = [carrier.hom(a, b) for a, b in zip(f.f1.obj_map, g.f1.obj_map)]
    mods = [Modification(f, g, comps) for comps in itertools.product(*homsets)]
    if mods:
        other = "colax" if f.weakness == "lax" else "lax"
        mods += [Modification(f, g._replace(weakness=other), mods[0].components),
                 Modification(g, f, mods[0].components)]
    return mods


def test_modification_check_matches_whiskered_reference():
    kinds = Counter()
    checked = 0
    for models in _models_by_theory():
        for X in [terminal_model(models[0].theory)] + models:
            for Y in models:
                for weakness in WEAKNESSES:
                    try:
                        homs = enumerate_homs_w(X, Y, weakness)
                    except EnumerationBound:
                        continue
                    for f, g in itertools.product(homs, repeat=2):
                        for mod in _modification_candidates(f, g):
                            v = reference_validate_modification(mod)
                            assert validate_modification(mod) == v
                            kinds.update(p.kind for p in v)
                            checked += 1
    assert checked > 3000
    assert set(kinds) == {"modification-boundary", "modification-naturality",
                          "modification-structure"}


# Z/3 with an operation that kills every arrow, so inv(inv(x1)) = x1 fails on
# arrows and the two sides of the equation have different boundaries.
BROKEN_INVOLUTION = """
import "t_inv.law";
model collapsing_involution of t_inv in fincat {
  objects 1;
  arrow a : 0 -> 0;
  arrow b : 0 -> 0;
  compose { a then a = b; a then b = id0; b then a = id0; b then b = a; }
  functor inv { obj [0]; arr [0, 0, 0]; }
  nat iota = [0];
}
"""


def test_equation_sides_with_unequal_boundaries_fail_the_equation():
    # The lookup refuses the model; the homs are checked on it as elaborated.
    doc = fx.parse(BROKEN_INVOLUTION)
    with pytest.raises(dsl.ModelViolation) as refused:
        doc.cat_model("collapsing_involution")
    assert ModelViolation("equation", "invol") in refused.value.problems
    decl = doc.model_decl("collapsing_involution")
    X = dsl._elaborate_fincat(doc.theory(decl.theory), decl.payload)
    scratch = FromScratch()
    failed = 0
    for weakness in WEAKNESSES:
        candidates = reference_candidates(X, X, weakness)
        verdicts = [reference_validate_lax_hom(c, scratch) for c in candidates]
        for c, v in zip(candidates, verdicts):
            assert validate_lax_hom(c) == v
            failed += ModelViolation("hom-equation", "invol") in v
        assert enumerate_homs_w(X, X, weakness) == \
            [c for c, v in zip(candidates, verdicts) if not v]
    # Over a functor that keeps an arrow, the sides' boundaries differ.
    assert failed >= 4


# -- validate_cat_model against the tabulating validator it replaced ----------------------

NEGATING_INVOLUTION = """
import "t_inv.law";
model negation_z3 of t_inv in moncat {
  grading 1; scalars 3;
  functor inv { obj [0]; arr [0, 2, 1]; }
  nat iota = [0];
}
"""


def reference_validate_cat_model(model):
    """Every op functor scanned over all pairs of arrows of its source power,
    and every equation, cell and cell equation compared on tabulated functors
    over the whole power: the reference for ``validate_cat_model``."""
    problems = []
    base = model.theory.base
    for g in base.generators:
        fun = model.op_functor(g.name)
        if fun.source != model.power(g.arity).cat or fun.target != model.carrier:
            problems.append(ModelViolation("op-shape", g.name))
        elif reference_validate_functor(fun) is not None:
            problems.append(ModelViolation("op-functor", g.name))
    functors = not problems  # a cell's boundaries are functors
    for eq in base.equations:
        if model.functor_of(eq.lhs) != model.functor_of(eq.rhs):
            problems.append(ModelViolation("equation", eq.name))
    for cell in model.theory.cells:
        try:
            nat = FinNat(model.functor_of(cell.source), model.functor_of(cell.target),
                         model.cell(cell.name))
        except InputError:
            problems.append(ModelViolation("missing-cell", cell.name))
            continue
        if functors and validate_nat(nat) is not None:
            problems.append(ModelViolation("cell-naturality", cell.name))
        if cell.invertible and any(model.carrier.inverse(c) is None for c in nat.components):
            problems.append(ModelViolation("cell-invertibility", cell.name))
    if problems:
        return problems
    for name, lhs, rhs in model.theory.cell_equations:
        if tabulated_pasting(lhs, model) != tabulated_pasting(rhs, model):
            problems.append(ModelViolation("cell-equation", name))
    return problems


def _fresh(model, **changes):
    """A copy of ``model`` with empty memos and the given fields replaced."""
    fields = {name: getattr(model, name)
              for name in ("theory", "carrier", "op_functors", "cell_tables")}
    return CatModel(**{**fields, **changes})


def _corruptions(model, rng):
    """Seeded one-entry corruptions of ``model``: an op functor's arrow,
    a cell's component, and an equation's or a cell equation's side."""
    out = []
    if model.carrier.n_arrows > 1:
        i = rng.randrange(len(model.op_functors))
        name, fun = model.op_functors[i]
        a = rng.randrange(len(fun.arr_map))
        wrong = rng.choice([f for f in model.carrier.arrows() if f != fun.arr_map[a]])
        arr_map = fun.arr_map[:a] + (wrong,) + fun.arr_map[a + 1:]
        ops = list(model.op_functors)
        ops[i] = (name, replace(fun, arr_map=arr_map))
        out.append(_fresh(model, op_functors=tuple(ops)))
        if model.cell_tables:
            i = rng.randrange(len(model.cell_tables))
            name, table = model.cell_tables[i]
            o = rng.randrange(len(table))
            wrong = rng.choice([f for f in model.carrier.arrows() if f != table[o]])
            cells = list(model.cell_tables)
            cells[i] = (name, table[:o] + (wrong,) + table[o + 1:])
            out.append(_fresh(model, cell_tables=tuple(cells)))
    theory2 = model.theory
    base = theory2.base
    if base.equations:
        # One equation's right side with its variables read in reverse, and
        # one equation's left side replaced by its first variable.
        i = rng.randrange(len(base.equations))
        eq = base.equations[i]
        n = eq.rhs.source
        reverse = Morphism(n, n, tuple(Proj(n - 1 - j, n) for j in range(n)))
        for changed in (replace(eq, rhs=compose(reverse, eq.rhs)),
                        replace(eq, lhs=Morphism(n, 1, (Proj(0, n),))) if n else eq):
            equations = list(base.equations)
            equations[i] = changed
            out.append(_fresh(model, theory=theory2._replace(
                base=replace(base, equations=tuple(equations)))))
    if len(theory2.cell_equations) > 1:
        # Two cell equations trade their left sides.
        i, j = rng.sample(range(len(theory2.cell_equations)), 2)
        eqs = list(theory2.cell_equations)
        (ni, li, ri), (nj, lj, rj) = eqs[i], eqs[j]
        eqs[i], eqs[j] = (ni, lj, ri), (nj, li, rj)
        out.append(_fresh(model, theory=theory2._replace(cell_equations=tuple(eqs))))
    return out


def _violations_or_error(validate, model):
    try:
        return validate(model)
    except Exception as e:
        return type(e)


def test_validate_cat_model_matches_the_tabulating_reference():
    rng = random.Random(16)
    models = shipped_models("fincat", "moncat")
    assert fx.model("graded_lines_mutant") in models
    flat = [fx.model(name) for name in ("poset_meet", "poset_join", "graded_lines")]
    homs = [internal_hom(x, y, fx.sigma("sigma_comm_flat"), "lax")[0] for x in flat for y in flat]
    # Sides whose components agree at every object, on functors that differ
    # at an arrow: the involution negates the scalars of Z/3.
    negation = fx.parse(NEGATING_INVOLUTION).cat_model("negation_z3")
    inv = generator_morphism(negation.theory.base.op("inv"))
    negation = _fresh(negation, theory=negation.theory._replace(cell_equations=(
        *negation.theory.cell_equations, ("inv_is_id", Id(inv), Id(Morphism(1, 1, (Proj(0, 1),)))))))
    assert ModelViolation("cell-equation", "inv_is_id") in validate_cat_model(negation)
    cases = [*models, *homs, negation]
    for model in models:
        for _ in range(3):
            cases += _corruptions(model, rng)
    # On the larger hom models the sides are compared at one-variable arrows.
    for model in homs:
        cases += _corruptions(model, rng)
    kinds = Counter()
    for model in cases:
        want = _violations_or_error(reference_validate_cat_model, _fresh(model))
        got = _violations_or_error(validate_cat_model, _fresh(model))
        assert got == want, model.carrier
        kinds.update([v.kind for v in want] if isinstance(want, list) else [want.__name__])
        kinds["valid"] += want == []
    assert {"valid", "op-functor", "equation", "cell-naturality",
            "cell-invertibility", "cell-equation"} <= set(kinds), kinds
    # Cell equations are evaluated only on models that passed every other check.
    assert "ValueError" not in kinds, kinds


def test_validating_the_graded_hom_model_composes_no_power_arrows(monkeypatch):
    model = fx.model("graded_lines")
    hom_model, _ = internal_hom(model, model, fx.sigma("sigma_comm_flat"), "lax")
    calls = Counter()
    then_arr = fincat.ProductCategory.then_arr

    def counted(self, f, g):
        calls["then_arr"] += 1
        return then_arr(self, f, g)

    monkeypatch.setattr(fincat.ProductCategory, "then_arr", counted)
    assert validate_cat_model(_fresh(hom_model)) == []
    assert calls["then_arr"] == 0
    # The tabulating validator composes every composable pair of H^2.
    assert reference_validate_cat_model(_fresh(hom_model)) == []
    assert calls["then_arr"] == 14_400


def _twisted_model():
    """A t_ass_flat model on Z/2-graded Z/3-lines whose tensor scales its
    second argument's scalar by 1 or 2 by its grade: a functor, associative
    on objects, not on arrows, and how it fails depends on the grades of
    the variables that do not move."""
    theory2 = fx.theory("t_ass_flat")
    carrier = fincat.graded_scalar_category(2, 3)
    sq = power(carrier, 2)
    scale = (1, 2)
    obj_map = tuple((x + y) % 2 for x, y in map(sq.decode_obj, range(sq.n_objects)))
    arr_map = tuple(((f // 3 + g // 3) % 2) * 3 + (f % 3 + scale[g // 3] * (g % 3)) % 3
                    for f, g in map(sq.decode_arr, range(sq.n_arrows)))
    ops = (("m", FinFunctor(sq.cat, carrier, obj_map, arr_map)),
           ("u", FinFunctor(power(carrier, 0).cat, carrier, (0,), (0,))))
    return CatModel(theory2, carrier, ops)


def test_functors_agree_matches_tabulated_functors():
    """On every pair of a seeded set of four-variable words, with valid op
    functors (compared at one-variable arrows) and with a broken one
    (compared at every arrow), ``functors_agree`` is the equality of the
    tabulated functors."""
    rng = random.Random(4)
    model = _twisted_model()
    m, u = model.theory.base.op("m"), model.theory.base.op("u")

    def word(leaves):
        if len(leaves) == 1:
            return leaves[0]
        i = rng.randrange(1, len(leaves))
        return Apply(m, (word(leaves[:i]), word(leaves[i:])), 4)

    variables = [Proj(i, 4) for i in range(4)]
    words = [Morphism(4, 1, (word(rng.sample(variables, 4) + [Apply(u, (), 4)] * rng.randrange(2)),))
             for _ in range(12)]
    # The tensor of two scalars 1 at grade 0 made 0: no one-variable arrow reads it.
    name, fun = model.op_functors[0]
    at = power(model.carrier, 2).encode_arr((1, 1))
    broken = _fresh(model, op_functors=(
        (name, replace(fun, arr_map=fun.arr_map[:at] + (0,) + fun.arr_map[at + 1:])),
        model.op_functors[1]))
    outcomes = Counter()
    for current in (model, broken):
        for f, g in itertools.product(words, repeat=2):
            fresh = _fresh(current)
            got = fresh.functors_agree(f, g)
            assert got == (current.functor_of(f) == current.functor_of(g)), (f, g)
            outcomes[current is model, got] += 1
    assert set(outcomes) == {(True, True), (True, False), (False, True), (False, False)}
    assert not model.op_problems and broken.op_problems
