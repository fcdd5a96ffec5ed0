import io
import random
from collections import Counter
from functools import cache

import pytest

import fixtures as fx
from fixtures import shipped_models
from lawkit import cells, dsl
from lawkit.cells import (
    Distinguished,
    Gen,
    HWhiskerL,
    Id,
    Inverse,
    HWhiskerR,
    Par,
    Pasting,
    PowerL,
    PowerR,
    SigmaTable,
    Vert,
    check_sigma_coherence,
    derive_sigma,
    derived_associativity_check,
    boundaries_agree,
    gray2_column_instance,
    gray2_row_instance,
    is_identity_pasting,
    is_invertible_pasting,
    pasting_components,
    pastings_equal,
    simplify_pasting,
    transpose_conjugate,
    validate_pasting,
    yang_baxter_check,
)
from lawkit.theory import (
    Apply,
    InputError,
    Morphism,
    Proj,
    TheoryError,
    TheoryPresentation,
    TwoCellSymbol,
    TwoTheoryPresentation,
    compose,
    generator_morphism,
    identity,
    par,
    power_left,
    power_right,
)
from references import proj_morphism


def test_pasting_boundaries():
    c = fx.theory("t_comm_flat").cells[0]
    p = Gen(c)
    assert p.source() == c.source and p.target() == c.target
    assert Inverse(p).source() == c.target
    w = HWhiskerL(proj_morphism(0, 2), Id(identity(1)))
    assert w.source() == proj_morphism(0, 2)


def test_evaluate_identity_pasting():
    model = fx.model("poset_meet")
    m = generator_morphism(fx.theory("t_comm_flat").base.op("m"))
    comps = pasting_components(Id(m), model)
    assert all(model.carrier.is_identity(c) for c in comps)


def test_braiding_evaluates_to_signs():
    model = fx.model("graded_lines")
    comps = pasting_components(Gen(fx.theory("t_comm_flat").cells[0]), model)
    # component at objects (x, y) is the scalar with exponent x*y at x+y
    sq = model.power(2)
    for o in range(sq.n_objects):
        x, y = sq.decode_obj(o)
        assert comps[o] == ((x + y) % 2) * 2 + (x * y) % 2


def test_inert_exchange_is_identity():
    m = generator_morphism(fx.theory("t_comm_flat").base.op("m"))
    ins = Morphism(2, 2, (Proj(1, 2), Proj(0, 2)))
    cell = derive_sigma(fx.theory("t_comm_flat"), fx.sigma("sigma_comm_flat"), ins, m)
    assert is_identity_pasting(simplify_pasting(cell))
    cell = derive_sigma(fx.theory("t_comm_flat"), fx.sigma("sigma_comm_flat"), m, ins)
    assert is_identity_pasting(simplify_pasting(cell))


def test_pastings_equal_reflexivity():
    p = Gen(fx.theory("t_comm_flat").cells[0])
    assert pastings_equal(p, p, []) is None


def test_braid_sides_distinguished():
    theory2 = fx.theory("t_braid")
    b = Gen(theory2.cells[0])
    m = generator_morphism(theory2.base.op("m"))
    lhs, rhs = gray2_column_instance(theory2, fx.sigma("sigma_braid"), b, m)
    verdict = pastings_equal(lhs, rhs, [fx.model("graded_lines_z3")])
    assert isinstance(verdict, Distinguished)


def test_inv_gray2_equal_on_probes():
    theory2 = fx.theory("t_inv")
    iota = Gen(theory2.cells[0])
    inv = generator_morphism(theory2.base.op("inv"))
    lhs, rhs = gray2_column_instance(theory2, fx.sigma("sigma_inv"), iota, inv)
    assert pastings_equal(lhs, rhs, [fx.model("scalar_involution")]) is None


def test_sigma_coherence_fixtures():
    assert check_sigma_coherence(
        fx.theory("t_inv"), fx.sigma("sigma_inv"),
        [fx.model("scalar_involution"), fx.model("poset_involution")]).verdict == "Coherent"
    assert check_sigma_coherence(
        fx.theory("t_comm_flat"), fx.sigma("sigma_comm_flat"),
        [fx.model("poset_meet"), fx.model("graded_lines")]).verdict == "Coherent"
    report = check_sigma_coherence(fx.theory("t_braid"), fx.sigma("sigma_braid"),
                                   [fx.model("graded_lines_z3")])
    assert report.verdict == "Incoherent"
    assert any(i.check == "gray2-vertical" for i in report.issues)


def test_sigma_coherence_empty_basis():
    empty = TwoTheoryPresentation(TheoryPresentation("skeleton", (), ()))
    table = SigmaTable("empty", "strict", ())
    report = check_sigma_coherence(empty, table, [])
    assert report.verdict == "Coherent"


def test_strictness_flags():
    bad = SigmaTable("bad", "strict", ((("m", "m"), Gen(fx.theory("t_comm_flat").cells[0])),))
    report = check_sigma_coherence(fx.theory("t_comm_flat"), bad, [fx.model("poset_meet")])
    assert any(i.check == "strict-entry" for i in report.issues)


def test_derived_associativity():
    assert derived_associativity_check(
        fx.theory("t_inv"), fx.sigma("sigma_inv"),
        [fx.model("scalar_involution")]).verdict == "Coherent"
    assert derived_associativity_check(
        fx.theory("t_gl2"), fx.sigma("sigma_gl"),
        [fx.model("gl2_action")]).verdict == "Coherent"
    assert derived_associativity_check(
        fx.theory("t_comm_flat"), fx.sigma("sigma_comm_flat"),
        [fx.model("poset_meet"), fx.model("graded_lines")]).verdict == "Coherent"


def test_yang_baxter():
    assert yang_baxter_check(fx.model("graded_lines"), "m", "c").verdict == "Holds"
    assert yang_baxter_check(fx.model("graded_lines"), "m", "c").triples_checked == 8
    assert yang_baxter_check(fx.model("graded_lines_z3"), "m", "b").verdict == "Holds"
    report = yang_baxter_check(fx.model("graded_lines_mutant"), "m", "c")
    assert report.verdict == "Fails"
    assert ("hexagon-left", (1, 1, 1)) in [(i.check, i.triple) for i in report.issues]


def test_swap_braiding_on_cartesian_model():
    # the poset symmetry is an identity braiding: trivially a symmetry
    assert yang_baxter_check(fx.model("poset_meet"), "m", "c").verdict == "Holds"


def test_symmetry_roundtrip_built_in_coherence():
    report = check_sigma_coherence(fx.theory("t_comm_flat"), fx.sigma("sigma_comm_flat"),
                                   [fx.model("graded_lines")])
    assert report.verdict == "Coherent"
    asym = SigmaTable(fx.sigma("sigma_braid").name, "pseudo", fx.sigma("sigma_braid").entries,
                      symmetric=True)
    report = check_sigma_coherence(fx.theory("t_braid"), asym, [fx.model("graded_lines_z3")])
    assert any(i.check == "symmetry" for i in report.issues)


def test_vertical_composition_respected_by_evaluation():
    model = fx.model("graded_lines")
    c = Gen(fx.theory("t_comm_flat").cells[0])
    double = Vert(c, Inverse(c))
    comps = pasting_components(double, model)
    assert all(model.carrier.is_identity(x) for x in comps)


def test_par_evaluation_blocks():
    model = fx.model("graded_lines")
    c = Gen(fx.theory("t_comm_flat").cells[0])
    p = Par((Id(identity(1)), c))
    comps = pasting_components(p, model)
    dom = model.power(3)
    cod = model.power(2)
    for o in range(dom.n_objects):
        a, x, y = dom.decode_obj(o)
        ia, cc = cod.decode_arr(comps[o])
        assert model.carrier.is_identity(ia)
        assert cc == ((x + y) % 2) * 2 + (x * y) % 2


def test_power_evaluation_rows_and_columns():
    model = fx.model("graded_lines")
    c = Gen(fx.theory("t_comm_flat").cells[0])
    rows = pasting_components(PowerL(2, c), model)
    cols = pasting_components(PowerR(c, 2), model)
    dom = model.power(4)
    for o in range(dom.n_objects):
        objs = dom.decode_obj(o)
        r = model.power(2).decode_arr(rows[o])
        assert r[0] % 2 == (objs[0] * objs[1]) % 2
        assert r[1] % 2 == (objs[2] * objs[3]) % 2
        col = model.power(2).decode_arr(cols[o])
        assert col[0] % 2 == (objs[0] * objs[2]) % 2
        assert col[1] % 2 == (objs[1] * objs[3]) % 2


def test_evaluation_respects_vertical_composition():
    model = fx.model("graded_lines")
    c = Gen(fx.theory("t_comm_flat").cells[0])
    inv_c = Inverse(c)
    whole = pasting_components(Vert(c, inv_c), model)
    a = pasting_components(c, model)
    b = pasting_components(inv_c, model)
    cod = model.power(1)
    for o, (x, y) in enumerate(zip(a, b)):
        assert whole[o] == model.carrier.then(x, y)


def test_evaluation_interchange_of_whisker_and_vert():
    model = fx.model("graded_lines")
    c = Gen(fx.theory("t_comm_flat").cells[0])
    swap = Morphism(2, 2, (Proj(1, 2), Proj(0, 2)))
    lhs = pasting_components(HWhiskerL(swap, Vert(c, Inverse(c))), model)
    rhs = pasting_components(Vert(HWhiskerL(swap, c),
                                  HWhiskerL(swap, Inverse(c))), model)
    assert lhs == rhs


def test_coherence_refutes_twisted_exchange_scalar():
    # flipping the exchange scalar at one object keeps the model valid but
    # destroys the exchange property; the probe-relative checks catch it
    from lawkit.catmodels import CatModel, validate_cat_model
    base = fx.model("gl2_action")
    assert base.cell("c11") != (1, 2)
    mutant = CatModel(fx.theory("t_gl2"), base.carrier, base.op_functors, (("c11", (1, 2)),))
    assert validate_cat_model(mutant) == []
    report = check_sigma_coherence(fx.theory("t_gl2"), fx.sigma("sigma_gl"), [mutant])
    assert report.verdict == "Incoherent"
    assert any(i.check.startswith("gray2") for i in report.issues)


def test_row_slot_closure_matches_hand_computation():
    # exchange of the multiplication with the stack <m(x1,x2), x3>: the first
    # slot re-sorts (a+b)+(d+e) into (a+d)+(b+e), crossing b past d; the
    # second slot is an identity at c+f
    from lawkit.theory import Apply
    M = fx.theory("t_comm_flat").base.op("m")
    m = generator_morphism(M)
    g = Morphism(3, 2, (Apply(M, (Proj(0, 3), Proj(1, 3)), 3), Proj(2, 3)))
    cell = derive_sigma(fx.theory("t_comm_flat"), fx.sigma("sigma_comm_flat"), m, g)
    model = fx.model("graded_lines")
    comps = pasting_components(cell, model)
    dom = model.power(6)
    cod = model.power(2)
    for o in range(dom.n_objects):
        a, b, c, d, e, f = dom.decode_obj(o)
        s1, s2 = cod.decode_arr(comps[o])
        assert s1 == ((a + b + d + e) % 2) * 2 + (b * d) % 2
        assert s2 == ((c + f) % 2) * 2


def test_validate_pasting():
    from lawkit.cells import validate_pasting
    c = Gen(fx.theory("t_comm_flat").cells[0])
    assert validate_pasting(fx.theory("t_comm_flat"), Vert(c, Inverse(c))) == []
    m = generator_morphism(fx.theory("t_comm_flat").base.op("m"))
    bad = Vert(c, Id(m))  # target of c is m∘swap, not joinable with plain m? it is:
    # in this presentation m∘swap and m do not rewrite together, so the
    # boundary check must flag the composite
    issues = validate_pasting(fx.theory("t_comm_flat"), bad)
    assert issues and "boundaries" in issues[0]
    noninv = TwoCellSymbol("t", m, m, invertible=False)
    assert validate_pasting(fx.theory("t_comm_flat"), Inverse(Gen(noninv))) != []
    # The root's boundaries are c's, but the inner whisker's do not compose.
    nested = Vert(Vert(c, HWhiskerL(Morphism(1, 0, ()), c)), c)
    assert validate_pasting(fx.theory("t_comm_flat"), nested) == [
        "ill-typed pasting: compose mismatch: 0 != 2"]


def test_yang_baxter_refuses_names_unfit_for_their_place():
    with pytest.raises(InputError, match="tensor u is not a binary operation"):
        yang_baxter_check(fx.model("graded_lines"), "u", "c")
    with pytest.raises(InputError, match="model has no 2-cell cc"):
        yang_baxter_check(fx.model("graded_lines"), "m", "cc")


# -- the structural traversals against their per-class reference ladders ----------------
#
# Each traversal in lawkit.cells walks the node structure through one
# ``_parts``/``_with_parts`` pair.  The reference ladders below spell the
# structure out once per node class, independently of that pair; the tests
# hold the two to the same results on every shipped pasting and on seeded
# random ones.

def _ladder_is_invertible(p):
    if isinstance(p, Id):
        return True
    if isinstance(p, Gen):
        return p.cell.invertible
    if isinstance(p, Inverse):
        return _ladder_is_invertible(p.inner)
    if isinstance(p, Vert):
        return _ladder_is_invertible(p.first) and _ladder_is_invertible(p.second)
    if isinstance(p, (HWhiskerL, HWhiskerR, PowerL, PowerR)):
        return _ladder_is_invertible(p.inner)
    if isinstance(p, Par):
        return all(_ladder_is_invertible(q) for q in p.parts)
    raise TypeError(f"unknown pasting node {p!r}")


def _ladder_is_identity(p):
    if isinstance(p, Id):
        return True
    if isinstance(p, Gen):
        return False
    if isinstance(p, Inverse):
        return _ladder_is_identity(p.inner)
    if isinstance(p, Vert):
        return _ladder_is_identity(p.first) and _ladder_is_identity(p.second)
    if isinstance(p, (HWhiskerL, HWhiskerR, PowerL, PowerR)):
        return _ladder_is_identity(p.inner)
    if isinstance(p, Par):
        return all(_ladder_is_identity(q) for q in p.parts)
    raise TypeError(f"unknown pasting node {p!r}")


def _ladder_simplify(p):
    if isinstance(p, Vert):
        a = _ladder_simplify(p.first)
        b = _ladder_simplify(p.second)
        if _ladder_is_identity(a):
            return b
        if _ladder_is_identity(b):
            return a
        if isinstance(b, Inverse) and b.inner == a:
            return Id(a.source())
        if isinstance(a, Inverse) and a.inner == b:
            return Id(a.source())
        return Vert(a, b)
    if isinstance(p, HWhiskerL):
        inner = _ladder_simplify(p.inner)
        if _ladder_is_identity(inner):
            return Id(compose(p.left, inner.source()))
        return HWhiskerL(p.left, inner)
    if isinstance(p, HWhiskerR):
        inner = _ladder_simplify(p.inner)
        if _ladder_is_identity(inner):
            return Id(compose(inner.source(), p.right))
        return HWhiskerR(inner, p.right)
    if isinstance(p, PowerL):
        inner = _ladder_simplify(p.inner)
        if _ladder_is_identity(inner):
            return Id(power_left(inner.source(), p.k))
        return PowerL(p.k, inner)
    if isinstance(p, PowerR):
        inner = _ladder_simplify(p.inner)
        if _ladder_is_identity(inner):
            return Id(power_right(inner.source(), p.k))
        return PowerR(inner, p.k)
    if isinstance(p, Par):
        parts = tuple(_ladder_simplify(q) for q in p.parts)
        if all(_ladder_is_identity(q) for q in parts):
            return Id(par([q.source() for q in parts]))
        return Par(parts)
    if isinstance(p, Inverse):
        inner = _ladder_simplify(p.inner)
        if _ladder_is_identity(inner):
            return inner
        if isinstance(inner, Inverse):
            return inner.inner
        return Inverse(inner)
    return p


def _ladder_validate(theory2, p):
    problems = []

    def walk(q):
        if isinstance(q, Vert):
            if not boundaries_agree(theory2.base, q.first.target(), q.second.source()):
                problems.append("vertical composite boundaries do not meet")
            walk(q.first)
            walk(q.second)
        elif isinstance(q, Inverse):
            if not _ladder_is_invertible(q.inner):
                problems.append("inverse of a non-invertible pasting")
            walk(q.inner)
        elif isinstance(q, (HWhiskerL, HWhiskerR, PowerL, PowerR)):
            walk(q.inner)
        elif isinstance(q, Par):
            for part in q.parts:
                walk(part)

    try:
        p.source()
        p.target()
        walk(p)
    except TheoryError as e:
        return [f"ill-typed pasting: {e}"]
    return problems


@cache
def shipped_pastings():
    """(theory, pasting) for every cell-equation side, sigma entry, derived
    basis cell and gray-style instance of the shipped .law files."""
    out = {}
    for path in fx.law_files():
        doc, _ = dsl.parse_file(path)
        for theory2 in doc.theories:
            for _, lhs, rhs in theory2.cell_equations:
                out[(theory2.base.name, lhs)] = (theory2, lhs)
                out[(theory2.base.name, rhs)] = (theory2, rhs)
        for for_theory, sigma in doc.sigmas:
            theory2 = doc.theory(for_theory)
            found = [p for _, p in sigma.entries]
            basis = [generator_morphism(op) for op in theory2.base.basis_ops()]
            for a in basis:
                found.append(derive_sigma(theory2, sigma, identity(1), a))
                for eq in theory2.base.equations:
                    for side in (eq.lhs, eq.rhs):
                        found.append(derive_sigma(theory2, sigma, side, a))
                        found.append(derive_sigma(theory2, sigma, a, side))
                for b in basis:
                    s = derive_sigma(theory2, sigma, a, b)
                    found.append(s)
                    found.extend(gray2_column_instance(theory2, sigma, s, b))
                    back = transpose_conjugate(derive_sigma(theory2, sigma, b, a),
                                               a.source, b.source, a.target, b.target)
                    found.append(Vert(s, back))
            for cellsym in theory2.cells:
                for g in basis:
                    found.extend(gray2_column_instance(theory2, sigma, Gen(cellsym), g))
                    found.extend(gray2_row_instance(theory2, sigma, g, Gen(cellsym)))
            for p in found:
                out[(theory2.base.name, p)] = (theory2, p)
    return list(out.values())


def _random_term(rng, ops, context, depth):
    nullary = [op for op in ops if op.arity == 0]
    if context and (depth == 0 or rng.random() < 0.4):
        return Proj(rng.randrange(context), context)
    op = rng.choice(ops if depth and context else nullary)
    return Apply(op, tuple(_random_term(rng, ops, context, depth - 1)
                           for _ in range(op.arity)), context)


def _random_morphism(rng, ops, source, target):
    """A random morphism source -> target, or None if the theory has none."""
    if source == 0 and target and not any(op.arity == 0 for op in ops):
        return None
    return Morphism(source, target, tuple(_random_term(rng, ops, source, 2)
                                          for _ in range(target)))


def _random_pasting(rng, theory2, depth):
    ops = list(theory2.base.generators)
    sides = [p for _, lhs, rhs in theory2.cell_equations for p in (lhs, rhs)]
    roll = rng.random()
    if depth == 0 or roll < 0.15:
        leaf = rng.randrange(3)
        if leaf == 0:
            return Gen(rng.choice(theory2.cells))
        if leaf == 1 and sides:
            return rng.choice(sides)
        source = rng.randrange(3)
        f = _random_morphism(rng, ops, source, rng.randrange(3))
        return Id(f if f is not None else identity(source))
    kind = rng.choice(["inv", "inv2", "vert", "cancel", "whiskL", "whiskR",
                       "powL", "powR", "par", "idlayer"])
    inner = _random_pasting(rng, theory2, depth - 1)
    if kind == "inv":
        return Inverse(inner)
    if kind == "inv2":
        return Inverse(Inverse(inner))
    if kind == "vert":
        second = rng.choice([_random_pasting(rng, theory2, depth - 1), Inverse(inner),
                             _random_identity_layer(Inverse(inner))])
        return Vert(inner, second)
    if kind == "cancel":
        return rng.choice([Vert(inner, Inverse(inner)), Vert(Inverse(inner), inner),
                           Vert(Id(inner.source()), inner), Vert(inner, Id(inner.target()))])
    if kind == "whiskL":
        n = inner.source().source
        source = rng.randrange(3) if n == 0 else rng.randrange(1, 3)
        return HWhiskerL(_random_morphism(rng, ops, source, n), inner)
    if kind == "whiskR":
        t = inner.source().target
        right = _random_morphism(rng, ops, t, rng.randrange(3))
        return HWhiskerR(inner, right if right is not None else identity(t))
    if kind == "powL":
        return PowerL(rng.randrange(3), inner)
    if kind == "powR":
        return PowerR(inner, rng.randrange(3))
    if kind == "par":
        parts = [_random_pasting(rng, theory2, depth - 1) for _ in range(rng.randrange(4))]
        return Par(tuple(parts))
    # an identity layer: the same shape as inner with its generators replaced
    return _random_identity_layer(inner)


def _random_identity_layer(p):
    """p with every generator and every equation side made an identity."""
    if isinstance(p, (Id, Gen)):
        return Id(p.source())
    if isinstance(p, Inverse):
        return Inverse(_random_identity_layer(p.inner))
    if isinstance(p, Vert):
        return Vert(_random_identity_layer(p.first), _random_identity_layer(p.second))
    if isinstance(p, HWhiskerL):
        return HWhiskerL(p.left, _random_identity_layer(p.inner))
    if isinstance(p, HWhiskerR):
        return HWhiskerR(_random_identity_layer(p.inner), p.right)
    if isinstance(p, PowerL):
        return PowerL(p.k, _random_identity_layer(p.inner))
    if isinstance(p, PowerR):
        return PowerR(_random_identity_layer(p.inner), p.k)
    return Par(tuple(_random_identity_layer(q) for q in p.parts))


@cache
def random_pastings(per_theory=300, seed=8):
    """Seeded random pastings over t_comm_flat and t_inv that use every combinator."""
    rng = random.Random(seed)
    out = []
    for name in ("t_comm_flat", "t_inv"):
        theory2 = fx.theory(name)
        out.extend((theory2, _random_pasting(rng, theory2, rng.randrange(1, 5)))
                   for _ in range(per_theory))
    return out


def test_corpora_cover_every_combinator():
    shipped = shipped_pastings()
    assert len(shipped) >= 80
    kinds = Counter()

    def count(p):
        kinds[type(p).__name__] += 1
        if isinstance(p, Par):
            kinds[f"Par/{len(p.parts)}"] += 1
        if isinstance(p, Inverse) and isinstance(p.inner, Inverse):
            kinds["Inverse/Inverse"] += 1
        for q in cells._parts(p):
            count(q)

    randoms = random_pastings()
    assert len(randoms) >= 500
    for _, p in randoms:
        count(p)
    for kind in ("Id", "Gen", "Inverse", "Vert", "HWhiskerL", "HWhiskerR", "PowerL",
                 "PowerR", "Par/0", "Par/1", "Par/2", "Par/3", "Inverse/Inverse"):
        assert kinds[kind] >= 10, kind
    assert sum(is_identity_pasting(p) for _, p in randoms) >= 50


def _outcome(f, *args):
    """f(*args), or the type and message of the exception it raises."""
    try:
        return f(*args)
    except TheoryError as e:
        return type(e), str(e)


@pytest.mark.parametrize("corpus", [shipped_pastings, random_pastings])
def test_traversals_match_the_reference_ladders(corpus):
    simplified = 0
    for theory2, p in corpus():
        assert is_invertible_pasting(p) == _ladder_is_invertible(p), p
        assert is_identity_pasting(p) == _ladder_is_identity(p), p
        assert validate_pasting(theory2, p) == _ladder_validate(theory2, p), p
        s = _outcome(simplify_pasting, p)
        assert s == _outcome(_ladder_simplify, p), p
        simplified += isinstance(s, Pasting)
    # Most pastings are well-typed enough to simplify; the rest raise alike.
    assert simplified >= 0.8 * len(corpus())


def test_parts_and_with_parts_rebuild_every_node():
    for _, p in shipped_pastings() + random_pastings():
        assert cells._with_parts(p, cells._parts(p)) == p


def test_unknown_pasting_node_is_a_type_error():
    class Stray(Pasting):
        pass

    for traversal in (is_invertible_pasting, is_identity_pasting, simplify_pasting):
        with pytest.raises(TypeError, match="unknown pasting node"):
            traversal(Stray())


# -- the row evaluator against the per-class ladder it replaced --------------------------

def _evaluate(model, f, xs, arrows):
    """The tuple of f's components at the objects (or arrows) xs."""
    return tuple(c(xs) for c in model._compiled(f, arrows))


def _ladder_components(p, model):
    """The component table of p, one node class per branch, decoding and
    re-encoding power-category codes at every node: the reference for
    ``pasting_components``."""
    if isinstance(p, Id):
        f = p.morphism
        dom = model.power(f.source)
        cod = model.power(f.target)
        out = []
        for o in range(dom.n_objects):
            objs = _evaluate(model, f, dom.decode_obj(o), False)
            out.append(cod.encode_arr(tuple(model.carrier.identity[x] for x in objs)))
        return tuple(out)
    if isinstance(p, Gen):
        return model.cell(p.cell.name)
    if isinstance(p, Inverse):
        comps = _ladder_components(p.inner, model)
        cod = model.power(p.inner.source().target)
        out = []
        for c in comps:
            inv = []
            for a in cod.decode_arr(c):
                ia = model.carrier.inverse(a)
                if ia is None:
                    raise InputError("pasting inverse of a non-invertible component")
                inv.append(ia)
            out.append(cod.encode_arr(tuple(inv)))
        return tuple(out)
    if isinstance(p, Vert):
        a = _ladder_components(p.first, model)
        b = _ladder_components(p.second, model)
        cod = model.power(p.first.source().target)
        out = []
        for x, y in zip(a, b):
            xp, yp = cod.decode_arr(x), cod.decode_arr(y)
            out.append(cod.encode_arr(tuple(model.carrier.then(i, j) for i, j in zip(xp, yp))))
        return tuple(out)
    if isinstance(p, HWhiskerL):
        comps = _ladder_components(p.inner, model)
        dom = model.power(p.left.source)
        mid = model.power(p.inner.source().source)
        return tuple(comps[mid.encode_obj(_evaluate(model, p.left, dom.decode_obj(o), False))]
                     for o in range(dom.n_objects))
    if isinstance(p, HWhiskerR):
        comps = _ladder_components(p.inner, model)
        mid = model.power(p.inner.source().target)
        cod = model.power(p.right.target)
        return tuple(cod.encode_arr(_evaluate(model, p.right, mid.decode_arr(c), True))
                     for c in comps)
    if isinstance(p, (PowerL, PowerR)):
        rows = isinstance(p, PowerL)
        k = p.k
        comps = _ladder_components(p.inner, model)
        m, n = p.inner.source().source, p.inner.source().target
        dom, out_cod = model.power(m * k), model.power(n * k)
        inner_dom, inner_cod = model.power(m), model.power(n)
        out = []
        for o in range(dom.n_objects):
            objs = dom.decode_obj(o)
            if rows:
                blocks = [objs[i * m:(i + 1) * m] for i in range(k)]
            else:
                blocks = [tuple(objs[i * k + j] for i in range(m)) for j in range(k)]
            arrows = [inner_cod.decode_arr(comps[inner_dom.encode_obj(tuple(b))])
                      for b in blocks]
            cells_out = [0] * (n * k)
            for b, arrow in enumerate(arrows):
                for t in range(n):
                    if rows:
                        cells_out[b * n + t] = arrow[t]
                    else:
                        cells_out[t * k + b] = arrow[t]
            out.append(out_cod.encode_arr(tuple(cells_out)))
        return tuple(out)
    if isinstance(p, Par):
        nats = [_ladder_components(q, model) for q in p.parts]
        srcs = [q.source() for q in p.parts]
        dom = model.power(sum(s.source for s in srcs))
        cod = model.power(sum(s.target for s in srcs))
        out = []
        for o in range(dom.n_objects):
            objs = dom.decode_obj(o)
            arrow_parts = []
            off = 0
            for comps, s in zip(nats, srcs):
                block = objs[off:off + s.source]
                off += s.source
                c = comps[model.power(s.source).encode_obj(tuple(block))]
                arrow_parts.extend(model.power(s.target).decode_arr(c))
            out.append(cod.encode_arr(tuple(arrow_parts)))
        return tuple(out)
    raise TypeError(f"unknown pasting node {p!r}")


def _vert_sides_differ(p):
    """Whether a vertical composite in p joins sides with different contexts."""
    if isinstance(p, Vert):
        a, b = p.first.source(), p.second.source()
        if (a.source, a.target) != (b.source, b.target):
            return True
    return any(_vert_sides_differ(q) for q in cells._parts(p))


def _table_or_error(f, *args):
    try:
        return f(*args)
    except Exception as e:
        return type(e)


@pytest.mark.parametrize("corpus", [shipped_pastings, random_pastings])
def test_row_evaluator_matches_the_ladder(corpus):
    """On every (pasting, model of its theory) pair, ``pasting_components``
    gives the ladder's table, or raises what the ladder raises, except that
    an ill-typed boundary is a ``TheoryError`` and a vertical composite of
    sides with different contexts is a ``ValueError``: the ladder truncated
    such a composite to its shorter side, or decoded it at the wrong
    context, and often returned a table."""
    outcomes = Counter()
    models = shipped_models("fincat", "moncat")
    for theory2, p in corpus():
        for model in (m for m in models if m.theory == theory2):
            want = _table_or_error(_ladder_components, p, model)
            got = _table_or_error(pasting_components, p, model)
            if _table_or_error(lambda: (p.source(), p.target())) is TheoryError:
                assert got is TheoryError, p
                outcomes["ill-typed"] += 1
            elif _vert_sides_differ(p):
                assert got is ValueError, p
                outcomes["vertical sides differ"] += 1
            else:
                assert got == want, (p, model.carrier)
                outcomes["table" if isinstance(want, tuple) else "raises"] += 1
    if corpus is shipped_pastings:
        assert outcomes == {"table": 205}
    else:
        assert outcomes == {"table": 1734, "raises": 4, "ill-typed": 8,
                            "vertical sides differ": 54}


@pytest.mark.parametrize("argv, code, builds", [
    (["assoc-derived", "t_comm_flat.law"], 0, 330),
    (["sigma-check", "t_braid.law"], 1, 74),
])
def test_each_pasting_node_is_built_once_per_model(monkeypatch, argv, code, builds):
    """The derived exchange cells share nodes across instances, and
    ``pastings_equal`` evaluates both sides on every probe: each distinct
    (node, model) pair is built once (990 and 200 builds without the memo)."""
    from lawkit import cli

    seen = []
    for cls, build in list(cells._ROW_BUILDERS.items()):
        def counted(p, model, build=build):
            seen.append((p, id(model)))
            return build(p, model)
        monkeypatch.setitem(cells._ROW_BUILDERS, cls, counted)
    assert cli.run([argv[0], str(fx.law_path(argv[1]))], io.StringIO()) == code
    assert len(seen) == len(set(seen)) == builds
