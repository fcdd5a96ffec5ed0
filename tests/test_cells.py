import pytest

from lawkit import fixtures as fx
from lawkit.cells import (
    CellError,
    Distinguished,
    EqualOnProbes,
    Gen,
    HWhiskerL,
    Id,
    Inverse,
    Par,
    PowerL,
    PowerR,
    SigmaTable,
    SyntacticallyEqual,
    TheoryMorphism,
    TwoTheoryPresentation,
    Vert,
    check_commuting_over,
    check_sigma_coherence,
    derive_sigma,
    derived_associativity_check,
    evaluate_pasting,
    gray2_column_instance,
    is_identity_pasting,
    pasting_components,
    pastings_equal,
    simplify_pasting,
    validate_two_theory,
    yang_baxter_check,
)
from lawkit.theory import (
    Morphism,
    Proj,
    TheoryPresentation,
    compose,
    generator_morphism,
    identity,
    proj_morphism,
)


def test_two_theory_validation():
    assert validate_two_theory(fx.theory("t_comm_flat")) == []
    assert validate_two_theory(fx.theory("t_braid")) == []
    assert validate_two_theory(fx.theory("t_inv")) == []


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
    nat = evaluate_pasting(Id(m), model)
    assert all(model.carrier.is_identity(c) for c in nat.components)


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
    assert isinstance(pastings_equal(fx.theory("t_comm_flat"), p, p, []), SyntacticallyEqual)


def test_braid_sides_distinguished():
    theory2 = fx.theory("t_braid")
    b = Gen(theory2.cells[0])
    m = generator_morphism(theory2.base.op("m"))
    lhs, rhs = gray2_column_instance(theory2, fx.sigma("sigma_braid"), b, m)
    verdict = pastings_equal(theory2, lhs, rhs, [fx.model("graded_lines_z3")])
    assert isinstance(verdict, Distinguished)


def test_inv_gray2_equal_on_probes():
    theory2 = fx.theory("t_inv")
    iota = Gen(theory2.cells[0])
    inv = generator_morphism(theory2.base.op("inv"))
    lhs, rhs = gray2_column_instance(theory2, fx.sigma("sigma_inv"), iota, inv)
    verdict = pastings_equal(theory2, lhs, rhs, [fx.model("scalar_involution")])
    assert isinstance(verdict, (EqualOnProbes, SyntacticallyEqual))


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


def test_commuting_over():
    rho = TheoryMorphism(
        fx.theory("t_ass_flat").base, fx.theory("t_braid").base,
        (("m", generator_morphism(fx.theory("t_braid").base.op("m"))),
         ("u", generator_morphism(fx.theory("t_braid").base.op("u")))))
    report = check_commuting_over(rho, fx.theory("t_braid"), fx.sigma("sigma_braid"), "u",
                                  [fx.model("graded_lines_z3")])
    assert report.verdict == "Passes"

    rho_bad = TheoryMorphism(
        fx.theory("t_ass_flat").base, fx.theory("t_braid").base,
        (("m", proj_morphism(0, 2)),
         ("u", generator_morphism(fx.theory("t_braid").base.op("u")))))
    report = check_commuting_over(rho_bad, fx.theory("t_braid"), fx.sigma("sigma_braid"),
                                  "u", [])
    assert report.verdict == "Fails"
    assert any("unit law" in issue or "not preserved" in issue for issue in report.issues)


def test_identity_commuting_matches_coherence_units():
    base = fx.theory("t_comm_flat").base
    rho = TheoryMorphism(base, base,
                         tuple((g.name, generator_morphism(g)) for g in base.generators))
    report = check_commuting_over(rho, fx.theory("t_comm_flat"), fx.sigma("sigma_comm_flat"),
                                  "u", [fx.model("poset_meet")])
    assert report.verdict == "Passes"


def test_vertical_composition_respected_by_evaluation():
    model = fx.model("graded_lines")
    c = Gen(fx.theory("t_comm_flat").cells[0])
    double = Vert(c, Inverse(c))
    nat = evaluate_pasting(double, model)
    assert all(model.carrier.is_identity(x) for x in nat.components)


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
    from lawkit.fincat import FinNat
    base = fx.model("gl2_action")
    rr = base.cell_nat("c11")
    twisted = FinNat(rr.source, rr.target, (1, 2))
    mutant = CatModel(fx.theory("t_gl2"), base.carrier, base.op_functors, (("c11", twisted),))
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
    from lawkit.cells import TwoCellSymbol
    noninv = TwoCellSymbol("t", m, m, invertible=False)
    assert validate_pasting(fx.theory("t_comm_flat"), Inverse(Gen(noninv))) != []
