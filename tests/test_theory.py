import random

import pytest

from lawkit import fixtures as fx
from lawkit.finset import FinSetModel, enumerate_models, separating_input, validate_model
from lawkit.theory import (
    Apply,
    Equal,
    Morphism,
    NotEqual,
    OpSymbol,
    Proj,
    TheoryError,
    Unknown,
    check_commutative,
    check_unital,
    col_then_row,
    compose,
    decide_equal,
    eh_preconditions_1d,
    generator_morphism,
    identity,
    normalize_morphism,
    operadic_compose,
    par,
    power_left,
    power_right,
    proj_morphism,
    replay_trace,
    row_then_col,
    tensor_ops,
    transpose,
    tupling,
    unit_insertion,
)


T_ASS = fx.theory("t_ass").base
T_COMM = fx.theory("t_comm").base
T_POINTED = fx.theory("t_pointed").base
T_SEMIRING = fx.theory("t_semiring").base

M = T_ASS.op("m")
U = T_ASS.op("u")
m = generator_morphism(M)
u = generator_morphism(U)


def ap(op, args, n):
    return Apply(op, tuple(args), n)


def test_compose_identity_laws():
    f = operadic_compose(m, [m, identity(1)])
    assert compose(identity(3), f) == f
    assert compose(f, identity(1)) == f


def test_compose_projection_law():
    t1 = ap(M, [Proj(0, 2), Proj(1, 2)], 2)
    t2 = Proj(0, 2)
    pair = Morphism(2, 2, (t1, t2))
    assert compose(pair, proj_morphism(0, 2)) == Morphism(2, 1, (t1,))


def test_compose_unit_rewrite():
    # u x id then m collapses to the identity by the left unit law
    u_x_id = par([u, identity(1)])
    composite = compose(u_x_id, m)
    verdict = decide_equal(T_ASS, composite, identity(1))
    assert isinstance(verdict, Equal)
    assert len(verdict.lhs_trace[0]) == 1


def test_operadic_identity():
    assert operadic_compose(m, [identity(1), identity(1)]) == m


def test_operadic_m3_with_unit_is_m2():
    m3 = operadic_compose(m, [m, identity(1)])
    composite = operadic_compose(m3, [u, identity(1), identity(1)])
    verdict = decide_equal(T_ASS, composite, m)
    assert isinstance(verdict, Equal)


def test_operadic_both_bracketings_join():
    left = operadic_compose(m, [m, identity(1)])
    right = operadic_compose(m, [identity(1), m])
    verdict = decide_equal(T_ASS, left, right)
    assert isinstance(verdict, Equal)


def test_operadic_count_mismatch():
    with pytest.raises(TheoryError):
        operadic_compose(m, [identity(1)])


def test_tensor_unit_whiskering():
    assert tensor_ops(m, identity(1)) == m
    assert power_right(m, 1) == m
    assert power_left(m, 1) == m


def test_tensor_square_in_t_comm():
    # column-then-row and row-then-column agree in the commutative theory
    lhs, rhs = row_then_col(m, m), col_then_row(m, m)
    verdict = decide_equal(T_COMM, lhs, rhs)
    assert isinstance(verdict, Equal)


def test_two_units_force_equality():
    # both composites 0 -> 1 of a pair of units are the units themselves
    v = generator_morphism(OpSymbol("v", 0))
    lhs = col_then_row(u, v)
    rhs = col_then_row(v, u)
    assert lhs == Morphism(0, 1, (ap(OpSymbol("v", 0), [], 0),))
    assert rhs == Morphism(0, 1, (ap(U, [], 0),))


def test_decide_equal_projections_differ():
    f = proj_morphism(0, 2)
    g = proj_morphism(1, 2)
    verdict = decide_equal(T_ASS, f, g)
    assert isinstance(verdict, NotEqual)
    assert verdict.model.size == 2


def test_decide_equal_commutativity():
    swap = Morphism(2, 2, (Proj(1, 2), Proj(0, 2)))
    swapped = compose(swap, m)
    assert isinstance(decide_equal(T_COMM, swapped, m), Equal)
    verdict = decide_equal(T_ASS, swapped, m)
    assert isinstance(verdict, NotEqual)
    assert verdict.model.size <= 4
    # the witness really separates the two maps
    env = verdict.witness
    assert verdict.model.eval_morphism(swapped, env) != verdict.model.eval_morphism(m, env)


def test_check_commutative_fixtures():
    assert check_commutative(T_COMM).verdict == "Commutative"
    report = check_commutative(T_ASS)
    assert report.verdict == "NotCommutative"
    assert isinstance(report.pair("m", "m"), NotEqual)


def test_check_commutative_monoid_theories():
    # left zeros with an adjoined unit: e=0, a=1, b=2
    table = [[0, 1, 2], [1, 1, 1], [2, 2, 2]]
    left_zero = [[0, 1, 2], [1, 1, 2], [2, 1, 2]]
    t = fx.monoid_theory("t_lz", 3, left_zero, 0)
    assert check_commutative(t).verdict == "NotCommutative"
    t2 = fx.monoid_theory("t_z2", 2, [[0, 1], [1, 0]], 0)
    assert check_commutative(t2).verdict == "Commutative"


def test_check_unital():
    verdicts = check_unital(T_COMM, M, U)
    assert all(isinstance(v, Equal) for v in verdicts.values())
    # multiplication against the additive unit fails at every position
    sr = T_SEMIRING
    verdicts = check_unital(sr, sr.op("mul"), sr.op("zero"), model_bound=3)
    assert all(isinstance(v, NotEqual) for v in verdicts.values())
    with pytest.raises(TheoryError):
        check_unital(T_COMM, OpSymbol("w", 1), U)


def test_eh_preconditions():
    assert eh_preconditions_1d(T_COMM).passes
    assert eh_preconditions_1d(T_POINTED).passes
    unary = fx.monoid_theory("t_z2m", 2, [[0, 1], [1, 0]], 0)
    report = eh_preconditions_1d(unary)
    assert not report.passes and report.unary_basis


def _random_term(rng, gens, context, depth):
    if depth == 0 or rng.random() < 0.4:
        return Proj(rng.randrange(context), context)
    op = rng.choice(gens)
    return Apply(op, tuple(_random_term(rng, gens, context, depth - 1)
                           for _ in range(op.arity)), context)


def _random_morphism(rng, gens, source, target):
    return Morphism(source, target,
                    tuple(_random_term(rng, gens, source, 3) for _ in range(target)))


def test_substitution_algebra_on_random_morphisms():
    rng = random.Random(7)
    gens = list(T_ASS.generators)
    for _ in range(300):
        f = _random_morphism(rng, gens, 2, 2)
        g = _random_morphism(rng, gens, 2, 2)
        h = _random_morphism(rng, gens, 2, 1)
        assert compose(compose(f, g), h) == compose(f, compose(g, h))
        assert compose(identity(2), f) == f
        assert compose(f, identity(2)) == f


def test_evaluation_homomorphism_exhaustive():
    model = validate_model(T_ASS, 2, {"m": (0, 1, 1, 1), "u": (0,)})
    assert isinstance(model, FinSetModel)
    rng = random.Random(11)
    gens = list(T_ASS.generators)
    for _ in range(100):
        f = _random_morphism(rng, gens, 2, 2)
        g = _random_morphism(rng, gens, 2, 1)
        for env in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            direct = model.eval_morphism(compose(f, g), env)
            staged = model.eval_morphism(g, model.eval_morphism(f, env))
            assert direct == staged


def test_inert_squares_commute_syntactically():
    rng = random.Random(3)
    for _ in range(50):
        a = rng.randrange(1, 4)
        b = rng.randrange(1, 3)
        f = Morphism(a, b, tuple(Proj(rng.randrange(a), a) for _ in range(b)))
        g = generator_morphism(M)
        assert row_then_col(f, g) == col_then_row(f, g)
        assert row_then_col(g, f) == col_then_row(g, f)


def test_rewrite_trace_replays():
    term = ap(M, [ap(M, [ap(U, [], 1), Proj(0, 1)], 1), ap(U, [], 1)], 1)
    nf, traces, ok = normalize_morphism(T_ASS, Morphism(1, 1, (term,)))
    assert ok
    assert replay_trace(term, traces[0]) == nf.components[0]


def test_rewriting_preserves_semantics():
    model = validate_model(T_ASS, 2, {"m": (0, 1, 1, 0), "u": (0,)})
    rng = random.Random(5)
    gens = list(T_ASS.generators)
    for _ in range(100):
        f = _random_morphism(rng, gens, 2, 1)
        nf, _, ok = normalize_morphism(T_ASS, f)
        assert ok
        for env in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            assert model.eval_morphism(f, env) == model.eval_morphism(nf, env)


def test_transpose_is_involutive_permutation():
    t = transpose(2, 3)
    back = transpose(3, 2)
    assert compose(t, back) == identity(6)


def test_unknown_on_unorientable():
    # a theory with a symmetric non-terminating equation and no separating
    # finite model up to the bound: x = f(f(x)) oriented the growing way
    f_op = OpSymbol("f", 1)
    eq_lhs = Morphism(1, 1, (Proj(0, 1),))
    eq_rhs = Morphism(1, 1, (ap(f_op, [ap(f_op, [Proj(0, 1)], 1)], 1),))
    from lawkit.theory import Equation, TheoryPresentation
    t = TheoryPresentation("t_inv_like", (f_op,), (Equation("e", eq_lhs, eq_rhs),))
    g1 = Morphism(1, 1, (ap(f_op, [Proj(0, 1)], 1),))
    verdict = decide_equal(t, g1, identity(1), model_bound=2)
    assert isinstance(verdict, (Unknown, NotEqual))


def test_tupling_requires_common_source():
    with pytest.raises(TheoryError):
        tupling([identity(1), identity(2)])


def test_unit_insertion_shape():
    ins = unit_insertion(u, 1, 3)
    assert ins.source == 1 and ins.target == 3
    assert isinstance(ins.components[1], Proj)


def test_decide_equal_traces_replay_to_common_normal_form():
    left = operadic_compose(m, [m, identity(1)])
    right = operadic_compose(m, [identity(1), m])
    verdict = decide_equal(T_ASS, left, right)
    assert isinstance(verdict, Equal)
    for start, traces in ((left, verdict.lhs_trace), (right, verdict.rhs_trace)):
        for i, component_trace in enumerate(traces):
            assert replay_trace(start.components[i], list(component_trace)) == \
                verdict.normal_form.components[i]
