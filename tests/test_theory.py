import dataclasses
import itertools
import random
from collections import Counter
from dataclasses import asdict, fields

import pytest

import fixtures as fx
from lawkit.finset import FinSetModel, enumerate_models, validate_model
from lawkit.theory import (
    Apply,
    Equal,
    Equation,
    Morphism,
    NotEqual,
    OpSymbol,
    Proj,
    REWRITE_BUDGET,
    RewriteStep,
    Term,
    TheoryError,
    TheoryPresentation,
    Unknown,
    check_commutative,
    check_unital,
    col_then_row,
    commutativity_square,
    compose,
    decide_equal,
    eh_preconditions_1d,
    generator_morphism,
    identity,
    normalize,
    normalize_morphism,
    par,
    power_left,
    power_right,
    render_term,
    row_then_col,
    substitute,
    transpose,
    unit_insertion,
)
from references import (
    match,
    proj_morphism,
    reference_eval_morphism,
    reference_validate_model,
    tupling,
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


def operadic_compose(alpha: Morphism, betas: list[Morphism]) -> Morphism:
    """alpha(beta_1, ..., beta_n) = (beta_1 x ... x beta_n) then alpha."""
    if alpha.source != len(betas):
        raise TheoryError(f"operadic composition expects {alpha.source} arguments, got {len(betas)}")
    for b in betas:
        if b.target != 1:
            raise TheoryError("operadic arguments must have target 1")
    return compose(par(betas), alpha)


def subterm_at(t: Term, path: tuple[int, ...]) -> Term:
    for i in path:
        assert isinstance(t, Apply)
        t = t.args[i]
    return t


def replace_at(t: Term, path: tuple[int, ...], new: Term) -> Term:
    if not path:
        return new
    assert isinstance(t, Apply)
    i = path[0]
    args = list(t.args)
    args[i] = replace_at(args[i], path[1:], new)
    return Apply(t.op, tuple(args), t.context)


def replay_trace(t: Term, trace: list[RewriteStep]) -> Term:
    for step in trace:
        if subterm_at(t, step.path) != step.before:
            raise TheoryError("trace does not replay")
        t = replace_at(t, step.path, step.after)
    return t


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
    assert col_then_row(m, identity(1)) == m
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
    assert reference_eval_morphism(verdict.model, swapped, env) != \
        reference_eval_morphism(verdict.model, m, env)


def test_check_commutative_fixtures():
    assert check_commutative(T_COMM).verdict == "Commutative"
    report = check_commutative(T_ASS)
    assert report.verdict == "NotCommutative"
    assert isinstance({(a, b): v for a, b, v in report.pairs}[("m", "m")], NotEqual)


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
    t = TheoryPresentation("t_inv_like", (f_op,), (Equation("e", eq_lhs, eq_rhs),))
    g1 = Morphism(1, 1, (ap(f_op, [Proj(0, 1)], 1),))
    verdict = decide_equal(t, g1, identity(1), model_bound=2)
    assert isinstance(verdict, (Unknown, NotEqual))


def test_rewrite_budget_is_read_when_a_call_runs(monkeypatch):
    left = operadic_compose(m, [m, identity(1)])
    right = operadic_compose(m, [identity(1), m])
    assert isinstance(decide_equal(T_ASS, left, right), Equal)
    monkeypatch.setattr("lawkit.theory.REWRITE_BUDGET", 0)
    assert decide_equal(T_ASS, left, right, model_bound=1) == \
        Unknown("rewrite budget exhausted; no counter-model up to bound", 0, 1)


def test_tupling_requires_common_source():
    with pytest.raises(TheoryError):
        tupling([identity(1), identity(2)])


def test_unit_insertion_shape():
    ins = unit_insertion(u, 1, 3)
    assert ins.source == 1 and ins.target == 3
    assert isinstance(ins.components[1], Proj)


def test_morphism_hash_is_stored_but_not_a_field():
    def build():
        return compose(tupling([m, proj_morphism(0, 2)]), m)

    f, g = build(), build()
    assert f == g and f is not g
    shown = (repr(f), asdict(f))
    assert hash(f) == hash(g) == hash((f.source, f.target, f.components))
    assert {f: "found"}[g] == "found"
    assert hash(f) == hash(g) == hash(build())
    assert [field.name for field in fields(Morphism)] == ["source", "target", "components"]
    assert (repr(f), asdict(f)) == shown
    assert "_hash" not in repr(f) and "_hash" not in asdict(f)


def test_generator_morphism_is_shared_per_symbol():
    assert generator_morphism(M) is generator_morphism(M)
    other = OpSymbol("m", 2)
    assert generator_morphism(other) == generator_morphism(M)
    assert hash(generator_morphism(other)) == hash(generator_morphism(M))
    assert repr(M) == "OpSymbol(name='m', arity=2)"
    assert asdict(M) == {"name": "m", "arity": 2}


def test_decide_equal_traces_replay_to_common_normal_form():
    left = operadic_compose(m, [m, identity(1)])
    right = operadic_compose(m, [identity(1), m])
    verdict = decide_equal(T_ASS, left, right)
    assert isinstance(verdict, Equal)
    for start, traces in ((left, verdict.lhs_trace), (right, verdict.rhs_trace)):
        for i, component_trace in enumerate(traces):
            assert replay_trace(start.components[i], list(component_trace)) == \
                verdict.normal_form.components[i]


# -- one-pass normalization against the restart-from-the-root reference --------

SHIPPED_THEORIES = ("t_ass", "t_comm", "t_pointed", "t_inv_1d", "t_semiring", "t_ass_flat",
                    "t_braid", "t_comm_flat", "t_pointed_flat", "t_inv", "t_gl2")


def _reference_key(t):
    if isinstance(t, Proj):
        return (0, t.index)
    return (1, t.op.name, tuple(_reference_key(a) for a in t.args))


def _reference_order(t):
    return (t.size(), _reference_key(t))


def _reference_rewrite_once(t, rules):
    """Leftmost-innermost single step found by a walk from the root, or None."""
    def try_rules_at(sub, path):
        for name, lhs, rhs in rules:
            binding = match(lhs, sub, {})
            if binding is None or any(i not in binding for i in range(lhs.context)):
                continue
            new_sub = substitute(rhs, binding, sub.context)
            if _reference_order(new_sub) < _reference_order(sub):
                return replace_at(t, path, new_sub), (name, path, sub, new_sub)
        return None

    def walk(sub, path):
        if isinstance(sub, Apply):
            for i, a in enumerate(sub.args):
                hit = walk(a, path + (i,))
                if hit is not None:
                    return hit
        return try_rules_at(sub, path)
    return walk(t, ())


def _reference_normalize(t, rules, budget):
    trace = []
    for _ in range(budget):
        hit = _reference_rewrite_once(t, rules)
        if hit is None:
            return t, trace, True
        t, step = hit
        trace.append(step)
    return t, trace, False


def _word(rng, theory, leaves, context):
    """A random bracketing of ``leaves`` (variable indices) under m, with units inserted."""
    m_op, u_op = theory.op("m"), theory.op("u")
    terms = []
    for x in leaves:
        while rng.random() < 0.15:
            terms.append(Apply(u_op, (), context))
        terms.append(Proj(x, context))
    if not terms:
        return Apply(u_op, (), context)

    def bracket(ts):
        if len(ts) == 1:
            return ts[0]
        cut = rng.randrange(1, len(ts))
        return Apply(m_op, (bracket(ts[:cut]), bracket(ts[cut:])), context)
    return bracket(terms)


def _left_nested(n):
    t = Proj(0, n)
    for i in range(1, n):
        t = Apply(M, (t, Proj(i, n)), n)
    return t


def _right_nested(n):
    t = Proj(n - 1, n)
    for i in reversed(range(n - 1)):
        t = Apply(M, (Proj(i, n), t), n)
    return t


def _parity_cases():
    for name in SHIPPED_THEORIES:
        theory = fx.theory(name).base
        for eq in theory.equations:
            for side in (eq.lhs, eq.rhs):
                for c in side.components:
                    yield theory, c
        for a in theory.basis_ops():
            for b in theory.basis_ops():
                for side in commutativity_square(generator_morphism(a), generator_morphism(b)):
                    for c in side.components:
                        yield theory, c
    rng = random.Random(2024)
    for theory in (T_ASS, T_COMM):
        for _ in range(150):
            arity = rng.randrange(1, 5)
            leaves = [rng.randrange(arity) for _ in range(rng.randrange(0, 10))]
            yield theory, _word(rng, theory, leaves, arity)
    for _ in range(120):
        yield T_SEMIRING, _semiring_term(rng, rng.randrange(1, 5), rng.randrange(1, 4))
    for _ in range(60):
        yield T_IDEM, _idem_term(rng, rng.randrange(1, 5), rng.randrange(1, 3))
    yield T_ASS, _left_nested(40)
    f_op = OpSymbol("f", 1)
    growing = TheoryPresentation("t_inv_like", (f_op,), (Equation(
        "e", identity(1), Morphism(1, 1, (ap(f_op, [ap(f_op, [Proj(0, 1)], 1)], 1),))),))
    for t in (Proj(0, 1), ap(f_op, [Proj(0, 1)], 1), ap(f_op, [ap(f_op, [Proj(0, 1)], 1)], 1)):
        yield growing, t
    # Size-preserving rules that change the head: the order guard compares
    # operation names.  Then a lone-variable lhs between two rules on ``f``.
    g_op, c_op = OpSymbol("g", 1), OpSymbol("c", 0)
    x = Proj(0, 1)

    def unary(*ops):
        """``ops`` applied to ``x``, outermost first; a nullary op ends the word."""
        t = x
        for op in reversed(ops):
            t = ap(op, [t], 1) if op.arity else ap(op, [], 1)
        return t
    swap = TheoryPresentation("t_swap", (f_op, g_op), (
        Equation("fg", Morphism(1, 1, (unary(f_op, g_op),)), Morphism(1, 1, (unary(g_op, f_op),))),
        Equation("gf", Morphism(1, 1, (unary(g_op, f_op),)), Morphism(1, 1, (unary(f_op, g_op),)))))
    for ops in ((f_op, g_op), (g_op, f_op), (g_op, g_op, f_op), (g_op, f_op, g_op, f_op)):
        yield swap, unary(*ops)
    collapse = TheoryPresentation("t_collapse", (f_op, c_op), (
        Equation("ff", Morphism(1, 1, (unary(f_op, f_op),)), Morphism(1, 1, (unary(f_op),))),
        Equation("drop", identity(1), Morphism(1, 1, (unary(c_op),))),
        Equation("fc", Morphism(1, 1, (unary(f_op, c_op),)), Morphism(1, 1, (unary(c_op),)))))
    for ops in ((f_op, f_op), (f_op, c_op), (f_op, f_op, f_op, c_op), (c_op,), (), (f_op,)):
        yield collapse, unary(*ops)


def _semiring_term(rng, depth, context):
    """A random term over ``t_semiring``; about one inner node in four is
    ``add(mul(a, b), mul(a, c))``, the shape of the non-linear ``distrib``."""
    if depth == 0 or rng.random() < 0.2:
        leaf = rng.choice(["zero", "one"] + ["x"] * 4)
        if leaf == "x":
            return Proj(rng.randrange(context), context)
        return Apply(T_SEMIRING.op(leaf), (), context)
    add, mul = T_SEMIRING.op("add"), T_SEMIRING.op("mul")
    if rng.random() < 0.25:
        a = _semiring_term(rng, depth - 1, context)
        return ap(add, [ap(mul, [a, _semiring_term(rng, depth - 1, context)], context),
                        ap(mul, [a, _semiring_term(rng, depth - 1, context)], context)],
                  context)
    op = rng.choice([add, mul])
    return ap(op, [_semiring_term(rng, depth - 1, context) for _ in range(2)], context)


T_IDEM_M = OpSymbol("m", 2)
T_IDEM = TheoryPresentation("t_idem", (T_IDEM_M,), (Equation(
    "idem", Morphism(1, 1, (ap(T_IDEM_M, [Proj(0, 1), Proj(0, 1)], 1),)), identity(1)),))


def _idem_term(rng, depth, context):
    """A random term over ``t_idem``; about one inner node in three has two
    equal arguments, built apart, so only ``==`` finds them equal."""
    if depth == 0 or rng.random() < 0.2:
        return Proj(rng.randrange(context), context)
    a = _idem_term(rng, depth - 1, context)
    if rng.random() < 0.35:
        twin = substitute(a, tuple(Proj(i, context) for i in range(context)), context)
        return ap(T_IDEM_M, [a, twin], context)
    return ap(T_IDEM_M, [a, _idem_term(rng, depth - 1, context)], context)


def test_normalize_matches_restart_reference():
    cases = list(_parity_cases())
    assert len(cases) > 300
    steps = 0
    for theory, t in cases:
        for budget in (1, 2, 3, 10_000):
            nf, trace, within = normalize(t, theory.rule_table, budget)
            ref_nf, ref_trace, ref_within = _reference_normalize(t, theory.rewrite_rules(),
                                                                 budget)
            assert (nf, within) == (ref_nf, ref_within), (render_term(t), budget)
            assert [(s.rule, s.path, s.before, s.after) for s in trace] == ref_trace, \
                (render_term(t), budget)
            steps += len(trace)
    assert steps > 1000


def test_normalize_deep_and_long_terms():
    rules = T_ASS.rule_table
    deep = _right_nested(901)
    nf, trace, within = normalize(deep, rules, REWRITE_BUDGET)
    assert nf is deep and trace == [] and within
    n = 120
    nf, trace, within = normalize(_left_nested(n), rules, REWRITE_BUDGET)
    assert within and nf == _right_nested(n)
    assert len(trace) == (n - 1) * (n - 2) // 2 == 7021
    assert {s.rule for s in trace} == {"assoc"}


def _subterms(t):
    yield t
    if isinstance(t, Apply):
        for a in t.args:
            yield from _subterms(a)


def test_compiled_matchers_bind_what_match_binds():
    """Every compiled rule's matcher, tried on every subterm of the parity
    cases, binds the very subterms the reference ``match`` binds, or fails
    where it fails; on a match, its comparator gives the sign of the key
    order of the instance its builder builds against the subterm."""
    tried = bound = repeated = 0
    for theory, t in _parity_cases():
        lhs_of = {name: lhs for name, lhs, _ in theory.rewrite_rules()}
        compiled = {rule[0]: rule for rules in theory.rule_table.values() for rule in rules}
        assert len(lhs_of) == len(theory.rewrite_rules())
        for sub in _subterms(t):
            for name, matcher, *_, width in compiled.values():
                slots = [None] * width
                ref = match(lhs_of[name], sub, {})
                tried += 1
                if matcher(sub, slots):
                    assert ref is not None, (name, render_term(sub))
                    assert all(slots[i] is ref[i] for i in range(width)), (name, render_term(sub))
                    _, _, compare, build, rhs, *_ = compiled[name]
                    new = build(slots, sub.context)
                    assert new == substitute(rhs, slots, sub.context)
                    key, ref_key = _reference_key(new), _reference_key(sub)
                    assert compare(sub, slots) == (key > ref_key) - (key < ref_key)
                    bound += 1
                    repeated += name in ("idem", "distrib")
                else:
                    assert ref is None, (name, render_term(sub))
    assert tried > 20_000 and bound > 2000 and repeated > 50


def test_refused_steps_build_no_terms(monkeypatch):
    """The order guard is decided before the rhs instance is built: a normal
    word builds nothing, though under t_comm ``comm`` matches at both of its
    nodes and ``comm_assoc`` at its root; a fired step builds its rhs nodes."""
    x = [Proj(i, 3) for i in range(3)]
    normal = ap(M, [x[0], ap(M, [x[1], x[2]], 3)], 3)
    left = ap(M, [ap(M, [x[0], x[1]], 3), x[2]], 3)
    tables = (T_ASS.rule_table, T_COMM.rule_table)
    built = []
    post_init = Apply.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)
    monkeypatch.setattr(Apply, "__post_init__", counting)
    for table in tables:
        nf, trace, within = normalize(normal, table, REWRITE_BUDGET)
        assert nf is normal and trace == [] and within
    assert built == []
    for table in tables:
        nf, trace, within = normalize(left, table, REWRITE_BUDGET)
        assert nf == normal and [s.rule for s in trace] == ["assoc"]
    assert len(built) == 4


def test_decide_equal_witnesses_replay():
    rng = random.Random(17)
    verdicts = {Equal: 0, NotEqual: 0}
    for theory in (T_ASS, T_COMM):
        for _ in range(40):
            arity = rng.randrange(2, 4)
            word = [rng.randrange(arity) for _ in range(rng.randrange(2, 6))]
            # equal by construction (permuted under t_comm), or one letter
            # longer, which the two-element group separates
            if rng.random() < 0.5:
                other = rng.sample(word, len(word)) if theory is T_COMM else word
            else:
                other = [rng.randrange(arity) for _ in range(len(word) + 1)]
            f = Morphism(arity, 1, (_word(rng, theory, word, arity),))
            g = Morphism(arity, 1, (_word(rng, theory, other, arity),))
            v = decide_equal(theory, f, g, model_bound=3)
            verdicts[type(v)] += 1
            if isinstance(v, NotEqual):
                assert reference_validate_model(theory, v.model.size,
                                                dict(v.model.tables)) == v.model
                assert reference_eval_morphism(v.model, f, v.witness) != \
                    reference_eval_morphism(v.model, g, v.witness)
            else:
                assert isinstance(v, Equal)
                for start, traces in ((f, v.lhs_trace), (g, v.rhs_trace)):
                    for c, component_trace in zip(start.components, traces):
                        assert replay_trace(c, list(component_trace)) == \
                            v.normal_form.components[0]
    assert verdicts[Equal] > 10 and verdicts[NotEqual] > 10


def _reference_decide_equal(theory, f, g, model_bound):
    """The verdict of ``decide_equal`` by its type, with each size's models
    enumerated afresh for the pair and every input tuple scanned."""
    nf, _, fok = normalize_morphism(theory, f)
    ng, _, gok = normalize_morphism(theory, g)
    if fok and gok and nf == ng:
        return Equal
    for size in range(1, model_bound + 1):
        for model in enumerate_models(theory, size):
            for env in itertools.product(range(size), repeat=f.source):
                if reference_eval_morphism(model, f, env) != reference_eval_morphism(model, g, env):
                    return NotEqual(model, env)
    return Unknown


@pytest.mark.parametrize("model_bound", [3, 4])
def test_decide_equal_replays_what_a_fresh_search_finds(model_bound):
    rng = random.Random(25)
    seen = Counter()
    for theory in (dataclasses.replace(T_ASS), dataclasses.replace(T_COMM)):
        pairs = []
        for _ in range(12):
            arity = rng.randrange(2, 5)
            word = [rng.randrange(arity) for _ in range(rng.randrange(2, 7))]
            if rng.random() < 0.3:
                other = rng.sample(word, len(word)) if theory.name == "t_comm" else word
            else:
                other = [rng.randrange(arity) for _ in range(len(word) + 1)]
            pairs.append((arity, word, other))
        # x^6 and x^12 first differ in the cyclic group of order 4; x^6 and
        # x^18 agree in every monoid up to size 4.
        pairs += [(1, [0] * 6, [0] * 12), (1, [0] * 6, [0] * 18)]
        for arity, word, other in pairs:
            f = Morphism(arity, 1, (_word(rng, theory, word, arity),))
            g = Morphism(arity, 1, (_word(rng, theory, other, arity),))
            v = decide_equal(theory, f, g, model_bound)
            want = _reference_decide_equal(theory, f, g, model_bound)
            seen[type(v).__name__, v.model.size if isinstance(v, NotEqual) else None] += 1
            if isinstance(v, NotEqual):
                assert (v.model.size, v.model.tables, v.witness) == \
                    (want.model.size, want.model.tables, want.witness)
            else:
                assert type(v) is want
    sizes = {size for kind, size in seen if kind == "NotEqual"}
    assert seen["Equal", None] and seen["Unknown", None] and 2 in sizes
    assert (4 in sizes) == (model_bound == 4)
