"""Cross-cutting property suites: substitution/evaluation laws on generated
morphisms, interchange on the shipped categories, inert squares, and report
determinism."""

import io
import random

import fixtures as fx
from fixtures import shipped_models
from lawkit.cli import run
from lawkit.fincat import (
    enumerate_functors,
    enumerate_naturals,
    graded_scalar_category,
)
from lawkit.finset import FinSetModel, all_tuples, make_model, validate_model
from lawkit.theory import (
    Apply,
    Morphism,
    OpSymbol,
    Proj,
    TheoryPresentation,
    col_then_row,
    compile_term,
    compose,
    generator_morphism,
    normalize_morphism,
    row_then_col,
)
from references import (
    group_delooping,
    poset_category,
    reference_eval_morphism,
    reference_value,
    vert_nat,
    whisker_left,
    whisker_right,
)


T_ASS = fx.theory("t_ass").base
T_COMM = fx.theory("t_comm").base
T_POINTED = fx.theory("t_pointed").base
T_INV_1D = fx.theory("t_inv_1d").base

FIXTURE_THEORIES = {
    "t_ass": (T_ASS, {"m": (0, 1, 1, 1), "u": (0,)}),
    "t_comm": (T_COMM, {"m": (0, 1, 1, 0), "u": (0,)}),
    "t_inv_1d": (T_INV_1D, {"inv": (1, 0)}),
    "t_pointed": (T_POINTED, {"u": (0,)}),
}


def _random_term(rng, gens, context, depth):
    if depth == 0 or not gens or rng.random() < 0.35:
        return Proj(rng.randrange(context), context)
    op = rng.choice(gens)
    return Apply(op, tuple(_random_term(rng, gens, context, depth - 1)
                           for _ in range(op.arity)), context)


def _random_morphism(rng, gens, source, target):
    return Morphism(source, target,
                    tuple(_random_term(rng, gens, source, 3) for _ in range(target)))


def test_substitution_evaluation_law_per_fixture_theory():
    # 1,000 generated morphisms per fixture theory, exhaustively evaluated
    for name, (theory, tables) in FIXTURE_THEORIES.items():
        model = validate_model(theory, 2, tables)
        assert isinstance(model, FinSetModel), name
        rng = random.Random(hash(name) & 0xFFFF)
        gens = list(theory.generators)
        for _ in range(1000):
            f = _random_morphism(rng, gens, 2, 2)
            g = _random_morphism(rng, gens, 2, 1)
            fg = compose(f, g)
            for env in all_tuples(2, 2):
                assert model.eval_morphism(fg, env) == \
                    model.eval_morphism(g, model.eval_morphism(f, env))


def _arities(t):
    return set() if isinstance(t, Proj) else \
        {t.op.arity}.union(*(_arities(a) for a in t.args))


def test_compiled_terms_match_the_reference_on_finset_tables():
    # Operations of arity 0 to 3 reach every closure shape of compile_term.
    theory = TheoryPresentation("t_arities", tuple(
        OpSymbol(name, arity) for name, arity in (("c", 0), ("n", 1), ("m", 2), ("t", 3))))
    rng = random.Random(19)
    seen = set()
    for size in (1, 2, 3):
        for _ in range(4):
            model = make_model(theory, size, {
                g.name: tuple(rng.randrange(size) for _ in range(size ** g.arity))
                for g in theory.generators})
            for _ in range(50):
                f = Morphism(3, 2, tuple(_random_term(rng, theory.generators, 3, 4)
                                         for _ in range(2)))
                seen.update(*map(_arities, f.components))
                compiled = [compile_term(c, model.table, size) for c in f.components]
                for env in all_tuples(size, 3):
                    want = reference_eval_morphism(model, f, env)
                    assert tuple(c(env) for c in compiled) == want
                    assert model.eval_morphism(f, env) == want
    assert seen == {0, 1, 2, 3}


def test_compiled_terms_match_the_reference_on_cat_model_tables():
    rng = random.Random(23)
    for model in shipped_models("fincat", "moncat"):
        gens = model.theory.base.generators
        c = model.carrier
        for arrows, radix in ((False, c.n_objects), (True, c.n_arrows)):
            def table(name):
                fun = model.op_functor(name)
                return fun.arr_map if arrows else fun.obj_map
            for _ in range(20):
                f = Morphism(2, 1, (_random_term(rng, gens, 2, 4),))
                (t,) = f.components
                closure = compile_term(t, table, radix)
                (via_model,) = model._compiled(f, arrows)
                for env in all_tuples(radix, 2):
                    want = reference_value(t, table, radix, env)
                    assert closure(env) == via_model(env) == want


def test_normalization_sound_per_fixture_theory():
    for name, (theory, tables) in FIXTURE_THEORIES.items():
        model = validate_model(theory, 2, tables)
        rng = random.Random(len(name))
        gens = list(theory.generators)
        for _ in range(250):
            f = _random_morphism(rng, gens, 2, 1)
            nf, _, ok = normalize_morphism(theory, f)
            assert ok
            for env in all_tuples(2, 2):
                assert model.eval_morphism(f, env) == model.eval_morphism(nf, env)


def test_interchange_on_all_shipped_categories():
    shipped = [
        poset_category([(0, 1)], 2),
        group_delooping(2),
        graded_scalar_category(2, 2),
        graded_scalar_category(1, 2),
    ]
    for cat in shipped:
        funcs = enumerate_functors(cat, cat)[:3]
        for f in funcs:
            for g in funcs:
                nats_fg = enumerate_naturals(f, g)
                for h in funcs:
                    nats_gh = enumerate_naturals(g, h)
                    for a in nats_fg:
                        for b in nats_gh:
                            for k in funcs[:2]:
                                assert whisker_right(vert_nat(a, b), k) == \
                                    vert_nat(whisker_right(a, k), whisker_right(b, k))
                                assert whisker_left(k, vert_nat(a, b)) == \
                                    vert_nat(whisker_left(k, a), whisker_left(k, b))


def test_inert_squares_commute_with_empty_trace():
    rng = random.Random(2024)
    m = generator_morphism(T_ASS.op("m"))
    for _ in range(200):
        a = rng.randrange(1, 4)
        b = rng.randrange(1, 3)
        inert = Morphism(a, b, tuple(Proj(rng.randrange(a), a) for _ in range(b)))
        lhs, rhs = row_then_col(inert, m), col_then_row(inert, m)
        assert lhs == rhs
        nf, traces, _ = normalize_morphism(T_ASS, lhs)
        # syntactic identity needs no rewriting at all for the comparison
        assert row_then_col(m, inert) == col_then_row(m, inert)


def test_json_reports_deterministic_across_runs():
    commands = [
        ["--format", "json", "--no-timings", "sigma-check",
         str(fx.law_path("t_comm_flat.law"))],
        ["--format", "json", "--no-timings", "fox",
         str(fx.law_path("t_inv.law")), "--models", "scalar_involution"],
    ]
    for argv in commands:
        out1, out2 = io.StringIO(), io.StringIO()
        assert run(list(argv), out1) == run(list(argv), out2)
        assert out1.getvalue() == out2.getvalue()
