import dataclasses
import itertools
from dataclasses import dataclass

import pytest

import oracles
import fixtures as fx
from fixtures import shipped_models
from lawkit import finset, theory as theory_module
from lawkit.finset import (
    FinSetModel,
    ModelHom,
    Violation,
    all_tuples,
    enumerate_homs,
    enumerate_models,
    eh_uniqueness_probe,
    make_model,
    power_model,
    semantic_commutativity_check,
    separating_input,
    validate_model,
)
from lawkit.search import EnumerationBound
from lawkit.theory import (
    Apply,
    Morphism,
    OpSymbol,
    Proj,
    TheoryError,
    commutativity_square,
    generator_morphism,
    identity,
    power_left,
    power_right,
    transpose,
)
from references import (
    proj_morphism,
    reference_eval_morphism,
    reference_validate_model,
)


T_ASS = fx.theory("t_ass").base
T_COMM = fx.theory("t_comm").base
T_POINTED = fx.theory("t_pointed").base
T_INV_1D = fx.theory("t_inv_1d").base
T_SEMIRING = fx.theory("t_semiring").base

Z2 = {"m": (0, 1, 1, 0), "u": (0,)}
AND = {"m": (0, 0, 0, 1), "u": (1,)}


def test_validate_accepts_z2():
    assert isinstance(validate_model(T_COMM, 2, Z2), FinSetModel)


def test_validate_rejects_wrong_unit():
    result = validate_model(T_COMM, 2, {"m": (0, 1, 1, 0), "u": (1,)})
    assert isinstance(result, Violation)
    assert result.equation in ("lunit", "runit")
    assert result.env == (0,)


# Equations that skip variables: x1 and x3 occur in neither side of `skip`.
T_SKIP = fx.parse("""
theory t_skip {
  op m : 2 -> 1;
  op u : 0 -> 1;
  eq skip : m(x4,x2) = m(x2,m(u,x4));
  eq idem : m(x2,x2) = x2;
}
""").theories[0].base


def test_validate_model_matches_full_scan():
    checked = violations = 0
    for theory in (T_ASS, T_COMM, T_SKIP):
        for size in (1, 2, 3):
            cells = [(g.name, size ** g.arity) for g in theory.generators]
            tables = itertools.product(range(size), repeat=sum(n for _, n in cells))
            for flat in itertools.islice(tables, 0, None, max(1, size ** 9 // 400)):
                split, at = {}, 0
                for name, n in cells:
                    split[name], at = tuple(flat[at:at + n]), at + n
                result = validate_model(theory, size, split)
                assert result == reference_validate_model(theory, size, split)
                checked += 1
                violations += isinstance(result, Violation)
    assert checked > 500 and violations > 400


def reference_separating_input(model, f, g):
    """The first of all input tuples, in lexicographic order, at which f and g differ."""
    for env in itertools.product(range(model.size), repeat=f.source):
        if reference_eval_morphism(model, f, env) != reference_eval_morphism(model, g, env):
            return env
    return None


def _skipping_pairs():
    """Parallel pairs that leave variables out: the equations of T_SKIP, and
    pairs in four variables that read only x2 and x4, only x3, or none."""
    m, u = T_SKIP.op("m"), T_SKIP.op("u")

    def x(i):
        return Proj(i - 1, 4)

    def mm(a, b):
        return Apply(m, (a, b), 4)

    def pair(lhs, rhs):
        return Morphism(4, len(lhs), tuple(lhs)), Morphism(4, len(rhs), tuple(rhs))

    return [(eq.lhs, eq.rhs) for eq in T_SKIP.equations] + [
        pair([mm(x(2), x(4)), x(4)], [mm(x(4), x(2)), x(4)]),
        pair([mm(x(3), x(3))], [x(3)]),
        pair([mm(x(3), Apply(u, (), 4))], [x(3)]),
        pair([Apply(u, (), 4)], [mm(Apply(u, (), 4), Apply(u, (), 4))]),
    ]


def test_separating_input_matches_full_scan():
    pairs = _skipping_pairs()
    separated = equal = 0
    for size in (1, 2, 3):
        n_cells = size ** 2 + 1
        tables = itertools.product(range(size), repeat=n_cells)
        for flat in itertools.islice(tables, 0, None, max(1, size ** n_cells // 60)):
            model = make_model(T_SKIP, size, {"m": flat[:-1], "u": flat[-1:]})
            for f, g in pairs:
                hit = separating_input(model, f, g)
                assert hit == reference_separating_input(model, f, g)
                separated += hit is not None
                equal += hit is None
    assert (separated, equal) == (453, 111)


def test_separating_input_on_the_empty_carrier():
    magma = fx.parse("""
    theory t_mag {
      op m : 2 -> 1;
      eq comm : m(x1,x2) = m(x2,x1);
      eq left : m(x1,x3) = x1;
    }
    """).theories[0].base
    empty = make_model(magma, 0, {"m": ()})
    for eq in magma.equations:
        assert separating_input(empty, eq.lhs, eq.rhs) is None
        assert reference_separating_input(empty, eq.lhs, eq.rhs) is None
    assert validate_model(magma, 0, {"m": ()}) == empty
    nothing = Morphism(2, 0, ())
    assert separating_input(empty, nothing, nothing) is None


def test_validate_selfmaps_monoid():
    # all self-maps of {0,1} under composition: id, swap, const0, const1
    maps = [(0, 1), (1, 0), (0, 0), (1, 1)]
    table = []
    for f in maps:
        for g in maps:
            table.append(maps.index(tuple(g[f[x]] for x in (0, 1))))
    model = validate_model(T_ASS, 4, {"m": tuple(table), "u": (0,)})
    assert isinstance(model, FinSetModel)


def test_enumerate_models_counts():
    assert len(list(enumerate_models(T_ASS, 1))) == 1
    assert len(list(enumerate_models(T_ASS, 2))) == 4
    assert len(list(enumerate_models(T_COMM, 2))) == 4


def test_size_four_monoids_come_in_table_order():
    models = list(enumerate_models(T_ASS, 4))
    assert len(models) == 624  # labelled monoids on four elements, OEIS A058129
    keys = [tuple(v for _, table in model.tables for v in table) for model in models]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_enumeration_matches_oracle():
    for size in (1, 2, 3):
        got = list(enumerate_models(T_ASS, size))
        want = oracles.monoids(size)
        assert len(got) == len(want)
        got_keys = {m.table("m") for m in got}
        want_keys = {tuple(x for row in t for x in row) for t, _ in want}
        assert got_keys == want_keys


# -- matrix actions, the reference for the semantic commutativity check ---------

@dataclass(frozen=True)
class MatrixView:
    rows: int
    cols: int
    entries: tuple[int, ...]  # row-major

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise TheoryError("matrix entry count mismatch")

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))


def _as_evaluator(model: FinSetModel, op: OpSymbol | Morphism):
    """Accept an operation symbol or any morphism with target 1."""
    if isinstance(op, Morphism):
        if op.target != 1:
            raise TheoryError("matrix actions need maps with target 1")
        return op.source, lambda args: reference_eval_morphism(model, op, args)[0]
    return op.arity, lambda args: model.apply(op.name, args)


def act_left(model: FinSetModel, alpha: OpSymbol | Morphism,
             mat: MatrixView) -> tuple[int, ...]:
    """Apply alpha to each column; the matrix must have arity-many rows."""
    arity, evaluate = _as_evaluator(model, alpha)
    if mat.rows != arity:
        raise TheoryError("row count must equal the operation arity")
    return tuple(evaluate(mat.col(j)) for j in range(mat.cols))


def act_right(model: FinSetModel, mat: MatrixView,
              beta: OpSymbol | Morphism) -> tuple[int, ...]:
    """Apply beta to each row; the matrix must have arity-many columns."""
    arity, evaluate = _as_evaluator(model, beta)
    if mat.cols != arity:
        raise TheoryError("column count must equal the operation arity")
    return tuple(evaluate(mat.row(i)) for i in range(mat.rows))


def reference_semantic_commutativity_check(model: FinSetModel):
    """Column action then row action must equal row action then column
    action; (verdict, pairs, witness) with the witness matrix's entries."""
    pairs = []
    witness = None
    for a in model.theory.basis_ops():
        for b in model.theory.basis_ops():
            ok = True
            for entries in all_tuples(model.size, a.arity * b.arity):
                mat = MatrixView(a.arity, b.arity, tuple(entries))
                via_cols = model.apply(b.name, act_left(model, a, mat))
                via_rows = model.apply(a.name, act_right(model, mat, b))
                if via_cols != via_rows:
                    ok = False
                    if witness is None:
                        witness = (a.name, b.name, mat.entries)
                    break
            pairs.append((a.name, b.name, ok))
    verdict = "Passes" if all(ok for _, _, ok in pairs) else "Fails"
    return verdict, tuple(pairs), witness


def test_act_left_identity_and_projection():
    model = validate_model(T_COMM, 2, Z2)
    assert act_left(model, OpSymbol("u", 0), MatrixView(0, 2, ())) == \
        (model.apply("u", ()),) * 2


def test_act_left_example():
    # the column action is the power f·k of the square's first leg
    model = validate_model(T_COMM, 2, Z2)
    mat = MatrixView(2, 2, (1, 0, 1, 1))
    assert act_left(model, T_COMM.op("m"), mat) == (0, 1)
    assert model.eval_morphism(power_right(generator_morphism(T_COMM.op("m")), 2),
                               mat.entries) == (0, 1)


def test_act_right_row_application():
    # the row action is the power k·f of the square's other leg
    model = validate_model(T_COMM, 2, Z2)
    mat = MatrixView(2, 2, (1, 0, 1, 1))
    assert act_right(model, mat, T_COMM.op("m")) == (1, 0)
    assert model.eval_morphism(power_left(generator_morphism(T_COMM.op("m")), 2),
                               mat.entries) == (1, 0)


def test_act_transpose_factorization():
    model = validate_model(T_COMM, 2, Z2)
    op = T_COMM.op("m")
    for entries in itertools.product(range(2), repeat=4):
        mat = MatrixView(2, 2, tuple(entries))
        matT = MatrixView(2, 2, tuple(model.eval_morphism(transpose(2, 2), entries)))
        assert act_right(model, mat, op) == act_left(model, op, matT)


def test_semantic_commutativity():
    model = validate_model(T_COMM, 2, Z2)
    assert semantic_commutativity_check(model).verdict == "Passes"
    one = validate_model(T_COMM, 1, {"m": (0,), "u": (0,)})
    assert semantic_commutativity_check(one).verdict == "Passes"
    maps = [(0, 1), (1, 0), (0, 0), (1, 1)]
    table = []
    for f in maps:
        for g in maps:
            table.append(maps.index(tuple(g[f[x]] for x in (0, 1))))
    selfmaps = validate_model(T_ASS, 4, {"m": tuple(table), "u": (0,)})
    report = semantic_commutativity_check(selfmaps)
    assert report.verdict == "Fails"
    a, b, env = report.witness
    assert (a, b) == ("m", "m") and len(env) == 4


def test_semantic_commutativity_matches_matrix_actions():
    checked = failing = 0
    for theory in (T_ASS, T_COMM, T_POINTED, T_INV_1D, T_SEMIRING):
        for size in (1, 2, 3):
            for model in enumerate_models(theory, size):
                report = semantic_commutativity_check(model)
                assert (report.verdict, report.pairs, report.witness) == \
                    reference_semantic_commutativity_check(model)
                checked += 1
                failing += report.verdict == "Fails"
    assert (checked, failing) == (124, 46)


def test_semantic_check_builds_each_square_once_per_theory(monkeypatch):
    built = []

    def square(alpha, beta):
        built.append((alpha, beta))
        return commutativity_square(alpha, beta)

    monkeypatch.setattr(theory_module, "commutativity_square", square)
    fresh = dataclasses.replace(T_SEMIRING)
    models = [m for size in (1, 2) for m in enumerate_models(fresh, size)]
    for model in models:
        semantic_commutativity_check(model)
    assert len(models) > 1 and len(built) == len(fresh.basis_ops()) ** 2


def _counting_enumeration(monkeypatch):
    """Patch ``finset.enumerate_models`` to log each call's size in ``calls``
    and each model it yields in ``yielded``."""
    calls, yielded = [], []
    real = finset.enumerate_models

    def counting(theory, size):
        calls.append(size)
        for model in real(theory, size):
            yielded.append(model)
            yield model
    monkeypatch.setattr(finset, "enumerate_models", counting)
    return calls, yielded


def test_interleaved_replays_see_the_fresh_sequence():
    fresh = dataclasses.replace(T_ASS)
    want = list(enumerate_models(T_ASS, 3))
    a, b = fresh.models(3), fresh.models(3)
    got_a, got_b = [], []
    for turn in itertools.count():
        step_a = list(itertools.islice(a, 2))
        step_b = list(itertools.islice(b, 1 + turn % 3))
        if not step_a and not step_b:
            break
        got_a += step_a
        got_b += step_b
    assert len(want) > 3 and got_a == want and got_b == want
    assert list(fresh.models(3)) == want


def test_a_partly_consumed_size_resumes(monkeypatch):
    calls, yielded = _counting_enumeration(monkeypatch)
    fresh = dataclasses.replace(T_ASS)
    first = next(fresh.models(3))
    assert calls == [3] and yielded == [first]
    assert next(fresh.models(3)) is first
    models = list(fresh.models(3))
    assert calls == [3] and yielded == models and models[0] is first
    assert list(fresh.models(3)) == models and calls == [3]
    assert [m for size in (1, 2) for m in fresh.models(size)] and calls == [3, 1, 2]
    # The replays live on the theory object: another one enumerates again.
    list(dataclasses.replace(T_ASS).models(3))
    assert calls == [3, 1, 2, 3]


def test_an_enumeration_over_the_cell_limit_raises_on_every_call(monkeypatch):
    calls, _ = _counting_enumeration(monkeypatch)
    fresh = dataclasses.replace(T_ASS)
    size = 16  # 16 ** 2 + 1 cells
    assert size ** 2 + 1 > finset.MODEL_CELL_LIMIT
    for _ in range(3):
        with pytest.raises(EnumerationBound):
            next(fresh.models(size))
    with pytest.raises(EnumerationBound):
        list(fresh.models(size))
    assert calls == [size] * 4


def test_enumerate_homs_examples():
    z2 = validate_model(T_COMM, 2, Z2)
    one = validate_model(T_COMM, 1, {"m": (0,), "u": (0,)})
    band = validate_model(T_COMM, 2, AND)
    assert len(enumerate_homs(z2, one)) == 1
    homs = enumerate_homs(z2, z2)
    assert len(homs) == 2
    assert {h.mapping for h in homs} == {(0, 0), (0, 1)}
    assert [h.mapping for h in enumerate_homs(band, z2)] == [(0, 0)]


def is_hom(source: FinSetModel, target: FinSetModel, mapping: tuple[int, ...]) -> bool:
    for g in source.theory.generators:
        for args in all_tuples(source.size, g.arity):
            lhs = mapping[source.apply(g.name, args)]
            rhs = target.apply(g.name, tuple(mapping[a] for a in args))
            if lhs != rhs:
                return False
    return True


def test_enumerate_homs_matches_product_then_filter():
    shipped = shipped_models("finset")
    z3 = next(m for m in enumerate_models(T_COMM, 3))
    pairs = [(s, t) for s in shipped for t in shipped if s.theory == t.theory]
    pairs += [(power_model(m, 2), m) for m in shipped + [z3]]
    assert len(pairs) > len(shipped)
    for source, target in pairs:
        reference = [m for m in itertools.product(range(target.size), repeat=source.size)
                     if is_hom(source, target, m)]
        assert [h.mapping for h in enumerate_homs(source, target)] == reference


def compose_homs(f: ModelHom, g: ModelHom) -> ModelHom:
    if f.target != g.source:
        raise TheoryError("hom composition mismatch")
    return ModelHom(f.source, g.target, tuple(g.mapping[v] for v in f.mapping))


def test_homs_closed_under_composition():
    z2 = validate_model(T_COMM, 2, Z2)
    homs = enumerate_homs(z2, z2)
    keys = {h.mapping for h in homs}
    for f in homs:
        for g in homs:
            assert compose_homs(f, g).mapping in keys


def test_hom_determined_by_mapping():
    z2 = validate_model(T_COMM, 2, Z2)
    homs = enumerate_homs(z2, z2)
    assert len({h.mapping for h in homs}) == len(homs)


def test_power_model_pointwise():
    z2 = validate_model(T_COMM, 2, Z2)
    sq = power_model(z2, 2)
    assert sq.size == 4
    # (1,0) + (1,1) = (0,1): encoded 2 + 3 -> 1
    assert sq.apply("m", (2, 3)) == 1


def test_eh_uniqueness_probe():
    z2 = validate_model(T_COMM, 2, Z2)
    assert eh_uniqueness_probe(T_COMM, z2).count == 1
    pointed = validate_model(T_POINTED, 2, {"u": (0,)})
    assert eh_uniqueness_probe(T_POINTED, pointed).count == 1
    swap = validate_model(T_INV_1D, 2, {"inv": (1, 0)})
    report = eh_uniqueness_probe(T_INV_1D, swap)
    assert report.count == 2 and not report.unique


def test_eh_uniqueness_bound(monkeypatch):
    maps = validate_model(T_COMM, 2, Z2)
    monkeypatch.setattr(finset, "EH_PROBE_SIZE_BOUND", 1)
    with pytest.raises(EnumerationBound, match="carrier 2 exceeds probe bound 1"):
        eh_uniqueness_probe(T_COMM, maps)


def test_act_with_identity_and_projection_morphisms():
    model = validate_model(T_COMM, 2, Z2)
    mat = MatrixView(1, 3, (1, 0, 1))
    assert act_left(model, identity(1), mat) == (1, 0, 1)
    mat2 = MatrixView(2, 2, (1, 0, 0, 1))
    assert act_right(model, mat2, proj_morphism(0, 2)) == (1, 0)  # first column
