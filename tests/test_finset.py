import itertools

import pytest

import oracles
from conftest import shipped_models
from lawkit import finset, fixtures as fx
from lawkit.finset import (
    FinSetModel,
    MatrixView,
    ModelHom,
    Violation,
    act_left,
    act_right,
    all_tuples,
    compose_homs,
    enumerate_homs,
    enumerate_models,
    eh_uniqueness_probe,
    power_model,
    semantic_commutativity_check,
    validate_model,
)
from lawkit.theory import TheoryError, transpose
from references import proj_morphism


T_ASS = fx.theory("t_ass").base
T_COMM = fx.theory("t_comm").base
T_POINTED = fx.theory("t_pointed").base
T_INV_1D = fx.theory("t_inv_1d").base

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


def reference_validate_model(theory, size, tables):
    """Scan every input tuple of every equation's full context."""
    model = FinSetModel(theory, size, tuple((g.name, tables[g.name]) for g in theory.generators))
    for eq in theory.equations:
        for env in itertools.product(range(size), repeat=eq.lhs.source):
            lv, rv = model.eval_morphism(eq.lhs, env), model.eval_morphism(eq.rhs, env)
            if lv != rv:
                return Violation(eq.name, env, lv, rv)
    return model


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


def test_enumeration_matches_oracle():
    for size in (1, 2, 3):
        got = list(enumerate_models(T_ASS, size))
        want = oracles.monoids(size)
        assert len(got) == len(want)
        got_keys = {m.table("m") for m in got}
        want_keys = {tuple(x for row in t for x in row) for t, _ in want}
        assert got_keys == want_keys


def test_act_left_identity_and_projection():
    model = validate_model(T_COMM, 2, Z2)
    mat = MatrixView(1, 3, (1, 0, 1))
    ident = T_COMM.op("m")
    # identity-arity-1 behaviour via a 1-row matrix and the nullary-free op
    from lawkit.theory import OpSymbol
    assert act_left(model, OpSymbol("u", 0), MatrixView(0, 2, ())) == \
        (model.apply("u", ()),) * 2


def test_act_left_example():
    model = validate_model(T_COMM, 2, Z2)
    mat = MatrixView(2, 2, (1, 0, 1, 1))
    assert act_left(model, T_COMM.op("m"), mat) == (0, 1)


def test_act_right_row_application():
    model = validate_model(T_COMM, 2, Z2)
    mat = MatrixView(2, 2, (1, 0, 1, 1))
    assert act_right(model, mat, T_COMM.op("m")) == (1, 0)


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
    a, b, mat = report.witness
    assert (a, b) == ("m", "m") and mat.rows == 2 and mat.cols == 2


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
    with pytest.raises(TheoryError):
        eh_uniqueness_probe(T_COMM, maps)


def test_act_with_identity_and_projection_morphisms():
    from lawkit.theory import identity
    model = validate_model(T_COMM, 2, Z2)
    mat = MatrixView(1, 3, (1, 0, 1))
    assert act_left(model, identity(1), mat) == (1, 0, 1)
    mat2 = MatrixView(2, 2, (1, 0, 0, 1))
    assert act_right(model, mat2, proj_morphism(0, 2)) == (1, 0)  # first column
