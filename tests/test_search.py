import itertools

import pytest

import fixtures as fx
from lawkit import dsl
from lawkit.fincat import (
    FinFunctor,
    FinNat,
    enumerate_functors,
    enumerate_naturals,
    validate_functor,
    validate_nat,
)
from lawkit.finset import FinSetModel, enumerate_models
from lawkit.search import search
from references import reference_validate_model


T_ASS = fx.theory("t_ass").base
T_COMM = fx.theory("t_comm").base


def test_zero_slots_yield_one_empty_assignment():
    assert list(search(lambda i, a: range(3), [])) == [()]


def test_empty_domain_yields_nothing():
    domains = [range(2), range(0), range(2)]
    assert list(search(lambda i, a: domains[i], [[], [], []])) == []


def test_assignments_come_in_lexicographic_order():
    got = list(search(lambda i, a: range(3 - i), [[], []]))
    assert got == list(itertools.product(range(3), range(2)))


def test_undecided_check_is_retried_until_it_decides():
    calls = []

    def sum_is_even(a):
        calls.append(tuple(a))
        if len(a) < 3:
            return None
        return sum(a) % 2 == 0

    got = list(search(lambda i, a: range(2), [[sum_is_even], [], []]))
    assert got == [a for a in itertools.product(range(2), repeat=3) if sum(a) % 2 == 0]
    # Tried after slot 0, again after slot 1 while undecided, and decided after slot 2.
    assert calls[:3] == [(0,), (0, 0), (0, 0, 0)]


def test_a_check_that_holds_is_dropped_for_the_branch():
    calls = []

    def first_is_zero(a):
        calls.append(tuple(a))
        return a[0] == 0

    got = list(search(lambda i, a: range(2), [[first_is_zero], []]))
    assert got == [(0, 0), (0, 1)]
    assert calls == [(0,), (1,)]


# -- parity with product-then-validate references ---------------------------------

def reference_functors(c, d):
    out = []
    for obj_map in itertools.product(range(d.n_objects), repeat=c.n_objects):
        candidates = [
            [d.identity[obj_map[c.src[f]]]] if c.is_identity(f)
            else d.hom(obj_map[c.src[f]], obj_map[c.dst[f]])
            for f in c.arrows()]
        for arr_map in itertools.product(*candidates):
            fun = FinFunctor(c, d, obj_map, arr_map)
            if validate_functor(fun) is None:
                out.append(fun)
    return out


def reference_naturals(f, g):
    d = f.target
    choices = [d.hom(f.obj_map[a], g.obj_map[a]) for a in range(f.source.n_objects)]
    return [FinNat(f, g, comps) for comps in itertools.product(*choices)
            if validate_nat(FinNat(f, g, comps)) is None]


def shipped_carriers():
    """The distinct carriers of the shipped categorical models, by model name."""
    carriers = {}
    for path in fx.law_files():
        doc, _ = dsl.parse_file(path)
        for decl in doc.models:
            if decl.kind != "finset":
                carrier = doc.cat_model(decl.name).carrier
                if carrier not in carriers.values():
                    carriers[decl.name] = carrier
    return carriers


CARRIER_PAIRS = [
    pytest.param(c, d, id=f"{cn}-{dn}")
    for cn, c in shipped_carriers().items() for dn, d in shipped_carriers().items()
    if d.n_objects ** c.n_objects <= 256]


@pytest.mark.parametrize("c, d", CARRIER_PAIRS)
def test_functors_and_naturals_match_product_reference(c, d):
    functors = enumerate_functors(c, d)
    assert functors == reference_functors(c, d)
    # Every pair of up to 32 evenly spaced functors: all pairs of the 729
    # endofunctors of graded_lines_z3 would take the reference ten seconds.
    sample = functors[::-(-len(functors) // 32)]
    for f in sample:
        for g in sample:
            assert enumerate_naturals(f, g) == reference_naturals(f, g)


def reference_models(theory, size):
    shapes = [(g.name, size ** g.arity) for g in theory.generators]
    out = []
    for flat in itertools.product(range(size), repeat=sum(n for _, n in shapes)):
        tables, at = {}, 0
        for name, n in shapes:
            tables[name] = flat[at:at + n]
            at += n
        model = reference_validate_model(theory, size, tables)
        if isinstance(model, FinSetModel):
            out.append(model)
    return out


@pytest.mark.parametrize("theory", [T_ASS, T_COMM], ids=["t_ass", "t_comm"])
@pytest.mark.parametrize("size", [1, 2, 3])
def test_models_match_product_reference(theory, size):
    assert list(enumerate_models(theory, size)) == reference_models(theory, size)
