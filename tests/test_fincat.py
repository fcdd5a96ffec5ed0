import itertools

from lawkit.fincat import (
    FinFunctor,
    build_category,
    compose_functors,
    enumerate_functors,
    enumerate_naturals,
    graded_scalar_category,
    identity_components,
    product,
    power,
    terminal_category,
    validate_category,
    validate_functor,
    validate_nat,
)
from references import (
    group_delooping,
    identity_functor,
    poset_category,
    reference_validate_functor,
    vert_nat,
    whisker_left,
    whisker_right,
)


def chain2():
    return poset_category([(0, 1)], 2)


def test_validate_poset():
    assert validate_category(chain2()) is None


def test_validate_delooping():
    assert validate_category(group_delooping(2)) is None


def test_corrupted_composition_is_reported():
    # mutating 1*1 in B(Z/2) gives the (valid) join monoid, so corrupt B(Z/3):
    # setting 1*1 = 1 breaks associativity at the triple (1,1,2)
    comp = {(a, b): (a + b) % 3 for a in range(3) for b in range(3)}
    comp[(1, 1)] = 1
    bad = build_category(1, [0] * 3, [0] * 3, [0], comp)
    violation = validate_category(bad)
    assert violation is not None
    assert violation.kind == "associativity"
    assert violation.data == (1, 1, 2)


def test_product_counts():
    p = chain2()
    pp = product([p, p])
    assert pp.n_objects == 4 and pp.n_arrows == 9
    assert validate_category(pp.cat) is None
    empty = product([])
    assert empty.cat.n_objects == 1 and empty.cat.n_arrows == 1
    assert product([p]).cat == p


def test_power_of_power_is_flat_power():
    c = group_delooping(2)
    flat = power(c, 4).cat
    nested = power(power(c, 2).cat, 2).cat
    assert flat == nested


def test_enumerate_functors_counts():
    p = chain2()
    term = terminal_category()
    assert len(enumerate_functors(term, p)) == p.n_objects
    assert len(enumerate_functors(group_delooping(2), group_delooping(2))) == 2
    assert len(enumerate_functors(p, p)) == 3


def test_enumerate_naturals_thin():
    p = chain2()
    funcs = enumerate_functors(p, p)
    ident = identity_functor(p)
    const1 = [f for f in funcs if set(f.obj_map) == {1}][0]
    assert len(enumerate_naturals(ident, const1)) == 1
    assert len(enumerate_naturals(const1, ident)) == 0


def test_interchange_on_shipped_categories():
    for cat in (chain2(), group_delooping(2), graded_scalar_category(2, 2)):
        funcs = enumerate_functors(cat, cat)[:3]
        for f in funcs:
            for g in funcs:
                for h in funcs:
                    for a in enumerate_naturals(f, g):
                        for b in enumerate_naturals(g, h):
                            for f2 in funcs[:2]:
                                # whisker the vertical composite two ways
                                left = whisker_right(vert_nat(a, b), f2)
                                right = vert_nat(whisker_right(a, f2),
                                                 whisker_right(b, f2))
                                assert left == right
                                left = whisker_left(f2, vert_nat(a, b))
                                right = vert_nat(whisker_left(f2, a),
                                                 whisker_left(f2, b))
                                assert left == right


def test_functor_composition_associative():
    p = chain2()
    funcs = enumerate_functors(p, p)
    for f in funcs:
        for g in funcs:
            for h in funcs:
                assert compose_functors(compose_functors(f, g), h) == \
                    compose_functors(f, compose_functors(g, h))


def test_inverse_lookup():
    g = graded_scalar_category(1, 3)
    assert g.inverse(1) == 2
    p = chain2()
    assert p.inverse(2) is None


def test_functor_validation_flags_bad_arrow():
    p = chain2()
    bad = FinFunctor(p, p, (0, 1), (0, 1, 0))
    assert validate_functor(bad) is not None


def test_nat_validation_flags_bad_component():
    p = chain2()
    ident = identity_functor(p)
    from lawkit.fincat import FinNat
    assert validate_nat(FinNat(ident, ident, identity_components(ident))) is None
    assert validate_nat(FinNat(ident, ident, (2, 1))) is not None


def test_validate_functor_finds_the_first_violation_of_a_full_scan():
    cats = [chain2(), group_delooping(3), graded_scalar_category(2, 2),
            poset_category([(0, 1), (1, 2), (0, 2)], 3), power(group_delooping(2), 2).cat]
    kinds = set()
    for c in cats:
        for d in cats:
            for obj_map in itertools.product(range(d.n_objects), repeat=c.n_objects):
                choices = [d.hom(obj_map[c.src[f]], obj_map[c.dst[f]]) for f in c.arrows()]
                # Arrows sent anywhere too, so endpoint violations occur.
                choices[-1] = list(d.arrows())
                for arr_map in itertools.product(*choices):
                    fun = FinFunctor(c, d, obj_map, arr_map)
                    found = validate_functor(fun)
                    assert found == reference_validate_functor(fun)
                    kinds.add(found and found.kind)
    assert kinds == {None, "functor-endpoints", "functor-identity", "functor-composition"}
