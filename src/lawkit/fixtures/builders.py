"""Programmatic builders for the shipped theories, exchange tables, and probes.

The two-dimensional presentations are strictified: associativity and units
hold as 1-cell equations, while braidings/symmetries/involution witnesses
survive as genuine 2-cells.  Every shipped probe model satisfies the strict
equations on the nose.
"""

from __future__ import annotations

from ..cells import (
    Gen,
    HWhiskerL,
    HWhiskerR,
    Id,
    Par,
    SigmaTable,
    TwoCellSymbol,
    TwoTheoryPresentation,
    Vert,
)
from ..catmodels import CatModel
from ..fincat import (
    FinCategory,
    FinFunctor,
    FinNat,
    discrete_category,
    graded_scalar_category,
    poset_category,
    power,
)
from ..theory import (
    Apply,
    Equation,
    Morphism,
    OpSymbol,
    Proj,
    TheoryPresentation,
    compose,
    generator_morphism,
    identity,
    normalize_morphism,
    par,
)

M = OpSymbol("m", 2)
U = OpSymbol("u", 0)
INV = OpSymbol("inv", 1)


def _x(i: int, n: int) -> Proj:
    return Proj(i, n)


def _ap(op: OpSymbol, args, n: int) -> Apply:
    return Apply(op, tuple(args), n)


def _t1(term) -> Morphism:
    return Morphism(term.context, 1, (term,))


def _assoc() -> Equation:
    lhs = _t1(_ap(M, [_ap(M, [_x(0, 3), _x(1, 3)], 3), _x(2, 3)], 3))
    rhs = _t1(_ap(M, [_x(0, 3), _ap(M, [_x(1, 3), _x(2, 3)], 3)], 3))
    return Equation("assoc", lhs, rhs)


def _lunit() -> Equation:
    return Equation("lunit", _t1(_ap(M, [_ap(U, [], 1), _x(0, 1)], 1)), identity(1))


def _runit() -> Equation:
    return Equation("runit", _t1(_ap(M, [_x(0, 1), _ap(U, [], 1)], 1)), identity(1))


def _comm() -> Equation:
    return Equation("comm", _t1(_ap(M, [_x(1, 2), _x(0, 2)], 2)),
                    _t1(_ap(M, [_x(0, 2), _x(1, 2)], 2)))


def _comm_bridge() -> Equation:
    lhs = _t1(_ap(M, [_x(1, 3), _ap(M, [_x(0, 3), _x(2, 3)], 3)], 3))
    rhs = _t1(_ap(M, [_x(0, 3), _ap(M, [_x(1, 3), _x(2, 3)], 3)], 3))
    return Equation("comm_assoc", lhs, rhs)


t_ass = TheoryPresentation("t_ass", (M, U), (_assoc(), _lunit(), _runit()))
t_comm = TheoryPresentation(
    "t_comm", (M, U), (_assoc(), _lunit(), _runit(), _comm(), _comm_bridge()))
t_pointed = TheoryPresentation("t_pointed", (U,), ())
t_inv_1d = TheoryPresentation(
    "t_inv_1d", (INV,),
    (Equation("invol", _t1(_ap(INV, [_ap(INV, [_x(0, 1)], 1)], 1)), identity(1)),))


def monoid_theory(name: str, size: int, table, unit: int) -> TheoryPresentation:
    """The theory of actions of an explicitly tabulated monoid."""
    gens = tuple(OpSymbol(f"r{i}", 1) for i in range(size))
    eqs = []
    for i in range(size):
        for j in range(size):
            lhs = _t1(_ap(gens[i], [_ap(gens[j], [_x(0, 1)], 1)], 1))
            rhs = _t1(_ap(gens[table[i][j]], [_x(0, 1)], 1))
            if lhs != rhs:
                eqs.append(Equation(f"comp_{i}_{j}", lhs, rhs))
    eqs.append(Equation("unit_act", _t1(_ap(gens[unit], [_x(0, 1)], 1)), identity(1)))
    return TheoryPresentation(name, gens, tuple(eqs))


def _semiring() -> TheoryPresentation:
    add = OpSymbol("add", 2)
    zero = OpSymbol("zero", 0)
    mul = OpSymbol("mul", 2)
    one = OpSymbol("one", 0)

    def t(op, args, n):
        return _ap(op, args, n)

    eqs = (
        Equation("add_assoc",
                 _t1(t(add, [t(add, [_x(0, 3), _x(1, 3)], 3), _x(2, 3)], 3)),
                 _t1(t(add, [_x(0, 3), t(add, [_x(1, 3), _x(2, 3)], 3)], 3))),
        Equation("add_comm", _t1(t(add, [_x(1, 2), _x(0, 2)], 2)),
                 _t1(t(add, [_x(0, 2), _x(1, 2)], 2))),
        Equation("add_zero_l", _t1(t(add, [t(zero, [], 1), _x(0, 1)], 1)), identity(1)),
        Equation("add_zero_r", _t1(t(add, [_x(0, 1), t(zero, [], 1)], 1)), identity(1)),
        Equation("mul_assoc",
                 _t1(t(mul, [t(mul, [_x(0, 3), _x(1, 3)], 3), _x(2, 3)], 3)),
                 _t1(t(mul, [_x(0, 3), t(mul, [_x(1, 3), _x(2, 3)], 3)], 3))),
        Equation("mul_comm", _t1(t(mul, [_x(1, 2), _x(0, 2)], 2)),
                 _t1(t(mul, [_x(0, 2), _x(1, 2)], 2))),
        Equation("mul_one_l", _t1(t(mul, [t(one, [], 1), _x(0, 1)], 1)), identity(1)),
        Equation("mul_one_r", _t1(t(mul, [_x(0, 1), t(one, [], 1)], 1)), identity(1)),
        Equation("annihil_l", _t1(t(mul, [t(zero, [], 1), _x(0, 1)], 1)),
                 Morphism(1, 1, (t(zero, [], 1),))),
        Equation("annihil_r", _t1(t(mul, [_x(0, 1), t(zero, [], 1)], 1)),
                 Morphism(1, 1, (t(zero, [], 1),))),
        Equation("distrib",
                 _t1(t(add, [t(mul, [_x(0, 3), _x(1, 3)], 3),
                             t(mul, [_x(0, 3), _x(2, 3)], 3)], 3)),
                 _t1(t(mul, [_x(0, 3), t(add, [_x(1, 3), _x(2, 3)], 3)], 3))),
    )
    return TheoryPresentation("t_semiring", (add, zero, mul, one), eqs)


t_semiring = _semiring()


# -- two-dimensional presentations ----------------------------------------------------

_mor_m = generator_morphism(M)
_swap = Morphism(2, 2, (Proj(1, 2), Proj(0, 2)))
_ms = compose(_swap, _mor_m)
_id1 = identity(1)
_left_tree = compose(par([_mor_m, _id1]), _mor_m)   # m(m(x1,x2),x3)
_perm132 = Morphism(3, 3, (Proj(0, 3), Proj(2, 3), Proj(1, 3)))
_perm213 = Morphism(3, 3, (Proj(1, 3), Proj(0, 3), Proj(2, 3)))


def _hexagons(cell: TwoCellSymbol):
    b = Gen(cell)
    hex_left = (
        "hex_left",
        HWhiskerL(par([_mor_m, _id1]), b),
        Vert(HWhiskerR(Par((Id(_id1), b)), _mor_m),
             HWhiskerL(_perm132, HWhiskerR(Par((b, Id(_id1))), _mor_m))),
    )
    hex_right = (
        "hex_right",
        HWhiskerL(par([_id1, _mor_m]), b),
        Vert(HWhiskerR(Par((b, Id(_id1))), _mor_m),
             HWhiskerL(_perm213, HWhiskerR(Par((Id(_id1), b)), _mor_m))),
    )
    return hex_left, hex_right


_braiding = TwoCellSymbol("b", _mor_m, _ms, invertible=True)
_symmetry = TwoCellSymbol("c", _mor_m, _ms, invertible=True)

# The two-dimensional bases carry only associativity and units as strict
# equations; commutativity data lives in the 2-cells.  A strict "m o swap = m"
# equation would force the exchange cells to forget the braiding sign, which
# is exactly what probe models with a nontrivial symmetry refute.
_monoidal_base = (_assoc(), _lunit(), _runit())

t_ass_flat = TwoTheoryPresentation(
    TheoryPresentation("t_ass_flat", (M, U), _monoidal_base))
t_braid = TwoTheoryPresentation(
    TheoryPresentation("t_braid", (M, U), _monoidal_base),
    (_braiding,), _hexagons(_braiding))
t_comm_flat = TwoTheoryPresentation(
    TheoryPresentation("t_comm_flat", (M, U), _monoidal_base),
    (_symmetry,),
    _hexagons(_symmetry) + (
        ("symmetry", Vert(Gen(_symmetry), HWhiskerL(_swap, Gen(_symmetry))), Id(_mor_m)),
    ),
)
t_pointed_flat = TwoTheoryPresentation(
    TheoryPresentation("t_pointed_flat", (U,), ()))

_mor_inv = generator_morphism(INV)
_invinv = compose(_mor_inv, _mor_inv)
_iota = TwoCellSymbol("iota", _id1, _invinv, invertible=True)
t_inv = TwoTheoryPresentation(
    TheoryPresentation(
        "t_inv", (INV,),
        (Equation("invol", _t1(_ap(INV, [_ap(INV, [_x(0, 1)], 1)], 1)), identity(1)),)),
    (_iota,),
    (("snake", HWhiskerL(_mor_inv, Gen(_iota)), HWhiskerR(Gen(_iota), _mor_inv)),))

RHO = OpSymbol("rho", 1)
_mor_rho = generator_morphism(RHO)
_rhorho = compose(_mor_rho, _mor_rho)
_c11 = TwoCellSymbol("c11", _rhorho, _rhorho, invertible=True)
t_gl2 = TwoTheoryPresentation(
    TheoryPresentation("t_gl2", (RHO,),
                       (Equation("rho_invol",
                                 _t1(_ap(RHO, [_ap(RHO, [_x(0, 1)], 1)], 1)),
                                 identity(1)),)),
    (_c11,),
    (("c11_sq", Vert(Gen(_c11), Gen(_c11)), Id(_rhorho)),))


def _nf(theory: TheoryPresentation, f: Morphism) -> Morphism:
    nf, _, _ = normalize_morphism(theory, f)
    return nf


def _canonical_sigma_mm(cell: TwoCellSymbol):
    return HWhiskerR(Par((Id(_id1), Gen(cell), Id(_id1))), _left_tree)


def _unit_entries(base: TheoryPresentation):
    from ..theory import row_then_col
    mu = _nf(base, row_then_col(_mor_m, generator_morphism(U)))
    um = _nf(base, row_then_col(generator_morphism(U), _mor_m))
    uu = _nf(base, row_then_col(generator_morphism(U), generator_morphism(U)))
    return (
        (("m", "u"), Id(mu)),
        (("u", "m"), Id(um)),
        (("u", "u"), Id(uu)),
    )


sigma_comm_flat = SigmaTable(
    "sigma_comm_flat", "pseudo",
    ((("m", "m"), _canonical_sigma_mm(_symmetry)),) + _unit_entries(t_comm_flat.base),
    symmetric=True)

sigma_braid = SigmaTable(
    "sigma_braid", "pseudo",
    ((("m", "m"), _canonical_sigma_mm(_braiding)),) + _unit_entries(t_braid.base),
    symmetric=False)

sigma_inv = SigmaTable(
    "sigma_inv", "strict",
    ((("inv", "inv"), Id(identity(1))),))

sigma_pointed_flat = SigmaTable(
    "sigma_pointed_flat", "strict",
    ((("u", "u"), Id(Morphism(0, 1, (_ap(U, [], 0),)))),))

sigma_gl = SigmaTable(
    "sigma_gl", "pseudo",
    ((("rho", "rho"), Gen(_c11)),))


# -- probe models -------------------------------------------------------------------

def poset_chain(n: int) -> FinCategory:
    return poset_category([(i, j) for i in range(n) for j in range(i, n)], n)


def _thin_functor(src: FinCategory, dst: FinCategory, obj_map) -> FinFunctor:
    arr_map = []
    for a in range(src.n_arrows):
        image_hom = dst.hom(obj_map[src.src[a]], obj_map[src.dst[a]])
        if len(image_hom) != 1:
            raise ValueError("object map is not functorial into the thin target")
        arr_map.append(image_hom[0])
    return FinFunctor(src, dst, tuple(obj_map), tuple(arr_map))


def _identity_cellnat(model_functor: FinFunctor, carrier: FinCategory) -> FinNat:
    comps = tuple(carrier.identity[model_functor.obj_map[o]]
                  for o in range(model_functor.source.n_objects))
    return FinNat(model_functor, model_functor, comps)


def poset_meet_model(theory2: TwoTheoryPresentation = t_comm_flat) -> CatModel:
    """The chain 0 <= 1 with meet as tensor and the top object as unit."""
    cat = poset_chain(2)
    sq = power(cat, 2)
    obj_map = tuple(min(sq.decode_obj(o)) for o in range(sq.n_objects))
    m_fun = _thin_functor(sq.cat, cat, obj_map)
    u_fun = FinFunctor(power(cat, 0).cat, cat, (1,), (cat.identity[1],))
    ops = [("m", m_fun), ("u", u_fun)]
    model = CatModel(theory2, cat, tuple(ops))
    cells = []
    for c in theory2.cells:
        nat = _identity_cellnat(model.functor_of(c.source), cat)
        cells.append((c.name, FinNat(model.functor_of(c.source),
                                     model.functor_of(c.target), nat.components)))
    return CatModel(theory2, cat, tuple(ops), tuple(cells))


def poset_join_model(theory2: TwoTheoryPresentation = t_comm_flat) -> CatModel:
    """The chain 0 <= 1 with join as tensor and the bottom object as unit."""
    cat = poset_chain(2)
    sq = power(cat, 2)
    obj_map = tuple(max(sq.decode_obj(o)) for o in range(sq.n_objects))
    m_fun = _thin_functor(sq.cat, cat, obj_map)
    u_fun = FinFunctor(power(cat, 0).cat, cat, (0,), (cat.identity[0],))
    ops = [("m", m_fun), ("u", u_fun)]
    model = CatModel(theory2, cat, tuple(ops))
    cells = []
    for c in theory2.cells:
        nat = _identity_cellnat(model.functor_of(c.source), cat)
        cells.append((c.name, FinNat(model.functor_of(c.source),
                                     model.functor_of(c.target), nat.components)))
    return CatModel(theory2, cat, tuple(ops), tuple(cells))


def pointed_poset_model(point: int = 0) -> CatModel:
    cat = poset_chain(2)
    u_fun = FinFunctor(power(cat, 0).cat, cat, (point,), (cat.identity[point],))
    return CatModel(t_pointed_flat, cat, (("u", u_fun),))


def discrete_group_model(n: int = 2) -> CatModel:
    """The discrete category on Z/n with addition as tensor."""
    cat = discrete_category(n)
    sq = power(cat, 2)
    obj_map = tuple(sum(sq.decode_obj(o)) % n for o in range(sq.n_objects))
    m_fun = FinFunctor(sq.cat, cat, obj_map, obj_map)
    u_fun = FinFunctor(power(cat, 0).cat, cat, (0,), (0,))
    return CatModel(t_ass_flat, cat, (("m", m_fun), ("u", u_fun)))


def _graded_tensor(cat: FinCategory, grading: int, scalars: int) -> FinFunctor:
    sq = power(cat, 2)
    obj_map = []
    for o in range(sq.n_objects):
        x, y = sq.decode_obj(o)
        obj_map.append((x + y) % grading)
    arr_map = []
    for a in range(sq.n_arrows):
        f, g = sq.decode_arr(a)
        x, s = divmod(f, scalars)
        y, t = divmod(g, scalars)
        arr_map.append(((x + y) % grading) * scalars + (s + t) % scalars)
    return FinFunctor(sq.cat, cat, tuple(obj_map), tuple(arr_map))


def braided_scalar_model(theory2: TwoTheoryPresentation, grading: int, scalars: int,
                         exponents, cell_name: str) -> CatModel:
    """Graded-lines style probe: objects Z/grading, endomorphism scalars
    Z/scalars, tensor by addition, braiding component exponents[x][y]."""
    cat = graded_scalar_category(grading, scalars)
    m_fun = _graded_tensor(cat, grading, scalars)
    u_fun = FinFunctor(power(cat, 0).cat, cat, (0,), (cat.identity[0],))
    ops = (("m", m_fun), ("u", u_fun))
    model = CatModel(theory2, cat, ops)
    sq = power(cat, 2)
    comps = []
    for o in range(sq.n_objects):
        x, y = sq.decode_obj(o)
        comps.append(((x + y) % grading) * scalars + exponents[x][y] % scalars)
    m_as = model.functor_of(theory2.cell(cell_name).source)
    m_at = model.functor_of(theory2.cell(cell_name).target)
    braid = FinNat(m_as, m_at, tuple(comps))
    return CatModel(theory2, cat, ops, ((cell_name, braid),))


def graded_lines() -> CatModel:
    """Z/2-graded lines with the sign braiding; a symmetric probe."""
    return braided_scalar_model(t_comm_flat, 2, 2, [[0, 0], [0, 1]], "c")


def graded_lines_z3() -> CatModel:
    """Z/3-graded lines: braided but not symmetric."""
    exps = [[(x * y) % 3 for y in range(3)] for x in range(3)]
    return braided_scalar_model(t_braid, 3, 3, exps, "b")


def graded_lines_mutant() -> CatModel:
    """The sign braiding with one flipped entry; breaks a hexagon."""
    return braided_scalar_model(t_comm_flat, 2, 2, [[0, 1], [0, 1]], "c")


def delooping_model(n: int = 2) -> CatModel:
    """One object with arrows Z/n; tensor adds arrows."""
    cat = graded_scalar_category(1, n)
    m_fun = _graded_tensor(cat, 1, n)
    u_fun = FinFunctor(power(cat, 0).cat, cat, (0,), (cat.identity[0],))
    return CatModel(t_ass_flat, cat, (("m", m_fun), ("u", u_fun)))


def two_object_involution_model() -> CatModel:
    """Discrete two objects swapped by the involution."""
    cat = discrete_category(2)
    inv_fun = FinFunctor(cat, cat, (1, 0), (1, 0))
    model = CatModel(t_inv, cat, (("inv", inv_fun),))
    iota = _identity_cellnat(model.functor_of(_id1), cat)
    iota = FinNat(model.functor_of(_id1), model.functor_of(_invinv), iota.components)
    return CatModel(t_inv, cat, (("inv", inv_fun),), (("iota", iota),))


def poset_involution_model() -> CatModel:
    """The chain with the identity involution."""
    cat = poset_chain(2)
    inv_fun = FinFunctor(cat, cat, (0, 1), tuple(range(cat.n_arrows)))
    model = CatModel(t_inv, cat, (("inv", inv_fun),))
    iota = _identity_cellnat(model.functor_of(_id1), cat)
    return CatModel(t_inv, cat, (("inv", inv_fun),),
                    (("iota", FinNat(model.functor_of(_id1), model.functor_of(_invinv),
                                     iota.components)),))


def scalar_involution_model() -> CatModel:
    """One object, scalar arrows Z/2, identity involution: the involutive
    probe whose algebras admit two distinct structures."""
    cat = graded_scalar_category(1, 2)
    inv_fun = FinFunctor(cat, cat, (0,), (0, 1))
    model = CatModel(t_inv, cat, (("inv", inv_fun),))
    iota = _identity_cellnat(model.functor_of(_id1), cat)
    return CatModel(t_inv, cat, (("inv", inv_fun),),
                    (("iota", FinNat(model.functor_of(_id1), model.functor_of(_invinv),
                                     iota.components)),))


def gl2_self_action_model() -> CatModel:
    """Z/2-graded lines acting on themselves through the shift; the braiding
    scalar becomes the exchange cell of the unary presentation."""
    cat = graded_scalar_category(2, 2)
    shift = FinFunctor(cat, cat,
                       tuple((x + 1) % 2 for x in range(2)),
                       tuple((((a // 2) + 1) % 2) * 2 + a % 2 for a in range(cat.n_arrows)))
    model = CatModel(t_gl2, cat, (("rho", shift),))
    rr = model.functor_of(_rhorho)
    comps = tuple(x * 2 + 1 for x in range(2))  # the -1 scalar at each object
    c11 = FinNat(rr, rr, comps)
    return CatModel(t_gl2, cat, (("rho", shift),), (("c11", c11),))
