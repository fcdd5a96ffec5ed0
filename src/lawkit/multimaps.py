"""Binary multimaps between models, the currying correspondence with the
internal hom, the comonad of internal algebras, and the two-dimensional
collapse probes.

A binary multimap f: X, Y -> Z is a functor f11 on the product carrier that
is a homomorphism in each variable separately, subject to one exchange
condition per pair of basis operations: acting on the rows and then the
column must agree with acting on the columns and then the row, across the
evaluated exchange cell of Z.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from . import catmodels, fincat
from .catmodels import (
    CatModel,
    HomCategory,
    HomCoherence,
    LaxHom,
    Modification,
    _object_key,
    compose_homs,
    enumerate_homs_w,
    enumerate_modifications,
    hom_from_components,
    internal_algebras,
    internal_coalgebras,
    internal_hom,
    lift_hom,
    power_cat_model,
    power_hom,
    terminal_model,
    validate_lax_hom,
    validate_modification,
)
from .cells import (
    SigmaTable,
    derive_sigma,
    is_invertible_pasting,
    pasting_components,
)
from .fincat import FinFunctor, enumerate_functors
from .search import EnumerationBound, search
from .theory import Equal, TwoTheoryPresentation, check_unital, generator_morphism


class BinaryMultimap(NamedTuple):
    weakness: str
    f11: FinFunctor  # (X x Y)-carrier -> Z-carrier
    cells_left: tuple[tuple[str, tuple[int, ...]], ...]   # f_{a,1}, indexed (x-power, y)
    cells_right: tuple[tuple[str, tuple[int, ...]], ...]  # f_{1,a}, indexed (x, y-power)


def _pair(y_count: int, x_idx: int, y_idx: int) -> int:
    return x_idx * y_count + y_idx


def _slice_left_hom(X: CatModel, Y: CatModel, Z: CatModel, weakness: str,
                    f11: FinFunctor, cells_left, y_obj: int) -> LaxHom:
    """The homomorphism f(-, y) at a fixed object y."""
    ny = Y.carrier.n_objects
    prod = fincat.product([X.carrier, Y.carrier])
    obj_map = tuple(f11.obj_map[prod.encode_obj((x, y_obj))]
                    for x in range(X.carrier.n_objects))
    idy = Y.carrier.identity[y_obj]
    arr_map = tuple(f11.arr_map[prod.encode_arr((a, idy))]
                    for a in range(X.carrier.n_arrows))
    f1 = FinFunctor(X.carrier, Z.carrier, obj_map, arr_map)
    tables = [[cells_left[g.name][_pair(ny, xi, y_obj)]
               for xi in range(X.power(g.arity).n_objects)]
              for g in X.theory.base.generators]
    return hom_from_components(X, Z, weakness, f1, tables)


def _slice_right_hom(X: CatModel, Y: CatModel, Z: CatModel, weakness: str,
                     f11: FinFunctor, cells_right, x_obj: int) -> LaxHom:
    prod = fincat.product([X.carrier, Y.carrier])
    obj_map = tuple(f11.obj_map[prod.encode_obj((x_obj, y))]
                    for y in range(Y.carrier.n_objects))
    idx = X.carrier.identity[x_obj]
    arr_map = tuple(f11.arr_map[prod.encode_arr((idx, a))]
                    for a in range(Y.carrier.n_arrows))
    f1 = FinFunctor(Y.carrier, Z.carrier, obj_map, arr_map)
    tables = []
    for g in Y.theory.base.generators:
        npow = Y.power(g.arity).n_objects
        tables.append(cells_right[g.name][x_obj * npow:(x_obj + 1) * npow])
    return hom_from_components(Y, Z, weakness, f1, tables)


def _exchange_condition(theory2: TwoTheoryPresentation, exchange_cell,
                        X: CatModel, Y: CatModel, Z: CatModel,
                        f11: FinFunctor, cells_left, cells_right) -> bool:
    """Row-then-column equals sigma followed by column-then-row, pointwise;
    ``exchange_cell(a, b)`` is the component table of sigma_{a,b} in Z."""
    prod = fincat.product([X.carrier, Y.carrier])
    zc = Z.carrier
    ny = Y.carrier.n_objects
    for a in theory2.base.basis_ops():
        for b in theory2.base.basis_ops():
            m, k = a.arity, b.arity
            (a_arr,) = Z._compiled(generator_morphism(a), True)
            (b_arr,) = Z._compiled(generator_morphism(b), True)
            sig = exchange_cell(a, b)
            zmk = Z.power(m * k)
            for xs in itertools.product(range(X.carrier.n_objects), repeat=m):
                xet = X.power(m).encode_obj(xs)
                ax = X.op_functor(a.name).obj_map[xet] if m else X.op_functor(a.name).obj_map[0]
                for ys in itertools.product(range(Y.carrier.n_objects), repeat=k):
                    yet = Y.power(k).encode_obj(ys)
                    by = Y.op_functor(b.name).obj_map[yet]
                    fmat = zmk.encode_obj(tuple(
                        f11.obj_map[prod.encode_obj((x, y))] for x in xs for y in ys))
                    # rows first: b on each row, then the left cell at (xs, b(ys))
                    row_arrows = tuple(cells_right[b.name][x * Y.power(k).n_objects + yet]
                                       for x in xs)
                    a_of_rows = a_arr(row_arrows)
                    chain_a = zc.then(a_of_rows,
                                      cells_left[a.name][_pair(ny, xet, by)])
                    # columns first: a on each column, then the right cell at (a(xs), ys)
                    col_arrows = tuple(cells_left[a.name][_pair(ny, xet, y)] for y in ys)
                    b_of_cols = b_arr(col_arrows)
                    chain_b = zc.then(b_of_cols,
                                      cells_right[b.name][ax * Y.power(k).n_objects + yet])
                    if chain_a != zc.then(sig[fmat], chain_b):
                        return False
    return True


def enumerate_binary_multimaps(X: CatModel, Y: CatModel, Z: CatModel,
                               sigma: SigmaTable, weakness: str = "lax") -> list[BinaryMultimap]:
    theory2 = X.theory
    names = [g.name for g in theory2.base.generators]
    prod = fincat.product([X.carrier, Y.carrier])
    # Each exchange cell is evaluated in Z on first use, once per call.
    exchange_cells: dict = {}

    def exchange_cell(a, b) -> tuple[int, ...]:
        if (a, b) not in exchange_cells:
            pasting = derive_sigma(theory2, sigma, generator_morphism(a), generator_morphism(b))
            exchange_cells[a, b] = pasting_components(pasting, Z)
        return exchange_cells[a, b]

    out = []
    for f11 in enumerate_functors(prod.cat, Z.carrier):
        tables = _cell_candidates(X, Y, Z, f11)
        if tables is None:
            continue
        # One search slot per cell: every left cell, generator by generator,
        # then every right cell.
        cells = [homs for table in tables for homs in table]
        for picks in search(lambda i, a: cells[i], [[]] * len(cells)):
            rest = iter(picks)
            chunks = [tuple(itertools.islice(rest, len(table))) for table in tables]
            cells_left = dict(zip(names, chunks[:len(names)]))
            cells_right = dict(zip(names, chunks[len(names):]))
            if not _exchange_condition(theory2, exchange_cell, X, Y, Z, f11,
                                       cells_left, cells_right):
                continue
            if any(validate_lax_hom(_slice_left_hom(X, Y, Z, weakness, f11, cells_left, y))
                   for y in range(Y.carrier.n_objects)):
                continue
            if any(validate_lax_hom(_slice_right_hom(X, Y, Z, weakness, f11, cells_right, x))
                   for x in range(X.carrier.n_objects)):
                continue
            out.append(BinaryMultimap(weakness, f11, tuple(cells_left.items()),
                                      tuple(cells_right.items())))
    return out


def _cell_candidates(X: CatModel, Y: CatModel, Z: CatModel,
                     f11: FinFunctor) -> list[list[list[int]]] | None:
    """The candidate arrows of every left cell f_{a,1} at (xs, y), generator by
    generator, then of every right cell f_{1,a} at (x, ys); None when a cell
    has no candidate.  The number of assignments is held to
    ``catmodels.HOM_ENUMERATION_BOUND``."""
    prod = fincat.product([X.carrier, Y.carrier])

    def homs(g, pairs, acted) -> list[int]:
        # arrows Z(a)(f(p_1)..f(p_n)) -> f(acted)
        zsrc = Z.op_functor(g.name).obj_map[Z.power(g.arity).encode_obj(
            tuple(f11.obj_map[prod.encode_obj(p)] for p in pairs))]
        return Z.carrier.hom(zsrc, f11.obj_map[prod.encode_obj(acted)])

    bound = catmodels.HOM_ENUMERATION_BOUND
    lefts, rights, total = [], [], 1
    for g in X.theory.base.generators:
        xpow, ypow = X.power(g.arity), Y.power(g.arity)
        xg, yg = X.op_functor(g.name).obj_map, Y.op_functor(g.name).obj_map
        left = [homs(g, [(x, y) for x in xpow.decode_obj(xet)], (xg[xet], y))
                for xet in range(xpow.n_objects) for y in range(Y.carrier.n_objects)]
        right = [homs(g, [(x, y) for y in ypow.decode_obj(yet)], (x, yg[yet]))
                 for x in range(X.carrier.n_objects) for yet in range(ypow.n_objects)]
        for slots, side in ((left, lefts), (right, rights)):
            if not all(slots):
                return None
            count = 1
            for s in slots:
                count *= len(s)
                if count > bound:
                    raise EnumerationBound(
                        f"{count} cell assignments exceed bound {bound}")
            side.append(slots)
            total *= count
        if total > bound:
            raise EnumerationBound(f"{total} multimap cell assignments "
                                   f"exceed bound {bound}")
    return lefts + rights


# -- currying --------------------------------------------------------------------------

def curry(mul: BinaryMultimap, X: CatModel, Y: CatModel, Z: CatModel,
          hom_model: CatModel, homcat: HomCategory) -> LaxHom | str:
    """Transpose a binary multimap to a homomorphism into the internal hom,
    or give the reason it does not: a family of its arrows is no modification."""
    weakness = mul.weakness
    prod = fincat.product([X.carrier, Y.carrier])
    obj_map = []
    for x in range(X.carrier.n_objects):
        obj_map.append(homcat.object_index(
            _slice_right_hom(X, Y, Z, weakness, mul.f11, dict(mul.cells_right), x)))
    arr_map = []
    for a in range(X.carrier.n_arrows):
        src_h = homcat.objects[obj_map[X.carrier.src[a]]]
        tgt_h = homcat.objects[obj_map[X.carrier.dst[a]]]
        comps = tuple(mul.f11.arr_map[prod.encode_arr((a, Y.carrier.identity[y]))]
                      for y in range(Y.carrier.n_objects))
        arr_map.append(homcat.find_arrow(Modification(src_h, tgt_h, comps)))
    tables = []
    ny = Y.carrier.n_objects
    cells_left = dict(mul.cells_left)
    for g in X.theory.base.generators:
        n = g.arity
        comps = []
        for xet in range(X.power(n).n_objects):
            src_h = homcat.objects[hom_model.op_functor(g.name).obj_map[
                fincat.power(homcat.cat, n).encode_obj(
                    tuple(obj_map[x] for x in X.power(n).decode_obj(xet)))]]
            tgt_h = homcat.objects[obj_map[X.op_functor(g.name).obj_map[xet]]]
            mod_comps = tuple(cells_left[g.name][_pair(ny, xet, y)] for y in range(ny))
            comps.append(homcat.find_arrow(Modification(src_h, tgt_h, mod_comps)))
        tables.append(comps)
    if None in arr_map or any(None in t for t in tables):
        return catmodels.NOT_AN_ARROW
    g1 = FinFunctor(X.carrier, homcat.cat, tuple(obj_map), tuple(arr_map))
    return hom_from_components(X, hom_model, weakness, g1, tables)


def uncurry(g: LaxHom, X: CatModel, Y: CatModel, Z: CatModel,
            homcat: HomCategory) -> BinaryMultimap:
    weakness = g.weakness
    prod = fincat.product([X.carrier, Y.carrier])
    ny = Y.carrier.n_objects
    obj_map = []
    for o in range(prod.n_objects):
        x, y = prod.decode_obj(o)
        obj_map.append(homcat.objects[g.f1.obj_map[x]].f1.obj_map[y])
    arr_map = []
    for a in range(prod.n_arrows):
        fx, fy = prod.decode_arr(a)
        mod = homcat.arrows[g.f1.arr_map[fx]]
        step1 = mod.components[Y.carrier.src[fy]]
        step2 = homcat.objects[g.f1.obj_map[X.carrier.dst[fx]]].f1.arr_map[fy]
        arr_map.append(Z.carrier.then(step1, step2))
    f11 = FinFunctor(prod.cat, Z.carrier, tuple(obj_map), tuple(arr_map))
    cells_left = []
    cells_right = []
    for gen in X.theory.base.generators:
        comps_l = []
        for i in g.cell(gen.name):
            comps_l.extend(homcat.arrows[i].components)
        cells_left.append((gen.name, tuple(comps_l)))
        comps_r = []
        for x in range(X.carrier.n_objects):
            hom = homcat.objects[g.f1.obj_map[x]]
            comps_r.extend(hom.cell(gen.name))
        cells_right.append((gen.name, tuple(comps_r)))
    return BinaryMultimap(weakness, f11, tuple(cells_left), tuple(cells_right))


class ClosedStructureReport(NamedTuple):
    multimap_count: int
    hom_count: int
    bijection: bool
    issues: tuple[str, ...]


def closed_check(X: CatModel, Y: CatModel, Z: CatModel, sigma: SigmaTable,
                 weakness: str = "lax") -> ClosedStructureReport | str:
    """Verify that currying is a bijection between binary multimaps X,Y -> Z
    and homomorphisms X -> Hom(Y, Z), element by element; or the reason Hom(Y, Z)
    or a curried multimap does not exist."""
    internal = internal_hom(Y, Z, sigma, weakness)
    if isinstance(internal, str):
        return internal
    hom_model, homcat = internal
    muls = enumerate_binary_multimaps(X, Y, Z, sigma, weakness)
    homs = enumerate_homs_w(X, hom_model, weakness)
    issues = []
    curried = []
    for mul in muls:
        gg = curry(mul, X, Y, Z, hom_model, homcat)
        if isinstance(gg, str):
            return gg
        if validate_lax_hom(gg):
            issues.append("curried multimap fails homomorphism validation")
            continue
        if gg not in homs:
            issues.append("curried multimap is not among the enumerated homs")
        back = uncurry(gg, X, Y, Z, homcat)
        if back != mul:
            issues.append("uncurry(curry(f)) != f")
        curried.append(gg)
    for hom in homs:
        mul = uncurry(hom, X, Y, Z, homcat)
        if mul not in muls:
            issues.append("uncurried hom is not a multimap")
            continue
        if curry(mul, X, Y, Z, hom_model, homcat) != hom:
            issues.append("curry(uncurry(g)) != g")
    bijection = (len(muls) == len(homs)) and len(set(map(_object_key, curried))) == len(muls) \
        and not issues
    return ClosedStructureReport(len(muls), len(homs), bijection, tuple(issues))


# -- the comonad of internal algebras ----------------------------------------------------

class FoxModelReport(NamedTuple):
    model: str
    counit_underlying: bool
    counit_functorial: bool
    coassociativity: bool
    delta_is_iso: bool
    intalg_size: int
    double_size: int
    missing: tuple[int, ...]  # objects of the doubled category missed by delta


def _intalg_model(X: CatModel, sigma: SigmaTable) -> tuple[CatModel, HomCategory]:
    internal = internal_hom(terminal_model(X.theory), X, sigma, "lax")
    if isinstance(internal, str):  # the comonad report has no verdict for it
        raise ValueError(f"internal algebras: {internal}")
    return internal


def _delta_object(A_idx: int, H_model: CatModel, homcat: HomCategory,
                  H2cat: HomCategory) -> int:
    """Image of an internal algebra under the comultiplication: itself,
    equipped with its own structure arrows one level up."""
    term = terminal_model(H_model.theory)
    A = homcat.objects[A_idx]
    f1 = FinFunctor(term.carrier, homcat.cat, (A_idx,), (homcat.cat.identity[A_idx],))
    tables = []
    for g in H_model.theory.base.generators:
        powered = H_model.op_functor(g.name).obj_map[
            fincat.power(homcat.cat, g.arity).encode_obj((A_idx,) * g.arity)]
        src_h = homcat.objects[powered]
        tables.append((homcat.arrow_index(Modification(src_h, A, A.cell(g.name))),))
    return H2cat.object_index(hom_from_components(term, H_model, "lax", f1, tables))


def fox_comonad(sigma: SigmaTable,
                models: list[tuple[str, CatModel]]) -> tuple[FoxModelReport, ...]:
    """Per model, the comonad laws of its internal algebras and whether the
    comultiplication is an isomorphism onto the doubled category."""
    reports = []
    for name, X in models:
        H_model, homcat = _intalg_model(X, sigma)
        H2_model, h2cat = _intalg_model(H_model, sigma)

        delta_obj = [
            _delta_object(i, H_model, homcat, h2cat) for i in range(len(homcat.objects))
        ]
        delta_arr = []
        for j, mod in enumerate(homcat.arrows):
            src_i = delta_obj[homcat.object_index(mod.source)]
            dst_i = delta_obj[homcat.object_index(mod.target)]
            lifted = Modification(h2cat.objects[src_i], h2cat.objects[dst_i],
                                  (homcat.arrow_index(mod),))
            delta_arr.append(h2cat.arrow_index(lifted))

        # counit on the double: evaluate the underlying algebra
        counit_underlying = all(
            h2cat.objects[delta_obj[i]].point() == i for i in range(len(homcat.objects))
        ) and all(
            h2cat.arrows[delta_arr[j]].components[0] == j
            for j in range(len(homcat.arrows)))

        # counit through the functor induced by evaluating each algebra
        eps_of_double_obj = []
        for i2, B in enumerate(h2cat.objects):
            inner = homcat.objects[B.point()]
            eps_of_double_obj.append(homcat.object_index(inner))
        counit_functorial = all(
            eps_of_double_obj[delta_obj[i]] == i for i in range(len(homcat.objects)))

        # coassociativity: double both ways and compare on objects and arrows
        H3_model, h3cat = _intalg_model(H2_model, sigma)
        delta2_obj = [_delta_object(i, H2_model, h2cat, h3cat)
                      for i in range(len(h2cat.objects))]
        # postcompose each B: * -> H with the strict delta hom H -> H2
        d_f1 = FinFunctor(homcat.cat, h2cat.cat, tuple(delta_obj), tuple(delta_arr))
        delta_hom = hom_from_components(H_model, H2_model, "lax", d_f1)
        intalg_delta_obj = [h3cat.object_index(compose_homs(B, delta_hom))
                            for B in h2cat.objects]
        coassoc = all(
            delta2_obj[delta_obj[i]] == intalg_delta_obj[delta_obj[i]]
            for i in range(len(homcat.objects)))

        image = set(delta_obj)
        missing = tuple(i for i in range(len(h2cat.objects)) if i not in image)
        iso = (len(homcat.objects) == len(h2cat.objects)
               and len(homcat.arrows) == len(h2cat.arrows)
               and not missing
               and len(set(delta_arr)) == len(homcat.arrows))
        reports.append(FoxModelReport(
            name, counit_underlying, counit_functorial, coassoc, iso,
            len(homcat.objects), len(h2cat.objects), missing))
    return tuple(reports)


# -- Eckmann-Hilton conditions and the local-isomorphism probe ----------------------------

class EhReport2d(NamedTuple):
    passes: bool
    no_unary_active: bool
    unital: tuple[tuple[str, bool], ...]
    diagonal_invertible: tuple[tuple[str, bool], ...]
    unit_cells_invertible: bool


def eckmann_hilton_2d(theory2: TwoTheoryPresentation, sigma: SigmaTable) -> EhReport2d:
    base = theory2.base
    basis = base.basis_ops()
    no_unary = all(g.arity != 1 for g in basis)
    units = [g for g in basis if g.arity == 0]
    unital = []
    for g in basis:
        if g.arity > 1:
            ok = any(all(isinstance(v, Equal) for v in check_unital(base, g, u).values())
                     for u in units)
            unital.append((g.name, ok))
    diag = []
    for g in basis:
        cell = derive_sigma(theory2, sigma, generator_morphism(g), generator_morphism(g))
        diag.append((g.name, is_invertible_pasting(cell)))
    units_ok = True
    for u in units:
        for v in units:
            cell = derive_sigma(theory2, sigma, generator_morphism(u), generator_morphism(v))
            if not is_invertible_pasting(cell):
                units_ok = False
    passes = no_unary and all(ok for _, ok in unital) and \
        all(ok for _, ok in diag) and units_ok
    return EhReport2d(passes, no_unary, tuple(unital), tuple(diag), units_ok)


class LocalIsoReport(NamedTuple):
    hom_count: int
    lifted_count: int
    objects_bijective: bool
    arrows_bijective: bool
    extra_lifts: int


def eh_local_iso_probe(X: CatModel, Y: CatModel, sigma: SigmaTable) -> LocalIsoReport:
    """Count homomorphisms between the lifted models against plain ones.

    A lifted hom is an underlying hom together with a replacement family of
    structure cells, each of which must be a modification between the
    composite homs through the lifted operations.
    """
    theory2 = X.theory
    homs = enumerate_homs_w(X, Y, "lax")
    gens = theory2.base.generators
    names = [g.name for g in gens]
    # Neither the power models nor the lifted operations depend on the hom.
    # A lift can fail (a table with no entry for a pair), so with no hom to
    # compare nothing is lifted.
    lifts = []
    if homs:
        for g in gens:
            xpow, ypow = power_cat_model(X, g.arity), power_cat_model(Y, g.arity)
            y_lift = lift_hom(Y, sigma, generator_morphism(g), "lax", ypow)
            lifts.append((xpow, ypow, y_lift,
                          lift_hom(X, sigma, generator_morphism(g), "lax", xpow)))
    lifted_total = 0
    canonical_found = 0
    per_hom_counts = []
    for f in homs:
        coherence = HomCoherence(X, Y, "lax", f.f1)
        domains = []
        for i, (g, (xpow, ypow, y_lift, x_lift)) in enumerate(zip(gens, lifts)):
            P = compose_homs(power_hom(f, g.arity, xpow, ypow), y_lift)
            Q = compose_homs(x_lift, f)
            domains.append(coherence.admissible(
                i, [mod.components for mod in enumerate_modifications(P, Q)]))
        count_here = 0
        for cells in coherence.assignments(domains):
            count_here += 1
            if LaxHom(X, Y, "lax", f.f1, tuple(zip(names, cells))) == f:
                canonical_found += 1
        per_hom_counts.append(count_here)
        lifted_total += count_here

    # arrows: modifications lift uniquely when every per-hom count is one
    arrows_ok = all(c == 1 for c in per_hom_counts) and canonical_found == len(homs)
    return LocalIsoReport(len(homs), lifted_total,
                          lifted_total == len(homs) and canonical_found == len(homs),
                          arrows_ok, lifted_total - len(homs))


# -- bilax structures ---------------------------------------------------------------------

class BilaxReport(NamedTuple):
    verdict: str
    condition_lax_over_colax: bool
    condition_colax_over_lax: bool
    issues: tuple[str, ...]


def bilax_check(fbar: LaxHom, funder: LaxHom, sigma: SigmaTable) -> BilaxReport:
    """Compatibility of a lax and a colax structure on one underlying map."""
    issues = []
    if fbar.weakness != "lax" or funder.weakness != "colax":
        return BilaxReport("Fails", False, False,
                           ("expected a lax and a colax homomorphism",))
    if fbar.f1 != funder.f1:
        return BilaxReport("Fails", False, False, ("underlying functors differ",))
    X, Y = fbar.source, fbar.target
    gens = X.theory.base.generators
    cond1 = True
    cond2 = True
    for g in gens:
        n = g.arity
        xpow = power_cat_model(X, n)
        ypow = power_cat_model(Y, n)
        # (1) the lax cells are modifications between the colax composites
        U = compose_homs(power_hom(funder, n, xpow, ypow),
                         lift_hom(Y, sigma, generator_morphism(g), "colax", ypow))
        V = compose_homs(lift_hom(X, sigma, generator_morphism(g), "colax", xpow), funder)
        if validate_modification(Modification(U, V, fbar.cell(g.name))):
            cond1 = False
            issues.append(f"lax cell at {g.name} is not a modification of colax lifts")
        # (2) the colax cells are modifications between the lax composites
        Vp = compose_homs(lift_hom(X, sigma, generator_morphism(g), "lax", xpow), fbar)
        Up = compose_homs(power_hom(fbar, n, xpow, ypow),
                          lift_hom(Y, sigma, generator_morphism(g), "lax", ypow))
        if validate_modification(Modification(Vp, Up, funder.cell(g.name))):
            cond2 = False
            issues.append(f"colax cell at {g.name} is not a modification of lax lifts")
    verdict = "Bilax" if cond1 and cond2 else "Fails"
    return BilaxReport(verdict, cond1, cond2, tuple(issues))


def internal_bialgebras(model: CatModel, sigma: SigmaTable) -> tuple[HomCategory, list]:
    """Pairs of an internal algebra and coalgebra on one object that are
    mutually compatible; arrows are carrier arrows respecting both."""
    algs = internal_algebras(model)
    coalgs = internal_coalgebras(model)
    pairs = []
    for a in algs.objects:
        for c in coalgs.objects:
            if a.point() != c.point():
                continue
            if bilax_check(a, c, sigma).verdict == "Bilax":
                pairs.append((a, c))
    arrows = []
    for i, (a1, c1) in enumerate(pairs):
        for j, (a2, c2) in enumerate(pairs):
            for h in model.carrier.hom(a1.point(), a2.point()):
                if validate_modification(Modification(a1, a2, (h,))):
                    continue
                if validate_modification(Modification(c1, c2, (h,))):
                    continue
                arrows.append((i, j, h))
    cat = fincat.category_from_keys(
        len(pairs), arrows, lambda i: model.carrier.identity[pairs[i][0].point()],
        lambda x, y: model.carrier.then(arrows[x][2], arrows[y][2]))
    return HomCategory(cat, tuple(a for a, _ in pairs), ()), pairs