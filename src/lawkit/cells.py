"""Pasting expressions for 2-cells, exchange-cell tables, and their coherence.

An exchange table assigns to each pair of basis operations (a: m->1, b: k->1)
a 2-cell

    sigma_{a,b} : row_then_col(a, b)  ==>  col_then_row(a, b)

on m x k matrix contexts ("first apply b to every row, then a to the column"
versus "first apply a to every column, then b to the row").  Cells for
composite or tupled morphisms are never stored: they are derived by a closure
recursion (``derive_sigma``) that whiskers and stacks the basis entries.  The
checks in this module compare derived cells against each other on probe
models, which is where non-coherent tables (e.g. a braiding that is not a
symmetry) fail.

Pasting evaluation is written against a small model protocol:
``model.carrier``, ``model.cell(name)`` (a 2-cell's component table),
``model.power(n)`` (a fincat.ProductCategory), ``model._compiled(f,
arrows)`` (one closure per component of a morphism), ``model._encoder(f,
arrows)`` (the row-major code of their values) and ``model._rows``, a dict in
which each node's rows are kept.  A pasting evaluates to its component
table only; no boundary functor is built.  Validating a model reads
components only (``catmodels.validate_cat_model``); ``dsl.Document.cat_model``
refuses a model that fails it short of the cell equations, so a pasting is
evaluated on a model of its theory.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from typing import NamedTuple

from . import theory as _theory
from .fincat import encode
from .search import EnumerationBound
from .theory import (
    Apply,
    InputError,
    Morphism,
    Proj,
    TheoryError,
    TheoryPresentation,
    TwoCellSymbol,
    TwoTheoryPresentation,
    commutativity_square,
    compose,
    generator_morphism,
    identity,
    is_inert,
    normalize_morphism,
    par,
    power_left,
    power_right,
    row_then_col,
    transpose,
)


# -- pasting expression nodes --------------------------------------------------

@dataclass(frozen=True)
class Pasting:
    def source(self) -> Morphism:
        raise NotImplementedError

    def target(self) -> Morphism:
        raise NotImplementedError


@dataclass(frozen=True)
class Id(Pasting):
    morphism: Morphism

    def source(self) -> Morphism:
        return self.morphism

    def target(self) -> Morphism:
        return self.morphism


@dataclass(frozen=True)
class Gen(Pasting):
    cell: TwoCellSymbol

    def source(self) -> Morphism:
        return self.cell.source

    def target(self) -> Morphism:
        return self.cell.target


@dataclass(frozen=True)
class Inverse(Pasting):
    inner: Pasting

    def source(self) -> Morphism:
        return self.inner.target()

    def target(self) -> Morphism:
        return self.inner.source()


@dataclass(frozen=True)
class Vert(Pasting):
    first: Pasting
    second: Pasting

    def source(self) -> Morphism:
        return self.first.source()

    def target(self) -> Morphism:
        return self.second.target()


@dataclass(frozen=True)
class HWhiskerL(Pasting):
    left: Morphism
    inner: Pasting

    def source(self) -> Morphism:
        return compose(self.left, self.inner.source())

    def target(self) -> Morphism:
        return compose(self.left, self.inner.target())


@dataclass(frozen=True)
class HWhiskerR(Pasting):
    inner: Pasting
    right: Morphism

    def source(self) -> Morphism:
        return compose(self.inner.source(), self.right)

    def target(self) -> Morphism:
        return compose(self.inner.target(), self.right)


@dataclass(frozen=True)
class PowerL(Pasting):
    """k copies acting on the k rows: cell k*m -> k*n from a cell m -> n."""
    k: int
    inner: Pasting

    def source(self) -> Morphism:
        return power_left(self.inner.source(), self.k)

    def target(self) -> Morphism:
        return power_left(self.inner.target(), self.k)


@dataclass(frozen=True)
class PowerR(Pasting):
    """k copies acting on the k columns: cell m*k -> n*k from a cell m -> n."""
    inner: Pasting
    k: int

    def source(self) -> Morphism:
        return power_right(self.inner.source(), self.k)

    def target(self) -> Morphism:
        return power_right(self.inner.target(), self.k)


@dataclass(frozen=True)
class Par(Pasting):
    """Horizontal juxtaposition on consecutive variable blocks."""
    parts: tuple[Pasting, ...]

    def source(self) -> Morphism:
        return par([p.source() for p in self.parts])

    def target(self) -> Morphism:
        return par([p.target() for p in self.parts])


def _parts(p: Pasting) -> tuple[Pasting, ...]:
    """The child pastings of p in field order.

    With ``_with_parts`` this is the only code that knows which fields of a
    node are pastings; every structural traversal goes through the pair.
    """
    if isinstance(p, (Id, Gen)):
        return ()
    if isinstance(p, (Inverse, HWhiskerL, HWhiskerR, PowerL, PowerR)):
        return (p.inner,)
    if isinstance(p, Vert):
        return (p.first, p.second)
    if isinstance(p, Par):
        return p.parts
    raise TypeError(f"unknown pasting node {p!r}")


def _with_parts(p: Pasting, new: tuple[Pasting, ...]) -> Pasting:
    """p rebuilt with the child pastings ``new``, in ``_parts`` order."""
    if isinstance(p, (Id, Gen)):
        return p
    if isinstance(p, (Inverse, HWhiskerL, HWhiskerR, PowerL, PowerR)):
        return replace(p, inner=new[0])
    if isinstance(p, Vert):
        return Vert(*new)
    if isinstance(p, Par):
        return Par(tuple(new))
    raise TypeError(f"unknown pasting node {p!r}")


def is_invertible_pasting(p: Pasting) -> bool:
    if isinstance(p, Gen):
        return p.cell.invertible
    return all(is_invertible_pasting(q) for q in _parts(p))


def is_identity_pasting(p: Pasting) -> bool:
    """Structurally an identity cell (no generator content)."""
    if isinstance(p, Gen):
        return False
    return all(is_identity_pasting(q) for q in _parts(p))


def simplify_pasting(p: Pasting) -> Pasting:
    """Collapse identity layers and cancel adjacent inverse pairs."""
    if isinstance(p, (Id, Gen)):
        return p
    parts = tuple(simplify_pasting(q) for q in _parts(p))
    if isinstance(p, Vert):
        a, b = parts
        if is_identity_pasting(a):
            return b
        if is_identity_pasting(b):
            return a
        if isinstance(b, Inverse) and b.inner == a:
            return Id(a.source())
        if isinstance(a, Inverse) and a.inner == b:
            return Id(a.source())
        return Vert(a, b)
    if isinstance(p, Inverse):
        (inner,) = parts
        if is_identity_pasting(inner):
            return inner
        if isinstance(inner, Inverse):
            return inner.inner
        return Inverse(inner)
    node = _with_parts(p, parts)
    if all(is_identity_pasting(q) for q in parts):
        return Id(node.source())
    return node


# -- well-formedness ------------------------------------------------------------

def boundary_normal_form(theory: TheoryPresentation, f: Morphism) -> Morphism:
    nf, _, ok = normalize_morphism(theory, f)
    if not ok:
        raise EnumerationBound(f"boundary normalization exceeded the rewrite budget "
                               f"{_theory.REWRITE_BUDGET}")
    return nf


def boundaries_agree(theory: TheoryPresentation, f: Morphism, g: Morphism) -> bool:
    return boundary_normal_form(theory, f) == boundary_normal_form(theory, g)


def spans_square(theory: TheoryPresentation, a: str, b: str, entry: Pasting) -> bool:
    """Whether ``entry`` runs between the two sides of the commutativity
    square of the operations ``a`` and ``b``, modulo the equations: the
    boundaries every sigma entry for ``(a, b)`` must have."""
    want_src, want_tgt = commutativity_square(
        generator_morphism(theory.op(a)), generator_morphism(theory.op(b)))
    return boundaries_agree(theory, entry.source(), want_src) and \
        boundaries_agree(theory, entry.target(), want_tgt)


def validate_pasting(theory2: TwoTheoryPresentation, p: Pasting) -> list[str]:
    """Well-formedness: every node's boundaries compose, vertical boundaries
    agree modulo the equations, and inverses only wrap invertible content.
    A node whose boundaries do not compose, at the root or inside it, is the
    one problem reported."""
    problems: list[str] = []

    def walk(q: Pasting):
        if isinstance(q, Vert) and \
           not boundaries_agree(theory2.base, q.first.target(), q.second.source()):
            problems.append("vertical composite boundaries do not meet")
        if isinstance(q, Inverse) and not is_invertible_pasting(q.inner):
            problems.append("inverse of a non-invertible pasting")
        for part in _parts(q):
            walk(part)

    try:
        p.source()
        p.target()
        walk(p)
    except TheoryError as e:
        return [f"ill-typed pasting: {e}"]
    return problems


# -- evaluation against a model ---------------------------------------------------

def pasting_components(p: Pasting, model) -> tuple[int, ...]:
    """Component table of a pasting: one arrow of C^t per object of C^s,
    where s and t are the boundary contexts.  Never materializes functors,
    so it stays cheap on large matrix contexts.  The boundaries are built
    once, here, so an ill-typed pasting raises ``TheoryError``."""
    p.target()
    cod = model.power(p.source().target)
    return tuple(map(cod.encode_arr, _rows(p, model)[1]))


def _rows(p: Pasting, model) -> tuple[int, list[tuple[int, ...]]]:
    """``(s, rows)``: the source context s of p and, for every object of C^s
    in code order, the tuple of carrier arrows p has at that object.  Each
    node is built once per model and kept in ``model._rows``; callers never
    mutate what it returns."""
    hit = model._rows.get(p)
    if hit is None:
        hit = model._rows[p] = _ROW_BUILDERS[type(p)](p, model)
    return hit


def _id_rows(p, model):
    f, carrier = p.morphism, model.carrier
    comps, identity = model._compiled(f, False), carrier.identity
    return f.source, [tuple(identity[c(objs)] for c in comps)
                      for objs in itertools.product(range(carrier.n_objects), repeat=f.source)]


def _gen_rows(p, model):
    cod = model.power(p.cell.source.target)
    return p.cell.source.source, list(map(cod.decode_arr, model.cell(p.cell.name)))


def _inverse_rows(p, model):
    s, rows = _rows(p.inner, model)
    out = [tuple(map(model.carrier.inverse, row)) for row in rows]
    if any(None in row for row in out):
        raise InputError("a model inverts a 2-cell whose components are not all invertible")
    return s, out


def _vert_rows(p, model):
    s, first = _rows(p.first, model)
    s2, second = _rows(p.second, model)
    if s != s2 or first and len(first[0]) != len(second[0]):
        raise ValueError("the sides of a vertical composite have different contexts")
    then = model.carrier.then
    return s, [tuple(map(then, x, y)) for x, y in zip(first, second)]


def _whisker_left_rows(p, model):
    _, rows = _rows(p.inner, model)
    code = model._encoder(p.left, False)
    return p.left.source, [rows[code(objs)] for objs in itertools.product(
        range(model.carrier.n_objects), repeat=p.left.source)]


def _whisker_right_rows(p, model):
    s, rows = _rows(p.inner, model)
    comps = model._compiled(p.right, True)
    return s, [tuple(c(row) for c in comps) for row in rows]


def _power_rows(p, model, by_columns: bool):
    m, rows = _rows(p.inner, model)
    return m * p.k, power_rows(rows, m, p.k, model.carrier.n_objects, by_columns)


def _par_rows(p, model):
    parts = [_rows(q, model) for q in p.parts]
    # The code of an object of C^(s_1 + ... + s_j) is the tuple of its blocks' codes.
    blocks = itertools.product(*(rows for _, rows in parts))
    return sum(s for s, _ in parts), [sum(r, ()) for r in blocks]


_ROW_BUILDERS = {
    Id: _id_rows,
    Gen: _gen_rows,
    Inverse: _inverse_rows,
    Vert: _vert_rows,
    HWhiskerL: _whisker_left_rows,
    HWhiskerR: _whisker_right_rows,
    PowerL: functools.partial(_power_rows, by_columns=False),
    PowerR: functools.partial(_power_rows, by_columns=True),
    Par: _par_rows,
}


def power_rows(rows, m: int, k: int, n_objects: int,
               by_columns: bool) -> list[tuple[int, ...]]:
    """The table of k copies of a cell on C^m whose table is ``rows``, one
    arrow tuple per object of C^(m*k) in code order, on a carrier with
    ``n_objects`` objects.  By rows (``powL``) copy i reads the i-th block
    of m consecutive objects and the arrow tuples are concatenated.  By
    columns (``powR``) the objects form an m x k matrix, copy j reads its
    j-th column, and the arrow tuples are the columns of the result.  This
    is the one place that knows how a power lays out a cell table."""
    if not by_columns:
        return [sum(r, ()) for r in itertools.product(rows, repeat=k)]
    radices = (n_objects,) * m
    out = []
    for objs in itertools.product(range(n_objects), repeat=m * k):
        columns = [rows[encode(objs[j::k], radices)] for j in range(k)]
        out.append(tuple(itertools.chain.from_iterable(zip(*columns))))
    return out


# -- exchange tables ---------------------------------------------------------------

class SigmaTable(NamedTuple):
    name: str
    weakness: str  # one of theory.WEAKNESSES
    entries: tuple[tuple[tuple[str, str], Pasting], ...]
    symmetric: bool = False

    def entry(self, a: str, b: str) -> Pasting | None:
        for (x, y), p in self.entries:
            if (x, y) == (a, b):
                return p
        return None


def _is_plain_generator(f: Morphism) -> bool:
    if f.target != 1:
        return False
    c = f.components[0]
    return (isinstance(c, Apply)
            and len(c.args) == f.source
            and all(isinstance(a, Proj) and a.index == i for i, a in enumerate(c.args)))


def _decompose(f: Morphism) -> tuple[Morphism, list[Morphism]]:
    """Split f as (argument stack u, head factors) with f = u then par(heads)."""
    heads: list[Morphism] = []
    arg_terms: list[Apply | Proj] = []
    for c in f.components:
        if isinstance(c, Proj):
            heads.append(identity(1))
            arg_terms.append(c)
        else:
            assert isinstance(c, Apply)
            heads.append(generator_morphism(c.op))
            arg_terms.extend(c.args)
    u = Morphism(f.source, len(arg_terms), tuple(arg_terms))
    return u, heads


def _regroup_in(a: int, col_sizes: list[int]) -> Morphism:
    """Inert a*(sum c_j) -> sum_j (a*c_j): row-major matrix to per-block matrices."""
    total = sum(col_sizes)
    comps = []
    off = 0
    for c in col_sizes:
        for i in range(a):
            for t in range(c):
                comps.append(Proj(i * total + off + t, a * total))
        off += c
    return Morphism(a * total, a * total, tuple(comps))


def _regroup_out(n: int, col_sizes: list[int]) -> Morphism:
    """Inert sum_j (n*d_j) -> n*(sum d_j): per-block matrices back to one matrix."""
    total = sum(col_sizes)
    offsets = []
    acc = 0
    for d in col_sizes:
        offsets.append(acc)
        acc += n * d
    comps = []
    for i in range(n):
        for j, d in enumerate(col_sizes):
            for t in range(d):
                comps.append(Proj(offsets[j] + i * d + t, n * total))
    return Morphism(n * total, n * total, tuple(comps))


def derive_sigma(theory2: TwoTheoryPresentation, sigma: SigmaTable,
                 f: Morphism, g: Morphism) -> Pasting:
    """Exchange cell row_then_col(f, g) => col_then_row(f, g) for arbitrary f, g.

    Inert factors contribute identities; composition peels argument stacks
    off the head operations; tuplings stack the per-factor cells with Par.
    """
    if is_inert(f) or is_inert(g):
        return Id(row_then_col(f, g))
    if not _is_plain_generator(f):
        u, heads = _decompose(f)
        head_cells = [derive_sigma(theory2, sigma, h, g) for h in heads]
        par_cell: Pasting = head_cells[0] if len(heads) == 1 else Par(tuple(head_cells))
        if is_inert(u):
            return HWhiskerL(power_right(u, g.source), par_cell)
        v = par(heads)
        return Vert(
            HWhiskerR(derive_sigma(theory2, sigma, u, g), power_right(v, g.target)),
            HWhiskerL(power_right(u, g.source), par_cell),
        )
    if not _is_plain_generator(g):
        u, heads = _decompose(g)
        if is_inert(u) and len(heads) > 1:
            return _row_par(theory2, sigma, f, u, heads)
        if is_inert(u):
            inner = _row_par(theory2, sigma, f, identity(heads[0].source), heads) \
                if len(heads) > 1 else derive_sigma(theory2, sigma, f, heads[0])
            return HWhiskerL(power_left(u, f.source), inner)
        v = par(heads)
        inner = _row_par(theory2, sigma, f, identity(v.source), heads) \
            if len(heads) > 1 else derive_sigma(theory2, sigma, f, heads[0])
        return Vert(
            HWhiskerL(power_left(u, f.source), inner),
            HWhiskerR(derive_sigma(theory2, sigma, f, u), power_left(v, f.target)),
        )
    a = f.components[0].op  # type: ignore[union-attr]
    b = g.components[0].op  # type: ignore[union-attr]
    entry = sigma.entry(a.name, b.name)
    if entry is None:
        if sigma.weakness == "strict":
            return Id(row_then_col(f, g))
        raise InputError(f"sigma table {sigma.name} has no entry for ({a.name}, {b.name})")
    return entry


def _row_par(theory2: TwoTheoryPresentation, sigma: SigmaTable,
             f: Morphism, u: Morphism, heads: list[Morphism]) -> Pasting:
    cells = tuple(derive_sigma(theory2, sigma, f, h) for h in heads)
    p_in = _regroup_in(f.source, [h.source for h in heads])
    p_out = _regroup_out(f.target, [h.target for h in heads])
    core: Pasting = Par(cells) if len(cells) > 1 else cells[0]
    inner = HWhiskerR(HWhiskerL(p_in, core), p_out)
    if is_inert(u) and u == identity(u.source):
        return inner
    return HWhiskerL(power_left(u, f.source), inner)


# -- relative equality of pastings ---------------------------------------------------

class Distinguished(NamedTuple):
    probe: int
    obj: int
    left: int
    right: int


def pastings_equal(p: Pasting, q: Pasting, probes: list) -> Distinguished | None:
    """The first probe object at which the components of ``p`` and ``q``
    differ, or None: syntactic equality after ``simplify_pasting``, else
    equality on every probe model."""
    if simplify_pasting(p) == simplify_pasting(q):
        return None
    for idx, model in enumerate(probes):
        np_ = pasting_components(p, model)
        nq = pasting_components(q, model)
        for o, (l, r) in enumerate(zip(np_, nq)):
            if l != r:
                return Distinguished(idx, o, l, r)
    return None


# -- gray-style coherence instances ---------------------------------------------------

def gray2_row_instance(theory2: TwoTheoryPresentation, sigma: SigmaTable,
                       alpha: Morphism, t: Pasting) -> tuple[Pasting, Pasting]:
    """Naturality of the exchange cells against a 2-cell in the row slot."""
    beta_src = t.source()
    beta_tgt = t.target()
    m, n = alpha.source, alpha.target
    k, l = beta_src.source, beta_src.target
    lhs = Vert(
        HWhiskerR(PowerL(m, t), power_right(alpha, l)),
        derive_sigma(theory2, sigma, alpha, beta_tgt),
    )
    rhs = Vert(
        derive_sigma(theory2, sigma, alpha, beta_src),
        HWhiskerL(power_right(alpha, k), PowerL(n, t)),
    )
    return lhs, rhs


def gray2_column_instance(theory2: TwoTheoryPresentation, sigma: SigmaTable,
                          t: Pasting, beta: Morphism) -> tuple[Pasting, Pasting]:
    """Naturality of the exchange cells against a 2-cell in the column slot."""
    alpha_src = t.source()
    alpha_tgt = t.target()
    m, n = alpha_src.source, alpha_src.target
    k, l = beta.source, beta.target
    lhs = Vert(
        HWhiskerL(power_left(beta, m), PowerR(t, l)),
        derive_sigma(theory2, sigma, alpha_tgt, beta),
    )
    rhs = Vert(
        derive_sigma(theory2, sigma, alpha_src, beta),
        HWhiskerR(PowerR(t, k), power_left(beta, n)),
    )
    return lhs, rhs


def transpose_conjugate(p: Pasting, m: int, k: int, n: int, l: int) -> Pasting:
    """Re-read a cell on k x m matrices as a cell on m x k matrices."""
    return HWhiskerR(HWhiskerL(transpose(m, k), p), transpose(l, n))


class CoherenceIssue(NamedTuple):
    check: str
    detail: str
    verdict: Distinguished | None


class CoherenceReport(NamedTuple):
    verdict: str  # Coherent | Incoherent
    checked: int
    issues: tuple[CoherenceIssue, ...]


def _basis_morphisms(theory2: TwoTheoryPresentation) -> list[Morphism]:
    return [generator_morphism(op) for op in theory2.base.basis_ops()]


def check_sigma_coherence(theory2: TwoTheoryPresentation, sigma: SigmaTable,
                          probes: list) -> CoherenceReport:
    issues: list[CoherenceIssue] = []
    checked = 0
    base = theory2.base
    basis = _basis_morphisms(theory2)

    # Entry strictness and invertibility; ``dsl`` types each entry's boundaries.
    for (a, b), entry in sigma.entries:
        checked += 1
        if sigma.weakness == "strict" and not is_identity_pasting(entry):
            issues.append(CoherenceIssue("strict-entry", f"({a},{b}) is not an identity", None))
        if sigma.weakness in ("strict", "pseudo") and not is_invertible_pasting(entry):
            issues.append(CoherenceIssue("entry-invertible", f"({a},{b})", None))
    if issues:
        # A malformed table cannot be whiskered into the derived instances.
        return CoherenceReport("Incoherent", checked, tuple(issues))

    # Exchange against inert maps stays an identity.
    for g in basis:
        checked += 1
        cell = derive_sigma(theory2, sigma, identity(1), g)
        if not is_identity_pasting(simplify_pasting(cell)):
            issues.append(CoherenceIssue("unit-slot", f"sigma(id, {g!r}) not identity", None))

    # Compatibility of derived cells with the 1-cell equations (both slots).
    for eq in base.equations:
        for g in basis:
            for slot in ("column", "row"):
                checked += 1
                if slot == "column":
                    lhs = derive_sigma(theory2, sigma, eq.lhs, g)
                    rhs = derive_sigma(theory2, sigma, eq.rhs, g)
                else:
                    lhs = derive_sigma(theory2, sigma, g, eq.lhs)
                    rhs = derive_sigma(theory2, sigma, g, eq.rhs)
                v = pastings_equal(lhs, rhs, probes)
                if v is not None:
                    issues.append(CoherenceIssue(
                        f"gray1-{slot}", f"equation {eq.name} against {g!r}", v))

    # Naturality against every generating 2-cell (both slots).
    for cellsym in theory2.cells:
        t = Gen(cellsym)
        for g in basis:
            checked += 1
            lhs, rhs = gray2_column_instance(theory2, sigma, t, g)
            v = pastings_equal(lhs, rhs, probes)
            if v is not None:
                issues.append(CoherenceIssue(
                    "gray2-vertical", f"cell {cellsym.name} in column slot against {g!r}", v))
            checked += 1
            lhs, rhs = gray2_row_instance(theory2, sigma, g, t)
            v = pastings_equal(lhs, rhs, probes)
            if v is not None:
                issues.append(CoherenceIssue(
                    "gray2-horizontal", f"cell {cellsym.name} in row slot against {g!r}", v))

    if sigma.symmetric:
        for a in basis:
            for b in basis:
                checked += 1
                fwd = derive_sigma(theory2, sigma, a, b)
                bwd = transpose_conjugate(
                    derive_sigma(theory2, sigma, b, a),
                    a.source, b.source, a.target, b.target)
                roundtrip = Vert(fwd, bwd)
                v = pastings_equal(roundtrip, Id(fwd.source()), probes)
                if v is not None:
                    issues.append(CoherenceIssue(
                        "symmetry", f"sigma({b!r},{a!r}) o sigma({a!r},{b!r}) != id", v))

    verdict = "Coherent" if not issues else "Incoherent"
    return CoherenceReport(verdict, checked, tuple(issues))


def derived_associativity_check(theory2: TwoTheoryPresentation, sigma: SigmaTable,
                                probes: list) -> CoherenceReport:
    """Naturality of exchange cells against the exchange cells themselves.

    For coherent tables this must pass on every probe; a failure indicates
    an incoherent table or an engine defect.  Instantiated on a one-object
    carrier with a braiding table, the equation is the braid relation on
    three strands.
    """
    issues = []
    checked = 0
    basis = _basis_morphisms(theory2)
    for a in basis:
        for b in basis:
            s = derive_sigma(theory2, sigma, a, b)
            if is_identity_pasting(simplify_pasting(s)):
                continue
            for g in basis:
                checked += 1
                lhs, rhs = gray2_column_instance(theory2, sigma, s, g)
                v = pastings_equal(lhs, rhs, probes)
                if v is not None:
                    issues.append(CoherenceIssue(
                        "associativity", f"triple ({a!r},{b!r},{g!r})", v))
    verdict = "Coherent" if not issues else "Incoherent"
    return CoherenceReport(verdict, checked, tuple(issues))


# -- direct braiding checks on a monoidal model ----------------------------------------

class BraidIssue(NamedTuple):
    check: str
    triple: tuple[int, ...]


class BraidReport(NamedTuple):
    verdict: str
    triples_checked: int
    issues: tuple[BraidIssue, ...]


def yang_baxter_check(model, tensor_op: str = "m", braiding_cell: str = "b") -> BraidReport:
    """Hexagon and braid-relation scan over all object triples of the carrier.

    The braiding component at objects (x, y) is an arrow x@y -> y@x; the
    hexagons expand the braiding of a tensor product, and the braid relation
    compares the two rebracketings of the three-strand crossing.  A tensor
    that is not a binary operation of the model's theory, or a braiding the
    model gives no 2-cell, raises InputError.
    """
    base = model.theory.base
    if not any(g.name == tensor_op and g.arity == 2 for g in base.generators):
        raise InputError(f"tensor {tensor_op} is not a binary operation of {base.name}")
    cat = model.carrier
    tensor = model.op_functor(tensor_op)
    braid = model.cell(braiding_cell)
    sq = model.power(2)

    def t_obj(x, y):
        return tensor.obj_map[sq.encode_obj((x, y))]

    def t_arr(f, g):
        return tensor.arr_map[sq.encode_arr((f, g))]

    def c(x, y):
        return braid[sq.encode_obj((x, y))]

    issues = []
    count = 0
    objs = range(cat.n_objects)
    for x, y, z in itertools.product(objs, objs, objs):
        count += 1
        idx = cat.identity[x]
        idy = cat.identity[y]
        idz = cat.identity[z]
        # braiding a tensor out on the left: c(x@y, z) = (1x @ c(y,z)) then (c(x,z) @ 1y)
        lhs = c(t_obj(x, y), z)
        rhs = cat.then(t_arr(idx, c(y, z)), t_arr(c(x, z), idy))
        if lhs != rhs:
            issues.append(BraidIssue("hexagon-left", (x, y, z)))
        # braiding a tensor out on the right: c(x, y@z) = (c(x,y) @ 1z) then (1y @ c(x,z))
        lhs = c(x, t_obj(y, z))
        rhs = cat.then(t_arr(c(x, y), idz), t_arr(idy, c(x, z)))
        if lhs != rhs:
            issues.append(BraidIssue("hexagon-right", (x, y, z)))
        # braid relation on three strands
        lhs = cat.then(cat.then(t_arr(c(x, y), idz), t_arr(idy, c(x, z))), t_arr(c(y, z), idx))
        rhs = cat.then(cat.then(t_arr(idx, c(y, z)), t_arr(c(x, z), idy)), t_arr(idz, c(x, y)))
        if lhs != rhs:
            issues.append(BraidIssue("braid-relation", (x, y, z)))
    verdict = "Holds" if not issues else "Fails"
    return BraidReport(verdict, count, tuple(issues))
