"""Finite-set semantics: evaluation, validation, enumeration, homomorphisms.

Carriers are initial segments 0..n-1.  Operation tables are flat tuples in
row-major argument order: args (a_0,...,a_{k-1}) index sum(a_i * n^(k-1-i)).
X^0 is the one-element set, so nullary tables have exactly one cell.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass

from .search import search
from .theory import (
    Apply,
    Morphism,
    Proj,
    Term,
    TheoryError,
    TheoryPresentation,
    _shape,
    commutativity_square,
    generator_morphism,
)

# Most table cells, summed over the generators, a model enumeration may fill.
MODEL_CELL_LIMIT = 4 ** 4

# Largest carrier ``eh_uniqueness_probe`` takes.
EH_PROBE_SIZE_BOUND = 3


def table_index(args: tuple[int, ...], size: int) -> int:
    idx = 0
    for a in args:
        idx = idx * size + a
    return idx


def all_tuples(size: int, arity: int):
    return itertools.product(range(size), repeat=arity)


@dataclass(frozen=True)
class FinSetModel:
    theory: TheoryPresentation
    size: int
    tables: tuple[tuple[str, tuple[int, ...]], ...]  # generator order of the theory

    def table(self, name: str) -> tuple[int, ...]:
        for n, t in self.tables:
            if n == name:
                return t
        raise TheoryError(f"no table for {name}")

    def apply(self, op: str, args: tuple[int, ...]) -> int:
        return self.table(op)[table_index(args, self.size)]

    def eval_term(self, t: Term, env: tuple[int, ...]) -> int:
        if isinstance(t, Proj):
            return env[t.index]
        assert isinstance(t, Apply)
        return self.apply(t.op.name, tuple(self.eval_term(a, env) for a in t.args))

    def eval_morphism(self, f: Morphism, env: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(self.eval_term(c, env) for c in f.components)


@dataclass(frozen=True)
class Violation:
    equation: str
    env: tuple[int, ...]
    lhs_value: tuple[int, ...]
    rhs_value: tuple[int, ...]


def make_model(theory: TheoryPresentation, size: int,
               tables: dict[str, tuple[int, ...]]) -> FinSetModel:
    ordered = []
    for g in theory.generators:
        t = tables.get(g.name)
        if t is None or len(t) != size ** g.arity:
            raise TheoryError(f"table for {g.name} must have {size ** g.arity} cells")
        if any(not 0 <= v < size for v in t):
            raise TheoryError(f"table for {g.name} has out-of-range values")
        ordered.append((g.name, tuple(t)))
    return FinSetModel(theory, size, tuple(ordered))


def validate_model(theory: TheoryPresentation, size: int,
                   tables: dict[str, tuple[int, ...]]) -> FinSetModel | Violation:
    """Accept iff every equation holds on every input tuple.

    Only the variables that occur in an equation are enumerated; every other
    coordinate stays 0, since it cannot change either side.  The first
    violating tuple in lexicographic order has those coordinates at 0, so the
    witness is the one a scan of all tuples finds.
    """
    model = make_model(theory, size, tables)
    for eq in theory.equations:
        arity = eq.lhs.source
        if arity and not size:
            continue  # the empty carrier has no input tuples
        occurrences = Counter()
        for t in eq.lhs.components + eq.rhs.components:
            _shape(t, occurrences)
        used = sorted(occurrences)
        env = [0] * arity
        for values in all_tuples(size, len(used)):
            for i, v in zip(used, values):
                env[i] = v
            lv = model.eval_morphism(eq.lhs, env)
            rv = model.eval_morphism(eq.rhs, env)
            if lv != rv:
                return Violation(eq.name, tuple(env), lv, rv)
    return model


def separating_input(model: FinSetModel, f: Morphism, g: Morphism) -> tuple[int, ...] | None:
    for env in all_tuples(model.size, f.source):
        if model.eval_morphism(f, env) != model.eval_morphism(g, env):
            return env
    return None


# -- model enumeration (backtracking over table cells) ------------------------

def enumerate_models(theory: TheoryPresentation, size: int):
    """Yield every model of the given carrier size, in lexicographic table order.

    There is one search slot per table cell, generators in order.  Each
    component of an equation instance is first checked at the last slot among
    its innermost cells, and prunes the branch as soon as both sides are
    defined and disagree.
    """
    if size < 1:
        raise TheoryError("carrier size must be >= 1")
    total_cells = sum(size ** g.arity for g in theory.generators)
    if total_cells > MODEL_CELL_LIMIT:
        raise TheoryError(f"enumeration over {total_cells} cells exceeds limit {MODEL_CELL_LIMIT}")

    offset, at = {}, 0
    for g in theory.generators:
        offset[g.name], at = at, at + size ** g.arity

    def value(t: Term, env: tuple[int, ...], a: list[int]) -> int | None:
        """t at env, or None while a cell it reads is unassigned."""
        if isinstance(t, Proj):
            return env[t.index]
        args = []
        for s in t.args:
            v = value(s, env, a)
            if v is None:
                return None
            args.append(v)
        cell = offset[t.op.name] + table_index(args, size)
        return a[cell] if cell < len(a) else None

    def innermost_cells(t: Term, env: tuple[int, ...]):
        if isinstance(t, Apply):
            if all(isinstance(s, Proj) for s in t.args):
                yield offset[t.op.name] + table_index([env[s.index] for s in t.args], size)
            for s in t.args:
                yield from innermost_cells(s, env)

    def holds(lhs: Term, rhs: Term, env: tuple[int, ...], a: list[int]) -> bool | None:
        lv, rv = value(lhs, env, a), value(rhs, env, a)
        return None if lv is None or rv is None else lv == rv

    checks: list[list] = [[] for _ in range(total_cells)]
    for eq in theory.equations:
        for lhs, rhs in zip(eq.lhs.components, eq.rhs.components):
            for env in all_tuples(size, eq.lhs.source):
                cells = [*innermost_cells(lhs, env), *innermost_cells(rhs, env)]
                if cells:
                    checks[max(cells)].append(functools.partial(holds, lhs, rhs, env))
                elif not holds(lhs, rhs, env, []):
                    return  # an equation between projections fails at this size

    for flat in search(lambda i, a: range(size), checks):
        yield make_model(theory, size, {
            g.name: flat[offset[g.name]:offset[g.name] + size ** g.arity]
            for g in theory.generators})


# -- homomorphisms -------------------------------------------------------------

@dataclass(frozen=True)
class ModelHom:
    source: FinSetModel
    target: FinSetModel
    mapping: tuple[int, ...]


def enumerate_homs(source: FinSetModel, target: FinSetModel) -> list[ModelHom]:
    """All homomorphisms, in lexicographic order of their mappings.

    One search slot per source element; the instance
    ``mapping[op(args)] == op(mapping[args])`` is checked once every element
    it reads is assigned.
    """
    if source.theory is not target.theory and source.theory.name != target.theory.name:
        raise TheoryError("hom endpoints live over different theories")

    def preserved(name: str, args: tuple[int, ...], value: int):
        return lambda a: a[value] == target.apply(name, tuple(a[x] for x in args))

    checks: list[list] = [[] for _ in range(source.size)]
    for g in source.theory.generators:
        for args in all_tuples(source.size, g.arity):
            value = source.apply(g.name, args)
            checks[max(args + (value,))].append(preserved(g.name, args, value))
    return [ModelHom(source, target, mapping)
            for mapping in search(lambda i, a: range(target.size), checks)]


def power_model(model: FinSetModel, n: int) -> FinSetModel:
    """The n-th power: carrier size**n with pointwise operations.

    Elements encode tuples row-major: (a_0,...,a_{n-1}) -> sum a_i * size^(n-1-i).
    """
    size = model.size
    psize = size ** n

    def encode(tup: tuple[int, ...]) -> int:
        return table_index(tup, size)

    decode_cache = list(itertools.product(range(size), repeat=n))

    tables = {}
    for g in model.theory.generators:
        table = []
        for args in all_tuples(psize, g.arity):
            tuples = [decode_cache[a] for a in args]
            result = tuple(
                model.apply(g.name, tuple(t[i] for t in tuples)) for i in range(n)
            )
            table.append(encode(result))
        tables[g.name] = tuple(table)
    return make_model(model.theory, psize, tables)


# -- semantic commutativity ----------------------------------------------------

@dataclass(frozen=True)
class SemanticCommutativityReport:
    verdict: str
    pairs: tuple[tuple[str, str, bool], ...]
    witness: tuple[str, str, tuple[int, ...]] | None


def semantic_commutativity_check(model: FinSetModel) -> SemanticCommutativityReport:
    """Every commutativity square of two basis operations must hold in the model.

    The witness is the first separating input of the first failing square:
    for basis operations of arities m and k it is an m x k matrix, row-major.
    """
    pairs = []
    witness = None
    for a in model.theory.basis_ops():
        for b in model.theory.basis_ops():
            env = separating_input(
                model, *commutativity_square(generator_morphism(a), generator_morphism(b)))
            pairs.append((a.name, b.name, env is None))
            if witness is None and env is not None:
                witness = (a.name, b.name, env)
    verdict = "Passes" if all(ok for _, _, ok in pairs) else "Fails"
    return SemanticCommutativityReport(verdict, tuple(pairs), witness)


# -- uniqueness of the doubled structure ---------------------------------------

@dataclass(frozen=True)
class EhUniquenessReport:
    count: int
    unique: bool
    structures: tuple[tuple[tuple[str, tuple[int, ...]], ...], ...]


def eh_uniqueness_probe(theory: TheoryPresentation, model: FinSetModel) -> EhUniquenessReport:
    """Count model structures on the same carrier whose operation tables are
    homomorphisms from the corresponding power models.

    Exactly one such structure (the pointwise lift) exists for theories that
    satisfy the one-dimensional collapse preconditions.
    """
    if model.size > EH_PROBE_SIZE_BOUND:
        raise TheoryError(f"carrier {model.size} exceeds probe bound {EH_PROBE_SIZE_BOUND}")
    candidates: list[list[tuple[int, ...]]] = []
    powers: dict[int, FinSetModel] = {}
    for g in theory.generators:
        if g.arity not in powers:
            powers[g.arity] = power_model(model, g.arity)
        homs = enumerate_homs(powers[g.arity], model)
        candidates.append([h.mapping for h in homs])
    structures = []
    for choice in search(lambda i, a: candidates[i], [[]] * len(candidates)):
        tables = {g.name: choice[i] for i, g in enumerate(theory.generators)}
        if isinstance(validate_model(theory, model.size, tables), FinSetModel):
            structures.append(tuple(sorted(tables.items())))
    return EhUniquenessReport(len(structures), len(structures) == 1, tuple(structures))

