"""Finite-set semantics: evaluation, validation, enumeration, homomorphisms.

Carriers are initial segments 0..n-1.  Operation tables are flat tuples in
row-major argument order: args (a_0,...,a_{k-1}) index sum(a_i * n^(k-1-i)).
X^0 is the one-element set, so nullary tables have exactly one cell.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .search import EnumerationBound, search
from .theory import (
    Morphism,
    Proj,
    Term,
    TheoryError,
    TheoryPresentation,
    compile_term,
    generator_morphism,
    occurring_variables,
    power_right,
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


class FinSetModel(NamedTuple):
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

    def eval_morphism(self, f: Morphism, env: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(compile_term(c, self.table, self.size)(env) for c in f.components)


class Violation(NamedTuple):
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
    """Accept iff every equation holds on every input tuple; else the first
    failing equation at its first separating input."""
    model = make_model(theory, size, tables)
    for eq in theory.equations:
        env = separating_input(model, eq.lhs, eq.rhs)
        if env is not None:
            return Violation(eq.name, env, model.eval_morphism(eq.lhs, env),
                             model.eval_morphism(eq.rhs, env))
    return model


def _inputs(size: int, arity: int, read: tuple[int, ...]):
    """The input tuples of ``arity`` variables on a carrier of ``size``, in
    lexicographic order, over the variables in ``read``, with 0 in the
    others."""
    return itertools.product(*(range(size) if i in read else (0,) for i in range(arity)))


def separating_input(model: FinSetModel, f: Morphism, g: Morphism,
                     read: tuple[int, ...] | None = None) -> tuple[int, ...] | None:
    """The first input tuple, in lexicographic order, at which the parallel
    ``f`` and ``g`` differ, or None.  Only the variables that occur in them
    (``read``, else ``theory.occurring_variables``) vary."""
    if read is None:
        read = occurring_variables(f, g)
    sides = [(compile_term(lhs, model.table, model.size), compile_term(rhs, model.table, model.size))
             for lhs, rhs in zip(f.components, g.components)]
    for env in _inputs(model.size, f.source, read):
        for lhs, rhs in sides:
            if lhs(env) != rhs(env):
                return env
    return None


# -- model enumeration (backtracking over table cells) ------------------------

def enumerate_models(theory: TheoryPresentation, size: int):
    """Yield every model of the given carrier size, in lexicographic table order.

    There is one search slot per table cell, generators in order.  Each
    component of an equation instance is first checked at the last slot among
    its innermost cells, and prunes the branch as soon as both sides are
    defined and disagree.  An equation's instances are its ``_inputs`` over
    the variables that occur in it (``theory.occurring_variables``).
    """
    if size < 1:
        raise TheoryError("carrier size must be >= 1")
    total_cells = sum(size ** g.arity for g in theory.generators)
    if total_cells > MODEL_CELL_LIMIT:
        raise EnumerationBound(f"enumeration over {total_cells} cells exceeds limit "
                               f"{MODEL_CELL_LIMIT}")

    offset, at = {}, 0
    for g in theory.generators:
        offset[g.name], at = at, at + size ** g.arity

    def compile_instance(t: Term, env: tuple[int, ...], fixed: list[int]):
        """A closure sending the assigned prefix to the value of ``t`` at
        ``env``, or to None while a cell it reads is unassigned; appends to
        ``fixed`` the cells whose arguments ``env`` alone fixes."""
        if isinstance(t, Proj):
            value = env[t.index]
            return lambda a: value
        base = offset[t.op.name]
        if all(isinstance(s, Proj) for s in t.args):
            cell = base + table_index([env[s.index] for s in t.args], size)
            fixed.append(cell)
            return lambda a: a[cell] if cell < len(a) else None
        args = [compile_instance(s, env, fixed) for s in t.args]

        def apply(a):
            idx = 0
            for arg in args:
                v = arg(a)
                if v is None:
                    return None
                idx = idx * size + v
            cell = base + idx
            return a[cell] if cell < len(a) else None
        return apply

    def holds(lhs, rhs):
        """True or False once both sides are defined, None before."""
        def check(a):
            lv, rv = lhs(a), rhs(a)
            return None if lv is None or rv is None else lv == rv
        return check

    checks: list[list] = [[] for _ in range(total_cells)]
    for eq in theory.equations:
        read = occurring_variables(eq.lhs, eq.rhs)
        for lhs, rhs in zip(eq.lhs.components, eq.rhs.components):
            for env in _inputs(size, eq.lhs.source, read):
                fixed: list[int] = []
                check = holds(compile_instance(lhs, env, fixed), compile_instance(rhs, env, fixed))
                if fixed:
                    checks[max(fixed)].append(check)
                elif not check([]):
                    return  # an equation between projections fails at this size

    for flat in search(lambda i, a: range(size), checks):
        yield make_model(theory, size, {
            g.name: flat[offset[g.name]:offset[g.name] + size ** g.arity]
            for g in theory.generators})


# -- homomorphisms -------------------------------------------------------------

class ModelHom(NamedTuple):
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
    """The n-th power: carrier size**n with pointwise operations.  Elements
    encode tuples row-major, (a_0,...,a_{n-1}) -> sum a_i * size^(n-1-i), so
    an operation's arguments are the rows of an arity x n matrix, and it acts
    on each column (``power_right``)."""
    size = model.size
    tables = {}
    for g in model.theory.generators:
        columns = [compile_term(c, model.table, size)
                   for c in power_right(generator_morphism(g), n).components]
        tables[g.name] = tuple(table_index([c(xs) for c in columns], size)
                               for xs in all_tuples(size, g.arity * n))
    return make_model(model.theory, size ** n, tables)


# -- semantic commutativity ----------------------------------------------------

class SemanticCommutativityReport(NamedTuple):
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
    for a, b, lhs, rhs in model.theory.commutativity_squares:
        env = separating_input(model, lhs, rhs)
        pairs.append((a, b, env is None))
        if witness is None and env is not None:
            witness = (a, b, env)
    verdict = "Passes" if all(ok for _, _, ok in pairs) else "Fails"
    return SemanticCommutativityReport(verdict, tuple(pairs), witness)


# -- uniqueness of the doubled structure ---------------------------------------

class EhUniquenessReport(NamedTuple):
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
        raise EnumerationBound(f"carrier {model.size} exceeds probe bound {EH_PROBE_SIZE_BOUND}")
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

