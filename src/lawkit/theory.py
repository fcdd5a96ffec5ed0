"""Terms and morphisms of free single-sorted algebraic theories.

A morphism m -> n is an n-tuple of terms in m variables.  Contexts of size
m*k are read as m x k matrices stored row-major: entry (i, j) is variable
i*k + j.  All power/transpose bookkeeping in this package is derived from
that one convention:

  * ``power_left(f, k)``  ("k·f"): f applied to each of the k rows,
    k*m -> k*n.
  * ``power_right(f, k)`` ("f·k"): f applied to each of the k columns,
    m*k -> n*k.
  * ``transpose(m, k)``: the inert permutation m*k -> k*m re-reading the
    matrix column-major.

Equality of parallel morphisms is semi-decided: oriented rewriting with a
global termination guard, then counter-model search over small finite
models.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .cells import Pasting

# Most rewrite steps one normalization of a term by the equations may take.
REWRITE_BUDGET = 10_000


class TheoryError(Exception):
    """Malformed term, morphism, or presentation."""


class InputError(Exception):
    """The user's input is at fault: a file that cannot be read or parsed, a
    name that names nothing fit for its place, or a model whose tables break
    its theory.  The command line reports it, and only it, with exit 3."""


@dataclass(frozen=True)
class OpSymbol:
    name: str
    arity: int

    def __post_init__(self):
        if self.arity < 0:
            raise TheoryError(f"negative arity for {self.name}")


@dataclass(frozen=True)
class Term:
    """Base class; concrete terms are Proj or Apply."""

    def size(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class Proj(Term):
    index: int
    context: int

    def __post_init__(self):
        if not 0 <= self.index < self.context:
            raise TheoryError(f"projection {self.index} outside context {self.context}")

    def size(self) -> int:
        return 1


@dataclass(frozen=True)
class Apply(Term):
    op: OpSymbol
    args: tuple[Term, ...]
    context: int

    def __post_init__(self):
        if len(self.args) != self.op.arity:
            raise TheoryError(f"{self.op.name} expects {self.op.arity} args, got {len(self.args)}")
        for a in self.args:
            if a.context != self.context:
                raise TheoryError(f"argument context mismatch under {self.op.name}")

    def size(self) -> int:
        return 1 + sum(a.size() for a in self.args)


def substitute(t: Term, args: tuple[Term, ...], context: int) -> Term:
    """Replace Proj(j) by args[j]; every args[j] must live in ``context``."""
    if isinstance(t, Proj):
        return args[t.index]
    assert isinstance(t, Apply)
    return Apply(t.op, tuple(substitute(a, args, context) for a in t.args), context)


@dataclass(frozen=True)
class Morphism:
    source: int
    target: int
    components: tuple[Term, ...]

    def __post_init__(self):
        if len(self.components) != self.target:
            raise TheoryError("component count != target")
        for c in self.components:
            if c.context != self.source:
                raise TheoryError("component context != source")

    def __repr__(self):
        return f"Morphism({self.source}->{self.target}, {[render_term(c) for c in self.components]})"

    def __hash__(self):
        # The dataclass hash walks the whole term tree; a morphism keys many
        # memo lookups, so the hash is stored on first use (not at
        # construction, which would tax every morphism built).  It lives in
        # the instance dict, outside the dataclass fields.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.source, self.target, self.components))
            object.__setattr__(self, "_hash", h)
        return h


def render_term(t: Term) -> str:
    if isinstance(t, Proj):
        return f"x{t.index + 1}"
    assert isinstance(t, Apply)
    if not t.args:
        return t.op.name
    return f"{t.op.name}({', '.join(render_term(a) for a in t.args)})"


def identity(n: int) -> Morphism:
    return Morphism(n, n, tuple(Proj(i, n) for i in range(n)))


def generator_morphism(op: OpSymbol) -> Morphism:
    """The morphism of ``op`` applied to its variables in order; one shared
    instance per symbol, stored on it, so memo lookups hit by identity."""
    f = op.__dict__.get("_generator")
    if f is None:
        n = op.arity
        f = Morphism(n, 1, (Apply(op, tuple(Proj(i, n) for i in range(n)), n),))
        object.__setattr__(op, "_generator", f)
    return f


def compose(f: Morphism, g: Morphism) -> Morphism:
    """Diagrammatic composite: f then g, so eval(compose(f,g)) = eval(g) o eval(f)."""
    if f.target != g.source:
        raise TheoryError(f"compose mismatch: {f.target} != {g.source}")
    comps = tuple(substitute(c, f.components, f.source) for c in g.components)
    return Morphism(f.source, g.target, comps)


def par(fs: list[Morphism]) -> Morphism:
    """Juxtaposition f1 x ... x fk with consecutive variable blocks."""
    src = sum(f.source for f in fs)
    comps: list[Term] = []
    offset = 0
    for f in fs:
        args = tuple(Proj(offset + j, src) for j in range(f.source))
        comps.extend(substitute(c, args, src) for c in f.components)
        offset += f.source
    return Morphism(src, sum(f.target for f in fs), tuple(comps))


def power_left(f: Morphism, k: int) -> Morphism:
    """k·f: f applied to each of the k rows of a k x m matrix; k*m -> k*n."""
    m, n = f.source, f.target
    src = k * m
    comps: list[Term] = []
    for i in range(k):
        args = tuple(Proj(i * m + j, src) for j in range(m))
        comps.extend(substitute(c, args, src) for c in f.components)
    return Morphism(src, k * n, tuple(comps))


def power_right(f: Morphism, k: int) -> Morphism:
    """f·k: f applied to each of the k columns of an m x k matrix; m*k -> n*k."""
    m, n = f.source, f.target
    src = m * k
    comps: list[Term] = [None] * (n * k)  # type: ignore[list-item]
    for j in range(k):
        args = tuple(Proj(i * k + j, src) for i in range(m))
        for t, c in enumerate(f.components):
            comps[t * k + j] = substitute(c, args, src)
    return Morphism(src, n * k, tuple(comps))


def transpose(m: int, k: int) -> Morphism:
    """Inert iso m*k -> k*m reading an m x k matrix column-major."""
    src = m * k
    comps = tuple(Proj(i * k + j, src) for j in range(k) for i in range(m))
    return Morphism(src, k * m, comps)


def col_then_row(f: Morphism, g: Morphism) -> Morphism:
    """Columns-then-rows composite m*k -> n*l: (f·k) then (n·g)."""
    return compose(power_right(f, g.source), power_left(g, f.target))


def row_then_col(f: Morphism, g: Morphism) -> Morphism:
    """Rows-then-columns composite m*k -> n*l: (m·g) then (f·l)."""
    return compose(power_left(g, f.source), power_right(f, g.target))


def unit_insertion(u: Morphism, k: int, n: int) -> Morphism:
    """u_{k,n}: 1 -> n placing the variable at position k (0-based), u elsewhere."""
    if u.source != 0 or u.target != 1:
        raise TheoryError("unit must be a map 0 -> 1")
    comps = []
    for i in range(n):
        if i == k:
            comps.append(Proj(0, 1))
        else:
            comps.append(substitute(u.components[0], (), 1))
    return Morphism(1, n, tuple(comps))


def is_inert(f: Morphism) -> bool:
    """True when every component is a bare projection."""
    return all(isinstance(c, Proj) for c in f.components)


@dataclass(frozen=True)
class Equation:
    name: str
    lhs: Morphism
    rhs: Morphism

    def __post_init__(self):
        if (self.lhs.source, self.lhs.target) != (self.rhs.source, self.rhs.target):
            raise TheoryError(f"equation {self.name}: sides not parallel")


@dataclass(frozen=True)
class TheoryPresentation:
    """Generators, oriented equations, and a basis of active operations.

    Generator declaration order doubles as the precedence used by the
    term order, so the user controls rule orientation by declaration.
    """

    name: str
    generators: tuple[OpSymbol, ...]
    equations: tuple[Equation, ...] = ()
    basis: tuple[str, ...] | None = None

    def __post_init__(self):
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise TheoryError("duplicate generator names")
        byname = {g.name: g for g in self.generators}
        for eq in self.equations:
            for side in (eq.lhs, eq.rhs):
                for c in side.components:
                    _check_ops_declared(c, byname)
        if self.basis is None:
            object.__setattr__(self, "basis", tuple(names))
        else:
            for b in self.basis:
                if b not in byname:
                    raise TheoryError(f"basis element {b} is not a generator")

    def op(self, name: str) -> OpSymbol:
        for g in self.generators:
            if g.name == name:
                return g
        raise TheoryError(f"unknown generator {name}")

    def basis_ops(self) -> list[OpSymbol]:
        return [self.op(b) for b in self.basis]

    @functools.cached_property
    def commutativity_squares(self) -> tuple[tuple[str, str, Morphism, Morphism], ...]:
        """``(a, b, *commutativity_square(a, b))`` per ordered basis pair."""
        return tuple((a.name, b.name, *commutativity_square(generator_morphism(a),
                                                            generator_morphism(b)))
                     for a in self.basis_ops() for b in self.basis_ops())

    def rewrite_rules(self) -> list[tuple[str, Term, Term]]:
        """Component-wise oriented rules (name, lhs pattern, rhs pattern)."""
        rules = []
        for eq in self.equations:
            for i, (l, r) in enumerate(zip(eq.lhs.components, eq.rhs.components)):
                suffix = "" if eq.lhs.target == 1 else f".{i}"
                rules.append((eq.name + suffix, l, r))
        return rules

    @functools.cached_property
    def rule_table(self) -> dict[str | None, tuple[tuple, ...]]:
        """The rules that can fire, compiled and indexed by the name of the
        head operation of their lhs, as ``normalize`` takes them; built once
        per theory.

        Key ``None`` holds the rules whose lhs is a lone variable; they match
        under every head, so each head's rules have them merged in at their
        positions, and first-match order is that of ``rewrite_rules``.  A rule
        whose lhs leaves one of its variables unbound never fires, so it is
        dropped.  A step turns ``lhs[b]`` into ``rhs[b]``, which changes the
        size by the Apply nodes rhs has over lhs (``growth``) plus, for each
        variable, its extra occurrences in rhs times the size of its binding
        (``weights``).  Each rule is the tuple ``(name, match, compare, build,
        rhs, growth, weights, width)`` of ``_compile_rule``.
        """
        rules = []
        for name, lhs, rhs in self.rewrite_rules():
            lhs_occ, rhs_occ = Counter(), Counter()
            growth = _shape(rhs, rhs_occ) - _shape(lhs, lhs_occ)
            if len(lhs_occ) < lhs.context:
                continue
            weights = tuple((v, rhs_occ[v] - n) for v, n in sorted(lhs_occ.items())
                            if rhs_occ[v] != n)
            head = lhs.op.name if isinstance(lhs, Apply) else None
            rules.append((head, _compile_rule(name, lhs, rhs, growth, weights)))
        return {key: tuple(rule for head, rule in rules if head in (key, None))
                for key in {head for head, _ in rules}}

    @functools.cached_property
    def _model_replays(self) -> dict[int, tuple[list, object]]:
        """Per carrier size: the models enumerated so far, and the
        enumeration that yields the rest."""
        return {}

    def models(self, size: int):
        """Every model of carrier ``size``, in the order of
        ``finset.enumerate_models``, which runs once per theory and size.

        Each model is enumerated when a consumer first reaches it and kept on
        the theory for as long as the theory lives, so a consumer that stops
        early enumerates no further, and consumers that interleave, or come
        later, replay the same sequence.  An enumeration that raises (a size
        over ``finset.MODEL_CELL_LIMIT``) is dropped, so every call raises.
        """
        from . import finset
        replays = self._model_replays
        i = 0
        while True:
            if size not in replays:
                replays[size] = ([], finset.enumerate_models(self, size))
            seen, rest = replays[size]
            if i == len(seen):
                # Off the theory while it runs, so one that raises is not
                # kept as a finished, truncated enumeration.
                del replays[size]
                model = next(rest, None)
                replays[size] = seen, rest
                if model is None:
                    return
                seen.append(model)
            yield seen[i]
            i += 1


def _check_ops_declared(t: Term, byname: dict[str, OpSymbol]) -> None:
    if isinstance(t, Apply):
        declared = byname.get(t.op.name)
        if declared is None or declared.arity != t.op.arity:
            raise TheoryError(f"equation uses undeclared operation {t.op.name}/{t.op.arity}")
        for a in t.args:
            _check_ops_declared(a, byname)


# -- presentations with 2-cells -----------------------------------------------
# Pure data: parsing a theory reads nothing of ``cells``, which evaluates
# pastings, so a one-dimensional file never loads it.

# How strictly a hom or an exchange table preserves the operations.
WEAKNESSES = ("strict", "pseudo", "lax", "colax")


@dataclass(frozen=True)
class TwoCellSymbol:
    name: str
    source: Morphism
    target: Morphism
    invertible: bool = False

    def __post_init__(self):
        if (self.source.source, self.source.target) != (self.target.source, self.target.target):
            raise TheoryError(f"2-cell {self.name}: boundary morphisms not parallel")


class TwoTheoryPresentation(NamedTuple):
    base: TheoryPresentation
    cells: tuple[TwoCellSymbol, ...] = ()
    cell_equations: tuple[tuple[str, Pasting, Pasting], ...] = ()

    def cell(self, name: str) -> TwoCellSymbol:
        for c in self.cells:
            if c.name == name:
                return c
        raise LookupError(f"unknown 2-cell {name}")


# -- rewriting ---------------------------------------------------------------

class RewriteStep(NamedTuple):
    rule: str
    path: tuple[int, ...]
    before: Term
    after: Term


def _compile_rule(name: str, lhs: Term, rhs: Term, growth: int,
                  weights: tuple[tuple[int, int], ...]) -> tuple:
    """One rule specialized to closures over a flat list of ``lhs.context``
    slots, one per variable:

      * ``match(t, slots)`` is true when ``t`` is an instance of ``lhs``,
        and then has bound each variable's slot to its subterm of ``t``
        (the first occurrence, left to right; a repeated variable must be
        ``==`` to it);
      * ``compare(t, slots)`` is the sign of ``_compare`` of the rhs
        instance against ``t``, found without building the instance;
      * ``build(slots, context)`` builds the rhs instance.
    """
    return (name, _compile_match(lhs, set()), _compile_compare(rhs), _compile_build(rhs),
            rhs, growth, weights, lhs.context)


def _compile_match(pattern: Term, bound: set[int]):
    """``f(t, slots)``: does ``t`` match ``pattern``, given the variables in
    ``bound`` (those left of ``pattern``) bound in ``slots``?  Adds the
    variables of ``pattern`` to ``bound``."""
    if isinstance(pattern, Proj):
        i = pattern.index
        if i in bound:
            return lambda t, slots: slots[i] == t
        bound.add(i)

        def bind(t, slots):
            slots[i] = t
            return True
        return bind
    assert isinstance(pattern, Apply)
    name, k = pattern.op.name, pattern.op.arity
    args = [_compile_match(a, bound) for a in pattern.args]
    if not args:
        return lambda t, slots: type(t) is Apply and t.op.name == name and not t.args
    if k == 2:
        a, b = args
        return lambda t, slots: (type(t) is Apply and t.op.name == name and len(t.args) == 2
                                 and a(t.args[0], slots) and b(t.args[1], slots))
    return lambda t, slots: (type(t) is Apply and t.op.name == name and len(t.args) == k
                             and all(f(x, slots) for f, x in zip(args, t.args)))


def _compile_compare(rhs: Term):
    """``f(t, slots)``: the sign of ``_compare(instance, t)``, where
    ``instance`` is ``rhs`` with each variable replaced by its slot."""
    if isinstance(rhs, Proj):
        i = rhs.index
        return lambda t, slots: _compare(slots[i], t)
    assert isinstance(rhs, Apply)
    name, k = rhs.op.name, rhs.op.arity
    args = [_compile_compare(a) for a in rhs.args]

    def compare(t, slots):
        if type(t) is not Apply:
            return 1
        if t.op.name != name:
            return -1 if name < t.op.name else 1
        for f, x in zip(args, t.args):
            c = f(x, slots)
            if c:
                return c
        return (k > len(t.args)) - (k < len(t.args))
    return compare


def _compile_build(rhs: Term):
    """``f(slots, context)``: ``rhs`` with each variable replaced by its slot."""
    if isinstance(rhs, Proj):
        i = rhs.index
        return lambda slots, context: slots[i]
    assert isinstance(rhs, Apply)
    op = rhs.op
    args = [_compile_build(a) for a in rhs.args]
    if len(args) == 2:
        a, b = args
        return lambda slots, context: Apply(op, (a(slots, context), b(slots, context)), context)
    return lambda slots, context: Apply(op, tuple(f(slots, context) for f in args), context)


def _shape(t: Term, occurrences: Counter) -> int:
    """Number of Apply nodes of ``t``; counts each projection index into ``occurrences``."""
    if isinstance(t, Proj):
        occurrences[t.index] += 1
        return 0
    assert isinstance(t, Apply)
    return 1 + sum(_shape(a, occurrences) for a in t.args)


def _compare(a: Term, b: Term) -> int:
    """Sign of the term key order of ``a`` against ``b``.

    Proj < Apply, Proj by index, Apply by op name, then its arguments
    lexicographically (a proper prefix first).
    """
    if a is b:
        return 0
    if isinstance(a, Proj):
        if isinstance(b, Proj):
            return (a.index > b.index) - (a.index < b.index)
        return -1
    if isinstance(b, Proj):
        return 1
    assert isinstance(a, Apply) and isinstance(b, Apply)
    if a.op.name != b.op.name:
        return -1 if a.op.name < b.op.name else 1
    for x, y in zip(a.args, b.args):
        c = _compare(x, y)
        if c:
            return c
    return (len(a.args) > len(b.args)) - (len(a.args) < len(b.args))


def normalize(t: Term, table, budget: int) -> tuple[Term, list[RewriteStep], bool]:
    """Rewrite leftmost-innermost to a fixpoint; returns (normal form, trace, within_budget).

    ``table`` is a theory's ``rule_table``.  A step at a subterm must
    strictly decrease it in the term order: size first, then the key order
    of ``_compare``.  The first rule, in order, that matches, binds all its
    variables and passes that guard fires.  The guard is decided on the
    bindings, so a refused step builds nothing.

    One bottom-up pass: each subterm is tried once its arguments are normal,
    and after a step only the nodes the rule's rhs built are tried again.
    The subterms its variables bound are normal: they lie strictly inside
    the rewritten subterm, whose arguments were normal.  (A lhs that is a
    lone variable binds the whole subterm, but no rhs keeping that variable
    is smaller.)  A projection is never rewritten: only a lone-variable lhs
    matches it, and the rhs of such a rule, having no other variable,
    instantiates to the projection itself or to an Apply, which is larger.
    After ``budget`` steps the pass stops and returns the term reached.
    """
    trace: list[RewriteStep] = []
    if budget <= 0:
        return t, trace, False
    path: list[int] = []
    anyhead = table.get(None, ())

    def step(sub: Apply) -> tuple[Term, Term] | None:
        """Fire the first rule that decreases ``sub``: (its rhs, the new subterm), or None."""
        for name, match, compare, build, rhs, growth, weights, width in \
                table.get(sub.op.name, anyhead):
            slots: list[Term | None] = [None] * width
            if not match(sub, slots):
                continue
            for v, w in weights:
                growth += w * slots[v].size()
            if growth > 0 or growth == 0 and compare(sub, slots) >= 0:
                continue
            new = build(slots, sub.context)
            trace.append(RewriteStep(name, tuple(path), sub, new))
            return rhs, new
        return None

    def norm(sub: Apply, built: Term | None) -> Term:
        """Normalize ``sub``.  When ``built`` is the rhs that made ``sub``,
        only the nodes it built are examined; the rest are normal."""
        while True:
            new_args = None
            for i, a in enumerate(sub.args):
                if len(trace) == budget:
                    break
                pattern = None if built is None else built.args[i]
                if isinstance(a, Proj) or isinstance(pattern, Proj):
                    continue
                path.append(i)
                b = norm(a, pattern)
                path.pop()
                if b is not a:
                    if new_args is None:
                        new_args = list(sub.args)
                    new_args[i] = b
            if new_args is not None:
                sub = Apply(sub.op, tuple(new_args), sub.context)
            if len(trace) == budget:
                return sub
            hit = step(sub)
            if hit is None:
                return sub
            built, sub = hit
            if isinstance(built, Proj):
                return sub

    if isinstance(t, Apply):
        t = norm(t, None)
    return t, trace, len(trace) < budget


def normalize_morphism(theory: TheoryPresentation,
                       f: Morphism) -> tuple[Morphism, list[list[RewriteStep]], bool]:
    comps, traces, ok = [], [], True
    for c in f.components:
        nf, tr, within = normalize(c, theory.rule_table, REWRITE_BUDGET)
        comps.append(nf)
        traces.append(tr)
        ok = ok and within
    return Morphism(f.source, f.target, tuple(comps)), traces, ok


# -- evaluation in table-backed models ----------------------------------------

def compile_term(t: Term, table, radix: int):
    """A closure sending an argument tuple to the value of ``t``, where the
    operation ``name`` has the flat table ``table(name)``, indexed row-major
    by its arguments, ``radix`` values each: the one evaluator of terms in
    models in ``Set`` and, on object or arrow tables, in ``Cat``."""
    if isinstance(t, Proj):
        return operator.itemgetter(t.index)
    assert isinstance(t, Apply)
    cells = table(t.op.name)
    args = [compile_term(a, table, radix) for a in t.args]
    if not args:
        value = cells[0]
        return lambda xs: value
    if len(args) == 1:
        (a,) = args
        return lambda xs: cells[a(xs)]
    if len(args) == 2:
        a, b = args
        return lambda xs: cells[a(xs) * radix + b(xs)]

    def apply(xs):
        idx = 0
        for a in args:
            idx = idx * radix + a(xs)
        return cells[idx]
    return apply


def occurring_variables(f: Morphism, g: Morphism) -> tuple[int, ...]:
    """The variables that occur in ``f`` or ``g``, in increasing order.
    Parallel morphisms are compared at every value of these and at 0 in
    every other variable, which neither side reads; so their first
    separating input in lexicographic order is the one a full scan finds."""
    occurs: Counter = Counter()
    for t in f.components + g.components:
        _shape(t, occurs)
    return tuple(sorted(occurs))


# -- equality decision --------------------------------------------------------

class Equal(NamedTuple):
    lhs_trace: tuple
    rhs_trace: tuple
    normal_form: Morphism


class NotEqual(NamedTuple):
    model: "object"           # finset.FinSetModel
    witness: tuple[int, ...]  # input tuple separating the two morphisms


class Unknown(NamedTuple):
    reason: str
    budget: int
    model_bound: int


EqualityVerdict = Equal | NotEqual | Unknown


def decide_equal(theory: TheoryPresentation, f: Morphism, g: Morphism,
                 model_bound: int = 4) -> EqualityVerdict:
    """Semi-decide f = g: join normal forms, else search for a separating model."""
    if (f.source, f.target) != (g.source, g.target):
        raise TheoryError("decide_equal needs parallel morphisms")
    nf, ftr, fok = normalize_morphism(theory, f)
    ng, gtr, gok = normalize_morphism(theory, g)
    if fok and gok and nf == ng:
        return Equal(tuple(tuple(t) for t in ftr), tuple(tuple(t) for t in gtr), nf)

    from . import finset
    read = occurring_variables(f, g)
    for size in range(1, model_bound + 1):
        for model in theory.models(size):
            hit = finset.separating_input(model, f, g, read)
            if hit is not None:
                return NotEqual(model, hit)
    reason = "normal forms differ; no counter-model up to bound" if (fok and gok) \
        else "rewrite budget exhausted; no counter-model up to bound"
    return Unknown(reason, REWRITE_BUDGET, model_bound)


# -- commutativity, unitality, Eckmann-Hilton preconditions -------------------

class CommutativityReport(NamedTuple):
    verdict: str                     # "Commutative" | "NotCommutative" | "Inconclusive"
    pairs: tuple[tuple[str, str, EqualityVerdict], ...]


def commutativity_square(alpha: Morphism, beta: Morphism) -> tuple[Morphism, Morphism]:
    """The two composites whose equality is the commutation of alpha with beta."""
    return row_then_col(alpha, beta), col_then_row(alpha, beta)


def check_commutative(theory: TheoryPresentation, model_bound: int = 4) -> CommutativityReport:
    pairs = []
    verdict = "Commutative"
    for a, b, lhs, rhs in theory.commutativity_squares:
        v = decide_equal(theory, lhs, rhs, model_bound)
        pairs.append((a, b, v))
        if isinstance(v, NotEqual):
            verdict = "NotCommutative"
        elif isinstance(v, Unknown) and verdict != "NotCommutative":
            verdict = "Inconclusive"
    return CommutativityReport(verdict, tuple(pairs))


def check_unital(theory: TheoryPresentation, alpha: OpSymbol, unit: OpSymbol,
                 model_bound: int = 4) -> dict[int, EqualityVerdict]:
    """Per insertion position: is alpha(u,...,x,...,u) = x?"""
    if alpha.arity <= 1:
        raise TheoryError("unitality is only defined for arity > 1")
    if unit.arity != 0:
        raise TheoryError("unit must be nullary")
    u = generator_morphism(unit)
    a = generator_morphism(alpha)
    out = {}
    for k in range(alpha.arity):
        composite = compose(unit_insertion(u, k, alpha.arity), a)
        out[k] = decide_equal(theory, composite, identity(1), model_bound)
    return out


class EhReport1d(NamedTuple):
    passes: bool
    unit: str | None
    merged_units: tuple[tuple[str, str], ...]
    non_unital: tuple[str, ...]
    unary_basis: tuple[str, ...]


def eh_preconditions_1d(theory: TheoryPresentation, model_bound: int = 4) -> EhReport1d:
    """Basis-level preconditions for the collapse of doubled models.

    Requires a prior Commutative verdict; any two nullary basis maps are
    first merged (a commutative theory admits at most one unit).
    """
    basis = theory.basis_ops()
    unary = tuple(g.name for g in basis if g.arity == 1)
    units = [g for g in basis if g.arity == 0]
    merged = []
    for u, v in itertools.combinations(units, 2):
        verdict = decide_equal(theory, generator_morphism(u), generator_morphism(v),
                               model_bound)
        if isinstance(verdict, Equal):
            merged.append((u.name, v.name))
    unit = units[0].name if units else None
    non_unital = []
    for g in basis:
        if g.arity > 1:
            if not units:
                non_unital.append(g.name)
                continue
            verdicts = check_unital(theory, g, units[0], model_bound)
            if not all(isinstance(v, Equal) for v in verdicts.values()):
                non_unital.append(g.name)
    passes = not unary and not non_unital
    return EhReport1d(passes, unit, tuple(merged), tuple(non_unital), unary)
