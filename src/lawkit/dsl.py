"""Text format for presentations, exchange tables, models, and check suites.

Grammar sketch (comments run ``--`` to end of line, identifiers
``[a-zA-Z][a-zA-Z0-9_]*``, files use the ``.law`` extension):

    theory T {
      op m : 2 -> 1;
      basis m, u;
      eq assoc : m(m(x1,x2),x3) = m(x1,m(x2,x3));
      cell b : m => m . swap(1,2) invertible;
      celleq sq : vert(b, b) = id(m . m);          -- pasting equations
    }
    sigma S for T weakness pseudo symmetric {
      (m,m) = whiskR(par(id(x1), b, id(x1)), m(m(x1,x2),x3));
    }
    model M of T in finset { carrier 2; table m = [0,1,1,0]; table u = [0]; }
    model P of T in fincat {
      objects 2;
      arrow le : 0 -> 1;
      compose { le then le = le; }                  -- omit identity composites
      functor m { obj [0,0,0,1]; arr auto; }
      nat c auto;
    }
    model G of T in moncat {
      grading 2; scalars 2;
      tensor m; unit u;
      braiding c = [[0,0],[0,1]];
    }
    check commutative T;
    import "other.law";

Morphism expressions compose with ``.`` in function order (``m . swap(1,2)``
applies the swap first).  A morphism may carry an explicit source context as
``[n]``; otherwise the context is the largest variable index mentioned.

A pasting expression is a 2-cell name or a combinator keyword applied to
its arguments.  One table, ``_COMBINATORS``, gives each keyword its node
class and argument kinds in field order (``whiskR(pasting, morphism)``,
``powL(count, pasting)``, ...); the pasting parser reads it, and so does
the serializer the tests use for round trips, so ``par()`` and ``<>`` parse
back as it writes them.  A theory block's diagnostics point at the offending
token: a duplicate operation or 2-cell, a basis name that is not an
operation, a variable outside its context, an equation or 2-cell whose
sides are not parallel, or a cell equation (at its name) whose sides are
ill-typed or not parallel modulo the block's equations.  A sigma entry is
typed where it is parsed, and reported at its ``(``.  Every other fault of
the input raises ``theory.InputError``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from . import catmodels, cells, fincat
from .finset import FinSetModel, validate_model
from .theory import (
    WEAKNESSES,
    Apply,
    Equation,
    InputError,
    Morphism,
    OpSymbol,
    Proj,
    Term,
    TheoryError,
    TheoryPresentation,
    TwoCellSymbol,
    TwoTheoryPresentation,
    compose,
    identity,
)


class Diagnostic(NamedTuple):
    line: int
    col: int
    message: str

    def __str__(self):
        return f"{self.line}:{self.col}: {self.message}"


@dataclass
class SourceFile:
    path: str
    text: str
    diagnostics: list[Diagnostic] = field(default_factory=list)


class ParseError(Exception):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"{line}:{col}: {message}")
        self.diagnostic = Diagnostic(line, col, message)


class ModelViolation(InputError):
    """A model that breaks its theory; ``problems`` lists a categorical model's violations."""

    def __init__(self, message: str, problems: tuple = ()):
        super().__init__(message)
        self.problems = problems


# -- declarations, as parsed -----------------------------------------------------------

class FinSetDecl(NamedTuple):
    size: int
    tables: tuple[tuple[str, tuple[int, ...]], ...]


class FunctorDecl(NamedTuple):
    name: str
    obj: tuple[int, ...]
    arr: tuple[int, ...] | None  # None = derive into a thin target


class NatDecl(NamedTuple):
    name: str
    components: tuple[int, ...] | None  # None = unique arrows in a thin target


class FinCatDecl(NamedTuple):
    objects: int
    arrows: tuple[tuple[str, int, int], ...]
    composites: tuple[tuple[str, str, str], ...]
    functors: tuple[FunctorDecl, ...]
    nats: tuple[NatDecl, ...]


class MonCatDecl(NamedTuple):
    grading: int
    scalars: int
    tensor: str | None
    unit: str | None
    braidings: tuple[tuple[str, tuple[tuple[int, ...], ...]], ...]
    functors: tuple[FunctorDecl, ...]
    nats: tuple[NatDecl, ...]


class ModelDecl(NamedTuple):
    name: str
    theory: str
    kind: str  # finset | fincat | moncat
    payload: FinSetDecl | FinCatDecl | MonCatDecl
    token: Token  # the name, where a refusal of the model is reported
    # "a.law: " for a model imported from a.law, as an import's parse
    # diagnostics are prefixed; "" for a model of the file named.
    origin: str = ""


class Document(NamedTuple):
    theories: tuple[TwoTheoryPresentation, ...] = ()
    sigmas: tuple[tuple[str, cells.SigmaTable], ...] = ()  # (for-theory, table)
    models: tuple[ModelDecl, ...] = ()
    checks: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def theory(self, name: str) -> TwoTheoryPresentation:
        for t in self.theories:
            if t.base.name == name:
                return t
        raise InputError(f"no theory named {name}")

    def sigma(self, name: str) -> tuple[str, cells.SigmaTable]:
        for for_theory, s in self.sigmas:
            if s.name == name:
                return for_theory, s
        raise InputError(f"no sigma table named {name}")

    def model_decl(self, name: str, of: str | None = None) -> ModelDecl:
        """The model named ``name``; with ``of``, it must be a model of that theory."""
        for m in self.models:
            if m.name == name:
                if of is not None and m.theory != of:
                    raise InputError(f"{name} is a model of {m.theory}, not of {of}")
                return m
        raise InputError(f"no model named {name}")

    def finset_model(self, name: str, of: str | None = None) -> FinSetModel:
        decl = self.model_decl(name, of)
        if decl.kind != "finset":
            raise InputError(f"{name} is not a finite-set model")
        theory2 = self.theory(decl.theory)
        assert isinstance(decl.payload, FinSetDecl)
        try:
            result = validate_model(theory2.base, decl.payload.size, dict(decl.payload.tables))
        except TheoryError as e:
            raise InputError(f"model {name}: {e}") from None
        if not isinstance(result, FinSetModel):
            raise ModelViolation(f"model {name} violates {result.equation} at {result.env}")
        return result

    def cat_model(self, name: str, of: str | None = None) -> catmodels.CatModel:
        """The categorical model ``name``, refused at its name if it has ``CatModel.problems``."""
        decl = self.model_decl(name, of)
        elaborate = {"fincat": _elaborate_fincat, "moncat": _elaborate_moncat}.get(decl.kind)
        if elaborate is None:
            raise InputError(f"{name} is not a categorical model")
        model = elaborate(self.theory(decl.theory), decl.payload)
        if model.problems:
            raise ModelViolation(f"{decl.token.line}:{decl.token.col}: {decl.origin}model {name} "
                                 f"is not a model of {decl.theory}: {' '.join(model.problems[0])}",
                                 model.problems)
        return model


# -- tokenizer ----------------------------------------------------------------------------

# One alternative per lexeme, in the order the grammar resolves overlaps:
# ``--`` opens a comment before ``-`` can start ``->``, and two-character
# punctuation before its one-character prefix.  ``bad`` takes any other
# character, so every offset of the text is matched.
_TOKEN = re.compile(r"""
    (?P<newline>\n) | (?P<space>[ \t\r]+) | (?P<comment>--[^\n]*)
  | "(?P<string>[^"]*)" | (?P<punct>->|=>|[{}()\[\]<>,;:.=])
  | (?P<nat>[0-9]+) | (?P<ident>[a-zA-Z][a-zA-Z0-9_]*) | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


class Token(NamedTuple):
    kind: str  # ident | nat | punct | string | eof
    value: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    """Columns count characters, a string's newlines included; a comment
    leaves the column where it starts."""
    out = []
    line, col = 1, 1
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line, col = line + 1, 1
            continue
        if kind == "bad":
            c = m.group()
            raise ParseError(line, col, "unterminated string" if c == '"'
                             else f"unexpected character {c!r}")
        if kind == "comment":
            continue
        if kind != "space":
            out.append(Token(kind, m.group(kind), line, col))
        col += m.end() - m.start()
    out.append(Token("eof", "", line, col))
    return out


# -- parser --------------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def fail(self, message: str):
        self.fail_at(self.peek(), message)

    def fail_last(self, message: str):
        """Fail at the token consumed last, e.g. a name just read that turns out unknown."""
        self.fail_at(self.tokens[self.pos - 1], message)

    def fail_at(self, t: Token, message: str):
        raise ParseError(t.line, t.col, message)

    def expect(self, kind: str, value: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind or (value is not None and t.value != value):
            want = value if value is not None else kind
            self.fail(f"expected {want!r}, found {t.value!r}")
        return self.next()

    def accept(self, kind: str, value: str | None = None) -> Token | None:
        t = self.peek()
        if t.kind == kind and (value is None or t.value == value):
            return self.next()
        return None

    def nat(self) -> int:
        return int(self.expect("nat").value)

    def ident(self) -> str:
        return self.expect("ident").value

    def nat_list(self) -> tuple[int, ...]:
        self.expect("punct", "[")
        out = []
        if not self.accept("punct", "]"):
            out.append(self.nat())
            while self.accept("punct", ","):
                out.append(self.nat())
            self.expect("punct", "]")
        return tuple(out)

    def nat_matrix(self) -> tuple[tuple[int, ...], ...]:
        self.expect("punct", "[")
        rows = [self.nat_list()]
        while self.accept("punct", ","):
            rows.append(self.nat_list())
        self.expect("punct", "]")
        return tuple(rows)


# -- morphism expressions -------------------------------------------------------------------

@dataclass(frozen=True)
class _RawTerm:
    head: str | int  # op name, or variable index for projections
    args: tuple["_RawTerm", ...] = ()
    at: Token | None = field(default=None, compare=False)  # a variable's token

    def max_var(self) -> int:
        if isinstance(self.head, int):
            return self.head + 1
        return max((a.max_var() for a in self.args), default=0)


class _RawAtom(NamedTuple):
    kind: str  # terms | swap | id
    terms: tuple[_RawTerm, ...] = ()
    a: int = 0
    b: int = 0
    context: int | None = None


def _parse_raw_term(p: _Parser, ops: dict[str, int]) -> _RawTerm:
    head = p.peek()
    name = p.ident()
    if len(name) > 1 and name[0] in "xp" and name[1:].isdigit():
        return _RawTerm(int(name[1:]) - 1, at=head)
    if name not in ops:
        p.fail_last(f"unknown operation {name!r}")
    args = []
    if p.accept("punct", "("):
        if not p.accept("punct", ")"):
            args.append(_parse_raw_term(p, ops))
            while p.accept("punct", ","):
                args.append(_parse_raw_term(p, ops))
            p.expect("punct", ")")
    if len(args) != ops[name]:
        p.fail_at(head, f"{name} expects {ops[name]} arguments, got {len(args)}")
    return _RawTerm(name, tuple(args))


def _parse_atom(p: _Parser, ops: dict[str, int]) -> _RawAtom:
    context = None
    if p.peek().kind == "punct" and p.peek().value == "[":
        p.next()
        context = p.nat()
        p.expect("punct", "]")
    t = p.peek()
    if t.kind == "punct" and t.value == "<":
        p.next()
        terms = []
        if not p.accept("punct", ">"):  # <> is the map onto the empty context
            terms.append(_parse_raw_term(p, ops))
            while p.accept("punct", ","):
                terms.append(_parse_raw_term(p, ops))
            p.expect("punct", ">")
        return _RawAtom("terms", tuple(terms), context=context)
    if t.kind == "ident" and t.value == "swap":
        p.next()
        p.expect("punct", "(")
        a = p.nat()
        p.expect("punct", ",")
        b = p.nat()
        p.expect("punct", ")")
        return _RawAtom("swap", a=a - 1, b=b - 1, context=context)
    if t.kind == "ident" and t.value == "id":
        save = p.pos
        p.next()
        p.expect("punct", "(")
        if p.peek().kind == "nat":
            n = p.nat()
            p.expect("punct", ")")
            return _RawAtom("id", a=n, context=context)
        p.pos = save
    return _RawAtom("terms", (_parse_raw_term(p, ops),), context=context)


def _elaborate_term(raw: _RawTerm, by_name: dict[str, OpSymbol], context: int) -> Term:
    if isinstance(raw.head, int):
        if not 0 <= raw.head < context:
            raise ParseError(raw.at.line, raw.at.col,
                             f"variable {raw.at.value} outside context {context}")
        return Proj(raw.head, context)
    op = by_name[raw.head]
    return Apply(op, tuple(_elaborate_term(a, by_name, context) for a in raw.args), context)


def _atom_to_morphism(atom: _RawAtom, by_name: dict[str, OpSymbol],
                      forced_source: int | None) -> Morphism:
    if atom.kind == "swap":
        n = atom.context if atom.context is not None else forced_source
        if n is None:
            n = max(atom.a, atom.b) + 1
        if not (0 <= atom.a < n and 0 <= atom.b < n):
            raise TheoryError(f"swap({atom.a + 1},{atom.b + 1}) outside context {n}")
        comps = list(range(n))
        comps[atom.a], comps[atom.b] = comps[atom.b], comps[atom.a]
        return Morphism(n, n, tuple(Proj(i, n) for i in comps))
    if atom.kind == "id":
        return identity(atom.a)
    ctx = atom.context
    if ctx is None:
        ctx = max((t.max_var() for t in atom.terms), default=0)
        if forced_source is not None:
            ctx = max(ctx, forced_source)
    comps = tuple(_elaborate_term(t, by_name, ctx) for t in atom.terms)
    return Morphism(ctx, len(atom.terms), comps)


def parse_morphism_expr(p: _Parser, base_ops: list[OpSymbol],
                        source_hint: int | None = None) -> Morphism:
    """A chain a1 . a2 . ... . ak applies the rightmost atom first."""
    ops = {g.name: g.arity for g in base_ops}
    by_name = {g.name: g for g in base_ops}
    starts = [p.peek()]  # each atom's first token, for diagnostics
    atoms = [_parse_atom(p, ops)]
    while p.accept("punct", "."):
        starts.append(p.peek())
        atoms.append(_parse_atom(p, ops))
    atoms.reverse()  # rightmost first
    starts.reverse()
    morphs: list[Morphism] = []
    forced = source_hint
    for atom, start in zip(atoms, starts):
        morphs.append(_built_at(p, start, _atom_to_morphism, atom, by_name, forced))
        forced = None
    # thread: swap atoms later in the chain take their size from the feed
    out = morphs[0]
    for i, atom in enumerate(atoms[1:], start=1):
        m = morphs[i]
        if atom.kind == "swap" and atom.context is None and m.source != out.target:
            m = _built_at(p, starts[i], _atom_to_morphism, atom, by_name, out.target)
        out = _built_at(p, starts[i], compose, out, m)
    return out


# keyword -> (node class in ``cells``, argument kinds in field order).  A
# kind is a "pasting", a "morphism" expression, a "count" or a list of
# "pastings" running to the closing parenthesis.  The parser and the tests'
# serializer both read this table; a keyword beats a 2-cell of the same name.
# Nodes are named, not held, so that importing ``dsl`` leaves ``cells``
# unloaded.
_COMBINATORS = {
    "id": ("Id", ("morphism",)),
    "inv": ("Inverse", ("pasting",)),
    "vert": ("Vert", ("pasting", "pasting")),
    "whiskL": ("HWhiskerL", ("morphism", "pasting")),
    "whiskR": ("HWhiskerR", ("pasting", "morphism")),
    "powL": ("PowerL", ("count", "pasting")),
    "powR": ("PowerR", ("pasting", "count")),
    "par": ("Par", ("pastings",)),
}


def _parse_pasting(p: _Parser, theory2_cells: dict[str, TwoCellSymbol],
                   base_ops: list[OpSymbol]) -> cells.Pasting:
    t = p.peek()
    if t.kind != "ident":
        p.fail("expected a pasting expression")
    name = t.value
    if name in _COMBINATORS:
        node, kinds = _COMBINATORS[name]
        p.next()
        p.expect("punct", "(")
        args = []
        for i, kind in enumerate(kinds):
            if i:
                p.expect("punct", ",")
            args.append(_parse_pasting_argument(p, kind, theory2_cells, base_ops))
        p.expect("punct", ")")
        return getattr(cells, node)(*args)
    if name in theory2_cells:
        p.next()
        return cells.Gen(theory2_cells[name])
    p.fail(f"unknown pasting combinator or cell {name!r}")


def _parse_pasting_argument(p: _Parser, kind: str, theory2_cells: dict[str, TwoCellSymbol],
                            base_ops: list[OpSymbol]):
    if kind == "pasting":
        return _parse_pasting(p, theory2_cells, base_ops)
    if kind == "morphism":
        return parse_morphism_expr(p, base_ops)
    if kind == "count":
        return p.nat()
    parts = []
    if not (p.peek().kind == "punct" and p.peek().value == ")"):  # par() has no parts
        parts.append(_parse_pasting(p, theory2_cells, base_ops))
        while p.accept("punct", ","):
            parts.append(_parse_pasting(p, theory2_cells, base_ops))
    return tuple(parts)


# -- block parsers ----------------------------------------------------------------------------

def _parse_theory(p: _Parser) -> TwoTheoryPresentation:
    name = p.ident()
    p.expect("punct", "{")
    ops: list[OpSymbol] = []
    basis_tokens: list[Token] = []
    equations: list[Equation] = []
    cell_symbols: dict[str, TwoCellSymbol] = {}
    cell_equations = []
    cell_equation_tokens: list[Token] = []
    while not p.accept("punct", "}"):
        kw = p.ident()
        if kw == "op":
            op_name = p.ident()
            if any(g.name == op_name for g in ops):
                p.fail_last(f"duplicate operation {op_name!r}")
            p.expect("punct", ":")
            arity = p.nat()
            p.expect("punct", "->")
            target = p.nat()
            if target != 1:
                p.fail_last("operations must target 1")
            ops.append(OpSymbol(op_name, arity))
            p.expect("punct", ";")
        elif kw == "basis":
            basis_tokens = [p.expect("ident")]
            while p.accept("punct", ","):
                basis_tokens.append(p.expect("ident"))
            p.expect("punct", ";")
        elif kw == "eq":
            name_token = p.peek()
            eq_name = p.ident()
            p.expect("punct", ":")
            lhs = parse_morphism_expr(p, ops)
            p.expect("punct", "=")
            rhs = parse_morphism_expr(p, ops)
            p.expect("punct", ";")
            lhs, rhs = _pad_parallel(lhs, rhs)
            equations.append(_built_at(p, name_token, Equation, eq_name, lhs, rhs))
        elif kw == "cell":
            name_token = p.peek()
            cell_name = p.ident()
            if cell_name in cell_symbols:
                p.fail_last(f"duplicate 2-cell {cell_name!r}")
            p.expect("punct", ":")
            src = parse_morphism_expr(p, ops)
            p.expect("punct", "=>")
            tgt = parse_morphism_expr(p, ops)
            invertible = bool(p.accept("ident", "invertible"))
            p.expect("punct", ";")
            src, tgt = _pad_parallel(src, tgt)
            cell_symbols[cell_name] = _built_at(p, name_token, TwoCellSymbol,
                                                cell_name, src, tgt, invertible)
        elif kw == "celleq":
            cell_equation_tokens.append(p.peek())
            ce_name = p.ident()
            p.expect("punct", ":")
            lhs_p = _parse_pasting(p, cell_symbols, ops)
            p.expect("punct", "=")
            rhs_p = _parse_pasting(p, cell_symbols, ops)
            p.expect("punct", ";")
            cell_equations.append((ce_name, lhs_p, rhs_p))
        else:
            p.fail_last(f"unknown theory item {kw!r}")
    for t in basis_tokens:
        if not any(g.name == t.value for g in ops):
            p.fail_at(t, f"basis element {t.value} is not a generator")
    basis = tuple(t.value for t in basis_tokens) or None  # None: every operation
    base = TheoryPresentation(name, tuple(ops), tuple(equations), basis)
    theory2 = TwoTheoryPresentation(base, tuple(cell_symbols.values()), tuple(cell_equations))
    # Each cell equation relates two well-formed, parallel pastings, modulo
    # every equation of the block.
    for token, (ce_name, lhs_p, rhs_p) in zip(cell_equation_tokens, cell_equations):
        for side, pasting in (("lhs", lhs_p), ("rhs", rhs_p)):
            for problem in cells.validate_pasting(theory2, pasting):
                p.fail_at(token, f"cell equation {ce_name} ({side}): {problem}")
        if not (cells.boundaries_agree(base, lhs_p.source(), rhs_p.source())
                and cells.boundaries_agree(base, lhs_p.target(), rhs_p.target())):
            p.fail_at(token, f"cell equation {ce_name}: its sides are not parallel")
    return theory2


def _built_at(p: _Parser, token: Token, make, *args):
    """``make(*args)``, with its TheoryError reported at ``token``."""
    try:
        return make(*args)
    except TheoryError as e:
        p.fail_at(token, str(e))


def _pad_parallel(lhs: Morphism, rhs: Morphism) -> tuple[Morphism, Morphism]:
    if lhs.source == rhs.source:
        return lhs, rhs
    ctx = max(lhs.source, rhs.source)
    return _repad(lhs, ctx), _repad(rhs, ctx)


def _repad(m: Morphism, ctx: int) -> Morphism:
    if m.source == ctx:
        return m
    widen = Morphism(ctx, m.source, tuple(Proj(i, ctx) for i in range(m.source)))
    return compose(widen, m)


def _known(p: _Parser, names, what: str) -> str:
    """An identifier that must be one of ``names``, reported where it stands."""
    name = p.ident()
    if name not in names:
        p.fail_last(f"unknown {what} {name!r}")
    return name


def _parse_sigma(p: _Parser,
                 theories: list[TwoTheoryPresentation]) -> tuple[str, cells.SigmaTable]:
    name = p.ident()
    p.expect("ident", "for")
    theory_name = p.ident()
    theory2 = None
    for t in theories:
        if t.base.name == theory_name:
            theory2 = t
    if theory2 is None:
        p.fail_last(f"sigma table references unknown theory {theory_name!r}")
    p.expect("ident", "weakness")
    weakness = p.ident()
    if weakness not in WEAKNESSES:
        p.fail_last(f"unknown weakness {weakness!r}")
    symmetric = bool(p.accept("ident", "symmetric"))
    p.expect("punct", "{")
    entries = []
    cell_symbols = {c.name: c for c in theory2.cells}
    ops = list(theory2.base.generators)
    names = {g.name for g in ops}
    while not p.accept("punct", "}"):
        start = p.expect("punct", "(")
        a = _known(p, names, "operation")
        p.expect("punct", ",")
        b = _known(p, names, "operation")
        p.expect("punct", ")")
        p.expect("punct", "=")
        pasting = _parse_pasting(p, cell_symbols, ops)
        p.expect("punct", ";")
        if not _built_at(p, start, cells.spans_square, theory2.base, a, b, pasting):
            p.fail_at(start, f"sigma entry ({a}, {b}) does not span its commutativity square")
        for problem in cells.validate_pasting(theory2, pasting):
            p.fail_at(start, f"sigma entry ({a}, {b}): {problem}")
        entries.append(((a, b), pasting))
    return theory_name, cells.SigmaTable(name, weakness, tuple(entries), symmetric)


def _parse_model(p: _Parser, theories: list[TwoTheoryPresentation]) -> ModelDecl:
    token = p.expect("ident")
    name = token.value
    p.expect("ident", "of")
    theory_name = p.ident()
    theory2 = next((t for t in theories if t.base.name == theory_name), None)
    if theory2 is None:
        p.fail_last(f"model references unknown theory {theory_name!r}")
    ops = {g.name for g in theory2.base.generators}
    cell_names = {c.name for c in theory2.cells}
    p.expect("ident", "in")
    kind = p.ident()
    if kind not in ("finset", "fincat", "moncat"):
        p.fail_last(f"unknown model kind {kind!r}")
    p.expect("punct", "{")
    if kind == "finset":
        size = None
        tables = []
        while not p.accept("punct", "}"):
            kw = p.ident()
            if kw == "carrier":
                size = p.nat()
                p.expect("punct", ";")
            elif kw == "table":
                tname = p.ident()
                p.expect("punct", "=")
                tables.append((tname, p.nat_list()))
                p.expect("punct", ";")
            else:
                p.fail_last(f"unknown finset item {kw!r}")
        if size is None:
            p.fail("finset model needs a carrier")
        return ModelDecl(name, theory_name, "finset", FinSetDecl(size, tuple(tables)), token)
    if kind == "fincat":
        objects = 0
        arrows = []
        composites = []
        named: list[Token] = []  # every arrow name a composite uses
        functors = []
        nats = []
        while not p.accept("punct", "}"):
            kw = p.ident()
            if kw == "objects":
                objects = p.nat()
                p.expect("punct", ";")
            elif kw == "arrow":
                aname = p.ident()
                p.expect("punct", ":")
                src = p.nat()
                p.expect("punct", "->")
                dst = p.nat()
                p.expect("punct", ";")
                arrows.append((aname, src, dst))
            elif kw == "compose":
                p.expect("punct", "{")
                while not p.accept("punct", "}"):
                    f = p.expect("ident")
                    p.expect("ident", "then")
                    g = p.expect("ident")
                    p.expect("punct", "=")
                    h = p.expect("ident")
                    p.expect("punct", ";")
                    named += (f, g, h)
                    composites.append((f.value, g.value, h.value))
            elif kw == "functor":
                functors.append(_parse_functor_decl(p, ops))
            elif kw == "nat":
                nats.append(_parse_nat_decl(p, cell_names))
            else:
                p.fail_last(f"unknown fincat item {kw!r}")
        # Arrows may be declared after the composites that name them.
        known = {f"id{k}" for k in range(objects)} | {a for a, _, _ in arrows}
        for t in named:
            if t.value not in known:
                p.fail_at(t, f"unknown arrow {t.value!r}")
        return ModelDecl(name, theory_name, "fincat",
                         FinCatDecl(objects, tuple(arrows), tuple(composites),
                                    tuple(functors), tuple(nats)), token)
    # kind == "moncat"
    grading = 1
    scalars = 1
    tensor = None
    unit = None
    braidings = []
    functors = []
    nats = []
    while not p.accept("punct", "}"):
        kw = p.ident()
        if kw == "grading":
            grading = p.nat()
            p.expect("punct", ";")
        elif kw == "scalars":
            scalars = p.nat()
            p.expect("punct", ";")
        elif kw == "tensor":
            tensor = _known(p, ops, "operation")
            p.expect("punct", ";")
        elif kw == "unit":
            unit = _known(p, ops, "operation")
            p.expect("punct", ";")
        elif kw == "braiding":
            bname = _known(p, cell_names, "2-cell")
            p.expect("punct", "=")
            braidings.append((bname, p.nat_matrix()))
            p.expect("punct", ";")
        elif kw == "functor":
            functors.append(_parse_functor_decl(p, ops))
        elif kw == "nat":
            nats.append(_parse_nat_decl(p, cell_names))
        else:
            p.fail_last(f"unknown moncat item {kw!r}")
    return ModelDecl(name, theory_name, "moncat",
                     MonCatDecl(grading, scalars, tensor, unit,
                                tuple(braidings), tuple(functors), tuple(nats)), token)


def _parse_functor_decl(p: _Parser, ops) -> FunctorDecl:
    fname = _known(p, ops, "operation")
    p.expect("punct", "{")
    obj = None
    arr: tuple[int, ...] | None = None
    auto = False
    while not p.accept("punct", "}"):
        kw = p.ident()
        if kw == "obj":
            obj = p.nat_list()
            p.expect("punct", ";")
        elif kw == "arr":
            if p.accept("ident", "auto"):
                auto = True
            else:
                arr = p.nat_list()
            p.expect("punct", ";")
        else:
            p.fail_last(f"unknown functor item {kw!r}")
    if obj is None:
        p.fail(f"functor {fname} needs an object table")
    return FunctorDecl(fname, obj, None if auto else (arr if arr is not None else ()))


def _parse_nat_decl(p: _Parser, cell_names) -> NatDecl:
    nname = _known(p, cell_names, "2-cell")
    if p.accept("ident", "auto"):
        p.expect("punct", ";")
        return NatDecl(nname, None)
    p.expect("punct", "=")
    comps = p.nat_list()
    p.expect("punct", ";")
    return NatDecl(nname, comps)


def parse(text: str, path: str = "<string>",
          loader=None) -> tuple[Document | None, SourceFile]:
    """Parse a document; diagnostics are collected in the returned SourceFile."""
    source = SourceFile(path, text)
    try:
        tokens = tokenize(text)
        p = _Parser(tokens)
        theories: list[TwoTheoryPresentation] = []
        sigmas: list[tuple[str, cells.SigmaTable]] = []
        models: list[ModelDecl] = []
        checks: list[tuple[str, tuple[str, ...]]] = []
        while p.peek().kind != "eof":
            kw = p.ident()
            if kw == "theory":
                theories.append(_parse_theory(p))
            elif kw == "sigma":
                sigmas.append(_parse_sigma(p, theories))
            elif kw == "model":
                models.append(_parse_model(p, theories))
            elif kw == "check":
                kind = p.ident()
                args = []
                while not p.accept("punct", ";"):
                    args.append(p.ident())
                checks.append((kind, tuple(args)))
            elif kw == "import":
                import_token = p.tokens[p.pos - 1]
                fname = p.expect("string").value
                p.expect("punct", ";")
                if loader is None:
                    p.fail("imports need a loader")
                try:
                    sub_doc = loader(fname)
                except InputError as e:
                    p.fail_at(import_token, str(e))
                theories.extend(sub_doc.theories)
                sigmas.extend(sub_doc.sigmas)
                models.extend(m._replace(origin=f"{fname}: {m.origin}") for m in sub_doc.models)
                checks.extend(sub_doc.checks)
            else:
                p.fail_last(f"unknown top-level keyword {kw!r}")
        return Document(tuple(theories), tuple(sigmas), tuple(models), tuple(checks)), source
    except ParseError as e:
        source.diagnostics.append(e.diagnostic)
        return None, source


def parse_file(path, _importers: tuple = ()) -> tuple[Document | None, SourceFile]:
    """Parse the file at ``path``, reading its imports beside it.  A file
    that cannot be read as UTF-8 raises InputError; so does an import of a
    file that is importing it, which ``parse`` reports at the ``import``.
    ``_importers`` are the resolved paths of the files importing this one."""
    from pathlib import Path
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise InputError(f"cannot read {path}: not UTF-8 at byte {e.start}") from None

    def loader(fname: str) -> Document:
        chain = _importers + (path.resolve(),)
        if (path.parent / fname).resolve() in chain:
            raise InputError(f"import cycle through {fname}")
        doc, src = parse_file(path.parent / fname, chain)
        if doc is None:
            raise ParseError(src.diagnostics[0].line, src.diagnostics[0].col,
                             f"{fname}: {src.diagnostics[0].message}")
        return doc

    return parse(text, str(path), loader=loader)


# -- elaboration of categorical model blocks -----------------------------------------------

def _elaborate_fincat(theory2: TwoTheoryPresentation, decl: FinCatDecl) -> catmodels.CatModel:
    n = decl.objects
    names = [f"id{a}" for a in range(n)] + [a for a, _, _ in decl.arrows]
    if len(set(names)) != len(names):
        raise InputError("duplicate arrow names")
    for aname, s, d in decl.arrows:
        if s >= n or d >= n:
            raise InputError(f"arrow {aname}: endpoint out of range")
    src = list(range(n)) + [s for _, s, _ in decl.arrows]
    dst = list(range(n)) + [d for _, _, d in decl.arrows]
    index = {nm: i for i, nm in enumerate(names)}
    comp = {}
    for f, g, h in decl.composites:
        comp[(index[f], index[g])] = index[h]
    cat = fincat.build_category(n, src, dst, list(range(n)), comp)
    violation = fincat.validate_category(cat)
    if violation is not None:
        # Every datum is an arrow id (an object's for "identity", which is also its id arrow).
        where = ", ".join(names[x] for x in violation.data)
        raise InputError(f"not a category: {violation.kind} at ({where})")
    return _attach_tables(theory2, cat, decl.functors, decl.nats)


def _elaborate_moncat(theory2: TwoTheoryPresentation, decl: MonCatDecl) -> catmodels.CatModel:
    cat = fincat.graded_scalar_category(decl.grading, decl.scalars)
    nats = list(decl.nats)
    # A braiding is a nat whose component at the pair of grades (x, y), in
    # row-major order, is the scalar rows[x][y] on the grade x + y.
    for bname, rows in decl.braidings:
        if theory2.cell(bname).source.source != 2:
            raise InputError(f"braiding {bname}: the 2-cell is not binary")
        if len(rows) != decl.grading or any(len(r) != decl.grading for r in rows):
            raise InputError(f"braiding {bname}: matrix is not "
                              f"{decl.grading} x {decl.grading}")
        nats.append(NatDecl(bname, tuple(
            ((x + y) % decl.grading) * decl.scalars + rows[x][y] % decl.scalars
            for x in range(decl.grading) for y in range(decl.grading))))
    ops: list[tuple[str, fincat.FinFunctor]] = []
    if decl.tensor is not None:
        sq = fincat.power(cat, 2)
        obj_map = tuple((x + y) % decl.grading
                        for o in range(sq.n_objects)
                        for x, y in [sq.decode_obj(o)])
        arr_map = []
        for a in range(sq.n_arrows):
            f, g = sq.decode_arr(a)
            x, s = divmod(f, decl.scalars)
            y, t = divmod(g, decl.scalars)
            arr_map.append(((x + y) % decl.grading) * decl.scalars
                           + (s + t) % decl.scalars)
        ops.append((decl.tensor, fincat.FinFunctor(sq.cat, cat, obj_map, tuple(arr_map))))
    if decl.unit is not None:
        ops.append((decl.unit, fincat.FinFunctor(fincat.power(cat, 0).cat, cat,
                                                 (0,), (cat.identity[0],))))
    return _attach_tables(theory2, cat, decl.functors, tuple(nats), extra_ops=tuple(ops))


def _attach_tables(theory2: TwoTheoryPresentation, cat: fincat.FinCategory,
                   functors: tuple[FunctorDecl, ...], nats: tuple[NatDecl, ...],
                   extra_ops: tuple[tuple[str, fincat.FinFunctor], ...] = ()
                   ) -> catmodels.CatModel:
    ops = list(extra_ops)
    have = {n for n, _ in ops}
    for decl in functors:
        op = theory2.base.op(decl.name)
        dom = fincat.power(cat, op.arity)
        if len(decl.obj) != dom.n_objects:
            raise InputError(f"functor {decl.name}: object table has the wrong size")
        if any(o >= cat.n_objects for o in decl.obj):
            raise InputError(f"functor {decl.name}: object out of range")
        if decl.arr is None:
            arr = []
            for a in range(dom.n_arrows):
                hom = cat.hom(decl.obj[dom.arr_src(a)], decl.obj[dom.arr_dst(a)])
                if len(hom) != 1:
                    raise InputError(f"functor {decl.name}: arrows are not forced; "
                                      "give an explicit table")
                arr.append(hom[0])
            arr = tuple(arr)
        else:
            arr = decl.arr
            if len(arr) != dom.n_arrows:
                raise InputError(f"functor {decl.name}: arrow table has the wrong size")
            if any(f >= cat.n_arrows for f in arr):
                raise InputError(f"functor {decl.name}: arrow out of range")
        ops.append((decl.name, fincat.FinFunctor(dom.cat, cat, decl.obj, arr)))
        have.add(decl.name)
    for g in theory2.base.generators:
        if g.name not in have:
            raise InputError(f"model gives no table for operation {g.name}")
    # An ``auto`` nat reads its cell's boundary functors on the model without
    # cells, and the model with them shares its memos: a model without cells
    # evaluates no pasting, and every other memo depends on the operations
    # alone, so ``CatModel.problems`` reads the same functors again.
    model = catmodels.CatModel(theory2, cat, tuple(ops))
    tables = []
    for decl in nats:
        cellsym = theory2.cell(decl.name)
        if decl.components is None:
            fsrc = model.functor_of(cellsym.source)
            ftgt = model.functor_of(cellsym.target)
            comps = []
            for o in range(fsrc.source.n_objects):
                hom = cat.hom(fsrc.obj_map[o], ftgt.obj_map[o])
                if len(hom) != 1:
                    raise InputError(f"nat {decl.name}: components are not forced")
                comps.append(hom[0])
            comps = tuple(comps)
        else:
            comps = decl.components
            if len(comps) != model.power(cellsym.source.source).n_objects:
                raise InputError(f"nat {decl.name}: component table has the wrong size")
            if any(c >= cat.n_arrows for c in comps):
                raise InputError(f"nat {decl.name}: component out of range")
        tables.append((decl.name, comps))
    return replace(model, cell_tables=tuple(tables))
