import hashlib
import random
import string
from dataclasses import dataclass, fields
from pathlib import Path

import pytest

import fixtures as fx
from lawkit import catmodels, cells, dsl
from lawkit.catmodels import validate_cat_model
from lawkit.fincat import FinNat
from lawkit.cells import Gen, HWhiskerL, Par, Pasting, Vert
from lawkit.theory import InputError, Morphism, render_term
from test_catmodels import TWO_OBJECT_INVOLUTION
from test_cells import random_pastings, shipped_pastings


# -- serializer ------------------------------------------------------------------------------
# Writes every morphism with its explicit [n] source context, so parsing the output
# reproduces the document and serializing again is idempotent.

# node class -> (keyword, (field name, kind) per argument), from the parser's table.
_RENDERINGS = {cls: (keyword, tuple(zip((f.name for f in fields(cls)), kinds)))
               for keyword, (node, kinds) in dsl._COMBINATORS.items()
               for cls in [getattr(cells, node)]}


def render_morphism(m: Morphism) -> str:
    body = f"<{', '.join(render_term(c) for c in m.components)}>" \
        if m.target != 1 else render_term(m.components[0])
    return f"[{m.source}] {body}"


def render_pasting(p: Pasting) -> str:
    if isinstance(p, Gen):
        return p.cell.name
    if type(p) not in _RENDERINGS:
        raise ValueError(f"unknown pasting {p!r}")
    keyword, args = _RENDERINGS[type(p)]
    rendered = (_render_pasting_argument(kind, getattr(p, name)) for name, kind in args)
    return f"{keyword}({', '.join(rendered)})"


def _render_pasting_argument(kind: str, value) -> str:
    if kind == "pasting":
        return render_pasting(value)
    if kind == "morphism":
        return render_morphism(value)
    if kind == "count":
        return str(value)
    return ", ".join(render_pasting(q) for q in value)


def _render_list(xs) -> str:
    return "[" + ", ".join(str(x) for x in xs) + "]"


def serialize(doc: dsl.Document) -> str:
    out = []
    for t in doc.theories:
        out.append(f"theory {t.base.name} {{")
        for g in t.base.generators:
            out.append(f"  op {g.name} : {g.arity} -> 1;")
        if tuple(t.base.basis) != tuple(g.name for g in t.base.generators):
            out.append(f"  basis {', '.join(t.base.basis)};")
        for eq in t.base.equations:
            out.append(f"  eq {eq.name} : {render_morphism(eq.lhs)}"
                       f" = {render_morphism(eq.rhs)};")
        for c in t.cells:
            inv = " invertible" if c.invertible else ""
            out.append(f"  cell {c.name} : {render_morphism(c.source)}"
                       f" => {render_morphism(c.target)}{inv};")
        for name, lhs, rhs in t.cell_equations:
            out.append(f"  celleq {name} : {render_pasting(lhs)} = {render_pasting(rhs)};")
        out.append("}")
    for for_theory, s in doc.sigmas:
        sym = " symmetric" if s.symmetric else ""
        out.append(f"sigma {s.name} for {for_theory} weakness {s.weakness}{sym} {{")
        for (a, b), pasting in s.entries:
            out.append(f"  ({a}, {b}) = {render_pasting(pasting)};")
        out.append("}")
    for m in doc.models:
        out.append(f"model {m.name} of {m.theory} in {m.kind} {{")
        if isinstance(m.payload, dsl.FinSetDecl):
            out.append(f"  carrier {m.payload.size};")
            for tname, table in m.payload.tables:
                out.append(f"  table {tname} = {_render_list(table)};")
        elif isinstance(m.payload, dsl.FinCatDecl):
            out.append(f"  objects {m.payload.objects};")
            for aname, s_, d_ in m.payload.arrows:
                out.append(f"  arrow {aname} : {s_} -> {d_};")
            if m.payload.composites:
                out.append("  compose {")
                for f, g, h in m.payload.composites:
                    out.append(f"    {f} then {g} = {h};")
                out.append("  }")
            for f in m.payload.functors:
                out.append(_render_functor(f))
            for nd in m.payload.nats:
                out.append(_render_nat(nd))
        elif isinstance(m.payload, dsl.MonCatDecl):
            out.append(f"  grading {m.payload.grading};")
            out.append(f"  scalars {m.payload.scalars};")
            if m.payload.tensor is not None:
                out.append(f"  tensor {m.payload.tensor};")
            if m.payload.unit is not None:
                out.append(f"  unit {m.payload.unit};")
            for bname, rows in m.payload.braidings:
                body = ", ".join(_render_list(r) for r in rows)
                out.append(f"  braiding {bname} = [{body}];")
            for f in m.payload.functors:
                out.append(_render_functor(f))
            for nd in m.payload.nats:
                out.append(_render_nat(nd))
        out.append("}")
    for kind, args in doc.checks:
        out.append(f"check {kind} {' '.join(args)};")
    return "\n".join(out) + "\n"


def _render_functor(f: dsl.FunctorDecl) -> str:
    arr = "arr auto;" if f.arr is None else f"arr {_render_list(f.arr)};"
    return f"  functor {f.name} {{ obj {_render_list(f.obj)}; {arr} }}"


def _render_nat(nd: dsl.NatDecl) -> str:
    if nd.components is None:
        return f"  nat {nd.name} auto;"
    return f"  nat {nd.name} = {_render_list(nd.components)};"


# sha256 of repr() of every fixture as lawkit's hand-written Python builders
# constructed it, before those builders were replaced by the .law loader; the
# DSL must elaborate exactly the same objects.  repr does not depend on
# PYTHONHASHSEED or on caches warmed earlier in the process.
FIXTURE_DIGESTS = {
    "t_ass": "1e29b159486235291cbe43dcf0b26cf9288ad2c3b59cd2fa4621601f87362e35",
    "t_comm": "850a5d28b873775ddc318cf719d3d8619b30a5c1d415d9b0767211929b9b17fe",
    "t_pointed": "28a6a8406af3f272203118bb319bd13c2b5834f62a3303a521ac2b524ca2d42a",
    "t_inv_1d": "397ee7a15f0f151593274d6ae52963efeb1638067547c2effe79be13eb2766ed",
    "t_semiring": "ed244fc395530c60102f7a2317b27d2d629f84742f4f90b268b2808447ea26a2",
    "t_z2": "34e8837a6605d44dc93ca772d9f6377440b59470bc32402104d11e644740dde0",
    "t_lz": "683aad16fc90107651ee6259745318e4160ae2f32dbfdb2923bd05ac204cf302",
    "t_ass_flat": "fb160b97fa0cb8a1886abc348eb47135037d014a842f5f94b6c551e3c8f3dee0",
    "t_braid": "05de1d5332b63c43da05c6a962264fa94a2b4be2668a7c884a290106ba76f22c",
    "t_comm_flat": "72a14b60da658869d83050c464954b14fc2e6c74fd2e09b885cfb92e348e3568",
    "t_pointed_flat": "1536fa794022b75abcb945e4ca8f7d81690e0f3180494e4778b7edaa0ebe0318",
    "t_inv": "3f874ac156ef5f6360beefdbaac145871741e7d34e504350758292a7e1822de4",
    "t_gl2": "1be1fc7c530000076835bf1f8cb998d1db388e26f55fd5041c9871cb3c95300b",
    "sigma_comm_flat": "b7ea4755f2162cdadc2c623d664a010ea14c339058878aab303150eb74d3da6c",
    "sigma_braid": "a4fd85b9d4625446d772d4c5a423dd98f4266d061abb27ec7eadde1016791e84",
    "sigma_inv": "8b3c3550209537e005192769ac0d96698dd17bc14c94af311577f7430e7bbe0c",
    "sigma_pointed_flat": "90956f11900e1337f012bd9ebc16206f3445f1e92b6f893ccc55a81f6f74fd86",
    "sigma_gl": "a04f63f35d61c951bc679042b47e9067efe4a559df2e9a1187feb220dfc84d27",
    "poset_meet": "ece4a8ce9b48c9ea85295c665973c4416bf0a1a0022fc945f75230eaf7ca3dec",
    "poset_join": "cfd38c3e4dbdef31072842849824fa184b4ededb11527b06ab600460a76a5681",
    "pointed_poset": "f13874e80e60f7fc79d531f4ffdf737ee1b129257833d66db246b95f65d38402",
    "discrete_z2": "0d6ef0b0a065dfc0945ec552c96be3c219852aae894b1235c55e87387d9a633e",
    "graded_lines": "e8667750fc6f51ef19322837b8903f29dbb67c26fb0ad6936300be31ebd511f0",
    "graded_lines_z3": "f53e24ec88888415963d55a98d7accde51d0d17f0e3d08394a3adf7ceecbbf8f",
    "graded_lines_mutant": "e855a439eaf014cc57f0dcd3401a5e5119cf21b483bde0c0ff6091073b19ef84",
    "delooping_z2": "c92e2ebdbb0bb06b736211ff9cabd4473b854a1c6b796fe0fb76641b9d3e0f56",
    "poset_involution": "4de9db50d26558b4ff3967357ac4df4319be5e8333c3fd0f26841720ec986df4",
    "scalar_involution": "231ab630bd30d4508331d6b03c9fd82abdb852fe9c289210d2b3f593cbb6ff31",
    "gl2_action": "eb28472fbbffa052eb3a239d378214ff9374c081d7075f1ac7424413cc8e2a33",
    "two_object_involution": "ca4a952bf4ad4bf2d24aa1986a33f352fb9e0752ddfcd75717a8dd55ae79e101",
}


def test_empty_theory_is_projection_skeleton():
    doc, src = dsl.parse("theory skeleton { }")
    assert doc is not None and not src.diagnostics
    t = doc.theory("skeleton")
    assert t.base.generators == () and t.base.equations == ()


def test_shipped_t_comm_parses_to_presentation():
    doc, _ = dsl.parse_file(fx.law_path("t_comm.law"))
    base = doc.theory("t_comm").base
    assert len(base.generators) == 2
    assert {e.name for e in base.equations} >= {"assoc", "lunit", "runit", "comm"}


def test_syntax_error_carries_position():
    doc, src = dsl.parse("theory t {\n  op m : 2 ->\n}")
    assert doc is None
    d = src.diagnostics[0]
    assert (d.line, d.col) == (3, 1)


# -- the tokenizer against the character loop it replaced -----------------------------------

_PUNCT = ("->", "=>", "{", "}", "(", ")", "[", "]", "<", ">", ",", ";", ":", ".", "=")


def reference_tokenize(text: str) -> list[dsl.Token]:
    out = []
    i = 0
    line, col = 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise dsl.ParseError(line, col, "unterminated string")
            out.append(dsl.Token("string", text[i + 1:j], line, col))
            col += j - i + 1
            i = j + 1
            continue
        matched = False
        for p in _PUNCT:
            if text.startswith(p, i):
                out.append(dsl.Token("punct", p, line, col))
                i += len(p)
                col += len(p)
                matched = True
                break
        if matched:
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(dsl.Token("nat", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(dsl.Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise dsl.ParseError(line, col, f"unexpected character {c!r}")
    out.append(dsl.Token("eof", "", line, col))
    return out


def _lex(tokenize, text):
    try:
        return tokenize(text)
    except dsl.ParseError as e:
        return str(e.diagnostic)


def _one_character_mutants(text: str, count: int, seed: int):
    """Seeded insertions, substitutions and deletions of one ASCII character."""
    rng = random.Random(seed)
    for _ in range(count):
        at = rng.randrange(len(text) + 1)
        c = rng.choice(string.printable)
        yield rng.choice((text[:at] + c + text[at:],
                          text[:at] + c + text[at + 1:],
                          text[:at] + text[at + 1:]))


LEXICAL_CORNERS = ["", "--", "a --c", "a\n--c", '"x\ny" z', '""', '"open', "-", "-->",
                   "->=>==>", "12ab_3 x1", "a\r\tb", "\x0c", "_x", '"a"b"c']


def test_tokenize_matches_the_character_loop():
    texts = [path.read_text(encoding="utf-8") for path in fx.law_files()]
    corpus = texts + LEXICAL_CORNERS
    for seed, text in enumerate(texts):
        corpus += _one_character_mutants(text, 100, seed)
    outcomes = [_lex(dsl.tokenize, text) for text in corpus]
    assert outcomes == [_lex(reference_tokenize, text) for text in corpus]
    assert sum(isinstance(o, str) for o in outcomes) > 100  # diagnostics are compared too


def test_unresolved_reference_diagnostic():
    doc, src = dsl.parse("sigma s for missing weakness strict { }")
    assert doc is None
    assert "missing" in src.diagnostics[0].message


def _unplaced(doc):
    """``doc`` without the positions of its model blocks, their files
    included, which the serializer lays out anew in one file."""
    return doc._replace(models=tuple(m._replace(token=None, origin="") for m in doc.models))


def test_every_fixture_file_round_trips():
    for path in fx.law_files():
        doc, src = dsl.parse_file(path)
        assert doc is not None, (path, src.diagnostics)
        text = serialize(doc)
        doc2, src2 = dsl.parse(text)
        assert doc2 is not None, (path, src2.diagnostics)
        assert _unplaced(doc2) == _unplaced(doc), path
        assert serialize(doc2) == text, path


def test_serialize_reflects_mutation():
    doc, _ = dsl.parse_file(fx.law_path("t_ass.law"))
    mutated = dsl.Document(doc.theories, doc.sigmas, doc.models,
                           doc.checks + (("commutative", ("t_ass",)),))
    assert serialize(mutated) != serialize(doc)
    assert serialize(mutated).count("check commutative") == 2


@dataclass(frozen=True)
class CatModel:
    """A categorical model in the form the builders made it: each 2-cell a
    ``FinNat`` that repeats its boundary functors, which a model now
    derives.  Its repr() is theirs, so a model's pinned digest still says
    that its operations, cells and boundaries are the builders'."""
    theory: object
    carrier: object
    op_functors: tuple
    cell_nats: tuple


def digest(obj) -> str:
    if isinstance(obj, catmodels.CatModel):
        cell = obj.theory.cell
        obj = CatModel(obj.theory, obj.carrier, obj.op_functors, tuple(
            (name, FinNat(obj.functor_of(cell(name).source), obj.functor_of(cell(name).target),
                          table))
            for name, table in obj.cell_tables))
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def test_fixtures_match_pinned_digests():
    built = {name: fx.theory(name).base
             for name in ("t_ass", "t_comm", "t_pointed", "t_inv_1d", "t_semiring")}
    built["t_z2"] = fx.monoid_theory("t_z2", 2, [[0, 1], [1, 0]], 0)
    built["t_lz"] = fx.monoid_theory("t_lz", 3, [[0, 1, 2], [1, 1, 2], [2, 1, 2]], 0)
    for name in ("t_ass_flat", "t_braid", "t_comm_flat", "t_pointed_flat", "t_inv", "t_gl2"):
        built[name] = fx.theory(name)
    built["two_object_involution"] = (
        fx.parse(TWO_OBJECT_INVOLUTION).cat_model("two_object_involution"))
    for name, obj in built.items():
        assert digest(obj) == FIXTURE_DIGESTS[name], name


def test_parsed_models_equal_builders():
    cases = [
        ("t_comm_flat.law", "poset_meet"),
        ("t_comm_flat.law", "poset_join"),
        ("t_comm_flat.law", "graded_lines"),
        ("t_braid.law", "graded_lines_z3"),
        ("t_inv.law", "scalar_involution"),
        ("t_inv.law", "poset_involution"),
        ("t_pointed_flat.law", "pointed_poset"),
        ("t_ass_flat.law", "delooping_z2"),
        ("t_ass_flat.law", "discrete_z2"),
        ("t_gl2.law", "gl2_action"),
        ("graded_lines_mutant.law", "graded_lines_mutant"),
    ]
    for fname, name in cases:
        doc, _ = dsl.parse_file(fx.law_path(fname))
        assert digest(doc.cat_model(name)) == FIXTURE_DIGESTS[name], (fname, name)
        assert fx.model(name) == doc.cat_model(name), (fname, name)


def test_parsed_sigmas_equal_builders():
    pairs = [
        ("t_comm_flat.law", "sigma_comm_flat"),
        ("t_braid.law", "sigma_braid"),
        ("t_inv.law", "sigma_inv"),
        ("t_pointed_flat.law", "sigma_pointed_flat"),
        ("t_gl2.law", "sigma_gl"),
    ]
    for fname, name in pairs:
        doc, _ = dsl.parse_file(fx.law_path(fname))
        assert digest(doc.sigma(name)[1]) == FIXTURE_DIGESTS[name], name
        assert fx.sigma(name) == doc.sigma(name)[1], name


def test_finset_model_block():
    doc, _ = dsl.parse_file(fx.law_path("t_comm.law"))
    model = doc.finset_model("z2_add")
    assert model.size == 2 and model.table("m") == (0, 1, 1, 0)
    with pytest.raises(InputError, match="no model named nope"):
        doc.finset_model("nope")


def test_invalid_finset_model_reports_equation():
    text = """
theory t { op m : 2 -> 1; eq idem : m(x1,x1) = x1; }
model bad of t in finset { carrier 2; table m = [0, 1, 1, 0]; }
"""
    doc, _ = dsl.parse(text)
    with pytest.raises(InputError, match="model bad violates idem"):
        doc.finset_model("bad")


def test_import_merges_blocks():
    doc, _ = dsl.parse_file(fx.law_path("graded_lines_mutant.law"))
    assert any(m.name == "graded_lines_mutant" for m in doc.models)
    assert any(m.name == "poset_meet" for m in doc.models)  # from the import


def test_elaborated_models_validate():
    for path in fx.law_files():
        doc, _ = dsl.parse_file(path)
        for m in doc.models:
            if m.kind == "finset":
                doc.finset_model(m.name)
            else:
                model = doc.cat_model(m.name)
                if m.name != "graded_lines_mutant":
                    assert validate_cat_model(model) == [], m.name


def test_morphism_context_annotation():
    doc, _ = dsl.parse("theory t { op u : 0 -> 1; eq e : [2] u = [2] u; }")
    eq = doc.theory("t").base.equations[0]
    assert eq.lhs.source == 2


def test_basis_clause():
    doc, _ = dsl.parse("""
theory t { op m : 2 -> 1; op n : 2 -> 1; basis m; }
""")
    assert doc.theory("t").base.basis == ("m",)


def test_law_path_helper():
    assert fx.law_path("t_comm.law").exists()
    assert len(fx.law_files()) >= 9
    with pytest.raises(FileNotFoundError):
        fx.law_path("absent.law")


# -- the pasting combinator table ----------------------------------------------------------

_PASTING_THEORY = ("theory t {\n  op m : 2 -> 1;\n  cell c : m(x1,x2) => m(x2,x1) invertible;\n"
                   "  celleq e : %s = c;\n}\n")


@pytest.mark.parametrize("pasting, diagnostic", [
    ("vert(c c)", "4:21: expected ',', found 'c'"),
    ("vert(c, c", "4:24: expected ')', found '='"),
    ("powL(x, c)", "4:19: expected 'nat', found 'x'"),
    ("powL(2 c)", "4:21: expected ',', found 'c'"),
    ("powR(c, -1)", "4:22: unexpected character '-'"),
    ("whiskL(c, c)", "4:21: unknown operation 'c'"),
    ("whiskR(c, c)", "4:24: unknown operation 'c'"),
    ("whiskR(c m(x1,x2))", "4:23: expected ',', found 'm'"),
    ("foo", "4:14: unknown pasting combinator or cell 'foo'"),
    ("par(c,)", "4:20: expected a pasting expression"),
    ("par(c c)", "4:20: expected ')', found 'c'"),
    ("par(c, c", "4:23: expected ')', found '='"),
    ("inv c", "4:18: expected '(', found 'c'"),
    ("inv(c, c)", "4:19: expected ')', found ','"),
    ("id(c)", "4:17: unknown operation 'c'"),
    ("id(m(x1))", "4:17: m expects 2 arguments, got 1"),
    ("3", "4:14: expected a pasting expression"),
    ("(c)", "4:14: expected a pasting expression"),
])
def test_pasting_diagnostics(pasting, diagnostic):
    doc, source = dsl.parse(_PASTING_THEORY % pasting)
    assert doc is None
    assert [str(d) for d in source.diagnostics] == [diagnostic]


def test_a_combinator_keyword_beats_a_cell_of_the_same_name():
    doc, source = dsl.parse("theory t {\n  op m : 2 -> 1;\n"
                            "  cell inv : m(x1,x2) => m(x2,x1);\n  celleq e : inv = inv;\n}\n")
    assert [str(d) for d in source.diagnostics] == ["4:18: expected '(', found '='"]


def _parse_pasting(theory2, text):
    """``text`` read by the pasting parser alone, which types nothing, so
    ill-typed pastings keep their syntax coverage."""
    p = dsl._Parser(dsl.tokenize(text))
    pasting = dsl._parse_pasting(p, {c.name: c for c in theory2.cells},
                                 list(theory2.base.generators))
    p.expect("eof")
    return pasting


def test_empty_juxtaposition_and_empty_tuple_parse():
    doc, _ = dsl.parse(_PASTING_THEORY % "c")
    assert _parse_pasting(doc.theory("t"), "vert(par(), whiskL([1] <>, par()))") == \
        Vert(Par(()), HWhiskerL(Morphism(1, 0, ()), Par(())))


@pytest.mark.parametrize("corpus", [shipped_pastings, random_pastings])
def test_rendered_pastings_parse_back(corpus):
    """render_pasting(p) parses back to p, ill-typed pastings included."""
    for theory2, p in corpus():
        assert _parse_pasting(theory2, render_pasting(p)) == p, render_pasting(p)


def test_readme_lists_the_combinator_table():
    """The .law format paragraph of the README gives each combinator's
    arguments in the order of the table the parser reads."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    for keyword, (_, kinds) in dsl._COMBINATORS.items():
        assert f"`{keyword}({', '.join(kinds)})`" in readme, keyword
