import ast
import functools
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fixtures as fx
from conftest import ROOT
from fixtures import law_files, law_path
from lawkit import cli
from lawkit.cli import (
    EXIT_FAILED,
    EXIT_INCONCLUSIVE,
    EXIT_INPUT,
    EXIT_OK,
    _parser,
    run,
)
from lawkit.cells import Gen, gray2_column_instance, gray2_row_instance
from lawkit.finset import FinSetModel
from lawkit.theory import commutativity_square, generator_morphism
from references import reference_eval_morphism, reference_validate_model
from test_cells import _ladder_components

GOLDEN = Path(__file__).parent / "golden"


def invoke(argv, chdir=None):
    out = io.StringIO()
    code = run([str(arg) for arg in argv], out)
    return code, out.getvalue()


def validate_report(report) -> list[str]:
    """Structural validation against ``report_schema.json`` (a JSON Schema subset) beside this file."""
    schema = json.loads((Path(__file__).parent / "report_schema.json").read_text())
    problems = []

    def check(value, schema, path):
        types = schema.get("type")
        if types is not None:
            allowed = types if isinstance(types, list) else [types]
            kind = {"object": dict, "array": list, "string": str}.get
            ok = False
            for t in allowed:
                if t == "null" and value is None:
                    ok = True
                elif t in ("object", "array", "string") and isinstance(value, kind(t)):
                    ok = True
            if not ok:
                problems.append(f"{path}: expected {types}")
                return
        if isinstance(value, dict):
            for req in schema.get("required", ()):
                if req not in value:
                    problems.append(f"{path}: missing {req}")
            for key, sub in schema.get("properties", {}).items():
                if key in value:
                    check(value[key], sub, f"{path}.{key}")
        if isinstance(value, list) and "items" in schema:
            for i, item in enumerate(value):
                check(item, schema["items"], f"{path}[{i}]")

    check(report, schema, "$")
    return problems


@pytest.fixture(autouse=True)
def _repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_commutative_exit_codes():
    assert invoke(["commutative", law_path("t_comm.law")])[0] == EXIT_OK
    assert invoke(["commutative", law_path("t_ass.law")])[0] == EXIT_FAILED
    code, text = invoke(["commutative", law_path("t_ass.law"),
                         "--mode", "semantic", "--max-size", "4"])
    assert code == EXIT_FAILED
    assert "witness" in text


def test_yang_baxter_exit_codes():
    assert invoke(["yang-baxter", law_path("t_comm_flat.law"),
                   "--model", "graded_lines", "--braiding", "c"])[0] == EXIT_OK
    code, text = invoke(["yang-baxter", law_path("graded_lines_mutant.law"),
                         "--model", "graded_lines_mutant", "--braiding", "c"])
    assert code == EXIT_FAILED
    assert "triple" in text


def test_sigma_check_exit_codes():
    assert invoke(["sigma-check", law_path("t_comm_flat.law")])[0] == EXIT_OK
    code, text = invoke(["sigma-check", law_path("t_braid.law")])
    assert code == EXIT_FAILED
    assert "gray2-vertical" in text


def test_assoc_derived_on_an_incoherent_table_reports_its_incoherence():
    def report(command):
        code, text = invoke(["--format", "json", "--no-timings", command,
                             law_path("t_braid.law")])
        return code, json.loads(text)

    code, derived = report("assoc-derived")
    assert code == EXIT_FAILED
    assert [v["verdict"] for v in derived["verdicts"]] == ["Incoherent"]
    assert [w["check"] for w in derived["witnesses"]] == ["gray2-vertical", "gray2-horizontal"]
    assert derived["witnesses"] == report("sigma-check")[1]["witnesses"]


def test_input_error_exit_code():
    assert invoke(["commutative", "no/such/file.law"])[0] == EXIT_INPUT
    assert invoke(["homs", law_path("t_ass.law"),
                   "--source", "x", "--target", "y"])[0] == EXIT_INPUT


def test_inconclusive_on_bound():
    code, text = invoke(["models", law_path("t_ass.law"), "--size", "9"])
    assert code == EXIT_INCONCLUSIVE


def test_never_crashes_on_malformed_input(tmp_path):
    bad = tmp_path / "bad.law"
    bad.write_text("theory { nope")
    code, text = invoke(["check-theory", str(bad)])
    assert code == EXIT_INPUT
    assert "Error" in text


def _mutant(tmp_path, name, old, new):
    text = law_path(name).read_text()
    assert old in text
    path = tmp_path / name
    path.write_text(text.replace(old, new, 1))
    return str(path)


def test_out_of_range_functor_object_is_input_error(tmp_path):
    # The mutant-fuzz workload's seed-2 mutant, which used to end in an IndexError.
    path = _mutant(tmp_path, "t_gl2.law", "obj [1, 0]", "obj [1, 80]")
    code, text = invoke(["check-theory", path])
    assert code == EXIT_INPUT
    assert "functor rho: object out of range" in text


def test_out_of_range_arrow_endpoint_is_input_error(tmp_path):
    # The mutant-fuzz workload's seed-21 mutant, which used to end in an IndexError.
    path = _mutant(tmp_path, "t_inv.law", "arrow le : 0 -> 1", "arrow le :60 -> 1")
    code, text = invoke(["check-theory", path])
    assert code == EXIT_INPUT
    assert "arrow le: endpoint out of range" in text


@pytest.mark.parametrize("old, new, message, name", [
    ("arr [2, 3, 0, 1]", "arr [2, 3, 0, 9]", "functor rho: arrow out of range", "t_gl2.law"),
    ("nat c11 = [1, 3]", "nat c11 = [1, 30]", "nat c11: component out of range", "t_gl2.law"),
    ("nat c11 = [1, 3]", "nat c11 = [1]", "nat c11: component table has the wrong size",
     "t_gl2.law"),
    ("[[0, 0, 0], [0, 1, 2], [0, 2, 1]]", "[[0, 0, 0], [0, 1]]",
     "braiding b: matrix is not 3 x 3", "t_braid.law"),
    ("arrow le : 0 -> 1;", "arrow le : 0 -> 1;\n  arrow eg : 1 -> 0;",
     "not a category: missing-composite at (le, eg)", "t_comm_flat.law"),
    ("table m = [0, 1, 1, 0];", "table m = [0, 1, 1];",
     "model z2_add: table for m must have 4 cells", "t_comm.law"),
    ("table m = [0, 1, 1, 0];", "table m = [0, 1, 1, 5];",
     "model z2_add: table for m has out-of-range values", "t_comm.law"),
])
def test_bad_model_tables_are_input_errors(tmp_path, old, new, message, name):
    code, text = invoke(["check-theory", _mutant(tmp_path, name, old, new)])
    assert code == EXIT_INPUT
    assert message in text


@pytest.mark.parametrize("fault, problems", [
    ("no-nat", [{"kind": "missing-cell", "detail": "c"}]),
    ("unnatural", [{"kind": "cell-naturality", "detail": "c"},
                   {"kind": "cell-invertibility", "detail": "c"}]),
    ("x21", [{"kind": "equation", "detail": "lunit"}]),
], ids=["missing", "unnatural", "x21"])
def test_check_theory_reports_a_model_whose_cell_is_bad_as_invalid(tmp_path, fault, problems):
    # The lookup refuses each model; check-theory reports the violations it
    # refused it for, and evaluates no cell equation on it.
    code, text = invoke(["--format", "json", "check-theory", _faulty_file(tmp_path, fault)])
    assert code == EXIT_FAILED
    verdicts = {v["name"]: v for v in json.loads(text)["verdicts"]}
    assert verdicts["poset_meet"]["verdict"] == "Invalid"
    assert verdicts["poset_meet"]["detail"] == problems


@pytest.mark.parametrize("argv", [
    ["homs", "--source", "z2_add", "--target", "singleton"],
    ["eh", "--dim", "1", "--models", "z2_add"],
])
def test_bad_finset_table_is_an_input_error_for_every_command(tmp_path, argv):
    path = _mutant(tmp_path, "t_comm.law", "table m = [0, 1, 1, 0];", "table m = [0, 1, 1];")
    assert _input_error_detail([argv[0], path] + argv[1:]) == \
        "model z2_add: table for m must have 4 cells"


@pytest.mark.parametrize("body, diagnostic", [
    ("cell c : <x1, x2> => x1;", "3:8: 2-cell c: boundary morphisms not parallel"),
    ("eq e : <x1, x2> = x1;", "3:6: equation e: sides not parallel"),
    ("op m : 1 -> 1;", "3:6: duplicate operation 'm'"),
    ("basis q;", "3:9: basis element q is not a generator"),
    ("eq e : [1] m(x1, x2) = x1;", "3:20: variable x2 outside context 1"),
    ("eq e : [1] x0 = x1;", "3:14: variable x0 outside context 1"),
    ("eq e : m(x1,x2) . m(x1,x2) = x1;", "3:10: compose mismatch: 1 != 2"),
    ("eq e : swap(1,3) . m(x1,x2) = x1;", "3:10: swap(1,3) outside context 1"),
    ("cell c : m(x1,x2) => m(x2,x1);\n  cell c : m(x1,x2) => m(x1,x2);",
     "4:8: duplicate 2-cell 'c'"),
    # Identifiers and numbers are ASCII: other letters and digits are stray characters.
    ("op p : \u00b2 -> 1;", "3:10: unexpected character '\u00b2'"),
    ("op p\u00e9 : 2 -> 1;", "3:7: unexpected character '\u00e9'"),
])
def test_malformed_theory_items_are_positioned_input_errors(tmp_path, body, diagnostic):
    path = tmp_path / "t.law"
    path.write_text(f"theory t {{\n  op m : 2 -> 1;\n  {body}\n}}\n", encoding="utf-8")
    assert _input_error_detail(["check-theory", path]) == diagnostic


@pytest.mark.parametrize("old, new, diagnostic", [
    ("(m, u) = id", "(q, u) = id", "20:4: unknown operation 'q'"),
    ("(m, u) = id", "(m, q) = id", "20:7: unknown operation 'q'"),
])
@pytest.mark.parametrize("command", ["check-theory", "sigma-check"])
def test_unknown_sigma_operation_is_a_positioned_input_error(tmp_path, old, new,
                                                             diagnostic, command):
    path = _mutant(tmp_path, "t_comm_flat.law", old, new)
    assert _input_error_detail([command, path]) == diagnostic


@pytest.mark.parametrize("old, new, diagnostic", [
    ("functor u {", "functor q {", "28:11: unknown operation 'q'"),
    ("nat c auto", "nat q auto", "29:7: unknown 2-cell 'q'"),
    ("braiding c =", "braiding q =", "41:12: unknown 2-cell 'q'"),
    ("tensor m;", "tensor q;", "40:10: unknown operation 'q'"),
    ("unit u;", "unit q;", "40:18: unknown operation 'q'"),
    # A composite's arrows are resolved once the model block closes.
    ("objects 2;\n  arrow le", "objects 2;\n  compose { id0 then le = lx; }\n  arrow le",
     "26:27: unknown arrow 'lx'"),
    ("objects 2;\n  arrow le", "objects 2;\n  compose { id2 then le = le; }\n  arrow le",
     "26:13: unknown arrow 'id2'"),
])
@pytest.mark.parametrize("argv", [
    ["check-theory"],
    ["hom-internal", "--source", "poset_meet", "--target", "poset_meet"],
])
def test_unknown_model_table_name_is_a_positioned_input_error(tmp_path, old, new,
                                                              diagnostic, argv):
    path = _mutant(tmp_path, "t_comm_flat.law", old, new)
    assert _input_error_detail([argv[0], path] + argv[1:]) == diagnostic


def test_composites_may_name_arrows_declared_after_them(tmp_path):
    path = _mutant(tmp_path, "t_comm_flat.law", "objects 2;\n  arrow le",
                   "objects 2;\n  compose { id0 then le = le; le then id1 = le; }\n  arrow le")
    assert invoke(["check-theory", path])[0] == EXIT_OK


def test_consecutive_runs_share_one_parser(capsys):
    flat = law_path("t_comm_flat.law")
    prefix = ["--format", "json", "--no-timings"]
    runs = [prefix + ["hom-internal", flat, "--source", "poset_meet", "--target", "poset_join"],
            prefix + ["sigma-check", law_path("t_braid.law")],
            ["--no-timings", "intalg", flat, "--model", "poset_meet"]]
    first = [invoke(argv) for argv in runs]
    bad = ["hom-internal", flat, "--source", "poset_meet", "--target", "poset_join",
           "--weakness", "bogus"]
    assert invoke(bad)[0] == EXIT_INPUT
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    # A bad flag between runs leaves no trace: the same reports, byte for byte.
    assert [invoke(argv) for argv in runs] == first
    assert [code for code, _ in first] == [EXIT_OK, EXIT_FAILED, EXIT_OK]
    assert _parser() is _parser()


@pytest.mark.parametrize("argv", [
    ["hom-internal", "t_comm_flat.law", "--source", "graded_lines", "--target", "graded_lines"],
    ["hom-internal", "t_gl2.law", "--source", "gl2_action", "--target", "gl2_action"],
    ["closed-check", "t_comm_flat.law", "--x", "poset_meet", "--y", "graded_lines",
     "--z", "graded_lines"],
])
def test_missing_strict_internal_hom_fails_with_its_reason(argv):
    argv = [argv[0], law_path(argv[1])] + argv[2:] + ["--weakness", "strict"]
    code, text = invoke(["--format", "json", "--no-timings"] + argv)
    assert code == EXIT_FAILED, text
    (verdict,) = json.loads(text)["verdicts"]
    assert verdict["verdict"] == "Fails"
    assert verdict["detail"] == "hom is not an object of this category"


def test_unknown_sigma_weakness_is_input_error(tmp_path):
    path = _mutant(tmp_path, "t_inv.law", "weakness strict", "weakness strct")
    code, text = invoke(["sigma-check", path])
    assert code == EXIT_INPUT
    assert "8:36: unknown weakness 'strct'" in text


def test_unknown_model_theory_is_input_error(tmp_path):
    path = _mutant(tmp_path, "t_inv.law", "model swap_set of t_inv", "model swap_set of t_iv")
    code, text = invoke(["check-theory", path])
    assert code == EXIT_INPUT
    assert "23:19: model references unknown theory 't_iv'" in text


def test_wrong_operation_target_points_at_the_target(tmp_path):
    path = tmp_path / "t.law"
    path.write_text("theory t { op m : 2 -> 2; }\n")
    code, text = invoke(["check-theory", path])
    assert code == EXIT_INPUT
    assert "1:24: operations must target 1" in text


def test_wrong_argument_count_points_at_the_operation(tmp_path):
    path = tmp_path / "t.law"
    path.write_text("theory t {\n  op m : 2 -> 1;\n  eq e : m(x1) = x1;\n}\n")
    code, text = invoke(["check-theory", path])
    assert code == EXIT_INPUT
    assert "3:10: m expects 2 arguments, got 1" in text


@pytest.mark.parametrize("old, new", [
    ("m(m(x1,x2),x3) =", "m(m(x1,x2),x38) ="),
    ("= m(x1,m(x2,x3))", "= m(x1,m(x2,x38))"),
])
def test_huge_arity_enumerates_occurring_variables(tmp_path, old, new):
    # One-character mutants of t_ass_flat.law whose equation has 38 variables,
    # four of which occur: only those are enumerated, not the 38th power of
    # the carrier, so the shipped models get a verdict within the bound.
    path = _mutant(tmp_path, "t_ass_flat.law", old, new)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src")] + sys.path))
    done = subprocess.run([sys.executable, "-m", "lawkit.cli", "check-theory", path],
                          capture_output=True, text=True, env=env, timeout=10)
    assert done.returncode == EXIT_FAILED, done.stderr
    assert "discrete_z2: Invalid  [{'kind': 'equation', 'detail': 'assoc'}]" in done.stdout


def test_equation_enumeration_over_the_power_bound_is_inconclusive(tmp_path):
    # assoc on 23 variables: on discrete_z2 (two objects) its objects alone are
    # 2^23 points, more than fincat.POWER_BOUND, so the check stops before it.
    xs = [f"x{i}" for i in range(1, 24)]
    lhs = functools.reduce(lambda a, b: f"m({a},{b})", xs)
    rhs = functools.reduce(lambda a, b: f"m({b},{a})", reversed(xs))
    path = _mutant(tmp_path, "t_ass_flat.law", "m(m(x1,x2),x3) = m(x1,m(x2,x3))",
                   f"{lhs} = {rhs}")
    code, text = invoke(["check-theory", path])
    assert code == EXIT_INCONCLUSIVE, text
    assert "comparing two functors at 8388608 points exceeds bound 4194304" in text


@pytest.mark.parametrize("old, new", [
    ("m(m(x1,x2),x3) =", "m(m(x1,x2),x63) ="),
    ("= m(x1,m(x2,x3))", "= m(x1,m(x2,x63))"),
])
def test_huge_equation_arity_over_a_finite_set_gets_a_verdict(tmp_path, old, new):
    # One-character mutants of t_comm.law whose assoc reads x63: validating a
    # finite-set model used to scan all 2^63 inputs.  Only the four variables
    # that occur are enumerated now, so the shipped models get a witness.
    path = _mutant(tmp_path, "t_comm.law", old, new)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src")] + sys.path))
    done = subprocess.run([sys.executable, "-m", "lawkit.cli", "check-theory", path],
                          capture_output=True, text=True, env=env, timeout=10)
    assert done.returncode == EXIT_FAILED, done.stderr
    assert "violates assoc" in done.stdout


# A model that breaks its theory is refused at its name wherever it is looked up.
POSET_MEET_IS_NOT = "24:7: model poset_meet is not a model of t_comm_flat: "
UNNATURAL = POSET_MEET_IS_NOT + "cell-naturality c"
LUNIT_X21 = POSET_MEET_IS_NOT + "equation lunit"


@pytest.mark.parametrize("argv, code, verdict", [
    (["commutative"], EXIT_INCONCLUSIVE, "(m,m): Unknown"),
    (["eh", "--dim", "1"], EXIT_FAILED, "'non_unital': ['m']"),
    (["eh", "--dim", "2"], EXIT_INPUT, LUNIT_X21),
], ids=["commutative", "eh-dim1", "eh-dim2"])
def test_model_search_enumerates_only_occurring_variables(tmp_path, argv, code, verdict):
    # A one-character mutant of t_comm_flat.law whose lunit reads x21: model
    # search used to compile one instance of it per input, 2^21 at size 2.
    # ``eh --dim 2`` decides its preconditions, then looks up its probe
    # models, which break lunit.
    path = _mutant(tmp_path, "t_comm_flat.law", "m(u,x1) = x1;", "m(u,x1) = x21;")
    done = _child("-m", "lawkit.cli", argv[0], path, *argv[1:], timeout=10)
    assert done.returncode == code, done.stderr
    assert verdict in done.stdout


def _child(*args, timeout=60):
    """``python args...`` in a fresh interpreter that imports lawkit from
    ``src`` and writes no bytecode."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src")] + sys.path))
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=timeout)


# Imports lawkit.cli, runs the command in its arguments and prints
# which lawkit modules are registered and which have executed.  A module
# loaded on first use is an instance of a ModuleType subclass until then.
_LOAD_PROBE = """
import io, json, sys, types
def executed():
    return sorted(name for name, module in sys.modules.items()
                  if name.partition(".")[0] == "lawkit" and type(module) is types.ModuleType)
import lawkit.cli
at_import = executed()
code = lawkit.cli.run(sys.argv[1:], io.StringIO())
print(json.dumps({"registered": sorted(n for n in sys.modules if n.startswith("lawkit.")),
                  "at_import": at_import, "executed": executed(), "code": code}))
"""
LAYERS = ("cli", "dsl", "theory", "finset", "fincat", "catmodels", "cells", "multimaps")
LAYERS_2D = ("catmodels", "cells", "fincat", "multimaps")
EXECUTED_1D = ["lawkit", "lawkit.cli", "lawkit.dsl", "lawkit.finset", "lawkit.search",
               "lawkit.theory"]


def _load_probe(*argv):
    done = _child("-c", _LOAD_PROBE, *argv)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("argv, code, n_executed, layers_2d", [
    (["check-theory", "t_ass.law"], EXIT_OK, 6, ()),
    (["commutative", "t_comm.law"], EXIT_OK, 6, ()),
    (["models", "t_ass.law", "--size", "9"], EXIT_INCONCLUSIVE, 6, ()),
    (["check-theory", "stray"], EXIT_INPUT, 6, ()),
    (["hom-internal", "t_comm_flat.law", "--source", "poset_meet", "--target", "poset_meet"],
     EXIT_OK, 9, ("catmodels", "cells", "fincat")),
    (["closed-check", "t_comm_flat.law", "--x", "poset_meet", "--y", "poset_meet",
      "--z", "poset_meet"], EXIT_OK, 10, LAYERS_2D),
], ids=["check-theory", "commutative", "models-over-bound", "stray-character", "hom-internal",
        "closed-check"])
def test_a_command_executes_only_the_layers_it_uses(tmp_path, argv, code, n_executed,
                                                    layers_2d):
    # "stray" is t_comm_flat.law with an '@' the tokenizer rejects.
    path = (_mutant(tmp_path, "t_comm_flat.law", "theory", "@theory") if argv[1] == "stray"
            else law_path(argv[1]))
    probe = _load_probe(argv[0], path, *argv[2:])
    assert {f"lawkit.{layer}" for layer in LAYERS} <= set(probe["registered"])
    assert probe["at_import"] == EXECUTED_1D
    assert probe["code"] == code
    assert len(probe["executed"]) == n_executed
    assert probe["executed"] == sorted(EXECUTED_1D + [f"lawkit.{x}" for x in layers_2d])


@pytest.mark.parametrize("name, two_dimensional", [("commutative_t_ass", False),
                                                   ("hom_internal_poset", True)])
def test_traced_cli_reports_like_the_cli(tmp_path, name, two_dimensional):
    # perfbench/traced_cli.py wraps all eight layers from outside, reading
    # them from sys.modules, so it loads the 2-D layers itself.
    argv = _argv_for(name)
    dump = tmp_path / "dump.json"
    traced = _child(ROOT / "perfbench" / "traced_cli.py", dump, *argv)
    plain = _child("-m", "lawkit.cli", *argv)
    assert traced.returncode == plain.returncode, traced.stderr
    assert traced.stdout == plain.stdout
    layers = {node[3] for node in json.loads(dump.read_text())["nodes"]}
    assert ("catmodels" in layers) == two_dimensional


def _input_error_detail(argv):
    code, text = invoke(["--format", "json", "--no-timings"] + argv)
    assert code == EXIT_INPUT, text
    (verdict,) = json.loads(text)["verdicts"]
    assert verdict["verdict"] == "Error"
    return verdict["detail"]


@pytest.mark.parametrize("index", ["99", "-1"])
def test_convolve_index_out_of_range_is_input_error(index):
    argv = ["convolve", law_path("t_ass_flat.law"), "--model", "delooping_z2"]
    assert _input_error_detail(argv + ["--algebra", index, "--coalgebra", "1"]) == \
        f"--algebra {index} is out of range: delooping_z2 has 2 internal algebras, " \
        "numbered from 0"
    assert "has 2 internal coalgebras" in \
        _input_error_detail(argv + ["--algebra", "1", "--coalgebra", index])


@pytest.mark.parametrize("argv", [
    ["hom-internal", "--source", "poset_meet", "--target", "poset_meet"],
    ["closed-check", "--x", "poset_meet", "--y", "poset_meet", "--z", "poset_meet"],
])
def test_unknown_weakness_is_input_error(argv, capsys):
    argv = [argv[0], law_path("t_comm_flat.law")] + argv[1:]
    assert invoke(argv + ["--weakness", "bogus"])[0] == EXIT_INPUT
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_eh_theory_must_be_the_sigma_tables_theory():
    argv = ["eh", law_path("t_comm_flat.law"), "--dim", "2"]
    assert _input_error_detail(argv + ["--theory", "nope"]) == \
        "--theory nope is not the theory of sigma table sigma_comm_flat, " \
        "which is for t_comm_flat"
    assert invoke(argv + ["--theory", "t_comm_flat"])[0] == EXIT_OK


@pytest.mark.parametrize("size", ["0", "-1"])
def test_models_size_below_one_is_input_error(size):
    assert _input_error_detail(["models", law_path("t_ass.law"), "--size", size]) == \
        f"--size must be at least 1, got {size}"


@pytest.mark.parametrize("argv, detail", [
    (["intalg", "t_comm_flat.law", "--model", "nope"], "no model named nope"),
    (["sigma-check", "t_comm_flat.law", "--sigma", "nope"], "no sigma table named nope"),
    (["commutative", "t_comm_flat.law", "--theory", "nope"], "no theory named nope"),
    (["intalg", "t_comm.law", "--model", "z2_add"], "z2_add is not a categorical model"),
])
def test_lookup_errors_are_reported_without_quotes(argv, detail):
    argv = [argv[0], law_path(argv[1])] + argv[2:]
    assert _input_error_detail(argv) == detail


# Input faults the tokenizer and the grammar cannot see, each in its own file
# beside copies of the shipped ones: (shipped file, old text, new text), or the
# text of a file named after the fault.
_FAULTS = {
    "no-uu-entry": ("t_comm_flat.law", "  (u, u) = id([0] u);\n", ""),
    "symmetry": ("t_comm_flat.law", "vert(c, whiskL(swap(1,2), c))", "vert(c, c)"),
    "no-nat": ("t_comm_flat.law", "  nat c auto;\n", ""),
    "unnatural": ("t_comm_flat.law", "  nat c auto;\n", "  nat c = [2, 0, 0, 1];\n"),
    "x21": ("t_comm_flat.law", "m(u,x1) = x1;", "m(u,x1) = x21;"),
    "not-a-functor": ("t_comm_flat.law", "functor m { obj [0, 0, 0, 1]; arr auto; }",
                      "functor m { obj [0, 0, 0, 1]; arr [0, 0, 0, 0, 0, 0, 0, 0, 0]; }"),
    # A braiding is a nat of 2-variable components, so only a binary cell has one.
    "unary-braiding": ("t_inv.law",
                       "  grading 1; scalars 2;\n  functor inv { obj [0]; arr [0, 1]; }\n"
                       "  nat iota = [0];\n",
                       "  grading 2; scalars 1;\n  functor inv { obj [0, 1]; arr [0, 1]; }\n"
                       "  braiding iota = [[0, 0], [0, 0]];\n"),
    "imports-1d": 'import "t_comm.law";\nimport "t_inv.law";\n',
    "imports-2d": 'import "t_comm_flat.law";\nimport "t_inv.law";\n',
    "self-import": 'import "self-import.law";\n',
    "missing-import": 'import "absent.law";\n',
}


def _faulty_file(tmp_path, fault):
    for path in law_files():
        shutil.copy(path, tmp_path / path.name)
    if fault == "shipped":
        return tmp_path / "t_comm_flat.law"
    if fault == "directory":
        (tmp_path / fault).mkdir()
        return tmp_path / fault
    if fault == "x21-imported":
        _faulty_file(tmp_path, "x21")
        return tmp_path / "graded_lines_mutant.law"
    if isinstance(_FAULTS[fault], str):
        path = tmp_path / f"{fault}.law"
        path.write_text(_FAULTS[fault])
        return path
    return Path(_mutant(tmp_path, *_FAULTS[fault]))


NO_ENTRY = "sigma table sigma_comm_flat has no entry for (u, u)"
ILL_TYPED = "16:10: cell equation symmetry (lhs): vertical composite boundaries do not meet"
POSET_MEET = ("--source", "poset_meet", "--target", "poset_meet")
MEET_CUBE = ("--x", "poset_meet", "--y", "poset_meet", "--z", "poset_meet")
NOT_T_COMM = "swap_set is a model of t_inv, not of t_comm"
NOT_T_COMM_FLAT = "poset_involution is a model of t_inv, not of t_comm_flat"
INPUT_FAULTS = [
    ("no-uu-entry", ["sigma-check"], NO_ENTRY),
    ("no-uu-entry", ["eh", "--dim", "2"], NO_ENTRY),
    ("no-uu-entry", ["fox"], NO_ENTRY),
    ("no-uu-entry", ["assoc-derived"], NO_ENTRY),
    ("no-uu-entry", ["hom-internal", *POSET_MEET], NO_ENTRY),
    ("no-uu-entry", ["closed-check", *MEET_CUBE], NO_ENTRY),
    ("symmetry", ["check-theory"], ILL_TYPED),
    ("symmetry", ["sigma-check"], ILL_TYPED),
    ("symmetry", ["hom-internal", *POSET_MEET], ILL_TYPED),
    ("no-nat", ["sigma-check"], POSET_MEET_IS_NOT + "missing-cell c"),
    ("shipped", ["yang-baxter", "--model", "graded_lines", "--braiding", "cc"],
     "model has no 2-cell cc"),
    ("shipped", ["yang-baxter", "--model", "graded_lines", "--tensor", "u", "--braiding", "c"],
     "tensor u is not a binary operation of t_comm_flat"),
    ("shipped", ["commutative", "--max-size", "0"], "--max-size must be at least 1, got 0"),
    ("shipped", ["commutative", "--mode", "semantic", "--max-size", "0"],
     "--max-size must be at least 1, got 0"),
    ("shipped", ["models", "--size", "1", "--max-size", "0"],
     "--max-size must be at least 1, got 0"),
    ("imports-1d", ["homs", "--source", "z2_add", "--target", "swap_set"], NOT_T_COMM),
    ("imports-1d", ["eh", "--dim", "1", "--theory", "t_comm", "--models", "swap_set"],
     NOT_T_COMM),
    ("imports-2d", ["closed-check", "--x", "poset_meet", "--y", "poset_meet",
                    "--z", "poset_involution"], NOT_T_COMM_FLAT),
    ("imports-2d", ["sigma-check", "--models", "poset_involution"], NOT_T_COMM_FLAT),
    ("imports-2d", ["fox", "--models", "poset_involution"], NOT_T_COMM_FLAT),
    ("directory", ["check-theory"], "cannot read {path}: Is a directory"),
    ("self-import", ["check-theory"], "1:1: import cycle through self-import.law"),
    ("missing-import", ["check-theory"],
     "1:1: cannot read {path.parent}/absent.law: No such file or directory"),
    ("unnatural", ["sigma-check"], UNNATURAL),
    ("unnatural", ["fox"], UNNATURAL),
    ("unnatural", ["intalg", "--model", "poset_meet"], UNNATURAL),
    ("unnatural", ["hom-internal", *POSET_MEET], UNNATURAL),
    ("unnatural", ["eh", "--dim", "2"], UNNATURAL),
    ("unnatural", ["closed-check", *MEET_CUBE], UNNATURAL),
    ("unnatural", ["yang-baxter", "--model", "poset_meet", "--braiding", "c"], UNNATURAL),
    ("x21", ["sigma-check"], LUNIT_X21),
    ("x21", ["assoc-derived"], LUNIT_X21),
    ("x21-imported", ["sigma-check"], LUNIT_X21.replace("24:7: ", "24:7: t_comm_flat.law: ")),
    ("not-a-functor", ["intalg", "--model", "poset_meet"], POSET_MEET_IS_NOT + "op-functor m"),
    ("unary-braiding", ["check-theory"], "braiding iota: the 2-cell is not binary"),
]


@pytest.mark.parametrize("fault, argv, detail", INPUT_FAULTS,
                         ids=[f"{f}-{a[0]}-{i}" for i, (f, a, _) in enumerate(INPUT_FAULTS)])
def test_input_faults_exit_3_where_they_are_found(tmp_path, fault, argv, detail):
    path = _faulty_file(tmp_path, fault)
    done = _child("-m", "lawkit.cli", "--format", "json", "--no-timings",
                  argv[0], path, *argv[1:])
    assert "Traceback" not in done.stderr, done.stderr
    assert done.returncode == EXIT_INPUT, done.stdout
    assert json.loads(done.stdout)["verdicts"] == [
        {"name": "input", "verdict": "Error", "detail": detail.format(path=path)}]


def test_a_table_missing_an_entry_is_checked_only_where_a_cell_is_derived(tmp_path):
    assert invoke(["check-theory", _faulty_file(tmp_path, "no-uu-entry")])[0] == EXIT_OK


def test_run_lets_an_internal_error_propagate(monkeypatch):
    def broken(args, doc):
        raise RuntimeError("a lawkit bug")
    monkeypatch.setitem(cli.HANDLERS, "check-theory", broken)
    with pytest.raises(RuntimeError, match="a lawkit bug"):
        invoke(["check-theory", law_path("t_ass.law")])


def test_run_maps_exit_codes_from_two_exception_types_and_argparse():
    tree = ast.parse(Path(cli.__file__).read_text())
    (run_def,) = [node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "run"]
    caught = [ast.unparse(node.type) for node in ast.walk(run_def)
              if isinstance(node, ast.ExceptHandler)]
    assert caught == ["SystemExit", "InputError", "EnumerationBound"]


def test_json_reports_match_schema_and_are_deterministic():
    argv = ["--format", "json", "--no-timings", "commutative", law_path("t_comm.law")]
    first = invoke(list(argv))
    second = invoke(list(argv))
    assert first == second
    report = json.loads(first[1])
    assert validate_report(report) == []


def test_golden_reports():
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    for name, expected_code in sorted(codes.items()):
        golden = (GOLDEN / f"{name}.json").read_text()
        argv = _argv_for(name)
        code, text = invoke(argv)
        assert code == expected_code, name
        assert text == golden, f"golden drift for {name}"
        assert validate_report(json.loads(text)) == []


def _argv_for(name):
    base = ["--format", "json", "--no-timings"]
    F = "src/lawkit/fixtures/law/"
    table = {
        "commutative_t_comm": ["commutative", F + "t_comm.law"],
        "commutative_t_ass": ["commutative", F + "t_ass.law"],
        "commutative_t_ass_semantic": ["commutative", F + "t_ass.law",
                                       "--mode", "semantic", "--max-size", "4"],
        "sigma_check_t_comm_flat": ["sigma-check", F + "t_comm_flat.law"],
        "sigma_check_t_braid": ["sigma-check", F + "t_braid.law"],
        "sigma_check_t_inv": ["sigma-check", F + "t_inv.law"],
        "assoc_derived_t_gl2": ["assoc-derived", F + "t_gl2.law"],
        "assoc_derived_t_comm_flat": ["assoc-derived", F + "t_comm_flat.law"],
        "yang_baxter_graded_lines": ["yang-baxter", F + "t_comm_flat.law",
                                     "--model", "graded_lines", "--braiding", "c"],
        "yang_baxter_mutant": ["yang-baxter", F + "graded_lines_mutant.law",
                               "--model", "graded_lines_mutant", "--braiding", "c"],
        "models_t_ass_2": ["models", F + "t_ass.law", "--size", "2"],
        "homs_z2": ["homs", F + "t_comm.law", "--source", "z2_add",
                    "--target", "z2_add"],
        "intalg_poset": ["intalg", F + "t_comm_flat.law", "--model", "poset_meet"],
        "intcoalg_delooping": ["intcoalg", F + "t_ass_flat.law",
                               "--model", "delooping_z2"],
        "intbialg_poset": ["intbialg", F + "t_comm_flat.law", "--model", "poset_meet"],
        "convolve_delooping": ["convolve", F + "t_ass_flat.law",
                               "--model", "delooping_z2",
                               "--algebra", "1", "--coalgebra", "1"],
        "hom_internal_poset": ["hom-internal", F + "t_comm_flat.law",
                               "--source", "poset_meet", "--target", "poset_meet"],
        "closed_check_poset": ["closed-check", F + "t_comm_flat.law",
                               "--x", "poset_meet", "--y", "poset_meet",
                               "--z", "poset_meet"],
        "closed_check_mixed": ["closed-check", F + "t_comm_flat.law",
                               "--x", "poset_meet", "--y", "poset_join",
                               "--z", "poset_join"],
        "fox_poset": ["fox", F + "t_comm_flat.law", "--models", "poset_meet"],
        "fox_pointed": ["fox", F + "t_pointed_flat.law", "--models", "pointed_poset"],
        "fox_involution": ["fox", F + "t_inv.law", "--models", "scalar_involution"],
        "eh2_t_comm_flat": ["eh", F + "t_comm_flat.law", "--dim", "2",
                            "--models", "poset_meet"],
        "eh2_t_inv": ["eh", F + "t_inv.law", "--dim", "2"],
        "eh1_t_comm": ["eh", F + "t_comm.law", "--dim", "1"],
        "bilax_poset": ["bilax", F + "t_comm_flat.law", "--model", "poset_meet"],
        "check_theory_t_comm_flat": ["check-theory", F + "t_comm_flat.law"],
        "check_theory_t_pointed": ["check-theory", F + "t_pointed_flat.law"],
    }
    return base + table[name]


def test_every_failure_report_carries_a_witness():
    failing = [
        ["commutative", law_path("t_ass.law")],
        ["sigma-check", law_path("t_braid.law")],
        ["yang-baxter", law_path("graded_lines_mutant.law"),
         "--model", "graded_lines_mutant", "--braiding", "c"],
    ]
    for argv in failing:
        code, text = invoke(["--format", "json", "--no-timings"] + argv)
        assert code == EXIT_FAILED
        report = json.loads(text)
        assert report["witnesses"], argv


# -- every witness of an exit-1 golden, recomputed without lawkit's evaluators -----------

def _replay_distinguished(witness):
    """The two sides of the named gray2 instance, evaluated by the test
    ladder on the probe, first differ at the witness object, as it says."""
    theory2, probe = fx.theory("t_braid"), fx.model("graded_lines_z3")
    detail = witness["detail"]
    t = Gen(theory2.cell(detail.split()[1]))
    (g,) = [generator_morphism(op) for op in theory2.base.basis_ops()
            if detail.endswith(repr(generator_morphism(op)))]
    if witness["check"] == "gray2-vertical":
        lhs, rhs = gray2_column_instance(theory2, fx.sigma("sigma_braid"), t, g)
    else:
        assert witness["check"] == "gray2-horizontal"
        lhs, rhs = gray2_row_instance(theory2, fx.sigma("sigma_braid"), g, t)
    v = witness["verdict"]
    assert v["probe"] == 0  # the file's one model of t_braid
    left, right = _ladder_components(lhs, probe), _ladder_components(rhs, probe)
    o = v["obj"]
    assert left[:o] == right[:o] and (left[o], right[o]) == (v["left"], v["right"])
    assert v["left"] != v["right"]


def _replay_hexagon(witness):
    """The left hexagon at the witness triple, read off the tables of
    graded_lines_mutant row-major: ``c(x@y, z) != (1x @ c(y,z)) ; (c(x,z) @ 1y)``."""
    model = fx.model("graded_lines_mutant")
    cat, tensor, braid = model.carrier, model.op_functor("m"), model.cell("c")
    n, a = cat.n_objects, cat.n_arrows
    assert witness["check"] == "hexagon-left"
    x, y, z = witness["triple"]
    xy = tensor.obj_map[x * n + y]
    via_tensor = braid[xy * n + z]
    stepwise = cat.then(tensor.arr_map[cat.identity[x] * a + braid[y * n + z]],
                        tensor.arr_map[braid[x * n + z] * a + cat.identity[y]])
    assert via_tensor != stepwise


def _replay_separating_input(witness):
    """The tables are a model of t_ass, found by a full scan, and the input
    gives the two sides of the pair's commutativity square different values."""
    base = fx.theory("t_ass").base
    model = reference_validate_model(base, witness["model_size"], witness["tables"])
    assert isinstance(model, FinSetModel)
    a, b = (generator_morphism(base.op(name)) for name in witness["pair"])
    env = witness.get("input", witness.get("matrix"))
    row_first, col_first = commutativity_square(a, b)
    assert reference_eval_morphism(model, row_first, env) != \
        reference_eval_morphism(model, col_first, env)


REPLAYS = {
    "sigma_check_t_braid": _replay_distinguished,
    "yang_baxter_mutant": _replay_hexagon,
    "commutative_t_ass": _replay_separating_input,
    "commutative_t_ass_semantic": _replay_separating_input,
}


def test_every_exit_1_golden_witness_replays():
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    with_witnesses = {name for name, code in codes.items() if code == EXIT_FAILED
                      and json.loads((GOLDEN / f"{name}.json").read_text())["witnesses"]}
    assert with_witnesses == REPLAYS.keys()
    for name, replay in REPLAYS.items():
        for witness in json.loads((GOLDEN / f"{name}.json").read_text())["witnesses"]:
            replay(witness)


def test_validate_report_rejects_missing_verdicts():
    _, text = invoke(["--format", "json", "--no-timings", "commutative",
                      law_path("t_comm.law")])
    report = json.loads(text)
    assert validate_report(report) == []
    del report["verdicts"]
    assert validate_report(report) == ["$: missing verdicts"]


def test_eh_dim1_uniqueness_probe():
    code, text = invoke(["eh", law_path("t_comm.law"), "--dim", "1",
                         "--models", "z2_add"])
    assert code == EXIT_OK
    assert "uniqueness(z2_add): Unique" in text


def test_eh_dim1_detects_double_lift():
    code, text = invoke(["eh", law_path("t_inv.law"), "--dim", "1",
                         "--models", "swap_set"])
    assert code == EXIT_FAILED
    assert "NotUnique" in text and "2 doubled structures" in text


def test_check_theory_on_every_fixture_file():
    for path in law_files():
        expected = EXIT_FAILED if "mutant" in path.name else EXIT_OK
        code, text = invoke(["check-theory", str(path)])
        assert code == expected, (path.name, text)
