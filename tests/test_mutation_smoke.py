"""Seeded one-character mutants of the shipped .law files under check-theory.

Each mutant replaces, deletes or inserts one character from the DSL's lexical
alphabet.  Whatever the edit does, lawkit must end within its budget with an
exit code from {0, 1, 2, 3} and print no traceback: a mutant may be valid,
violated, bounded or malformed, never a crash or a hang.  Sigma entries and
cell equations of ``t_comm_flat.law`` mutated to the wrong boundaries, at the
root or at an inner vertical composite, are malformed input under every
command that reads the file; so is a model block edited so that it is no
longer a model.  Only a lawkit bug exits 4.
"""

import os
import random
import shutil
import string
import subprocess
import sys

import pytest

from conftest import ROOT
from fixtures import law_files, law_path

ALPHABET = string.ascii_lowercase + string.digits + '(){}[]<>,;:.=-_" \n'
SEEDS = (41, 42)
MUTANTS_PER_SEED = 6
BUDGET_S = 10


def mutants(seed):
    """``MUTANTS_PER_SEED`` (file name, mutated text, edit) triples."""
    rng = random.Random(seed)
    texts = {path.name: path.read_text() for path in law_files()}
    out = []
    for _ in range(MUTANTS_PER_SEED):
        name = rng.choice(sorted(texts))
        text = texts[name]
        i = rng.randrange(len(text))
        kind = rng.choice(("replace", "delete", "insert"))
        c = rng.choice([a for a in ALPHABET if a != text[i]])
        mutated = {"replace": text[:i] + c + text[i + 1:],
                   "delete": text[:i] + text[i + 1:],
                   "insert": text[:i] + c + text[i:]}[kind]
        out.append((name, mutated, f"{kind}@{i} {c!r}"))
    return out


CASES = [(seed, k, *case) for seed in SEEDS for k, case in enumerate(mutants(seed))]


@pytest.mark.parametrize("seed, k, name, text, edit", CASES,
                         ids=[f"seed{c[0]}-{c[1]}-{c[2]}" for c in CASES])
def test_mutant_ends_with_a_truthful_exit_code(tmp_path, seed, k, name, text, edit):
    # Imports name sibling files, so the mutant sits among copies of them.
    for path in law_files():
        shutil.copy(path, tmp_path / path.name)
    (tmp_path / name).write_text(text)
    done = _lawkit("check-theory", tmp_path / name)
    assert done.returncode in (0, 1, 2, 3), (edit, done.stderr)
    assert "Traceback" not in done.stderr, (edit, done.stderr)


# (line, mutated entry): each was one character away from its shipped entry,
# except the last two, which stack the shipped entry E.  In vert(vert(E, E), E)
# the root spans the square, but the inner vertical composites do not meet; in
# vert(vert(E, X), E) the inner X whiskers c by a map of the wrong arity, so
# X's boundaries do not compose, which only a walk below the root finds.
SHIPPED_MM = "whiskR(par(id(x1), c, id(x1)), m(m(x1,x2),x3))"
ILL_TYPED_NODE = "whiskL([1] <>, c)"
SIGMA_MUTANTS = (
    pytest.param(19, "  (m, m) = whiskR(id(x8), m(m(x1,x2),x3));", id="line19"),
    pytest.param(21, "  (u, m) = id([1] u);", id="line21"),
    pytest.param(22, "  (u, u) = id([05] u);", id="line22"),
    pytest.param(19, f"  (m, m) = vert(vert({SHIPPED_MM}, {SHIPPED_MM}), {SHIPPED_MM});",
                 id="line19-inner-vert"),
    pytest.param(19, f"  (m, m) = vert(vert({SHIPPED_MM}, {ILL_TYPED_NODE}), {SHIPPED_MM});",
                 id="line19-inner-ill-typed"),
)
TABLE_COMMANDS = (
    ("check-theory",), ("sigma-check",), ("eh", "--dim", "2"),
    ("hom-internal", "--source", "poset_meet", "--target", "graded_lines"),
    ("fox",), ("closed-check", "--x", "poset_meet", "--y", "poset_meet", "--z", "poset_meet"),
)


# The shipped symmetry with its second crossing unswapped: c then c, whose
# boundaries do not meet; and c then c with an ill-typed node between them.
# Each is reported at the equation's name.
CELL_EQUATION_MUTANTS = (
    pytest.param(16, "  celleq symmetry : vert(c, c) = id(m(x1,x2));", id="line16-symmetry"),
    pytest.param(16, f"  celleq symmetry : vert(vert(c, {ILL_TYPED_NODE}), c) = id(m(x1,x2));",
                 id="line16-inner-ill-typed"),
)


@pytest.mark.parametrize("command", TABLE_COMMANDS, ids=[c[0] for c in TABLE_COMMANDS])
@pytest.mark.parametrize("line, entry", SIGMA_MUTANTS)
def test_sigma_entry_with_wrong_boundaries_is_malformed_input(tmp_path, line, entry, command):
    done = _mutated_line(tmp_path, line, entry, command)
    assert done.returncode == 3, (done.stdout, done.stderr)
    assert f"input: Error  {line}:3: " in done.stdout
    assert "Traceback" not in done.stderr, done.stderr


@pytest.mark.parametrize("command", TABLE_COMMANDS, ids=[c[0] for c in TABLE_COMMANDS])
@pytest.mark.parametrize("line, equation", CELL_EQUATION_MUTANTS)
def test_ill_typed_cell_equation_is_malformed_input(tmp_path, line, equation, command):
    done = _mutated_line(tmp_path, line, equation, command)
    assert done.returncode == 3, (done.stdout, done.stderr)
    assert f"input: Error  {line}:10: cell equation symmetry (lhs): " in done.stdout
    assert "Traceback" not in done.stderr, done.stderr


# Model blocks of t_comm_flat.law edited structurally: a nat table's entry
# changed (poset_meet's c is no longer natural), an op functor's object
# changed (u = 0 breaks lunit), a functor table shortened, and an equation's
# variable renamed (lunit reads x21, which every model breaks).
MODEL_MUTANTS = (
    pytest.param("  nat c auto;\n", "  nat c = [2, 0, 0, 1];\n", id="nat-entry"),
    pytest.param("functor u { obj [1]", "functor u { obj [0]", id="functor-entry"),
    pytest.param("functor m { obj [0, 0, 0, 1]", "functor m { obj [0, 0, 0]", id="functor-short"),
    pytest.param("m(u,x1) = x1;", "m(u,x1) = x21;", id="lunit-x21"),
)


@pytest.mark.parametrize("command", TABLE_COMMANDS, ids=[c[0] for c in TABLE_COMMANDS])
@pytest.mark.parametrize("old, new", MODEL_MUTANTS)
def test_model_mutant_ends_with_a_truthful_exit_code(tmp_path, old, new, command):
    text = law_path("t_comm_flat.law").read_text()
    assert old in text
    path = tmp_path / "t_comm_flat.law"
    path.write_text(text.replace(old, new, 1))
    done = _lawkit(command[0], path, *command[1:])
    assert done.returncode in (0, 1, 2, 3), (done.stdout, done.stderr)
    assert "Traceback" not in done.stderr, done.stderr


def _mutated_line(tmp_path, line, text, command):
    """``command`` on t_comm_flat.law with line ``line`` replaced by ``text``,
    which keeps the line's first two words."""
    lines = law_path("t_comm_flat.law").read_text().split("\n")
    assert lines[line - 1].split()[:2] == text.split()[:2]
    lines[line - 1] = text
    path = tmp_path / "t_comm_flat.law"
    path.write_text("\n".join(lines))
    return _lawkit(command[0], path, *command[1:])


def test_an_internal_error_exits_4_with_its_traceback():
    # A handler raising what no input can cause stands for a lawkit bug.
    script = ("import sys\n"
              "import lawkit.cli as cli\n"
              "def broken(args, doc):\n"
              "    raise RuntimeError('a lawkit bug')\n"
              "cli.HANDLERS['check-theory'] = broken\n"
              "sys.argv[1:] = ['check-theory', sys.argv[1]]\n"
              "cli.main()\n")
    done = subprocess.run([sys.executable, "-c", script, str(law_path("t_ass.law"))],
                          capture_output=True, text=True, env=_env(), timeout=BUDGET_S)
    assert done.returncode == 4
    assert done.stdout == ""
    assert "Traceback (most recent call last)" in done.stderr
    assert done.stderr.endswith("RuntimeError: a lawkit bug\n")


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src")] + sys.path))


def _lawkit(command, path, *args):
    """``lawkit command path args`` in a child process, within the budget."""
    return subprocess.run([sys.executable, "-m", "lawkit.cli", command, str(path), *args],
                          capture_output=True, text=True, env=_env(), timeout=BUDGET_S)
