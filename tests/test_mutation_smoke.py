"""Seeded one-character mutants of the shipped .law files under check-theory.

Each mutant replaces, deletes or inserts one character from the DSL's lexical
alphabet.  Whatever the edit does, lawkit must end within its budget with an
exit code from {0, 1, 2, 3} and print no traceback: a mutant may be valid,
violated, bounded or malformed, never a crash or a hang.  Sigma entries of
``t_comm_flat.law`` mutated to the wrong boundaries, at the root or at an inner
vertical composite, are malformed input under every command that reads the
table.
"""

import os
import random
import shutil
import string
import subprocess
import sys

import pytest

from conftest import ROOT
from lawkit.fixtures import law_files, law_path

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
# except the last, which stacks the shipped entry E as vert(vert(E, E), E): its
# root spans the square, but the inner vertical composites do not meet.
SHIPPED_MM = "whiskR(par(id(x1), c, id(x1)), m(m(x1,x2),x3))"
SIGMA_MUTANTS = (
    pytest.param(19, "  (m, m) = whiskR(id(x8), m(m(x1,x2),x3));", id="line19"),
    pytest.param(21, "  (u, m) = id([1] u);", id="line21"),
    pytest.param(22, "  (u, u) = id([05] u);", id="line22"),
    pytest.param(19, f"  (m, m) = vert(vert({SHIPPED_MM}, {SHIPPED_MM}), {SHIPPED_MM});",
                 id="line19-inner-vert"),
)
TABLE_COMMANDS = (
    ("check-theory",), ("sigma-check",), ("eh", "--dim", "2"),
    ("hom-internal", "--source", "poset_meet", "--target", "graded_lines"),
    ("fox",), ("closed-check", "--x", "poset_meet", "--y", "poset_meet", "--z", "poset_meet"),
)


@pytest.mark.parametrize("command", TABLE_COMMANDS, ids=[c[0] for c in TABLE_COMMANDS])
@pytest.mark.parametrize("line, entry", SIGMA_MUTANTS)
def test_sigma_entry_with_wrong_boundaries_is_malformed_input(tmp_path, line, entry, command):
    lines = law_path("t_comm_flat.law").read_text().split("\n")
    assert lines[line - 1].split("=")[0] == entry.split("=")[0]
    lines[line - 1] = entry
    path = tmp_path / "t_comm_flat.law"
    path.write_text("\n".join(lines))
    done = _lawkit(command[0], path, *command[1:])
    assert done.returncode == 3, (done.stdout, done.stderr)
    assert f"input: Error  {line}:3: " in done.stdout
    assert "Traceback" not in done.stderr, done.stderr


def _lawkit(command, path, *args):
    """``lawkit command path args`` in a child process, within the budget."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src")] + sys.path))
    return subprocess.run([sys.executable, "-m", "lawkit.cli", command, str(path), *args],
                          capture_output=True, text=True, env=env, timeout=BUDGET_S)
