"""Seeded one-character mutants of the shipped .law files under check-theory.

Each mutant replaces, deletes or inserts one character from the DSL's lexical
alphabet.  Whatever the edit does, lawkit must end within its budget with an
exit code from {0, 1, 2, 3} and print no traceback: a mutant may be valid,
violated, bounded or malformed, never a crash or a hang.
"""

import os
import random
import shutil
import string
import subprocess
import sys

import pytest

from conftest import ROOT
from lawkit.fixtures import law_files

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
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src")] + sys.path))
    done = subprocess.run([sys.executable, "-m", "lawkit.cli", "check-theory", str(tmp_path / name)],
                          capture_output=True, text=True, env=env, timeout=BUDGET_S)
    assert done.returncode in (0, 1, 2, 3), (edit, done.stderr)
    assert "Traceback" not in done.stderr, (edit, done.stderr)
