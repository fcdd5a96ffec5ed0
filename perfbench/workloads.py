"""The benchmark workloads: their inputs, how each op runs, and its reference.

Every input comes from the shipped ``.law`` files, read through ``lawkit.dsl``
or handed to the CLI; nothing is built from ``lawkit.fixtures``.  A workload
is prepared from a seed, runs its ops one at a time, and checks each result
after the timed pass.
"""

from __future__ import annotations

import importlib
import importlib.util
import io
import json
import os
import random
import resource
import string
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAW = "src/lawkit/fixtures/law/"
GOLDEN = ROOT / "tests" / "golden"
ORACLES = ROOT / "tests" / "oracles.py"
RECORDED = Path(__file__).resolve().parent / "references.json"
SCRATCH = ROOT / ".perfbench_tmp"
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"

PREFIX = ["--format", "json", "--no-timings"]
CHILD_BUDGET_S = 3.0          # per cli-suite child; a timeout is an error
TRACED_CHILD_BUDGET_S = 30.0  # the same child under the tracer
CHILD_MEMORY_BYTES = 2 << 30  # address-space cap, so a runaway child fails alone
MUTANTS = 20
# Characters a one-character fuzz mutant may insert or substitute: the DSL's
# identifier characters, digits, punctuation, quote and whitespace.
MUTANT_ALPHABET = string.ascii_lowercase + string.digits + '(){}[]<>,;:.=-_" \n'
# Characters outside the DSL's lexical alphabet: inserted outside a comment or
# string, each one stops the tokenizer exactly where it stands.
STRAY_CHARS = "@$%&!?~^|#"
MONOID_COUNTS = {1: 1, 2: 4, 3: 33, 4: 624}  # labelled monoids, OEIS A058129
FLAT_MODELS = ("poset_meet", "poset_join", "graded_lines")

# The golden command lines of tests/test_cli.py, by golden name.
GOLDEN_ARGV = {
    "commutative_t_comm": ["commutative", LAW + "t_comm.law"],
    "commutative_t_ass": ["commutative", LAW + "t_ass.law"],
    "commutative_t_ass_semantic": ["commutative", LAW + "t_ass.law",
                                   "--mode", "semantic", "--max-size", "4"],
    "sigma_check_t_comm_flat": ["sigma-check", LAW + "t_comm_flat.law"],
    "sigma_check_t_braid": ["sigma-check", LAW + "t_braid.law"],
    "sigma_check_t_inv": ["sigma-check", LAW + "t_inv.law"],
    "assoc_derived_t_gl2": ["assoc-derived", LAW + "t_gl2.law"],
    "assoc_derived_t_comm_flat": ["assoc-derived", LAW + "t_comm_flat.law"],
    "yang_baxter_graded_lines": ["yang-baxter", LAW + "t_comm_flat.law",
                                 "--model", "graded_lines", "--braiding", "c"],
    "yang_baxter_mutant": ["yang-baxter", LAW + "graded_lines_mutant.law",
                           "--model", "graded_lines_mutant", "--braiding", "c"],
    "models_t_ass_2": ["models", LAW + "t_ass.law", "--size", "2"],
    "homs_z2": ["homs", LAW + "t_comm.law", "--source", "z2_add", "--target", "z2_add"],
    "intalg_poset": ["intalg", LAW + "t_comm_flat.law", "--model", "poset_meet"],
    "intcoalg_delooping": ["intcoalg", LAW + "t_ass_flat.law", "--model", "delooping_z2"],
    "intbialg_poset": ["intbialg", LAW + "t_comm_flat.law", "--model", "poset_meet"],
    "convolve_delooping": ["convolve", LAW + "t_ass_flat.law", "--model", "delooping_z2",
                           "--algebra", "1", "--coalgebra", "1"],
    "hom_internal_poset": ["hom-internal", LAW + "t_comm_flat.law",
                           "--source", "poset_meet", "--target", "poset_meet"],
    "closed_check_poset": ["closed-check", LAW + "t_comm_flat.law", "--x", "poset_meet",
                           "--y", "poset_meet", "--z", "poset_meet"],
    "closed_check_mixed": ["closed-check", LAW + "t_comm_flat.law", "--x", "poset_meet",
                           "--y", "poset_join", "--z", "poset_join"],
    "fox_poset": ["fox", LAW + "t_comm_flat.law", "--models", "poset_meet"],
    "fox_pointed": ["fox", LAW + "t_pointed_flat.law", "--models", "pointed_poset"],
    "fox_involution": ["fox", LAW + "t_inv.law", "--models", "scalar_involution"],
    "eh2_t_comm_flat": ["eh", LAW + "t_comm_flat.law", "--dim", "2", "--models", "poset_meet"],
    "eh2_t_inv": ["eh", LAW + "t_inv.law", "--dim", "2"],
    "eh1_t_comm": ["eh", LAW + "t_comm.law", "--dim", "1"],
    "bilax_poset": ["bilax", LAW + "t_comm_flat.law", "--model", "poset_meet"],
    "check_theory_t_comm_flat": ["check-theory", LAW + "t_comm_flat.law"],
    "check_theory_t_pointed": ["check-theory", LAW + "t_pointed_flat.law"],
}


@dataclass
class Op:
    name: str
    argv: list | None = None     # CLI arguments after PREFIX
    payload: object = None       # workload-specific input
    refs: tuple = ()             # reference checks, see Workload.check


@dataclass
class Outcome:
    decided: bool                # ended in a verdict
    error: str | None = None     # traceback, timeout or reference mismatch
    wrong: bool = False          # an answer contradicted its reference
    exit_code: int | None = None


def _golden(name):
    path = GOLDEN / f"{name}.json"
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    if name not in codes or not path.exists():
        return None
    return codes[name], path.read_text()


def _verdicts(text):
    return [[v["name"], v["verdict"]] for v in json.loads(text)["verdicts"]]


class Workload:
    """In-process workload: ops are ``lawkit.cli.run`` calls unless overridden."""

    name = ""
    law_inputs: tuple = ()

    def import_lawkit(self) -> float:
        """(Re-)import lawkit from scratch; returns the seconds spent importing
        ``lawkit.cli``, which pulls in every layer."""
        for mod in [m for m in sys.modules if m == "lawkit" or m.startswith("lawkit.")]:
            del sys.modules[mod]
        t0 = time.perf_counter()
        self.cli = importlib.import_module("lawkit.cli")
        elapsed = time.perf_counter() - t0
        self.dsl = sys.modules["lawkit.dsl"]
        self.theory = sys.modules["lawkit.theory"]
        return elapsed

    def parse_inputs(self) -> dict:
        docs = {}
        for name in self.law_inputs:
            doc, source = self.dsl.parse_file(ROOT / LAW / name)
            if doc is None:
                raise RuntimeError(f"{name}: {[str(d) for d in source.diagnostics]}")
            docs[name] = doc
        return docs

    def prepare(self, seed: int) -> list:
        raise NotImplementedError

    def execute(self, op: Op):
        out = io.StringIO()
        try:
            return self.cli.run(PREFIX + op.argv, out), out.getvalue()
        except Exception:
            return "traceback", traceback.format_exc()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # -- references -----------------------------------------------------------

    def check(self, op: Op, raw) -> Outcome:
        code, text = raw
        if code == "traceback":
            return Outcome(False, "traceback: " + text.strip().splitlines()[-1], wrong=True)
        out = Outcome(code in (0, 1), exit_code=code)
        for ref in op.refs:
            problem = self._mismatch(ref, code, text)
            if problem:
                out.error, out.wrong = f"{ref[0]}: {problem}", True
                break
        return out

    def _mismatch(self, ref, code, text):
        kind = ref[0]
        if kind == "golden":
            golden = _golden(ref[1])
            if golden is None:
                return f"no golden {ref[1]} in the tree"
            if code != golden[0]:
                return f"exit {code}, golden {golden[0]}"
            return None if text == golden[1] else "report differs from golden"
        if not text:
            return "no report"
        if kind == "recorded":
            want = self.recorded.get(ref[1])
            if want is None:
                return f"no recorded answer for {ref[1]}"
            if code != want["exit"] or _verdicts(text) != want["verdicts"]:
                return f"exit {code}, verdicts differ from the recorded answer"
            return None
        if kind == "count":
            return self._count_mismatch(text, ref[1], ref[2])
        raise ValueError(f"unknown reference kind {kind}")

    def _count_mismatch(self, text, size, commutative):
        """``models`` output: the count, and every table a distinct monoid."""
        report = json.loads(text)
        tables = [(tuple(w["tables"]["m"]), tuple(w["tables"]["u"]))
                  for w in report["witnesses"]]
        if len(set(tables)) != len(tables):
            return "duplicate tables"
        if not all(reference.is_monoid(m, u, size, commutative) for m, u in tables):
            return "a table is not a model"
        want = self.commutative_counts[size] if commutative else MONOID_COUNTS[size]
        got = report["verdicts"][0]["verdict"]
        return None if got == str(want) == str(len(tables)) else f"{got} models, want {want}"


class ModelSearch(Workload):
    """``models`` on t_ass (sizes 1-4) and t_comm (1-3), and ``commutative t_ass``."""

    name = "model-search"
    law_inputs = ("t_ass.law", "t_comm.law")

    def prepare(self, seed):
        self.parse_inputs()
        # t_comm models are the commutative monoid tables.
        self.commutative_counts = {size: len(reference.monoid_tables(size, commutative=True))
                                   for size in range(1, 4)}
        ops = []
        for theory, sizes in (("t_ass", range(1, 5)), ("t_comm", range(1, 4))):
            for size in sizes:
                refs = [("count", size, theory == "t_comm")]
                if (theory, size) == ("t_ass", 2):
                    refs.append(("golden", "models_t_ass_2"))
                ops.append(Op(f"models {theory} {size}",
                              ["models", LAW + theory + ".law", "--size", str(size)],
                              refs=tuple(refs)))
        for golden in ("commutative_t_ass", "commutative_t_ass_semantic"):
            ops.append(Op(golden, GOLDEN_ARGV[golden], refs=(("golden", golden),)))
        random.Random(seed).shuffle(ops)
        return ops


class Constructions(Workload):
    """Two-dimensional commands on the t_comm_flat models, plus t_braid."""

    name = "constructions"
    law_inputs = ("t_comm_flat.law", "t_braid.law")
    closed_triples = (("poset_meet", "poset_meet", "poset_meet"),
                      ("poset_meet", "poset_join", "poset_join"),
                      ("poset_meet", "graded_lines", "poset_meet"),
                      ("graded_lines", "poset_meet", "graded_lines"),
                      ("graded_lines", "poset_join", "graded_lines"))

    def prepare(self, seed):
        self.parse_inputs()
        self.recorded = json.loads(RECORDED.read_text())[self.name]
        oracles = _load_oracles()
        oracle_counts = {
            ("intalg", "poset_meet"): len(oracles.count_monoid_objects(oracles.poset2_meet())),
            ("intcoalg", "poset_meet"): len(oracles.count_comonoid_objects(oracles.poset2_meet())),
            ("intalg", "poset_join"): len(oracles.count_monoid_objects(oracles.poset2_join())),
            ("intcoalg", "poset_join"): len(oracles.count_comonoid_objects(oracles.poset2_join())),
        }
        goldens = {tuple(argv): name for name, argv in GOLDEN_ARGV.items()}
        flat = LAW + "t_comm_flat.law"
        argvs = [["hom-internal", flat, "--source", x, "--target", y]
                 for x in FLAT_MODELS for y in FLAT_MODELS]
        argvs.append(["eh", flat, "--dim", "2"])
        argvs += [["closed-check", flat, "--x", x, "--y", y, "--z", z]
                  for x, y, z in self.closed_triples]
        argvs += [["sigma-check", LAW + "t_braid.law"], ["assoc-derived", flat],
                  ["fox", flat], ["fox", flat, "--models", "poset_meet"]]
        argvs += [[cmd, flat, "--model", m] for m in FLAT_MODELS
                  for cmd in ("intalg", "intcoalg", "intbialg", "bilax")]
        ops = []
        for argv in argvs:
            name = " ".join([argv[0]] + [a for a in argv[2:] if not a.startswith("--")])
            golden = goldens.get(tuple(argv))
            if golden is not None:
                refs = [("golden", golden)]
            else:
                refs = [("recorded", name)]
            if argv[0] in ("intalg", "intcoalg") and (argv[0], argv[3]) in oracle_counts:
                refs.append(("oracle", oracle_counts[argv[0], argv[3]]))
            ops.append(Op(name, argv, refs=tuple(refs)))
        random.Random(seed).shuffle(ops)
        return ops

    def _mismatch(self, ref, code, text):
        if ref[0] == "oracle":
            got = json.loads(text)["verdicts"][0]["verdict"]
            return None if got == str(ref[1]) else f"{got} objects, oracle {ref[1]}"
        return super()._mismatch(ref, code, text)


def _load_oracles():
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- equational -------------------------------------------------------------------

def _bracket(rng, leaves):
    """A random binary bracketing of ``leaves``; the empty word is the unit."""
    if not leaves:
        return "u"
    if len(leaves) == 1:
        return leaves[0]
    cut = rng.randrange(1, len(leaves))
    return (_bracket(rng, leaves[:cut]), _bracket(rng, leaves[cut:]))


def _with_units(rng, word, rate=0.15):
    out = []
    for x in word:
        while rng.random() < rate:
            out.append("u")
        out.append(x)
    return out


class Equational(Workload):
    """``theory.decide_equal`` on seeded parallel pairs over t_ass and t_comm.

    About four pairs in five are equal by construction: one word under two
    random bracketings and unit insertions (permuted, for t_comm).  The rest
    are two words drawn independently, one letter apart in length, so a
    counter-model exists (the two-element group) and the search must find
    one.  Counter-models are searched up to size 3.
    """

    name = "equational"
    law_inputs = ("t_ass.law", "t_comm.law")
    pairs = 1200
    model_bound = 3

    def prepare(self, seed):
        docs = self.parse_inputs()
        theories = {"t_ass": docs["t_ass.law"].theory("t_ass").base,
                    "t_comm": docs["t_comm.law"].theory("t_comm").base}
        self.tables = {
            commutative: {size: reference.monoid_tables(size, commutative)
                          for size in range(1, self.model_bound + 1)}
            for commutative in (False, True)}
        # Pairs cycle through the (theory, kind, arity, length) cells, so the
        # mix of sizes is fixed; the seed draws the words, bracketings and units.
        cells = [(theory, kind, arity, length)
                 for theory in ("t_ass", "t_comm")
                 for kind in ("equal",) * 4 + ("independent",)
                 for arity in (2, 3, 4)
                 for length in range(4, 10)]
        rng = random.Random(seed)
        ops = []
        for i in range(self.pairs):
            theory, kind, arity, length = cells[i % len(cells)]
            word = [rng.randrange(arity) for _ in range(length)]
            if kind == "independent":
                other = [rng.randrange(arity) for _ in range(length + 1)]
            elif theory == "t_comm":
                other = rng.sample(word, len(word))
            else:
                other = list(word)
            f = _bracket(rng, _with_units(rng, word))
            g = _bracket(rng, _with_units(rng, other))
            lhs, rhs = (self._morphism(theories[theory], t, arity) for t in (f, g))
            ops.append(Op(f"{theory} {kind} {i}",
                          payload=(theories[theory], lhs, rhs, f, g, arity, theory, kind)))
        rng.shuffle(ops)
        return ops

    def _morphism(self, presentation, term, arity):
        T = self.theory
        m, u = presentation.op("m"), presentation.op("u")

        def build(t):
            if isinstance(t, int):
                return T.Proj(t, arity)
            if t == "u":
                return T.Apply(u, (), arity)
            return T.Apply(m, (build(t[0]), build(t[1])), arity)

        return T.Morphism(arity, 1, (build(term),))

    def execute(self, op):
        presentation, lhs, rhs = op.payload[:3]
        try:
            return self.theory.decide_equal(presentation, lhs, rhs,
                                            model_bound=self.model_bound)
        except Exception:
            return traceback.format_exc()

    def check(self, op, raw):
        _, _, _, f, g, arity, theory, kind = op.payload
        verdict = type(raw).__name__
        if isinstance(raw, str):
            return Outcome(False, "traceback: " + raw.strip().splitlines()[-1], wrong=True)
        commutative = theory == "t_comm"
        if verdict == "Equal":
            if kind == "independent" and not all(
                    reference.holds_on_all(f, g, arity, tables, size)
                    for size, tables in self.tables[commutative].items()):
                return Outcome(True, "Equal fails on a monoid of size <= 3", wrong=True)
            return Outcome(True)
        if verdict == "NotEqual":
            if kind == "equal":
                return Outcome(True, "NotEqual on a pair equal by construction", wrong=True)
            size, tables = raw.model.size, dict(raw.model.tables)
            m, u = tables["m"], tables["u"]
            if not reference.is_monoid(m, u, size, commutative):
                return Outcome(True, "counter-model is not a model", wrong=True)
            env = tuple(raw.witness)
            if reference.evaluate(f, env, m, u[0], size) == reference.evaluate(g, env, m, u[0], size):
                return Outcome(True, "witness does not separate the pair", wrong=True)
            return Outcome(True)
        return Outcome(False)


# -- cli-suite --------------------------------------------------------------------

def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY_BYTES, CHILD_MEMORY_BYTES))


class CliSuite(Workload):
    """Fresh ``python -m lawkit.cli`` processes, one op at a time."""

    name = "cli-suite"

    def __init__(self):
        self.env = dict(os.environ)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
        self.trace_dir = None     # set while tracing: children save their trees here
        self._dumps = 0

    def import_lawkit(self) -> float:
        """Warm the bytecode caches with one child, as every later child would."""
        t0 = time.perf_counter()
        code, _out, err = self._child(["-c", "import lawkit.cli"], CHILD_BUDGET_S)
        if code != 0:
            raise RuntimeError(f"cannot import lawkit.cli in a child: {err}")
        return time.perf_counter() - t0

    def startup_probe(self, runs: int = 5) -> list:
        """Seconds for children that start the interpreter and exit at once."""
        out = []
        for _ in range(runs):
            t0 = time.perf_counter()
            self._child(["-c", "pass"], CHILD_BUDGET_S)
            out.append(time.perf_counter() - t0)
        return out

    def prepare(self, seed):
        ops = [Op(name, argv, refs=(("golden", name),)) for name, argv in GOLDEN_ARGV.items()]
        files = sorted((ROOT / LAW).glob("*.law"))
        for path in files:
            want = 1 if "mutant" in path.name else 0
            ops.append(Op(f"check-theory {path.name}", ["check-theory", LAW + path.name],
                          refs=(("exit", want),)))
        texts = {p.name: p.read_text() for p in files}
        return ops + self.mutants(random.Random(seed), texts)

    def mutants(self, rng, texts):
        """One stray character inserted into a shipped file, outside comments and
        strings and not after a ``-`` (which would split ``->``): the parser must
        report exactly that character, at its line and column, and exit 3."""
        ops = []
        for k in range(MUTANTS):
            name = rng.choice(sorted(texts))
            lines = texts[name].split("\n")
            row = rng.randrange(len(lines))
            line = lines[row]
            end = min(j for j in (line.find("--"), line.find('"'), len(line)) if j >= 0)
            col = rng.choice([j for j in range(end + 1) if j == 0 or line[j - 1] != "-"])
            c = rng.choice(STRAY_CHARS)
            lines[row] = line[:col] + c + line[col:]
            path = self._write_mutant(k, texts, name, "\n".join(lines))
            detail = f"{row + 1}:{col + 1}: unexpected character {c!r}"
            ops.append(Op(f"mutant{k:02d} {name} {c!r}@{row + 1}:{col + 1}",
                          ["check-theory", path], refs=(("stray", detail),)))
        return ops

    def _write_mutant(self, k, texts, name, mutated):
        """Write the mutant beside copies of the other files, so imports resolve."""
        folder = SCRATCH / f"mutant{k:02d}"
        folder.mkdir(parents=True, exist_ok=True)
        for other, body in texts.items():
            (folder / other).write_text(mutated if other == name else body)
        return str((folder / name).relative_to(ROOT))

    def _child(self, args, budget):
        try:
            proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=self.env,
                                  capture_output=True, text=True, timeout=budget,
                                  preexec_fn=_limit_memory)
        except subprocess.TimeoutExpired:
            return "timeout", "", ""
        return proc.returncode, proc.stdout, proc.stderr

    def execute(self, op):
        if self.trace_dir is None:
            return self._child(["-m", "lawkit.cli", *PREFIX, *op.argv], CHILD_BUDGET_S)
        self._dumps += 1
        dump = self.trace_dir / f"{self._dumps:04d}.json"
        return self._child([str(TRACED_CLI), str(dump), *PREFIX, *op.argv],
                           TRACED_CHILD_BUDGET_S) + (dump,)

    def check(self, op, raw):
        code, text, err = raw[:3]
        kind = op.refs[0][0]
        if code == "timeout":
            return Outcome(False, "timeout", wrong=kind != "mutant")
        if "Traceback (most recent call last)" in err:
            last = err.strip().splitlines()[-1]
            return Outcome(False, f"traceback: {last}", wrong=kind != "mutant")
        out = Outcome(code in (0, 1), exit_code=code)
        if kind == "mutant":
            if code not in (0, 1, 2, 3):
                out.error = f"mutant: exit {code}"
        elif kind == "exit":
            if code != op.refs[0][1]:
                out.error, out.wrong = f"exit {code}, want {op.refs[0][1]}", True
        elif kind == "stray":
            want = [{"detail": op.refs[0][1], "name": "input", "verdict": "Error"}]
            if code != 3 or not text or json.loads(text)["verdicts"] != want:
                out.error, out.wrong = f"exit {code}, want 3 and {op.refs[0][1]!r}", True
        else:
            problem = self._mismatch(op.refs[0], code, text)
            if problem:
                out.error, out.wrong = f"golden: {problem}", True
        return out

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


class MutantFuzz(CliSuite):
    """Seeded one-character mutants of the shipped files under ``check-theory``.

    Not in BENCHMARK.json: some seeds draw a mutant on which lawkit crashes or
    hangs, and those runs count in ``failed``.  Kept to show those defects.
    """

    name = "mutant-fuzz"

    def prepare(self, seed):
        texts = {p.name: p.read_text() for p in sorted((ROOT / LAW).glob("*.law"))}
        return self.mutants(random.Random(seed), texts)

    def mutants(self, rng, texts):
        ops = []
        for k in range(MUTANTS):
            name = rng.choice(sorted(texts))
            text = texts[name]
            i = rng.randrange(len(text))
            kind = rng.choice(("replace", "delete", "insert"))
            c = rng.choice([a for a in MUTANT_ALPHABET if a != text[i]])
            mutated = {"replace": text[:i] + c + text[i + 1:],
                       "delete": text[:i] + text[i + 1:],
                       "insert": text[:i] + c + text[i:]}[kind]
            ops.append(Op(f"mutant{k:02d} {name} {kind}@{i} {c!r}",
                          ["check-theory", self._write_mutant(k, texts, name, mutated)],
                          refs=(("mutant",),)))
        return ops


WORKLOADS = {w.name: w for w in (CliSuite, MutantFuzz, ModelSearch, Equational, Constructions)}
