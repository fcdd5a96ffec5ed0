"""Run one lawkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a lawkit checkout.  ``--trace 0`` times the workload
untraced and prints the end-to-end metrics; ``--trace 1`` runs it once
untraced and once with every layer wrapped, and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from collections import Counter

from tracer import LAYERS, PRODUCT_CODEC, Profile, Tracer
from workloads import GOLDEN, ROOT, SCRATCH, SRC, WORKLOADS, CliSuite

SETUP_REPEATS = 5
OUT_DIR = ROOT / ".perfbench_out"
clock = time.perf_counter


def stamp(workload: str, seed: int) -> dict:
    """Where and on what a result was measured."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "lawkit").rglob("*")):
        if path.suffix in (".py", ".law"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def setup(workload, seed: int):
    """Import lawkit and prepare the inputs SETUP_REPEATS times; keep the last."""
    totals, imports = [], []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        imports.append(workload.import_lawkit())
        ops = workload.prepare(seed)
        totals.append(clock() - t0)
    return ops, statistics.median(totals), statistics.median(imports)


def run_pass(workload, ops, tracer=None):
    """Run every op once, in order; returns (wall, per-op seconds, raw results)."""
    raws, times = {}, []
    t0 = clock()
    for op in ops:
        start = clock()
        if tracer is None:
            raws[op.name] = workload.execute(op)
        else:
            raws[op.name] = tracer.run_span(op.name, workload.execute, op)
        times.append(clock() - start)
    return clock() - t0, times, raws


def check_pass(workload, ops, raws, problems: list):
    outcomes = [workload.check(op, raws[op.name]) for op in ops]
    for op, out in zip(ops, outcomes):
        if out.error:
            problems.append(f"{op.name}: {out.error}")
    return outcomes


def tail(times):
    """Time at the highest percentile with at least ten ops above it.

    With ten ops or fewer no such percentile exists; the slowest op is
    reported, as percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure(workload, seed: int, seconds: float, lines: list):
    """Time one full pass, then repeat ops while ``seconds`` last.

    Each repeat round takes the ops that have not failed, from the fastest,
    for as long as their expected times fit in the time left, so short ops
    collect many samples and long ones at least one.  An op's time is the
    median of its samples; ``wall_s`` is the median over rounds that ran
    every op.
    """
    ops, setup_s, _ = setup(workload, seed)
    problems = []
    start = clock()
    wall, first_times, raws = run_pass(workload, ops)
    walls = [wall]
    samples = {op.name: [t] for op, t in zip(ops, first_times)}
    outcomes = check_pass(workload, ops, raws, problems)
    runs = list(outcomes)
    failed = {op.name for op, o in zip(ops, outcomes) if o.error}
    by_speed = [op for _, op in sorted(zip(first_times, ops), key=lambda x: x[0])]
    while True:
        left = seconds - (clock() - start)
        fits = []
        for op in by_speed:
            expected = statistics.median(samples[op.name])
            if op.name not in failed and expected <= left:
                fits.append(op)
                left -= expected
        if not fits:
            break
        wall, times, raws = run_pass(workload, fits)
        for op, t in zip(fits, times):
            samples[op.name].append(t)
        more = check_pass(workload, fits, raws, problems)
        failed.update(op.name for op, o in zip(fits, more) if o.error)
        runs += more
        if len(fits) == len(ops):
            walls.append(wall)
    op_times = [statistics.median(samples[op.name]) for op in ops]
    n = len(ops)
    errors = len(failed)
    tail_s, tail_pct = tail(op_times)
    lines.append(f"{len(walls)} full passes, {len(runs)} op runs, {n} distinct ops; "
                 f"tail at p{tail_pct:.1f} of {n} op times; "
                 f"error_frac {errors / n:.4f} ({errors} of {n} ops failed at least once)")
    lines += [f"  error: {p}" for p in dict.fromkeys(problems)]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (1000 * statistics.median(op_times), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "decided_frac": (sum(o.decided for o in outcomes) / n, "ratio"),
        "ok_frac": (1 - errors / n, "ratio"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }
    return runs, metrics


def measure_traced(workload, seed: int, lines: list):
    """One untraced and one traced run of prepare plus a pass; per-layer metrics."""
    _, _, import_s = setup(workload, seed)
    problems = []
    t0 = clock()
    ops = workload.prepare(seed)
    _, untraced_times, raws = run_pass(workload, ops)
    untraced = clock() - t0
    outcomes = check_pass(workload, ops, raws, problems)
    untraced_by_name = {op.name: t for op, t in zip(ops, untraced_times)}

    tracer = Tracer()
    cli_suite = isinstance(workload, CliSuite)
    if cli_suite:
        workload.trace_dir = SCRATCH / "traces"
        workload.trace_dir.mkdir(parents=True, exist_ok=True)
    else:
        tracer.install()
    tracer.start()
    t0 = clock()
    ops = tracer.run_span("prepare", workload.prepare, seed)
    _, times, raws = run_pass(workload, ops, tracer)
    traced = clock() - t0
    tracer.stop()
    tracer.uninstall()
    traced_outcomes = check_pass(workload, ops, raws, problems)

    profile = Profile()
    profile.add(tracer.dump())
    bound_ops = set(tracer.bound_ops)
    startup, child_imports = [], []
    if cli_suite:
        for op, op_s in zip(ops, times):
            dump_path = raws[op.name][3]
            if dump_path.exists():
                dump = json.loads(dump_path.read_text())
                profile.add(dump, nested=True)
                child_imports.append(dump["import_s"])
                if dump["bound_ops"]:
                    bound_ops.add(op.name)
        import_s = statistics.median(child_imports) if child_imports else 0.0
        startup = workload.startup_probe()

    closure = profile.total_self() - traced
    if abs(closure) > 0.01 * traced or profile.min_self() < -1e-3:
        raise RuntimeError(f"trace does not add up: self times minus traced wall {closure:+.4f} s,"
                           f" smallest self time {profile.min_self():.4f} s")
    layer_self = profile.layer_self()
    lines.append(f"traced wall {traced:.3f} s, untraced {untraced:.3f} s, "
                 f"overhead {traced - untraced:+.3f} s")
    lines.append("self time by layer (s): " + ", ".join(
        f"{k} {v:.3f}" for k, v in sorted(layer_self.items(), key=lambda kv: -kv[1]))
        + f", harness {profile.harness_self():.3f}")
    lines.append("top self time: " + ", ".join(f"{k} {v:.3f}" for k, v in profile.top_self()))
    if cli_suite:
        p50 = statistics.median(untraced_times)
        start_ms = 1000 * statistics.median(startup)
        lines.append(f"interpreter start-up {start_ms:.1f} ms + import {1000 * import_s:.1f} ms"
                     f" = {(start_ms + 1000 * import_s) / (1000 * p50):.0%} of the untraced"
                     f" median op {1000 * p50:.1f} ms")
    lines += [f"  error: {p}" for p in dict.fromkeys(problems)]
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"trace-{workload.name}-{seed}.json").write_text(json.dumps(profile.trees))

    c = profile.counters
    calls = profile.calls
    exits = Counter(o.exit_code for o in traced_outcomes)
    validated = calls("fincat.validate_functor")
    lax_checked = calls("catmodels.validate_lax_hom")
    all_outcomes = outcomes + traced_outcomes
    n = len(all_outcomes)
    metrics = {
        "cli.import_ms": (1000 * import_s, "ms"),
        "cli.startup_ms": (1000 * statistics.median(startup) if startup else 0.0, "ms"),
        "cli.report_ms": (1000 * profile.inclusive("cli.make_report", "cli.emit_report"), "ms"),
    }
    for code in range(4):
        metrics[f"cli.exit_{code}_count"] = (exits[code], "count")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer], "s")
    metrics.update({
        "dsl.files_parsed": (calls("dsl.parse_file"), "count"),
        "dsl.diagnostics": (c["dsl.diagnostics"], "count"),
        "theory.normalize_calls": (calls("theory.normalize"), "count"),
        "theory.rewrite_once_calls": (calls("theory.rewrite_once"), "count"),
        "theory.rewrite_steps": (c["theory.rewrite_steps"], "count"),
        "finset.enumerate_calls": (calls("finset.enumerate_models"), "count"),
        "finset.models_yielded": (c["finset.models_yielded"], "count"),
        "finset.separating_input_calls": (calls("finset.separating_input"), "count"),
        "fincat.validate_functor_calls": (validated, "count"),
        "fincat.functors_found": (c["fincat.functors_found"], "count"),
        "fincat.functor_yield": (c["fincat.functors_found"] / validated if validated else 0.0,
                                 "ratio"),
        "fincat.validate_nat_calls": (calls("fincat.validate_nat"), "count"),
        "fincat.naturals_found": (c["fincat.naturals_found"], "count"),
        "fincat.product_codec_calls": (calls(*PRODUCT_CODEC), "count"),
        "catmodels.functor_power_calls": (calls("catmodels.functor_power"), "count"),
        "catmodels.functor_of_calls": (calls("catmodels.CatModel.functor_of"), "count"),
        "catmodels.validate_lax_hom_calls": (lax_checked, "count"),
        "catmodels.homs_found": (c["catmodels.homs_found"], "count"),
        "catmodels.hom_yield": (c["catmodels.homs_found"] / lax_checked if lax_checked else 0.0,
                                "ratio"),
        "cells.pasting_components_calls": (calls("cells.pasting_components"), "count"),
        "cells.boundary_normal_form_calls": (calls("cells.boundary_normal_form"), "count"),
        "cells.instances_checked": (c["cells.instances_checked"], "count"),
        "multimaps.multimaps_found": (c["multimaps.multimaps_found"], "count"),
        "multimaps.bound_hits": (len(bound_ops), "count"),
        "multimaps.bound_wasted_s": (sum(untraced_by_name[n] for n in bound_ops), "s"),
        "trace.wall_s": (traced, "s"),
        "trace.untraced_wall_s": (untraced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.harness_s": (profile.harness_self(), "s"),
        "trace.error_frac": (sum(o.error is not None for o in all_outcomes) / n, "ratio"),
    })
    return all_outcomes, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lawkit" / "cli.py").exists() or not GOLDEN.is_dir():
        print(f"no lawkit source tree and goldens under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]()
    lines = [json.dumps(stamp(args.workload, args.seed))]
    try:
        if args.trace:
            outcomes, metrics = measure_traced(workload, args.seed, lines)
        else:
            outcomes, metrics = measure(workload, args.seed, args.seconds, lines)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:34s} {value:14.6f} {unit}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.error is not None for o in outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
