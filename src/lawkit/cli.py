"""Batch entry point: dispatch verifications over .law files, emit reports.

Exit codes, each from one source:

  0  every verdict is positive;
  1  a check failed, and the report carries its witness (or, under
     ``convolve``, ``hom-internal`` and ``closed-check``, the reason a
     construction does not apply, which the construction returns);
  2  ``search.EnumerationBound``: a declared bound or budget was hit;
  3  ``theory.InputError``, or a command line argparse rejects: the input is
     at fault.  Input is the command line and the files it names: a file
     that cannot be read, parsed or elaborated (an import cycle is reported
     at its ``import``), an ill-typed sigma entry or cell equation (at its
     position), a name that names nothing fit for its place (a theory, table,
     model, operation or 2-cell, a model that is not a model of the command's
     theory, a ``yang-baxter`` tensor that is not a binary operation), a pair
     of operations a sigma table has no entry for, or a model whose tables
     break its theory, short of a categorical model's cell equations (at the
     model's name; ``check-theory`` reports such a model ``Invalid``);
  4  anything else: a lawkit bug.  ``main`` prints the traceback to stderr;
     ``run`` lets the exception propagate.

Reports are deterministic; pass --no-timings to make the JSON byte-stable.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

from . import catmodels, cells, dsl, finset, multimaps, theory
from .search import EnumerationBound
from .theory import WEAKNESSES, InputError

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3
EXIT_BUG = 4


def _jsonable(x):
    if hasattr(x, "_asdict"):  # a record; before the tuple branch, which would list it
        return {k: _jsonable(v) for k, v in x._asdict().items()}
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    return repr(x)


def make_report(command: str, files: list[str], verdicts, witnesses, timings):
    digest = hashlib.sha256()
    for f in files:
        digest.update(Path(f).read_bytes())
    return {
        "command": command,
        "inputs": {"files": [str(f) for f in files], "digest": digest.hexdigest()},
        "verdicts": _jsonable(verdicts),
        "witnesses": _jsonable(witnesses),
        "timings": timings,
    }


def emit_report(report, fmt: str, out=sys.stdout):
    if fmt == "json":
        out.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        return
    out.write(f"command: {report['command']}\n")
    for v in report["verdicts"]:
        detail = v.get("detail")
        suffix = f"  {detail}" if detail not in (None, {}) else ""
        out.write(f"  {v['name']}: {v['verdict']}{suffix}\n")
    for w in report["witnesses"]:
        out.write(f"  witness: {w}\n")
    if report.get("timings"):
        out.write(f"  elapsed: {report['timings']['elapsed_s']:.3f}s\n")


def load_document(path: str) -> dsl.Document:
    doc, source = dsl.parse_file(path)
    if doc is None:
        raise InputError("; ".join(str(d) for d in source.diagnostics))
    return doc


def _pick_theory(doc: dsl.Document, name: str | None):
    if name is not None:
        return doc.theory(name)
    if not doc.theories:
        raise InputError("no theory block in the input")
    return doc.theories[0]


def _pick_sigma(doc: dsl.Document, name: str | None):
    if name is not None:
        return doc.sigma(name)
    if not doc.sigmas:
        raise InputError("no sigma block in the input")
    return doc.sigmas[0]


def _cat_models_for(doc: dsl.Document, theory_name: str, names: list[str] | None):
    if names:
        return [(n, doc.cat_model(n, of=theory_name)) for n in names]
    return [(m.name, doc.cat_model(m.name)) for m in doc.models
            if m.kind in ("fincat", "moncat") and m.theory == theory_name]


def _at_least_one(flag: str, value: int) -> None:
    if value < 1:
        raise InputError(f"{flag} must be at least 1, got {value}")


# -- subcommand handlers --------------------------------------------------------------------

def cmd_check_theory(args, doc):
    # A theory that parses is valid: ``dsl`` types its cell equations.
    verdicts = [{"name": t.base.name, "verdict": "Valid", "detail": None}
                for t in doc.theories]
    failed = False
    for m in doc.models:
        try:
            if m.kind == "finset":
                doc.finset_model(m.name)
                detail = None
            else:  # the lookup checks all but the cell equations
                detail = _jsonable(catmodels.validate_cat_model(doc.cat_model(m.name))) or None
        except dsl.ModelViolation as e:
            detail = _jsonable(e.problems) or str(e)
        verdicts.append({"name": m.name, "verdict": "Valid" if detail is None else "Invalid",
                         "detail": detail})
        failed = failed or detail is not None
    return (EXIT_FAILED if failed else EXIT_OK), verdicts, []


def cmd_commutative(args, doc):
    _at_least_one("--max-size", args.max_size)
    theory2 = _pick_theory(doc, args.theory)
    base = theory2.base
    witnesses = []
    if args.mode == "syntactic":
        report = theory.check_commutative(base, model_bound=args.max_size)
        verdicts = [{"name": base.name, "verdict": report.verdict, "detail": None}]
        for a, b, v in report.pairs:
            verdicts.append({"name": f"({a},{b})", "verdict": type(v).__name__,
                             "detail": None})
            if isinstance(v, theory.NotEqual):
                witnesses.append({"pair": [a, b], "model_size": v.model.size,
                                  "tables": _jsonable(dict(v.model.tables)),
                                  "input": list(v.witness)})
        code = {"Commutative": EXIT_OK, "NotCommutative": EXIT_FAILED,
                "Inconclusive": EXIT_INCONCLUSIVE}[report.verdict]
        return code, verdicts, witnesses
    verdicts = []
    failed = False
    for size in range(1, args.max_size + 1):
        for model in base.models(size):
            sem = finset.semantic_commutativity_check(model)
            if sem.verdict != "Passes":
                failed = True
                a, b, env = sem.witness
                witnesses.append({"pair": [a, b], "model_size": model.size,
                                  "tables": _jsonable(dict(model.tables)),
                                  "matrix": list(env)})
                verdicts.append({"name": f"size-{size}", "verdict": "Fails",
                                 "detail": None})
                break
        if failed:
            break
    if not failed:
        verdicts.append({"name": base.name, "verdict": "Passes",
                         "detail": f"all models up to size {args.max_size}"})
    return (EXIT_FAILED if failed else EXIT_OK), verdicts, witnesses


def _check_sigma(args, doc):
    """The picked table with its theory and probes, and its sigma-check outcome."""
    for_theory, sigma = _pick_sigma(doc, args.sigma)
    theory2 = doc.theory(for_theory)
    probes = [m for _, m in _cat_models_for(doc, for_theory, args.models)]
    if not probes:
        raise InputError("no probe models available")
    report = cells.check_sigma_coherence(theory2, sigma, probes)
    verdicts = [{"name": sigma.name, "verdict": report.verdict,
                 "detail": f"{report.checked} instances on {len(probes)} probes"}]
    witnesses = [{"check": i.check, "detail": i.detail, "verdict": _jsonable(i.verdict)}
                 for i in report.issues]
    code = EXIT_OK if report.verdict == "Coherent" else EXIT_FAILED
    return (theory2, sigma, probes), (code, verdicts, witnesses)


def cmd_sigma_check(args, doc):
    return _check_sigma(args, doc)[1]


def cmd_assoc_derived(args, doc):
    """An incoherent table gets its sigma-check verdict and witnesses."""
    (theory2, sigma, probes), coherence = _check_sigma(args, doc)
    if coherence[0] != EXIT_OK:
        return coherence
    report = cells.derived_associativity_check(theory2, sigma, probes)
    verdicts = [{"name": sigma.name, "verdict": report.verdict,
                 "detail": f"{report.checked} triples"}]
    witnesses = [{"check": i.check, "detail": i.detail} for i in report.issues]
    return (EXIT_OK if report.verdict == "Coherent" else EXIT_FAILED), verdicts, witnesses


def cmd_yang_baxter(args, doc):
    model_name, tensor, braiding = args.model, args.tensor, args.braiding
    if model_name is None:
        for kind, cargs in doc.checks:
            if kind == "yang_baxter":
                if len(cargs) != 3:
                    raise InputError("check yang_baxter takes a model, a tensor and a braiding")
                model_name, tensor, braiding = cargs
                break
    if model_name is None:
        raise InputError("no model given and no yang_baxter directive found")
    model = doc.cat_model(model_name)
    report = cells.yang_baxter_check(model, tensor, braiding)
    verdicts = [{"name": model_name, "verdict": report.verdict,
                 "detail": f"{report.triples_checked} triples"}]
    witnesses = [{"check": i.check, "triple": list(i.triple)} for i in report.issues]
    return (EXIT_OK if report.verdict == "Holds" else EXIT_FAILED), verdicts, witnesses


def cmd_models(args, doc):
    theory2 = _pick_theory(doc, args.theory)
    _at_least_one("--size", args.size)
    _at_least_one("--max-size", args.max_size)
    if args.size > args.max_size:
        raise EnumerationBound(f"size {args.size} exceeds bound {args.max_size}")
    models = list(theory2.base.models(args.size))
    verdicts = [{"name": f"{theory2.base.name}/size-{args.size}",
                 "verdict": str(len(models)),
                 "detail": None}]
    witnesses = [{"tables": _jsonable(dict(m.tables))} for m in models]
    return EXIT_OK, verdicts, witnesses


def cmd_homs(args, doc):
    source = doc.finset_model(args.source)
    target = doc.finset_model(args.target, of=source.theory.name)
    homs = finset.enumerate_homs(source, target)
    verdicts = [{"name": f"{args.source}->{args.target}", "verdict": str(len(homs)),
                 "detail": None}]
    witnesses = [{"mapping": list(h.mapping)} for h in homs]
    return EXIT_OK, verdicts, witnesses


def _intalg_like(args, doc, colax: bool):
    model = doc.cat_model(args.model)
    cat = catmodels.internal_coalgebras(model) if colax else catmodels.internal_algebras(model)
    kind = "IntCoalg" if colax else "IntAlg"
    verdicts = [{"name": f"{kind}({args.model})",
                 "verdict": str(cat.cat.n_objects),
                 "detail": f"{cat.cat.n_arrows} arrows"}]
    witnesses = [_jsonable(catmodels.algebra_view(h)) for h in cat.objects]
    return EXIT_OK, verdicts, witnesses


def cmd_intalg(args, doc):
    return _intalg_like(args, doc, colax=False)


def cmd_intcoalg(args, doc):
    return _intalg_like(args, doc, colax=True)


def cmd_intbialg(args, doc):
    for_theory, sigma = _pick_sigma(doc, args.sigma)
    model = doc.cat_model(args.model, of=for_theory)
    cat, pairs = multimaps.internal_bialgebras(model, sigma)
    verdicts = [{"name": f"IntBialg({args.model})",
                 "verdict": str(cat.cat.n_objects),
                 "detail": f"{cat.cat.n_arrows} arrows"}]
    witnesses = [{"object": a.point()} for a, _ in pairs]
    return EXIT_OK, verdicts, witnesses


def cmd_convolve(args, doc):
    model = doc.cat_model(args.model)
    algs = catmodels.internal_algebras(model).objects
    coalgs = catmodels.internal_coalgebras(model).objects
    if not algs or not coalgs:
        return EXIT_FAILED, [{"name": args.model, "verdict": "NoAlgebras",
                              "detail": None}], []
    for flag, index, found, kind in (("--algebra", args.algebra, algs, "algebras"),
                                     ("--coalgebra", args.coalgebra, coalgs, "coalgebras")):
        if not 0 <= index < len(found):
            raise InputError(f"{flag} {index} is out of range: {args.model} has "
                             f"{len(found)} internal {kind}, numbered from 0")
    a = algs[args.algebra]
    c = coalgs[args.coalgebra]
    result = catmodels.convolution_algebra(model, a, c)
    if isinstance(result, str):
        return EXIT_FAILED, [{"name": args.model, "verdict": "Fails", "detail": result}], []
    conv, hom = result
    verdicts = [{"name": f"convolution({args.model})", "verdict": "Valid",
                 "detail": f"carrier {conv.size}"}]
    witnesses = [{"tables": _jsonable(dict(conv.tables)), "hom_arrows": list(hom)}]
    return EXIT_OK, verdicts, witnesses


def cmd_hom_internal(args, doc):
    for_theory, sigma = _pick_sigma(doc, args.sigma)
    X = doc.cat_model(args.source, of=for_theory)
    Y = doc.cat_model(args.target, of=for_theory)
    name = f"Hom({args.source},{args.target})"
    result = catmodels.internal_hom(X, Y, sigma, args.weakness)
    if isinstance(result, str):
        return EXIT_FAILED, [{"name": name, "verdict": "Fails", "detail": result}], []
    hom_model, homcat = result
    problems = catmodels.validate_cat_model(hom_model)
    verdicts = [{"name": name,
                 "verdict": "Valid" if not problems else "Invalid",
                 "detail": f"{homcat.cat.n_objects} objects, {homcat.cat.n_arrows} arrows"}]
    witnesses = ([_jsonable(catmodels.algebra_view(h)) for h in homcat.objects]
                 if args.list else [])
    return (EXIT_OK if not problems else EXIT_FAILED), verdicts, witnesses


def cmd_closed_check(args, doc):
    for_theory, sigma = _pick_sigma(doc, args.sigma)
    X, Y, Z = (doc.cat_model(name, of=for_theory) for name in (args.x, args.y, args.z))
    name = f"Mul({args.x},{args.y};{args.z})"
    report = multimaps.closed_check(X, Y, Z, sigma, args.weakness)
    if isinstance(report, str):
        return EXIT_FAILED, [{"name": name, "verdict": "Fails", "detail": report}], []
    verdicts = [{"name": name,
                 "verdict": "Bijection" if report.bijection else "Fails",
                 "detail": f"{report.multimap_count} multimaps, {report.hom_count} homs"}]
    witnesses = [{"issue": i} for i in report.issues]
    return (EXIT_OK if report.bijection else EXIT_FAILED), verdicts, witnesses


def cmd_fox(args, doc):
    for_theory, sigma = _pick_sigma(doc, args.sigma)
    models = _cat_models_for(doc, for_theory, args.models)
    if not models:
        raise InputError("no models available")
    verdicts = []
    witnesses = []
    failed = False
    for r in multimaps.fox_comonad(sigma, models):
        holds = r.counit_underlying and r.counit_functorial and r.coassociativity
        failed = failed or not holds
        verdicts.append({"name": r.model,
                         "verdict": "Holds" if holds else "Fails",
                         "detail": f"delta iso: {r.delta_is_iso}, "
                                   f"|IntAlg| {r.intalg_size} -> {r.double_size}"})
        if r.missing:
            witnesses.append({"model": r.model, "missing_objects": list(r.missing)})
    return (EXIT_FAILED if failed else EXIT_OK), verdicts, witnesses


def cmd_eh(args, doc):
    verdicts = []
    witnesses = []
    failed = False
    if args.dim == 1:
        theory2 = _pick_theory(doc, args.theory)
        report = theory.eh_preconditions_1d(theory2.base)
        verdicts.append({"name": theory2.base.name,
                         "verdict": "Passes" if report.passes else "Fails",
                         "detail": _jsonable(report)})
        failed = not report.passes
        for name in args.models or []:
            model = doc.finset_model(name, of=theory2.base.name)
            probe = finset.eh_uniqueness_probe(theory2.base, model)
            verdicts.append({"name": f"uniqueness({name})",
                             "verdict": "Unique" if probe.unique else "NotUnique",
                             "detail": f"{probe.count} doubled structures"})
            if not probe.unique:
                failed = True
                witnesses.append({"model": name, "count": probe.count})
    else:
        for_theory, sigma = _pick_sigma(doc, args.sigma)
        if args.theory is not None and args.theory != for_theory:
            raise InputError(f"--theory {args.theory} is not the theory of sigma table "
                             f"{sigma.name}, which is for {for_theory}")
        theory2 = doc.theory(for_theory)
        report = multimaps.eckmann_hilton_2d(theory2, sigma)
        verdicts.append({"name": theory2.base.name,
                         "verdict": "Passes" if report.passes else "Fails",
                         "detail": _jsonable(report)})
        failed = not report.passes
        models = _cat_models_for(doc, for_theory, args.models)
        if report.passes and len(models) >= 1:
            for xn, X in models:
                for yn, Y in models:
                    probe = multimaps.eh_local_iso_probe(X, Y, sigma)
                    ok = probe.objects_bijective and probe.arrows_bijective
                    verdicts.append({"name": f"lift({xn},{yn})",
                                     "verdict": "Bijection" if ok else "Fails",
                                     "detail": f"{probe.hom_count} homs, "
                                               f"{probe.lifted_count} lifted"})
                    if not ok:
                        failed = True
                        witnesses.append({"pair": [xn, yn],
                                          "extra_lifts": probe.extra_lifts})
    return (EXIT_FAILED if failed else EXIT_OK), verdicts, witnesses


def cmd_bilax(args, doc):
    for_theory, sigma = _pick_sigma(doc, args.sigma)
    model = doc.cat_model(args.model, of=for_theory)
    algs = catmodels.internal_algebras(model).objects
    coalgs = catmodels.internal_coalgebras(model).objects
    verdicts = []
    witnesses = []
    failed = False
    for i, a in enumerate(algs):
        for j, c in enumerate(coalgs):
            if a.point() != c.point():
                continue
            report = multimaps.bilax_check(a, c, sigma)
            verdicts.append({"name": f"alg{i}/coalg{j}@{a.point()}",
                             "verdict": report.verdict, "detail": None})
            if report.verdict != "Bilax":
                failed = True
                witnesses.append({"pair": [i, j], "issues": list(report.issues)})
    if not verdicts:
        verdicts.append({"name": args.model, "verdict": "NoPairs", "detail": None})
    return (EXIT_FAILED if failed else EXIT_OK), verdicts, witnesses


HANDLERS = {
    "check-theory": cmd_check_theory,
    "commutative": cmd_commutative,
    "sigma-check": cmd_sigma_check,
    "assoc-derived": cmd_assoc_derived,
    "yang-baxter": cmd_yang_baxter,
    "models": cmd_models,
    "homs": cmd_homs,
    "intalg": cmd_intalg,
    "intcoalg": cmd_intcoalg,
    "intbialg": cmd_intbialg,
    "convolve": cmd_convolve,
    "hom-internal": cmd_hom_internal,
    "closed-check": cmd_closed_check,
    "fox": cmd_fox,
    "eh": cmd_eh,
    "bilax": cmd_bilax,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lawkit", description="verification toolkit for presented theories")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--no-timings", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **extra):
        p = sub.add_parser(name)
        p.add_argument("file")
        for flag, kwargs in extra.items():
            p.add_argument(flag, **kwargs)
        return p

    add("check-theory")
    add("commutative",
        **{"--theory": dict(default=None),
           "--mode": dict(choices=("syntactic", "semantic"), default="syntactic"),
           "--max-size": dict(type=int, default=4)})
    add("sigma-check", **{"--sigma": dict(default=None),
                          "--models": dict(nargs="*", default=None)})
    add("assoc-derived", **{"--sigma": dict(default=None),
                            "--models": dict(nargs="*", default=None)})
    add("yang-baxter", **{"--model": dict(default=None),
                          "--tensor": dict(default="m"),
                          "--braiding": dict(default="b")})
    add("models", **{"--theory": dict(default=None),
                     "--size": dict(type=int, required=True),
                     "--max-size": dict(type=int, default=4)})
    add("homs", **{"--source": dict(required=True), "--target": dict(required=True)})
    add("intalg", **{"--model": dict(required=True)})
    add("intcoalg", **{"--model": dict(required=True)})
    add("intbialg", **{"--model": dict(required=True), "--sigma": dict(default=None)})
    add("convolve", **{"--model": dict(required=True),
                       "--algebra": dict(type=int, default=0),
                       "--coalgebra": dict(type=int, default=0)})
    add("hom-internal", **{"--source": dict(required=True),
                           "--target": dict(required=True),
                           "--sigma": dict(default=None),
                           "--weakness": dict(choices=WEAKNESSES, default="lax"),
                           "--list": dict(action="store_true")})
    add("closed-check", **{"--x": dict(required=True), "--y": dict(required=True),
                           "--z": dict(required=True), "--sigma": dict(default=None),
                           "--weakness": dict(choices=WEAKNESSES, default="lax")})
    add("fox", **{"--sigma": dict(default=None), "--models": dict(nargs="*", default=None)})
    add("eh", **{"--dim": dict(type=int, choices=(1, 2), default=2),
                 "--theory": dict(default=None), "--sigma": dict(default=None),
                 "--models": dict(nargs="*", default=None)})
    add("bilax", **{"--model": dict(required=True), "--sigma": dict(default=None)})
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first ``run`` of a process."""
    return build_parser()


def run(argv: list[str], out=sys.stdout) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return EXIT_INPUT
    start = time.monotonic()
    try:
        doc = load_document(args.file)
        code, verdicts, witnesses = HANDLERS[args.command](args, doc)
    except InputError as e:
        report = make_report(args.command, [], [{"name": "input", "verdict": "Error",
                                                 "detail": str(e)}], [], None)
        emit_report(report, args.format, out)
        return EXIT_INPUT
    except EnumerationBound as e:
        report = make_report(args.command, [args.file],
                             [{"name": "bounds", "verdict": "Inconclusive",
                               "detail": str(e)}], [], None)
        emit_report(report, args.format, out)
        return EXIT_INCONCLUSIVE
    timings = None if args.no_timings else {"elapsed_s": time.monotonic() - start}
    report = make_report(args.command, [args.file], verdicts, witnesses, timings)
    emit_report(report, args.format, out)
    return code


def main() -> None:
    try:
        code = run(sys.argv[1:])
    except Exception:
        # Printed as Python prints an uncaught exception; Python's own exit
        # code, 1, would pose as a failed check.
        sys.excepthook(*sys.exc_info())
        code = EXIT_BUG
    sys.exit(code)


if __name__ == "__main__":
    main()
