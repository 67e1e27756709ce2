"""Command-line front end: experiments in, JSON reports out.

Reports are deterministic for a fixed argv and seed; the only varying
fields live under "meta" (timestamp and wall time), which golden-file
comparisons drop.  Exit codes: 0 all checks passed, 1 a contract check
failed, 2 malformed input (with a machine-readable error object).

``deform`` and ``projective-demo`` compute no residual of their own: they
call the library checks the acceptance battery also calls
(``field.deformation_residuals``, ``projective.embedding_residuals``,
``tower_residual`` and ``net_residual``) and judge them by their own
contracts.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import acceptance
from .errors import SigspaceError
from .field import MetricFieldGrid, deform_metric_field, deformation_residuals
from .forms import SymmetricForm, signature_of
from .geometry import (
    deformed_metric,
    metric_components,
    metric_signature,
    one_form_components,
    qinv_alpha_alpha,
)
from .group import GroupElement, act, transitive_witness
from .measure import BoxDomain, density, density_closed_form, invariance_experiment, mc_integrate, radial_bump
from .projective import (
    Label,
    TensorSpace,
    embedding_residuals,
    net_residual,
    pure_state_net,
    random_observable,
    random_state,
    random_state_field,
    rescale_isomorphism_check,
    tower_residual,
)


def _threads() -> int | None:
    raw = os.environ.get("SIGSPACE_THREADS")
    return max(1, int(raw)) if raw else None


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _load_form(path: str) -> SymmetricForm:
    return SymmetricForm.from_dict(_load_json(path))


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _check(name: str, value: float, tolerance: float) -> dict:
    return {
        "name": name,
        "value": float(value),
        "tolerance": float(tolerance),
        "passed": bool(abs(value) <= tolerance),
    }


def _integrand_from_config(spec: dict):
    kind = spec.get("type")
    if kind == "one":
        return lambda coords: np.ones(len(coords))
    if kind == "coordinate":
        index = int(spec["index"])
        return lambda coords: np.asarray(coords)[:, index]
    if kind == "bump":
        return radial_bump(spec["center"], float(spec["radius"]))
    raise ValueError(f"unknown integrand type {kind!r}")


def _cmd_signature(args):
    form = _load_form(args.infile)
    sig = signature_of(form, method=args.method)
    return {"signature": [sig.p, sig.p_prime]}, []


def _cmd_metric(args):
    form = _load_form(args.infile)
    Q = metric_components(form) if args.a == 0.0 else deformed_metric(form, args.a)
    sig = (
        metric_signature(form)
        if args.a == 0.0
        else signature_of(SymmetricForm(Q.components), method="eigen")
    )
    alpha = one_form_components(form)
    qaa = qinv_alpha_alpha(form)
    results = {
        "Q": Q.components.tolist(),
        "signature": [sig.p, sig.p_prime],
        "alpha": alpha.components.tolist(),
        "qinv_alpha_alpha": qaa,
    }
    checks = [_check("qinv_alpha_alpha_equals_dim", (qaa - form.n) / form.n, 1e-8)]
    return results, checks


def _cmd_density(args):
    form = _load_form(args.infile)
    value = density(form).value
    checks = []
    if form.n <= 2:
        printed = density_closed_form(form).value
        checks.append(_check("closed_form_agreement", (value - printed) / printed, 1e-10))
    return {"density": value}, checks


def _cmd_witness(args):
    source = _load_form(args.src)
    target = _load_form(args.dst)
    g = transitive_witness(source, target, positive_det=args.positive_det)
    residual = float(np.max(np.abs(act(g, source).entries - target.entries)))
    scale = max(1.0, float(np.max(np.abs(target.entries))))
    return (
        {"g": g.entries.tolist(), "residual": residual},
        [_check("witness_residual", residual / scale, args.tol)],
    )


def _mc_pieces(config: dict, args):
    box = BoxDomain.from_dict(config["box"])
    f = _integrand_from_config(config["integrand"])
    seed = args.seed if args.seed is not None else int(config.get("seed", 0))
    n_samples = args.samples if args.samples is not None else int(config.get("n_samples", 100_000))
    return box, f, seed, n_samples


def _cmd_mc(args):
    config = _load_json(args.config)
    box, f, seed, n_samples = _mc_pieces(config, args)
    est = mc_integrate(f, box, seed, n_samples, vectorized=True, threads=_threads())
    results = {
        "estimate": est.value,
        "std_error": est.std_error,
        "n_samples": est.n_samples,
        "acceptance_rate": est.acceptance_rate,
    }
    if args.csv:
        sweep = []
        n = 1000
        while n < n_samples:
            sweep.append(n)
            n *= 2
        sweep.append(n_samples)
        with open(args.csv, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["n_samples", "estimate", "std_error", "acceptance_rate"])
            for n in sweep:
                e = mc_integrate(f, box, seed, n, vectorized=True, threads=_threads())
                writer.writerow([n, repr(e.value), repr(e.std_error), repr(e.acceptance_rate)])
        results["csv"] = args.csv
    return results, []


def _cmd_invariance(args):
    config = _load_json(args.config)
    box, f, seed, n_samples = _mc_pieces(config, args)
    g = GroupElement(np.asarray(config["g"], dtype=float))
    report = invariance_experiment(
        f, g, box, seed, n_samples, vectorized=True, threads=_threads()
    )
    results = {
        "estimate": report.lhs.value,
        "moved_estimate": report.rhs.value,
        "std_error": report.lhs.std_error,
        "moved_std_error": report.rhs.std_error,
        "difference": report.difference,
        "combined_std_error": report.combined_std_error,
        "difference_sigmas": report.difference_sigmas,
    }
    return results, [_check("difference_sigmas", report.difference_sigmas, 3.0)]


def _cmd_deform(args):
    grid = MetricFieldGrid.from_dict(_load_json(args.grid))
    target = _load_form(args.target)
    deformed = deform_metric_field(grid, args.center, target)
    center_residual, exterior_changed = deformation_residuals(grid, deformed, args.center, target)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(deformed.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    results = {
        "out": args.out,
        "center_residual": center_residual,
        "exterior_points_changed": exterior_changed,
        "signature": list(deformed.signature),
    }
    checks = [
        _check("center_residual", center_residual, args.tol),
        _check("exterior_points_changed", float(exterior_changed), 0.0),
    ]
    return results, checks


def _cmd_projective_demo(args):
    if args.points < 3:
        raise ValueError(f"--points must be at least 3 for the tower check, got {args.points}")
    rng = np.random.default_rng(args.seed)
    points = list(range(1, args.points + 1))
    dims = {k: args.dim for k in points}
    chain = [Label(points[:k]) for k in points]
    lam, lam_prime = chain[-2], chain[-1]
    space = TensorSpace(lam, dims)
    a = random_observable(space, rng)
    b = random_observable(space, rng)
    rho = random_state(TensorSpace(lam_prime, dims), rng)
    residuals = embedding_residuals(a, b, rho, dims)
    residuals["tower"] = tower_residual(rho, chain[:2])
    residuals["net_consistency"] = net_residual(pure_state_net(random_state_field(dims, rng), chain))
    residuals["rescale"] = rescale_isomorphism_check(args.rescale_c, a, lam, lam_prime, dims)
    checks = [_check(name, value, 1e-12) for name, value in residuals.items()]
    return {"residuals": residuals, "dims": dims, "rescale_c": args.rescale_c}, checks


def _cmd_suite(args):
    results = acceptance.run_suite(seed=args.seed)
    for result in results:
        print(result.line(), file=sys.stderr)
    all_passed = all(r.passed for r in results)
    payload = {
        "criteria": [
            {
                "index": r.index,
                "name": r.name,
                "passed": r.passed,
                "numeric_passed": r.numeric_passed,
                "within_budget": r.within_budget,
                "runtime_s": r.runtime_s,
                "runtime_budget_s": r.runtime_budget_s,
                "details": r.details,
            }
            for r in results
        ],
        "all_passed": all_passed,
    }
    checks = [
        {"name": f"criterion_{r.index}", "value": float(not r.passed), "tolerance": 0.0,
         "passed": r.passed}
        for r in results
    ]
    return payload, checks


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigspace",
        description="Invariant geometry and measures on spaces of scalar products",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("signature", help="signature of a form")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--method", choices=["auto", "minors", "eigen"], default="auto")
    p.add_argument("--out")

    p = sub.add_parser("metric", help="natural metric, one-form, and invariants")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--out")

    p = sub.add_parser("density", help="invariant measure density")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")

    p = sub.add_parser("witness", help="group element mapping one form to another")
    p.add_argument("--from", dest="src", required=True)
    p.add_argument("--to", dest="dst", required=True)
    p.add_argument("--positive-det", action="store_true")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out")

    p = sub.add_parser("mc", help="Monte-Carlo integral against the invariant measure")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--csv", help="write a sample-doubling convergence sweep")
    p.add_argument("--out")

    p = sub.add_parser("invariance", help="compare int f dmu with int f o g dmu")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--out")

    p = sub.add_parser("deform", help="deform a metric field to hit a target at its center")
    p.add_argument("--grid", required=True)
    p.add_argument("--center", type=int, required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("projective-demo", help="residual report for the projective identities")
    p.add_argument("--points", type=int, default=3)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--rescale-c", dest="rescale_c", type=float, default=2.0)
    p.add_argument("--out")

    p = sub.add_parser("suite", help="run the full acceptance battery")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out")

    return parser


_COMMANDS = {
    "signature": _cmd_signature,
    "metric": _cmd_metric,
    "density": _cmd_density,
    "witness": _cmd_witness,
    "mc": _cmd_mc,
    "invariance": _cmd_invariance,
    "deform": _cmd_deform,
    "projective-demo": _cmd_projective_demo,
    "suite": _cmd_suite,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    report_out = getattr(args, "out", None)
    if args.command == "deform":
        report_out = None  # --out is the deformed grid; the report goes to stdout
    started = time.perf_counter()
    try:
        results, checks = _COMMANDS[args.command](args)
    except (SigspaceError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, report_out)
        return 2
    passed = all(c["passed"] for c in checks)
    report = {
        "task": args.command,
        "inputs": {k: v for k, v in vars(args).items() if k != "command" and v is not None},
        "results": results,
        "checks": checks,
        "pass": passed,
        "meta": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "wall_time_s": time.perf_counter() - started,
        },
    }
    _emit(report, report_out)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
