"""The benchmark workloads: op lists, warm-up ops and output checks.

A workload runs in cycles.  One cycle is a fixed list of ops, each a
`sigspace` argv plus the SIGSPACE_THREADS value to run it under; the
cycle's composition never changes, only the seeds and targets do.  Each
check returns a list of failure messages (empty when the op is correct)
and is run outside the timed region.
"""
from __future__ import annotations

import json
import math
import os
import statistics
from dataclasses import dataclass, field

import numpy as np

import inputs

SIGMA_LIMIT = 5.0
DEFORM_CENTER_TOL = 1e-9
PROJECTIVE_TOL = 1e-12


@dataclass
class Op:
    kind: str
    argv: list
    threads: str | None = None  # SIGSPACE_THREADS for this op; None keeps the environment
    report: str | None = None   # report file; None means the report goes to stdout
    work: int = 0               # samples (mc) or grid points (deform)
    info: dict = field(default_factory=dict)


def load_report(op: Op, stdout: str) -> dict:
    if op.report is None:
        return json.loads(stdout)
    with open(op.report, "r", encoding="utf-8") as handle:
        return json.load(handle)


def comparable(op: Op, stdout: str) -> bytes:
    """The op's outputs without `meta` and the suite's per-criterion runtime_s."""
    report = load_report(op, stdout)
    report.pop("meta", None)
    results = report.get("results")
    if isinstance(results, dict):
        for crit in results.get("criteria", []):
            crit.pop("runtime_s", None)
    blob = json.dumps(report, sort_keys=True).encode()
    if op.kind == "deform":
        with open(op.info["out"], "rb") as handle:
            blob += handle.read()
    return blob


def _envelope_failures(rc: int, report: dict) -> list[str]:
    failures = []
    if rc != 0:
        failures.append(f"exit code {rc}")
    if report.get("pass") is not True:
        failed = [c["name"] for c in report.get("checks", []) if not c.get("passed")]
        failures.append(f"report pass is not true (failed checks: {failed})")
    return failures


class MC:
    """`sigspace mc` and `invariance` for n = 1..4 at SIGSPACE_THREADS unset and 2."""

    name = "mc"
    setup_repeats = 3

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.configs = inputs.write_mc(seed, workdir)
        self._serial = {}

    def warmup(self) -> Op:
        return self._op("mc", 4, inputs.sub_seed(self.seed, 99), "2", "warmup")

    def _op(self, command: str, n: int, seed: int, threads: str | None, tag: str) -> Op:
        report = os.path.join(self.workdir, f"report_{command}_n{n}_{tag}.json")
        samples = inputs.MC_SAMPLES * (2 if command == "invariance" else 1)
        return Op(
            kind=f"{command}.{'t2' if threads else 'default'}",
            argv=[command, "--config", self.configs[n]["path"], "--seed", str(seed),
                  "--samples", str(inputs.MC_SAMPLES), "--out", report],
            threads=threads,
            report=report,
            work=samples,
            info={"n": n, "command": command, "pair": (command, n, seed)},
        )

    def cycle(self, index: int) -> list[Op]:
        ops = []
        for n in inputs.MC_SIGNATURES:
            for c, command in enumerate(("mc", "invariance")):
                seed = inputs.sub_seed(self.seed, 2, index, n, c)
                ops.append(self._op(command, n, seed, None, "default"))
                ops.append(self._op(command, n, seed, "2", "t2"))
        return ops

    def check(self, op: Op, rc: int, report: dict) -> list[str]:
        failures = _envelope_failures(rc, report)
        if failures:
            return failures
        results = report["results"]
        ref, ref_err = self.configs[op.info["n"]]["reference"]
        pairs = [("estimate", "std_error")]
        if op.info["command"] == "invariance":
            pairs.append(("moved_estimate", "moved_std_error"))
        for key, err_key in pairs:
            sigmas = abs(results[key] - ref) / math.hypot(results[err_key], ref_err)
            if not sigmas <= SIGMA_LIMIT:
                failures.append(f"{key} {results[key]!r} is {sigmas:.2f} sigma from reference {ref!r}")
        if op.threads is None:
            self._serial[op.info["pair"]] = results
        elif op.info["pair"] in self._serial:
            if self._serial.pop(op.info["pair"]) != results:
                failures.append("2-thread results differ from the serial run with the same seed")
        return failures

    def summary(self, records) -> list[tuple]:
        lines = []
        for tag in ("default", "t2"):
            recs = [r for r in records if r.op.kind.endswith("." + tag)]
            total = sum(r.seconds for r in recs)
            if total > 0:
                lines.append((f"mc_samples_per_s.{tag}", sum(r.op.work for r in recs) / total,
                              "samples/s", len(recs)))
        return lines


class Suite:
    """`sigspace suite --seed s`, a distinct seed per op."""

    name = "suite"
    setup_repeats = 1

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.budget_misses = 0
        self.numeric_failures = 0

    def _op(self, seed: int) -> Op:
        report = os.path.join(self.workdir, "report_suite.json")
        return Op(kind="suite", argv=["suite", "--seed", str(seed), "--out", report], report=report)

    def warmup(self) -> Op:
        return self._op(inputs.sub_seed(self.seed, 99))

    def cycle(self, index: int) -> list[Op]:
        return [self._op(inputs.sub_seed(self.seed, 3, index))]

    def check(self, op: Op, rc: int, report: dict) -> list[str]:
        failures = []
        if rc != 0:
            failures.append(f"exit code {rc}")
        results = report.get("results", {})
        if results.get("all_passed") is not True:
            failures.append("all_passed is not true")
        for crit in results.get("criteria", []):
            if crit["passed"]:
                continue
            if crit["runtime_s"] >= crit["runtime_budget_s"]:
                self.budget_misses += 1
                failures.append(f"criterion {crit['index']} missed its {crit['runtime_budget_s']} s budget")
            else:
                self.numeric_failures += 1
                failures.append(f"criterion {crit['index']} failed on numbers")
        return failures

    def summary(self, records) -> list[tuple]:
        times = [r.seconds for r in records]
        return [
            ("suite_p50_s", statistics.median(times), "s", len(times)),
            ("acceptance.numeric_failures", self.numeric_failures, "count", len(times)),
            ("acceptance.budget_misses", self.budget_misses, "count", len(times)),
        ]


class Fields:
    """Alternating `sigspace deform` and `sigspace projective-demo` ops."""

    name = "fields"
    setup_repeats = 3

    def setup(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.grids = inputs.write_fields(seed, workdir)
        self._targets = {}

    def _deform(self, grid: dict, target_index: int) -> Op:
        target = grid["targets"][target_index % len(grid["targets"])]
        out = os.path.join(self.workdir, f"deformed_d{grid['dim']}.json")
        return Op(
            kind="deform",
            argv=["deform", "--grid", grid["path"], "--center", "0", "--target", target, "--out", out],
            work=grid["points"],
            info={"grid": grid, "target": target, "out": out},
        )

    def _projective(self, points: int, dim: int, seed: int) -> Op:
        report = os.path.join(self.workdir, f"report_projective_{points}x{dim}.json")
        return Op(
            kind="projective",
            argv=["projective-demo", "--points", str(points), "--dim", str(dim),
                  "--seed", str(seed), "--out", report],
            report=report,
        )

    def warmup(self) -> Op:
        return self._deform(self.grids[1], 0)

    def cycle(self, index: int) -> list[Op]:
        ops = []
        for k, (grid, (points, dim)) in enumerate(zip(self.grids, inputs.PROJECTIVE_SHAPES)):
            ops.append(self._deform(grid, index))
            ops.append(self._projective(points, dim, inputs.sub_seed(self.seed, 4, index, k)))
        return ops

    def _target(self, path: str) -> np.ndarray:
        if path not in self._targets:
            with open(path, "r", encoding="utf-8") as handle:
                self._targets[path] = np.asarray(json.load(handle)["entries"])
        return self._targets[path]

    def check(self, op: Op, rc: int, report: dict) -> list[str]:
        failures = _envelope_failures(rc, report)
        if failures:
            return failures
        if op.kind == "projective":
            residuals = report["results"]["residuals"]
            failures += [f"residual {k} = {v!r} > {PROJECTIVE_TOL}"
                         for k, v in residuals.items() if not v <= PROJECTIVE_TOL]
            if residuals.get("tower") != 0.0:
                failures.append(f"tower residual {residuals.get('tower')!r} is not exactly 0")
            return failures
        from sigspace.field import MetricFieldGrid

        grid = op.info["grid"]
        with open(op.info["out"], "r", encoding="utf-8") as handle:
            data = json.load(handle)
        deformed = MetricFieldGrid.from_dict(data)  # revalidates every point's signature
        if tuple(deformed.signature) != grid["signature"]:
            failures.append(f"deformed grid declares {tuple(deformed.signature)}, expected {grid['signature']}")
        by_id = {p["id"]: p for p in data["points"]}
        if sorted(by_id) != list(range(grid["points"])):
            failures.append(f"deformed grid has ids other than 0..{grid['points'] - 1}")
            return failures
        q = np.array([by_id[k]["q"] for k in range(grid["points"])])
        center = float(np.max(np.abs(q[0] - self._target(op.info["target"]))))
        if not center <= DEFORM_CENTER_TOL:
            failures.append(f"center residual {center!r} > {DEFORM_CENTER_TOL}")
        exterior = np.einsum("ij,ij->i", grid["y"], grid["y"]) >= 1.0
        changed = int(np.sum(np.any(q[exterior] != grid["q"][exterior], axis=(1, 2))))
        if changed:
            failures.append(f"{changed} exterior points changed")
        return failures

    def summary(self, records) -> list[tuple]:
        deform = [r for r in records if r.op.kind == "deform"]
        projective = [r.seconds for r in records if r.op.kind == "projective"]
        return [
            ("deform_points_per_s", sum(r.op.work for r in deform) / sum(r.seconds for r in deform),
             "points/s", len(deform)),
            ("projective_p50_s", statistics.median(projective), "s", len(projective)),
        ]


WORKLOADS = {w.name: w for w in (MC, Suite, Fields)}
