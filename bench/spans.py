"""Span tracing of sigspace's module layers, from outside the package.

`Tracer.install()` replaces module attributes that callers look up at call
time (functions bound by `from .x import f` in any sigspace module, and
`__init__`/`__post_init__` of a few classes) with wrappers that record a
span per call: name, start, end, parent span, thread and op id.  Nothing
under src/ is edited; `uninstall()` puts every original back.  Private
names are wrapped only for kernels without a public entry point: the
signature filter, the density batch and the per-chunk sums.

Self time is a span's duration minus the time its same-thread child spans
cover.  A span opened on a worker thread with nothing open on that thread
takes the innermost open main-thread span as its parent.
"""
from __future__ import annotations

import collections
import itertools
import json
import os
import statistics
import sys
import threading
from time import perf_counter

LAYERS = ("packing", "forms", "group", "geometry", "measure", "field", "projective", "acceptance", "cli")


class Tracer:
    def __init__(self):
        self.spans = {}  # id -> (name, start, end, parent, thread, op)
        self.notes = {}  # id -> dict of per-call facts (sizes, counts)
        self.counters = collections.Counter()
        self.op_id = None
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, note=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = next(self._ids)
        stack.append(span)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans[span] = (name, start, end, parent, threading.get_ident(), self.op_id)
        if note is not None:
            self.notes[span] = note(args, kwargs, result)
        return result

    def count(self, key: str, amount=1) -> None:
        with self._lock:
            self.counters[key] += amount

    # -- installation ------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _rebind(self, original, new) -> None:
        """Point every sigspace module attribute bound to ``original`` at ``new``."""
        for module_name, module in list(sys.modules.items()):
            if module_name == "sigspace" or module_name.startswith("sigspace."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, new)

    def wrap_function(self, original, name: str, note=None, post=None) -> None:
        def wrapper(*args, **kwargs):
            result = self.call(name, original, args, kwargs, note)
            if post is not None:
                result = post(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        self._rebind(original, wrapper)

    def wrap_method(self, cls, attr: str, name: str, note=None) -> None:
        original = cls.__dict__[attr]

        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs, note)

        self._replace(cls, attr, wrapper)

    def install(self) -> None:
        import json as json_module

        from sigspace import acceptance, cli, field, forms, geometry, group, measure, packing, projective

        def path_counter(args, kwargs, path):
            def counted(u):
                self.count("group.path_evals")
                return path(u)

            return counted

        def moved_points(args, kwargs, result):
            before = args[0].points
            moved = sum(1 for a, b in zip(before, result.points) if a is not b)
            self.count("field.points_moved", moved)
            self.count("field.points_untouched", len(before) - moved)

        def batch_bytes(args, kwargs, result):
            m, n = args[0].shape[0], args[0].shape[-1]
            N = n * (n + 1) // 2
            # inverse, the N products gamma^-1 E_I, Q and its symmetrisation
            self.count("measure.density_batch.bytes_computed", 8 * m * (n * n + N * n * n + 2 * N * N))

        def chunk_note(args, kwargs, result):
            return {"count": args[4], "accepted": result[2]}

        def mc_note(args, kwargs, result):
            box = args[1] if len(args) > 1 else kwargs["box"]
            return {"n": box.n, "threads": max(1, kwargs.get("threads") or 1)}

        def matrix_bytes(nbytes):
            def note(args, kwargs, result):
                with self._lock:
                    peak = self.counters["projective.peak_matrix_bytes"]
                    self.counters["projective.peak_matrix_bytes"] = max(peak, nbytes(args, result))

            return note

        self.wrap_function(packing.unpack, "packing.unpack")
        self.wrap_function(packing.congruence_jacobian, "packing.congruence_jacobian")
        self.wrap_method(forms.SymmetricForm, "__init__", "forms.SymmetricForm")
        self.wrap_function(forms.signature_of, "forms.signature_of")
        self.wrap_function(forms.inverse_form, "forms.inverse_form")
        self.wrap_function(group.gl_plus_path, "group.gl_plus_path", post=path_counter)
        self.wrap_function(group.transitive_witness, "group.transitive_witness")
        self.wrap_function(group.action_jacobian, "group.action_jacobian")
        self.wrap_function(geometry.metric_components, "geometry.metric_components")
        self.wrap_function(geometry._metric_from_inverse, "geometry.metric_from_inverse")
        self.wrap_function(measure._signature_mask, "measure.signature_filter")
        self.wrap_function(measure._density_batch, "measure.density_batch", note=batch_bytes)
        self.wrap_function(measure._chunk_sums, "measure.chunk", note=chunk_note)
        self.wrap_function(measure.mc_integrate, "measure.mc_integrate", note=mc_note)
        self.wrap_function(measure.density, "measure.density")
        self.wrap_function(field.deform_metric_field, "field.deform_metric_field", note=moved_points)
        self.wrap_method(field.MetricFieldGrid, "__post_init__", "field.MetricFieldGrid")
        self.wrap_function(field.field_density_at, "field.field_density_at")
        self.wrap_function(projective.embed_observable, "projective.embed_observable",
                           note=matrix_bytes(lambda args, result: result.matrix.nbytes))
        self.wrap_function(projective.restrict_state, "projective.restrict_state",
                           note=matrix_bytes(lambda args, result: args[0].matrix.nbytes))
        self.wrap_method(projective.StateDensity, "__init__", "projective.StateDensity",
                         note=matrix_bytes(lambda args, result: args[0].matrix.nbytes))
        self._wrap_cli(cli, json_module)
        self._wrap_acceptance(acceptance)

    def _wrap_cli(self, cli, json_module) -> None:
        original_emit = cli._emit

        def emit(payload, out):
            before = None if out else sys.stdout.tell()
            result = self.call("cli.emit", original_emit, (payload, out), {})
            self.count("cli.emit.bytes", os.path.getsize(out) if out else sys.stdout.tell() - before)
            return result

        def dump(obj, handle, **kwargs):
            before = handle.tell()
            result = self.call("cli.emit", json_module.dump, (obj, handle), kwargs)
            self.count("cli.emit.bytes", handle.tell() - before)
            return result

        class JsonWithTracedDump:
            """The json module as cli sees it, with `dump` (the grid writer) traced."""

            def __getattr__(self, attr):
                return getattr(json_module, attr)

        proxy = JsonWithTracedDump()
        proxy.dump = dump
        self._replace(cli, "json", proxy)
        self._rebind(original_emit, emit)
        self.wrap_function(cli._load_json, "cli.load")

    def _wrap_acceptance(self, acceptance) -> None:
        original = acceptance._timed

        def timed(index, name, budget_s, fn, seed):
            numeric = []

            def run(rng):
                passed, details = fn(rng)
                numeric.append(passed)
                return passed, details

            result = self.call(f"acceptance.criterion_{index}", original,
                               (index, name, budget_s, run, seed), {})
            if numeric and numeric[0] and not result.passed:
                self.count("acceptance.budget_misses")
            return result

        self._rebind(original, timed)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> dict:
        """span id -> duration minus same-thread child coverage."""
        covered = collections.defaultdict(float)
        for name, start, end, parent, thread, op in self.spans.values():
            if parent is not None and parent in self.spans and self.spans[parent][4] == thread:
                covered[parent] += end - start
        return {sid: (s[2] - s[1]) - covered[sid] for sid, s in self.spans.items()}

    def per_layer(self, cycles: int) -> dict:
        """Per-layer metrics; totals are per cycle of the workload's op list."""
        self_time = self.self_times()
        by_name = collections.defaultdict(list)
        for sid, span in self.spans.items():
            by_name[span[0]].append(sid)

        def self_s(name):
            return sum(self_time[s] for s in by_name.get(name, ())) / cycles

        def calls(name):
            return len(by_name.get(name, ())) / cycles

        def duration(sid):
            return self.spans[sid][2] - self.spans[sid][1]

        metrics = {}
        for name in ("measure.density_batch", "geometry.metric_from_inverse", "measure.signature_filter",
                     "packing.unpack", "forms.SymmetricForm", "forms.signature_of", "forms.inverse_form",
                     "group.transitive_witness", "group.action_jacobian", "packing.congruence_jacobian",
                     "geometry.metric_components", "measure.density", "field.deform_metric_field",
                     "field.MetricFieldGrid", "field.field_density_at", "projective.embed_observable",
                     "projective.restrict_state", "projective.StateDensity", "cli.emit", "cli.load"):
            metrics[f"{name}.self_s"] = (self_s(name), "s")
        for name in ("forms.SymmetricForm", "group.gl_plus_path", "packing.congruence_jacobian",
                     "geometry.metric_components", "measure.density", "field.field_density_at"):
            metrics[f"{name}.calls"] = (calls(name), "count")

        chunks = by_name.get("measure.chunk", ())
        samples = sum(self.notes[s]["count"] for s in chunks)
        accepted = sum(self.notes[s]["accepted"] for s in chunks)
        metrics["measure.samples"] = (samples / cycles, "count")
        metrics["measure.accepted"] = (accepted / cycles, "count")
        metrics["measure.acceptance_ratio"] = (accepted / samples if samples else 0.0, "ratio")
        metrics["measure.chunks"] = (len(chunks) / cycles, "count")

        chunks_of = collections.defaultdict(list)
        for s in chunks:
            chunks_of[self.spans[s][3]].append((self.notes[s]["count"], duration(s)))
        calls_mc = by_name.get("measure.mc_integrate", ())
        spreads = []
        for c in calls_mc:
            # only full-size chunks: a short last chunk is not a straggler
            full = [d for count, d in chunks_of[c] if count == max(k for k, _ in chunks_of[c])]
            if len(full) > 1:
                spreads.append(max(full) / min(full))
        metrics["measure.chunk_s.max_over_min"] = (statistics.median(spreads) if spreads else 0.0, "ratio")
        threaded = [c for c in calls_mc if self.notes[c]["threads"] > 1]
        capacity = sum(self.notes[c]["threads"] * duration(c) for c in threaded)
        busy = sum(d for c in threaded for _, d in chunks_of[c])
        metrics["measure.parallel_efficiency"] = (busy / capacity if capacity else 0.0, "ratio")
        for n in range(1, 5):
            times = [duration(c) for c in calls_mc if self.notes[c]["n"] == n]
            metrics[f"measure.mc_integrate.op_s.n{n}"] = (statistics.median(times) if times else 0.0, "s")

        for key, unit in (("measure.density_batch.bytes_computed", "B"), ("group.path_evals", "count"),
                          ("field.points_moved", "count"), ("field.points_untouched", "count"),
                          ("cli.emit.bytes", "B"), ("acceptance.budget_misses", "count")):
            metrics[key] = (self.counters[key] / cycles, unit)
        metrics["projective.peak_matrix_bytes"] = (float(self.counters["projective.peak_matrix_bytes"]), "B")
        for k in range(1, 12):
            metrics[f"acceptance.criterion_{k}.s"] = (
                sum(duration(s) for s in by_name.get(f"acceptance.criterion_{k}", ())) / cycles, "s")
        return metrics

    def dump(self, path: str) -> None:
        """All spans as [name, start, end, parent, thread, op, self_s], one per line."""
        self_time = self.self_times()
        with open(path, "w", encoding="utf-8") as handle:
            for sid in sorted(self.spans):
                handle.write(json.dumps([sid, *self.spans[sid], self_time[sid]]) + "\n")
