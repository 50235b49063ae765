"""Spans around the library's public entry points, installed only for a traced run.

Wrappers go on the names callers actually resolve: class methods for the
operator products, and each module attribute through which a function is
reached (``chsh`` holds its own reference to ``singlet_correlation``,
``constraints`` its own ``identify_pseudoscalars``).  A span stack gives
self time: a span's duration minus the time of the spans it caused.  Work
counts are taken from the operands outside the timed interval.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

CLI = "cli"


class Tracer:
    """Aggregates calls, self time and work counts per span name; keeps the
    spans of the first verdict in memory."""

    def __init__(self):
        self.stack = []  # frames: [child seconds, span id, name]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.spans = []
        self.recording = False
        self.verdict = 0
        self._next_id = 0

    def begin_verdict(self) -> None:
        self.verdict += 1
        self.recording = self.verdict == 1

    def call(self, name, fn, args, kwargs, count=None):
        outer = perf_counter()
        self._next_id += 1
        parent = self.stack[-1][1] if self.stack else 0
        frame = [0.0, self._next_id, name]
        self.stack.append(frame)
        done = False
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            done = True
            return result
        finally:
            end = perf_counter()
            self.stack.pop()
            self.calls[name] += 1
            self.self_s[name] += end - start - frame[0]
            if self.recording:
                self.spans.append((self.verdict, frame[1], parent, name, start, end))
            if done and count is not None:
                count(self, args, result)
            if self.stack:
                self.stack[-1][0] += perf_counter() - outer

    def within(self, name) -> bool:
        return any(frame[2] == name for frame in self.stack)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for verdict, span_id, parent, name, start, end in self.spans:
                record = {"verdict": verdict, "id": span_id, "parent": parent,
                          "name": name, "start": start, "end": end}
                handle.write(json.dumps(record) + "\n")


def _wrap(tracer, name, fn, count):
    if inspect.isgeneratorfunction(fn):
        # Each resumption is a span, so the caller's work between rows stays outside.
        @functools.wraps(fn)
        def traced_generator(*args, **kwargs):
            rows = fn(*args, **kwargs)
            while True:
                try:
                    row = tracer.call(name, next, (rows,), {})
                except StopIteration:
                    return
                yield row

        return traced_generator

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, count)

    return traced


# -- work counts taken from operands and results ----------------------------------


def _blade_pairs(tracer, args, result):
    left, right = args
    if type(right) is type(left):
        tracer.counts["ga.mul.term_pairs"] += sum(1 for a in left.coeffs if a) * sum(
            1 for b in right.coeffs if b
        )


def _tensor_pairs(tracer, args, result):
    left, right = args
    if type(right) is type(left):
        tracer.counts["systems.mul.term_pairs"] += len(left.coeffs) * len(right.coeffs)


def _space(tracer, args, result):
    tracer.counts["constraints.enumerate.space"] += 2 ** len(args[0].observables)


def _tried(tracer, args, result):
    if tracer.within("identities.search"):
        tracer.counts["identities.search.tried"] += 1


def _found(tracer, args, result):
    tracer.counts["identities.search.found"] += len(result)


def entry_points(lib):
    """(owner, attribute, span name, work counter) for every wrapped name."""
    ga, systems, constraints, quantum, identities, chsh = (
        lib.ga, lib.systems, lib.constraints, lib.quantum, lib.identities, lib.chsh,
    )
    return (
        (ga.Multivector, "__mul__", "ga.mul", _blade_pairs),
        (systems.TensorMultivector, "__mul__", "systems.mul", _tensor_pairs),
        (systems, "identify_pseudoscalars", "systems.identify", None),
        (constraints, "identify_pseudoscalars", "systems.identify", None),
        (constraints.ConstraintSet, "from_json", "constraints.parse", None),
        (constraints, "enumerate_scalar_assignments", "constraints.enumerate", _space),
        (constraints, "evaluate_vector_model", "constraints.vector_model", None),
        (constraints, "non_contextuality_audit", "constraints.audit", None),
        (quantum.ComplexMatrix, "__matmul__", "quantum.matmul", None),
        (quantum.ComplexMatrix, "kron", "quantum.kron", None),
        (quantum, "verify_operator_identities", "quantum.opid", None),
        (quantum, "singlet_correlation", "quantum.singlet", None),
        (chsh, "singlet_correlation", "quantum.singlet", None),
        (identities, "bell_ghz_column", "identities.column", _tried),
        (identities, "find_identity_maps", "identities.search", _found),
        (chsh, "F", "chsh.F", None),
        (chsh, "scan_F", "chsh.scan", None),
        (chsh, "csv_rows", "chsh.csv_rows", None),
        (chsh, "quantum_lhs", "chsh.quantum_lhs", None),
    )


def install(tracer, lib) -> list:
    """Wrap every entry point; returns the originals for :func:`uninstall`."""
    originals = []
    for owner, attribute, name, count in entry_points(lib):
        raw = inspect.getattr_static(owner, attribute)
        if isinstance(raw, classmethod):
            wrapped = classmethod(_wrap(tracer, name, raw.__func__, count))
        else:
            wrapped = _wrap(tracer, name, raw, count)
        originals.append((owner, attribute, raw))
        setattr(owner, attribute, wrapped)
    return originals


def uninstall(originals) -> None:
    for owner, attribute, raw in reversed(originals):
        setattr(owner, attribute, raw)


# -- per-layer metrics --------------------------------------------------------------

#: (metric, unit, better) for every per-layer metric, in report order.
LAYER_METRICS = (
    ("ga.mul.calls", "count", "lower"),
    ("ga.mul.self_s", "s", "lower"),
    ("ga.mul.term_pairs", "count", "lower"),
    ("systems.mul.calls", "count", "lower"),
    ("systems.mul.self_s", "s", "lower"),
    ("systems.mul.term_pairs", "count", "lower"),
    ("systems.identify.calls", "count", "lower"),
    ("systems.identify.self_s", "s", "lower"),
    ("constraints.parse.self_s", "s", "lower"),
    ("constraints.enumerate.calls", "count", "lower"),
    ("constraints.enumerate.self_s", "s", "lower"),
    ("constraints.enumerate.space", "count", "lower"),
    ("constraints.enumerate.ns_per_assignment", "ns", "lower"),
    ("constraints.vector_model.self_s", "s", "lower"),
    ("constraints.audit.self_s", "s", "lower"),
    ("quantum.matmul.calls", "count", "lower"),
    ("quantum.matmul.self_s", "s", "lower"),
    ("quantum.kron.calls", "count", "lower"),
    ("quantum.kron.self_s", "s", "lower"),
    ("quantum.opid.self_s", "s", "lower"),
    ("quantum.singlet.calls", "count", "lower"),
    ("quantum.singlet.self_s", "s", "lower"),
    ("identities.column.calls", "count", "lower"),
    ("identities.column.self_s", "s", "lower"),
    ("identities.search.calls", "count", "lower"),
    ("identities.search.self_s", "s", "lower"),
    ("identities.search.hit_ratio", "ratio", "higher"),
    ("chsh.points", "count", "higher"),
    ("chsh.F.calls", "count", "lower"),
    ("chsh.F_per_point", "ratio", "lower"),
    ("chsh.F.self_s", "s", "lower"),
    ("chsh.scan.self_s", "s", "lower"),
    ("chsh.csv_rows.self_s", "s", "lower"),
    ("chsh.quantum_lhs.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.untraced_verdicts_per_s", "1/s", "higher"),
    ("trace.traced_verdicts_per_s", "1/s", "higher"),
    ("trace.overhead", "ratio", "lower"),
)


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def layer_values(tracer, passes: int, points: int) -> dict:
    """Per-layer values for one pass of the workload's fixed batch: counts per
    pass (identical in every pass) and self seconds averaged over the passes.
    The ``trace.*`` values compare two runs and are filled in by the caller."""
    values = {}
    for metric, _, _ in LAYER_METRICS:
        span, _, field = metric.rpartition(".")
        if field == "calls":
            values[metric] = tracer.calls[span] / passes
        elif field == "self_s":
            values[metric] = tracer.self_s[span] / passes
        else:
            values[metric] = tracer.counts[metric] / passes
    values["constraints.enumerate.ns_per_assignment"] = _ratio(
        tracer.self_s["constraints.enumerate"] * 1e9, tracer.counts["constraints.enumerate.space"]
    )
    values["identities.search.hit_ratio"] = _ratio(
        tracer.counts["identities.search.found"], tracer.counts["identities.search.tried"]
    )
    values["chsh.points"] = points / passes
    values["chsh.F_per_point"] = _ratio(tracer.calls["chsh.F"], points)
    return values
