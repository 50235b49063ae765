"""Benchmark of the contextuality-lab command line.

    python3 bench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

Each verdict calls ``contextuality_lab.cli.main(argv)`` in this process,
with real files for ``--out``, ``--csv`` and ``--constraints``: one client,
a closed loop, no threads.  Before each verdict, outside its timed window,
the package is imported anew, so no module state carries over from one
verdict to the next, as in a fresh ``contextuality-lab`` process.  Every
verdict is checked against the independent references in ``references.py``.

``--trace 0`` reports the end-to-end metrics of an untraced run.  Its
timings are given at the reference machine speed of ``calibration.py``: a
probe runs at least every ``PROBE_INTERVAL_S`` and once in each set-up
process, and each time is scaled by ``REFERENCE_S`` over the probe time
measured next to it.
The summary also prints the unscaled median.
``--trace 1`` reports per-layer metrics: it repeats a fixed seeded batch of
verdicts, alternating untraced passes with passes that have spans installed
on the library's entry points (see ``tracing.py``), and writes the spans of
the first traced verdict to ``.bench_work/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from random import Random
from time import perf_counter

import calibration
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = "contextuality_lab"
WORK = ROOT / ".bench_work"
#: Fresh interpreters timed for ``setup_s``, after one that writes bytecode caches.
SETUP_SAMPLES = 21
#: The tail percentile is the highest one with at least this many verdicts beyond it.
TAIL_BEYOND = 10
#: Offsets the warm-up verdict's stream from the measured one.
WARMUP_SEED_OFFSET = 1_000_003
#: Environment variable through which the program would override ``--seed``.
SEED_ENV_VAR = "CONTEXTUALITY_LAB_SEED"
#: Longest wall time between two speed probes in an end-to-end run.
PROBE_INTERVAL_S = 0.25

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import contextuality_lab.cli
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
import calibration
print(elapsed, calibration.probe())
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "verdict_p50_s": "s",
    "verdict_tail_s": "s",
    "verdicts_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def load_library():
    """Import the package anew from this checkout's ``src``, dropping every
    module of an earlier import first; None when it is absent."""
    if not (SRC / PACKAGE / "cli.py").is_file():
        return None
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [name for name in sys.modules if name == PACKAGE or name.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    gc.collect()
    importlib.import_module(PACKAGE + ".cli")
    package = sys.modules[PACKAGE]
    if Path(package.__file__).resolve().parent.parent != SRC:
        return None
    return package


def measure_setup() -> float:
    """Median seconds, at the reference speed, for a fresh interpreter to
    import ``contextuality_lab.cli``; each process probes its speed after the import."""
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(BENCH)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        elapsed, probe = (float(field) for field in done.stdout.split())
        samples.append(elapsed * calibration.REFERENCE_S / probe)
    return statistics.median(samples[1:])


def run_verdict(lib, case, work: Path, tracer=None):
    """Run one verdict; returns (seconds, problems)."""
    for stale in work.iterdir():
        stale.unlink()
    argv = case.prepare(work)
    out, err = io.StringIO(), io.StringIO()
    problems = []
    code = None
    if tracer is not None:
        tracer.begin_verdict()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = lib.cli.main(argv)
            else:
                code = tracer.call(tracing.CLI, lib.cli.main, (argv,), {})
    except SystemExit as exc:
        code = exc.code
    except Exception:
        problems.append(traceback.format_exc())
    elapsed = perf_counter() - start
    if not problems:
        try:
            problems = case.check(code, out.getvalue(), work)
        except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
    if problems:
        print(f"verdict {argv} failed: {problems} stderr={err.getvalue()!r}", file=sys.stderr)
    return elapsed, problems


def closed_loop(cases, work, seconds, tracer=None, probing=False):
    """Run verdicts back to back until ``seconds`` have passed or the cases
    run out, each on a fresh import of the package; with a ``tracer`` its
    spans are installed on that import.  The imports are left out of the
    loop seconds.  Returns (verdict seconds, failed verdicts, loop seconds,
    speed scales).  With ``probing`` the machine speed is probed at least every
    PROBE_INTERVAL_S and after the last verdict; each verdict's seconds are
    scaled by the mean of the probes on either side of it, and the probes'
    own time is left out of the loop seconds."""
    raw, spans, marks, probes = [], [], [], []
    failed, probed_at = 0, -math.inf
    start = perf_counter()
    for case in cases:
        lib = load_library()
        originals = tracing.install(tracer, lib) if tracer is not None else []
        if probing and perf_counter() - probed_at >= PROBE_INTERVAL_S:
            probes.append(calibration.probe())
            probed_at = perf_counter()
        begin = perf_counter()
        try:
            elapsed, problems = run_verdict(lib, case, work, tracer)
            spans.append(perf_counter() - begin)
        finally:
            tracing.uninstall(originals)
        raw.append(elapsed)
        marks.append(len(probes) - 1)
        failed += bool(problems)
        if perf_counter() - start >= seconds:
            break
    if probing:
        probes.append(calibration.probe())
        scales = [2 * calibration.REFERENCE_S / (probes[k] + probes[k + 1]) for k in marks]
    else:
        scales = [1.0] * len(raw)
    times = [t * scale for t, scale in zip(raw, scales)]
    loop = sum(t * scale for t, scale in zip(spans, scales))
    return times, failed, loop, scales


def tail(times) -> tuple:
    """(seconds, percentile) of the highest percentile with TAIL_BEYOND verdicts beyond it."""
    ordered = sorted(times)
    index = len(ordered) - 1 - TAIL_BEYOND
    if index < 0:
        return ordered[-1], 100.0
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def warm_up(workload, seed, work) -> int:
    """Run one untimed verdict from a separate seeded stream; returns 1 if it failed."""
    make_cases, _ = workloads.WORKLOADS[workload]
    _, failed, _, _ = closed_loop([next(make_cases(Random(seed + WARMUP_SEED_OFFSET)))], work, math.inf)
    return failed


def end_to_end(workload, seed, seconds, work):
    make_cases, _ = workloads.WORKLOADS[workload]
    setup_s = measure_setup()
    warm_failed = warm_up(workload, seed, work)
    times, failed, loop, scales = closed_loop(make_cases(Random(seed)), work, seconds, probing=True)
    tail_s, tail_pct = tail(times)
    raw_p50 = statistics.median(t / scale for t, scale in zip(times, scales))
    values = {
        "setup_s": setup_s,
        "verdict_p50_s": statistics.median(times),
        "verdict_tail_s": tail_s,
        "verdicts_per_s": len(times) / loop,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    attempted, failed = len(times) + 1, failed + warm_failed
    notes = {
        "setup_s": f"median of {SETUP_SAMPLES} fresh interpreters",
        "verdict_p50_s": f"median of {len(times)} verdicts ({raw_p50:.6g} s unscaled, "
                         f"median speed scale {statistics.median(scales):.3f})",
        "verdict_tail_s": f"p{tail_pct:.1f} of {len(times)} verdicts",
        "verdicts_per_s": f"{len(times)} verdicts in {loop:.2f} s at reference speed",
        "peak_rss_mb": "workload process, ru_maxrss",
    }
    print(f"{workload} seed={seed}: fail_share={failed / attempted:.4f} ({failed}/{attempted} verdicts)")
    for name, value in values.items():
        print(f"  {name:<16} {value:12.6g} {END_TO_END_UNITS[name]:<4} {notes[name]}")
    metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()}
    return attempted, failed, metrics


def per_layer(workload, seed, seconds, work):
    make_cases, batch_size = workloads.WORKLOADS[workload]
    batch = list(itertools.islice(make_cases(Random(seed)), batch_size))
    warm_failed = warm_up(workload, seed, work)
    tracer = tracing.Tracer()
    plain = [0, 0, 0.0]  # verdicts, failed, wall seconds
    traced = [0, 0, 0.0]
    start = perf_counter()
    # Untraced and traced passes alternate, so drift in machine speed hits both.
    while perf_counter() - start < seconds:
        for totals, active in ((plain, None), (traced, tracer)):
            times, failed, wall, _ = closed_loop(batch, work, math.inf, active)
            totals[0] += len(times)
            totals[1] += failed
            totals[2] += wall
    passes = traced[0] // batch_size
    values = tracing.layer_values(tracer, passes, passes * sum(case.points for case in batch))
    untraced_rate = plain[0] / plain[2]
    traced_rate = traced[0] / traced[2]
    values["trace.untraced_verdicts_per_s"] = untraced_rate
    values["trace.traced_verdicts_per_s"] = traced_rate
    values["trace.overhead"] = untraced_rate / traced_rate
    spans_path = WORK / f"trace-{workload}.jsonl"
    tracer.write_spans(spans_path)
    attempted = plain[0] + traced[0] + 1
    failed = plain[1] + traced[1] + warm_failed
    print(f"{workload} seed={seed}: {passes} traced passes of {batch_size} verdicts; "
          f"{len(tracer.spans)} spans of the first traced verdict in {spans_path.relative_to(ROOT)}")
    units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    for name, value in values.items():
        print(f"  {name:<42} {value:14.6g} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    return attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if load_library() is None:
        print(f"error: no contextuality_lab package under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop(SEED_ENV_VAR, None)  # the program sees only the generated argv
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        measure = per_layer if args.trace else end_to_end
        attempted, failed, metrics = measure(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
