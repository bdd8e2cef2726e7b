"""Run one lglab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cli-zoo --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the benchmark imports lglab from
``src/`` there and fails (exit 2, no result) when it is missing. One
process, pinned to one CPU, runs the workload's ops one at a time, a
closed loop with one client. It repeats whole batches of ops while the
next batch is expected to end within ``--seconds`` (at least one batch).
Times are reported in reference-host seconds: each is scaled by the host
speed sampled while it ran (see ``calibrate.py``).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics, taken from spans around calls into each lglab layer, plus the
tracing overhead. Lines above it are a human-readable report. A run
record (and, when traced, the span file) is written under
``perfbench/out/``. The exit code is 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
sys.path.insert(0, ROOT)

from perfbench import layers, stats  # noqa: E402
from perfbench.calibrate import REFERENCE_S, HostClock, Lap  # noqa: E402
from perfbench.spans import Instrumentation, Tracer, self_times  # noqa: E402
from perfbench.workloads import WORKLOADS, CheckFailed, Context, KnownDefect  # noqa: E402

#: Set-up is repeated this many times in fresh interpreters; setup_s is the median.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
#: Environment variables cleared before the run. LGLAB_ZOO_CACHE would make the
#: CLI unpickle zoo models instead of building them, so cli-zoo would time a cache.
CLEARED_ENV = ("LGLAB_ZOO_CACHE",)

#: Metrics the end-to-end JSON line carries on every workload, with units.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("lg_p50_s", "s"), ("peak_rss_mb", "MB"))


def pin_to_one_cpu():
    """Run this process and its children on one CPU; returns it, or None.

    Each vCPU of the machine the benchmark was tuned on changes speed on
    its own, so the host clock's sampler thread must share the ops' CPU.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def setup(workload_cls, ctx):
    """``import lglab`` and the workload's inputs; returns (workload, import seconds)."""
    start = time.perf_counter()
    import lglab

    import_s = time.perf_counter() - start
    here = os.path.realpath(os.path.dirname(lglab.__file__))
    if not here.startswith(os.path.realpath(ctx.src) + os.sep):
        raise CheckFailed(f"imported lglab from {here}, not from this checkout")
    workload = workload_cls(ctx)
    workload.setup()
    return workload, import_s


def setup_probe(workload_cls, seed) -> int:
    """Child mode: set up, report import time and the moment it was ready, exit."""
    work_dir = tempfile.mkdtemp(prefix="probe-", dir=OUT)
    try:
        _, import_s = setup(workload_cls, Context(ROOT, SRC, work_dir, seed))
        print(json.dumps({
            "ready": time.time(),
            "import_s": import_s,
            "scipy_optimize_imported": "scipy.optimize" in sys.modules,
        }), flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


def run_setup_probes(args, env, clock) -> list:
    """Time fresh-interpreter set-ups: process start until the probe reports it is ready.

    Start and ready stamps are both read from the system clock, so the
    probe's exit and clean-up are not counted. ``setup_s`` of a sample is
    a lap of the host clock.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
                "--workload", args.workload, "--seed", str(args.seed)]
        start, began = time.time(), time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise CheckFailed(f"set-up probe ran longer than {PROBE_TIMEOUT_S} s") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise CheckFailed(f"set-up probe exited {proc.returncode}: {proc.stderr[-2000:]}")
        probe = json.loads(lines[-1])
        samples.append(dict(probe, setup_s=Lap(began, probe.pop("ready") - start)))
    return samples


def run_batch(ops, tally, times, tracer=None, batch=0):
    """Run every op once; returns the batch's op times as laps."""
    laps = []
    for op in ops:
        span = None
        if tracer is not None:
            tracer.batch = batch
            span = tracer.begin(f"op.{op.kind}", kind=op.kind, label=op.label)
        error = None
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failing op is counted, never dropped
            out, error = None, exc
        finally:
            end = time.perf_counter()
            if span is not None:
                tracer.end(span)
        lap = Lap(start, end - start)
        laps.append(lap)
        times[op.kind].append(lap)
        if tracer is not None:
            tracer.active = False
        try:
            if error is not None:
                tally.record(f"{op.label}: {type(error).__name__}: {error}")
            else:
                op.check(out)
                tally.record()
        except KnownDefect as exc:
            tally.record(str(exc), known=True)
        except CheckFailed as exc:
            tally.record(str(exc))
        except Exception as exc:  # a check that cannot read the output is a failed check
            tally.record(f"{op.label}: unreadable output: {type(exc).__name__}: {exc}")
        finally:
            if tracer is not None:
                tracer.active = True
        del out
    return laps


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(times, walls, probes, tally, seconds):
    """(figures, tail details): every end-to-end figure, None where the workload
    runs no such op. ``seconds`` turns a :class:`Lap` into the time reported."""

    def median(laps):
        return stats.median(seconds(lap) for lap in laps)

    lg = [seconds(lap) for lap in times.get("lg", [])]
    tail = stats.tail(lg)
    out = {
        "setup_s": median(p["setup_s"] for p in probes),
        "wall_s": stats.median(sum(seconds(lap) for lap in batch) for batch in walls),
        "lg_p50_s": stats.median(lg),
        "lg_tail_s": tail[0] if tail else None,
        "classify_p50_s": median(times.get("classify", [])),
        "export_p50_s": median(times.get("export", [])),
        "load_p50_s": median(times.get("load", [])),
        "sweep_s": median(times.get("sweep", [])),
        "peak_rss_mb": peak_rss_mb(),
        "fail_ratio": tally.fail_ratio,
    }
    extra = {"lg_tail_percentile": tail[1] if tail else None, "lg_ops": len(lg)}
    return out, extra


def run_record(args, batches, cleared):
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get(k, {}).get("name") for k in ("blas", "lapack")}
    except (TypeError, AttributeError):
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "batches": batches,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit or "unavailable (not a git checkout)",
        "cleared_env": {name: cleared.get(name) for name in CLEARED_ENV},
        "machine": platform.machine(),
    }


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_layer_table(spans, metrics, batches):
    selfs = self_times(spans)
    self_by_name = defaultdict(float)
    for s in spans:
        self_by_name[s.name] += selfs[s.span_id]
    print(f"per-layer spans ({batches} spanned batch(es); per batch unless marked per call)")
    print(f"  {'span':38} {'calls':>8} {'median/call s':>14} {'self s':>10} {'errors':>7}")
    for name in layers.SPAN_NAMES:
        errors = sum(1 for s in spans if s.name == name and s.error) / batches
        print(f"  {name:38} {_fmt(metrics[f'{name}_calls']):>8} "
              f"{_fmt(metrics[f'{name}_s']):>14} {self_by_name[name] / batches:>10.4f} "
              f"{_fmt(errors):>7}")
    for row in layers.op_breakdown(spans):
        shares = ", ".join(f"{name} {share:.1%}" for share, name in row["shares"][:4])
        print(f"  op {row['kind']}: {row['ops']} op(s), mean {row['mean_s']:.4f} s, "
              f"child spans cover {row['covered']:.1%}; inclusive: {shares}")
    complete = [s for s in spans if s.name == "lg.check_opnd_complete"]
    if complete and len(complete) <= 4 * batches:
        print("  lg.check_opnd_complete calls: "
              + ", ".join(f"{s.duration:.4f} s" for s in complete))
    print("  per-layer metrics:")
    for name, unit in layers.PER_LAYER:
        print(f"    {name:40} {_fmt(metrics[name]):>14} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lglab", "__init__.py")):
        print(f"error: no lglab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    cleared = {name: os.environ.pop(name) for name in CLEARED_ENV if name in os.environ}
    workload_cls = WORKLOADS[args.workload]
    if args.setup_probe:
        return setup_probe(workload_cls, args.seed)

    cpu = pin_to_one_cpu()
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    ctx = Context(ROOT, SRC, work_dir, args.seed)
    clock = HostClock()
    try:
        with clock:
            probes = run_setup_probes(args, ctx.child_env(), clock)
            tracer = Tracer() if args.trace else None
            if tracer is None:
                workload, _ = setup(workload_cls, ctx)
            else:
                with Instrumentation(tracer, layers.TARGETS):
                    tracer.batch = layers.SETUP_BATCH
                    span = tracer.begin("op.setup", kind="setup", label="set-up")
                    try:
                        workload, _ = setup(workload_cls, ctx)
                    finally:
                        tracer.end(span)
            tally = stats.OpTally()
            times = defaultdict(list)
            walls, overheads = [], []
            ops = workload.ops(traced=bool(args.trace))
            start = time.perf_counter()
            batches = 0
            while True:
                began = time.perf_counter()
                if tracer is None:
                    walls.append(run_batch(ops, tally, times))
                else:
                    # plain and spanned batches alternate which goes first, so a
                    # machine that speeds up or slows down biases neither side
                    spanned = None
                    if batches % 2:
                        with Instrumentation(tracer, layers.TARGETS):
                            spanned = run_batch(ops, tally, defaultdict(list), tracer, batches)
                    walls.append(run_batch(ops, tally, times))
                    if spanned is None:
                        with Instrumentation(tracer, layers.TARGETS):
                            spanned = run_batch(ops, tally, defaultdict(list), tracer, batches)
                    overheads.append((spanned, walls[-1]))
                batches += 1
                now = time.perf_counter()
                if now - start + (now - began) > args.seconds:
                    break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    measured, extra = end_to_end(times, walls, probes, tally, lambda lap: lap.seconds)
    e2e, _ = end_to_end(times, walls, probes, tally, clock.scaled)
    extra.update(host_kernel_s=clock.speed_s, host_samples=len(clock.samples))
    record = run_record(args, batches, cleared)
    record["pinned_cpu"] = cpu
    record.update(shape=workload.shape, tally={
        "attempted": tally.attempted, "failed": tally.failed, "known_defects": tally.known,
        "unexpected": tally.unexpected,
    })
    print(f"lglab benchmark: workload {args.workload}, seed {args.seed}, {batches} batch(es), "
          f"python {record['python']}, numpy {record['numpy']}, scipy {record['scipy']}, "
          f"nproc {record['nproc']}, commit {record['git_commit']}")
    form = ", plain batches of the traced ops" if tracer is not None else ""
    print(f"end-to-end (n/a: the workload runs no such op{form}); times as measured, and "
          f"as reported: in reference-host seconds (kernel {clock.speed_s * 1e3:.3f} ms here, "
          f"median of {len(clock.samples)} samples, {REFERENCE_S * 1e3:g} ms on the reference)")
    print(f"  {'metric':16} {'measured':>12} {'reported':>12}")
    for name, value in e2e.items():
        unit = "MB" if name == "peak_rss_mb" else "1" if name == "fail_ratio" else "s"
        note = ""
        if name == "lg_tail_s" and value is not None:
            note = f"  (p{extra['lg_tail_percentile']:.4g} of {extra['lg_ops']} lg ops)"
        print(f"  {name:16} {_fmt(measured[name]):>12} {_fmt(value):>12} {unit}{note}")
    print(f"  ops attempted {tally.attempted}, failed {tally.failed} "
          f"({tally.known} with a known defect's symptom)")

    if tracer is None:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    else:
        per_layer = layers.per_layer_metrics(tracer.spans, batches)
        per_layer["lglab.import_s"] = stats.median(p["import_s"] for p in probes)
        per_layer["lglab.scipy_optimize_imported"] = int(
            any(p["scipy_optimize_imported"] for p in probes))
        per_layer["trace.overhead_s"] = stats.median(
            sum(map(clock.scaled, spanned)) - sum(map(clock.scaled, plain))
            for spanned, plain in overheads)
        per_layer["host.kernel_s"] = clock.speed_s
        print(f"tracing overhead: {per_layer['trace.overhead_s']:.4f} reference-host s per "
              f"batch (spanned minus plain batch, median of {len(overheads)})")
        print_layer_table(tracer.spans, per_layer, batches)
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit in layers.PER_LAYER}
        trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump({"run": record, "spans": [s.as_dict() for s in tracer.spans]}, handle)
        print(f"spans written to {os.path.relpath(trace_path, ROOT)}")

    record.update(end_to_end=e2e, end_to_end_measured=measured, end_to_end_extra=extra,
                  op_times={k: [lap.seconds for lap in v] for k, v in times.items()},
                  op_times_reported={k: [clock.scaled(lap) for lap in v]
                                     for k, v in times.items()},
                  host_samples_s=clock.samples,
                  metrics={k: v["value"] for k, v in metrics.items()})
    record_path = os.path.join(
        OUT, f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for failure in tally.unexpected:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
