"""sramlab benchmark: one closed-loop client driving the public sramlab API.

    python3 perfbench/run.py --workload cell-dc --seed 1 --seconds 15 --trace 0

Workloads (see workloads.py for why each exists): ``cell-dc``,
``mc-mismatch`` and ``array-tran``.  The checkout's ``src/`` is imported
directly, so nothing needs installing; without it the run exits non-zero
before printing a result.

With ``--trace 0`` the run sets up (timed: import, input generation,
parse and validate, one untimed warm-up operation; repeated in fresh
processes and the median reported), then runs the whole rounds of
operations that fill ``--seconds`` at reference host speed and reports the
end-to-end metrics, with times scaled to that speed (see CAL_REF_S).  With
``--trace 1`` it runs a third as many rounds once untraced and twice traced, checks
that the two traced passes repeat every count exactly, and reports the
per-layer metrics plus the tracing overhead.  Every operation's output is
checked; an operation fails if it raises or its check fails.

Human-readable lines (every metric by name with its unit, layer shares,
provenance) go to standard output, a JSON record with provenance is
written to ``perfbench/results/``, and the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` with the metrics that
BENCHMARK.json lists for the mode.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 3  # set-ups per untraced run (this process plus fresh ones)
TAIL_BEYOND = 10  # ops that must lie beyond the reported tail percentile

# Host-speed calibration.  On the shared 2-vCPU host this benchmark was
# tuned on, identical work runs up to 1.6x slower from one minute to the
# next (neighbouring tenants), which swamps the effect of a code change.  A
# fixed numpy loop that shares no code with sramlab is timed after every
# operation and after every set-up, and each untraced run scales its times
# by CAL_REF_S over the median loop time: the run's times as they would read
# with the loop at CAL_REF_S.  Raw times are printed and recorded beside the
# scaled ones; the per-layer (traced) times are raw.
CAL_REF_S = 0.02  # about the loop's time on that host (Intel Xeon, 2 vCPU)

# Units of the metrics printed beside the BENCHMARK.json ones.  These are
# left out of BENCHMARK.json because some workload reads 0 on them every
# time (no failures; array-tran never enters the stability layer).
EXTRA_UNITS = {
    "stability.square_s": "s",
    "stability.self_s": "s",
    "failed_ratio": "ratio",
    "snm_p50_s": "s",
    "write_margin_p50_s": "s",
    "drv_p50_s": "s",
    "dc_points_per_s": "1/s",
    "mc_samples_per_s": "1/s",
    "tran_steps_per_s": "1/s",
}


def bootstrap() -> None:
    """Pin BLAS threads to the CPUs this process may use and import sramlab
    from this checkout's src/."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sramlab

    origin = Path(sramlab.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"sramlab imported from {origin}, not from {SRC}")


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------
# Running operations


@dataclass
class Record:
    kind: str
    seconds: float
    work: float
    failure: str | None


@dataclass
class Pass:
    records: list[Record] = field(default_factory=list)
    wall: float = 0.0


def execute(op) -> Record:
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a raising operation is a failed operation
        return Record(op.kind, time.perf_counter() - start, 0.0, f"{op.label}: {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    try:
        failure = op.check(out, op.expect)
        work = float(op.work(out)) if failure is None else 0.0
    except Exception:  # a check that cannot read the output fails the op
        failure, work = traceback.format_exc(limit=1), 0.0
    return Record(op.kind, seconds, work, None if failure is None else f"{op.label}: {failure}")


def make_workload(name: str, seed: int, size: str):
    from workloads import WORKLOADS

    return WORKLOADS[name](seed, size)


def warm_up(wl) -> Pass:
    """One untimed operation, the same for every seed in cost."""
    start = time.perf_counter()
    rec = execute(wl.warm_up_op())
    return Pass([rec], time.perf_counter() - start)


def calibrate() -> float:
    """Seconds for a fixed loop of small-array numpy calls, the kind of work
    sramlab's Newton loop does.  It stays single-threaded, so its time does
    not depend on whether the BLAS threads are awake."""
    import numpy as np

    a = np.eye(12) * 4.0 + 0.1
    x = np.linspace(0.1, 1.0, 12)
    start = time.perf_counter()
    for _ in range(1500):
        y = np.exp(-x) * x + np.sqrt(x)
        x = np.clip(x + 1e-6 * np.linalg.solve(a, y), 0.0, 2.0)
    return time.perf_counter() - start


def rounds_for(wl, seconds: float, passes: int = 1) -> int:
    """Whole rounds that fill `seconds` of reference-speed time over
    `passes` passes.  A fixed count keeps the op mix, and so the tail
    percentile, the same on a fast or a slow host."""
    return max(1, round(seconds / (passes * wl.round_ref_s)))


def run_rounds(wl, rounds: int, calibration: list[float] | None = None) -> Pass:
    """The first `rounds` rounds of the workload's sequence.  With
    `calibration`, a calibration loop time is appended after every op."""
    result = Pass()
    start = time.perf_counter()
    for _, ops in zip(range(rounds), wl.rounds()):
        for op in ops:
            result.records.append(execute(op))
            if calibration is not None:
                calibration.append(calibrate())
    result.wall = time.perf_counter() - start
    return result


def post_checks(wl) -> Pass:
    """Checks too costly to run per operation, made after measuring."""
    if not hasattr(wl, "reference_check"):
        return Pass()
    from workloads import load_expected

    start = time.perf_counter()
    failure = wl.reference_check(load_expected()["snm_tolerance_v"])
    return Pass([Record("reference", time.perf_counter() - start, 0.0, failure)], 0.0)


# ---------------------------------------------------------------------
# Metrics


def failed_ratio(records: list[Record]) -> float:
    return sum(r.failure is not None for r in records) / len(records)


def tail(times: list[float]) -> tuple[float, float]:
    """Highest order statistic with TAIL_BEYOND ops beyond it, never below
    the median; returns (value, percentile)."""
    ordered = sorted(times)
    n = len(ordered)
    k = max(n - TAIL_BEYOND, math.ceil(n / 2))
    return ordered[k - 1], 100.0 * k / n


def end_to_end(wl, timed: Pass, setups: list[float], calibration: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics scaled to the reference host speed, and the raw
    figures behind them.  Rates are over the time spent in operations."""
    times = [r.seconds for r in timed.records]
    busy = sum(times)
    tail_s, percentile = tail(times)
    raw = {
        "setup_s": statistics.median(setups),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "ops_per_s": len(times) / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        f"{wl.work_name}_per_s": sum(r.work for r in timed.records) / busy,
    }
    kinds = sorted({r.kind for r in timed.records})
    if len(kinds) > 1:
        for kind in kinds:
            raw[f"{kind}_p50_s"] = statistics.median(r.seconds for r in timed.records if r.kind == kind)
    factor = CAL_REF_S / statistics.median(calibration)
    metrics = {}
    for name, value in raw.items():
        if name.endswith("_per_s"):
            value /= factor
        elif name.endswith("_s"):
            value *= factor
        metrics[name] = value
    detail = {
        "ops": len(times),
        "tail_percentile": percentile,
        "ops_by_kind": {k: sum(r.kind == k for r in timed.records) for k in kinds},
        "measured_wall_s": timed.wall,
        "host_speed_factor": factor,
        "calibration_samples": len(calibration),
        "raw_setup_samples_s": setups,
        "raw_metrics": raw,
    }
    return metrics, detail


def traced(wl, tracer, rounds: int) -> tuple[dict, dict, Pass]:
    """Per-layer metrics: set-up layers from a traced set-up already in the
    tracer, the rest from a fixed batch run once untraced and twice traced."""
    from spans import layer_metrics

    setup_layers, _ = layer_metrics(tracer.spans, 0.0)
    tracer.reset()

    plain = run_rounds(wl, rounds)
    passes = []
    for _ in range(2):
        tracer.install()
        try:
            batch = run_rounds(wl, rounds)
        finally:
            tracer.uninstall()
        passes.append((batch, *layer_metrics(tracer.spans, batch.wall)))
        tracer.reset()
    (first, layers, shares), (second, again, _) = passes

    # Counts come from deterministic code, so both traced passes must
    # repeat them exactly; times are free to differ.
    mismatched = [
        name
        for name, value in layers.items()
        if not name.endswith("_s") and name != "kernels.stamp_us_per_call" and again[name] != value
    ]
    for name in ("netlist.parse_s", "netlist.validate_s", "genlib.build_s"):
        layers[name] = setup_layers[name]
    layers["trace.wall_s"] = first.wall
    layers["trace.overhead_ratio"] = first.wall / plain.wall - 1.0
    detail = {
        "layer_shares": shares,
        "untraced_wall_s": plain.wall,
        "second_pass_wall_s": second.wall,
        "count_mismatches": mismatched,
    }
    everything = Pass(plain.records + first.records + second.records, plain.wall + first.wall + second.wall)
    return layers, detail, everything


# ---------------------------------------------------------------------
# Provenance


def _openblas() -> dict:
    import numpy

    info: dict = {"version": None, "threads": None, "config": None}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["version"] = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # show_config layout differs across numpy releases
        pass
    import ctypes

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if getter is not None and config is not None:
                    config.restype = ctypes.c_char_p
                    info["threads"] = int(getter())
                    info["config"] = config().decode()
                    return info
    return info


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "sramlab").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".sp"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance() -> dict:
    import numpy

    from sramlab import kernels

    backend = kernels.get_backend()
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": _openblas(),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "kernel_backend": backend,
        # numba and numpy kernels differ several-fold in speed; never
        # compare a numba result against a numpy one.
        "comparable_with_numpy_results": backend == "numpy",
    }


# ---------------------------------------------------------------------
# Entry points


def setup_in_fresh_process(args) -> float:
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
        "--setup-only",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def report(args, metrics: dict, detail: dict, run: Pass) -> dict:
    spec = benchmark_spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    failures = [r.failure for r in run.records if r.failure is not None]
    correct = not failures and not detail.get("count_mismatches")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]} | EXTRA_UNITS
    prov = provenance()

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} size={args.size}")
    for key, value in prov.items():
        print(f"# {key}: {value}")
    if not prov["comparable_with_numpy_results"]:
        print("# WARNING: numba kernel backend; not comparable with numpy results")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for name, value in detail.items():
        if name == "layer_shares":
            for layer, share in sorted(value.items(), key=lambda kv: -kv[1]):
                print(f"layer_share {layer} {share:.3f}")
        else:
            print(f"# {name}: {value}")
    for reason in failures[:5]:
        print(f"# failed: {reason}", file=sys.stderr)

    result = {
        "correct": correct,
        "attempted": len(run.records),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "provenance": prov,
        "all_metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "detail": detail,
        "failures": failures,
        "result": result,
    }
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("cell-dc", "mc-mismatch", "array-tran"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: the self-test's sizes")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    try:
        bootstrap()
    except ImportError as exc:
        print(f"error: cannot import sramlab from {SRC}: {exc}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        wl = make_workload(args.workload, args.seed, args.size)
        warm = warm_up(wl)
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_s = time.perf_counter() - start
    if args.setup_only:
        if warm.records[0].failure:
            print(f"error: warm-up failed: {warm.records[0].failure}", file=sys.stderr)
            return 1
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        metrics, detail, ops = traced(wl, tracer, rounds_for(wl, args.seconds, passes=3))
    else:
        setups, calibration = [setup_s], [calibrate()]
        for _ in range(SETUP_REPEATS - 1):
            setups.append(setup_in_fresh_process(args))
            calibration.append(calibrate())
        ops = run_rounds(wl, rounds_for(wl, args.seconds), calibration)
        metrics, detail = end_to_end(wl, ops, setups, calibration)
    ops.records.extend(warm.records + post_checks(wl).records)
    if not args.trace:
        metrics["failed_ratio"] = failed_ratio(ops.records)
    result = report(args, metrics, detail, ops)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
