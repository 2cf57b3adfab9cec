"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py -q

Runs every workload end to end through the command line in both modes,
checks that every metric BENCHMARK.json names is printed with its unit,
and that a corrupted expected value turns into failed operations.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.bootstrap()

import sramlab  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = run.benchmark_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def cli(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_printed_with_its_unit(name, trace):
    out = cli("--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if not line.startswith("#")}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]] == m["unit"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)
        assert printed["failed_ratio"] == "ratio"


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_counts_repeat_across_runs(name):
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    runs = []
    for _ in range(2):
        out = cli("--workload", name, "--seed", "5", "--trace", "1", "--size", "tiny")
        assert out.returncode == 0, out.stderr
        metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
        runs.append({c: metrics[c]["value"] for c in counts})
    assert runs[0] == runs[1]
    assert runs[0]["kernels.stamp_calls"] > 0


def _flip_first_bit(op):
    want = op.expect.copy()
    want[0, 0] ^= 1
    return want


CORRUPTIONS = {
    "cell-dc": lambda op: tuple(v + 1e-3 for v in op.expect) if op.kind == "snm" else op.expect,
    "mc-mismatch": lambda op: op.expect + 1,
    "array-tran": _flip_first_bit,
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_corrupted_expectation_fails_ops(name):
    wl = run.make_workload(name, 3, "tiny")
    rounds = wl.rounds

    def tampered():
        for ops in rounds():
            for op in ops:
                op.expect = CORRUPTIONS[name](op)
            yield ops

    wl.rounds = tampered
    ops = run.run_rounds(wl, rounds=1)
    assert run.failed_ratio(ops.records) > 0


def test_tracer_restores_every_binding():
    modules = [m for n, m in sys.modules.items() if n == "sramlab" or n.startswith("sramlab.")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    init = sramlab.engine.MnaSystem.__init__
    tracer = Tracer()
    tracer.install()
    assert sramlab.engine.mos_stamp is not before[("sramlab.engine", "mos_stamp")]
    assert sramlab.engine.np is not np
    tracer.uninstall()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert sramlab.engine.MnaSystem.__init__ is init


def test_tail_is_the_highest_order_statistic_with_ten_beyond():
    assert run.tail([float(v) for v in range(1, 31)]) == (20.0, 100.0 * 20 / 30)
    # Fewer than twenty ops: never report below the median.
    assert run.tail([3.0, 1.0, 2.0, 5.0, 4.0]) == (3.0, 60.0)


def test_bare_benchmark_directory_exits_nonzero():
    run.RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RESULTS) as tmp:
        bare = Path(tmp)
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
        out = cli("--workload", "cell-dc", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


@pytest.mark.xfail(raises=sramlab.ConvergenceError, strict=True, reason="held-state solve stalls near 1.3 V")
@pytest.mark.parametrize("v_dd", workloads.WRITE_MARGIN_EXCLUDED)
def test_write_margin_converges_at_excluded_supplies(v_dd):
    margin = sramlab.write_margin(sramlab.build_6t_cell(), v_dd=v_dd)
    assert 0.0 <= margin <= v_dd
