"""Op-stream reproducibility, the stolen-time arithmetic and tiny-size
smoke runs of the benchmark.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root; the smoke runs boot real fleets and take about a minute.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from run import sliced_rate, unstolen  # noqa: E402
from workload import WORKLOADS, OpStream, stolen_share  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _ops(name: str, seed: int, count: int = 40) -> list:
    stream = OpStream(WORKLOADS[name], seed)
    lanes = WORKLOADS[name].lanes
    return [stream.next(i % lanes) for i in range(count)]


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_op_sequence(name):
    first = _ops(name, 7)
    assert first == _ops(name, 7)
    assert first != _ops(name, 8)
    kinds = {kind for _, kind, _ in first}
    assert "read" in kinds and kinds & {"append", "stream"}


def test_stolen_time_is_taken_out():
    assert stolen_share((100, 10), (180, 30)) == pytest.approx(0.2)
    assert stolen_share((100, 10), (100, 10)) == 0.0
    # The second second had half its time stolen and got through half
    # as many ops, each taking twice as long.
    slices = [(0.0, 1.0, 0.0), (1.0, 2.0, 0.5)]
    ops = [(i * 0.1, (i + 1) * 0.1, 1.0) for i in range(10)]
    ops += [(1.0 + i * 0.2, 1.0 + (i + 1) * 0.2, 1.0) for i in range(5)]
    assert sliced_rate(ops, slices) == pytest.approx(10.0)
    assert 0.2 * unstolen(slices, 1.0, 1.2) == pytest.approx(0.1)
    assert unstolen(slices, 0.5, 1.5) == pytest.approx(0.75)
    assert unstolen([], 0.0, 1.0) == 1.0


def _run(name: str, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, os.path.join(BENCH, "run.py"),
            "--workload", name, "--seed", "3", "--seconds", "1",
            "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("facts: ")
    facts = json.loads(lines[0][len("facts: "):])
    assert facts["network"] == "loopback TCP" and facts["seed"] == 3
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric(name, trace):
    result = _run(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_refuses_without_program_sources(tmp_path):
    bench_copy = tmp_path / "perfbench"
    bench_copy.mkdir()
    for name in ("run.py", "workload.py", "spans.py", "node.py"):
        (bench_copy / name).write_text(open(os.path.join(BENCH, name)).read())
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "serial_mix",
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == "" or not proc.stdout.strip().splitlines()[-1].startswith("{")
