"""Self-test of the benchmark on tiny instances of its three shapes.

    python3 -m pytest -q perfbench
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import bench  # noqa: E402
import run  # noqa: E402

TINY = {"rook6": ("rook", 3), "cyclic7": ("cyclic_shift", 4),
        "rotation10": ("rotation", 5)}
SECONDS = 0.2

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    CONTRACT = json.load(fh)

COUNTS = ("zeta.adds", "zeta.budget_ratio", "mobius.adds", "group_fwd.adds",
          "group_fwd.mults", "group_inv.adds", "group_inv.mults",
          "shape.size", "shape.d_classes", "shape.pairs", "shape.max_group")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_printed_with_unit(workload, trace):
    lines, result, spans = bench.run(*TINY[workload], seed=1,
                                     seconds=SECONDS, trace=bool(trace))
    declared = {m["name"]: m["unit"]
                for m in CONTRACT["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    # error_rate reads 0, so it is printed but kept out of the metrics
    for name, unit in [*declared.items(), ("error_rate", "ratio")]:
        assert any(line.startswith(f"{name} ") and f" {unit}" in line
                   for line in lines), name
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= bench.MIN_ITERATIONS + 2
    assert any(line.startswith("error_rate 0.0 ratio") for line in lines)
    assert any(line.startswith("env ") for line in lines)
    assert bool(spans) == bool(trace)
    if trace:
        assert result["metrics"]["zeta.fallbacks"]["value"] == 0
        assert result["metrics"]["mobius.fallbacks"]["value"] == 0


@pytest.mark.parametrize("workload", sorted(TINY))
def test_op_counts_and_shape_repeat_across_seeds(workload):
    runs = [bench.run(*TINY[workload], seed=seed, seconds=SECONDS,
                      trace=True)[1]["metrics"] for seed in (1, 2)]
    for name in COUNTS:
        assert runs[0][name] == runs[1][name], name


def test_perturbed_spectrum_block_fails_the_checks(monkeypatch):
    exact_fft = bench.fft

    def perturbed_fft(f, Y, counter=None):
        c = exact_fft(f, Y, counter).copy()
        c.blocks[-1][0, 0] += 1e-3
        return c

    monkeypatch.setattr(bench, "fft", perturbed_fft)
    monkeypatch.setitem(bench.WORKLOADS, "rook6", TINY["rook6"])
    lines, result, _ = bench.run(*TINY["rook6"], seed=1, seconds=SECONDS,
                                 trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] - 1  # all but convolve
    error_rate = next(line for line in lines if line.startswith("error_rate "))
    assert float(error_rate.split()[1]) > 0
    assert run.main(["--workload", "rook6", "--seed", "1",
                     "--seconds", str(SECONDS), "--trace", "0"]) != 0


def test_tail_is_the_highest_percentile_with_ten_beyond():
    value, pct = bench.tail([float(x) for x in range(100)])
    assert (value, pct) == (89.0, 90.0)
    assert bench.tail([float(x) for x in range(11)]) == (0.0, 100 / 11)


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rook6",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
