"""Smoke test of the benchmark: every workload at a tiny size, in both modes.

Run from the repository root (about a minute):

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def copy_benchmark(root: Path, with_src: bool = True) -> Path:
    """``BENCHMARK.json`` and the benchmark's paths under ``root``; ``src/`` linked."""
    (root / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, root / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return root


def broken_fixture(root: Path, fname: str, mutate) -> Path:
    """A benchmark copy whose fixture ``fname`` has been changed by ``mutate``."""
    path = copy_benchmark(root) / "perfbench" / "fixtures" / fname
    data = json.loads(path.read_text())
    mutate(data)
    path.write_text(json.dumps(data))
    return root


def assert_failed_check(proc, check_name):
    assert proc.returncode != 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert f"[FAIL] {check_name}" in proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_broken_objective_fixture_fails(tmp_path):
    def raise_objective(data):
        data["rate-laplace"][0]["objective"] += 1e-6
    root = broken_fixture(tmp_path, "objective_fits.json", raise_objective)
    assert_failed_check(run("rate-laplace", 1, cwd=root), "objective gate")


def test_broken_kernel_value_fails(tmp_path):
    def nudge(data):
        data["mle.objective.s0.n1e3.us"]["value"] *= 1.0 + 1e-9
    root = broken_fixture(tmp_path, "objective_kernel.json", nudge)
    assert_failed_check(run("rate-pareto", 1, cwd=root), "objective kernel values")


def test_broken_log_cardinality_fails(tmp_path):
    def nudge(data):
        data["bounded:0.2"] = float(data["bounded:0.2"]) * (1.0 + 1e-15)
    root = broken_fixture(tmp_path, "entropy_log_cardinality.json", nudge)
    assert_failed_check(run("entropy-cover", 0, cwd=root), "log_cardinality fixture")


def test_unwrapped_function_fails_share_accounting(tmp_path):
    # unwrapped, check_s_concavity's time (1-3 % of a smoke-size study)
    # lands in run_rate_study's self time
    measure = copy_benchmark(tmp_path) / "perfbench" / "measure.py"
    span = '    "check_s_concavity": "transforms.check_s_concavity",\n'
    code = measure.read_text()
    assert code.count(span) == 1
    measure.write_text(code.replace(span, ""))
    assert_failed_check(run("rate-laplace", 1, cwd=tmp_path), "share accounting")


def test_raising_study_counts_as_failed(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import measure

    class Flaky:
        def study(self, i):
            time.sleep(0.01)
            if i == 1:
                raise ValueError("not concave")
            return i

    times, results, failed = measure.untraced_studies(Flaky(), 0.05, 0)
    assert failed == 1
    assert results[:2] == [0, 2] and len(times) == len(results) >= 3


def test_refuses_without_the_program(tmp_path):
    proc = run("rate-laplace", 0, cwd=copy_benchmark(tmp_path, with_src=False))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
