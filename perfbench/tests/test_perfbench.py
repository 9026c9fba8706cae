"""Fast tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from hkforms import bianchi, suites  # noqa: E402


def test_self_time_subtracts_the_union_of_child_spans():
    tree = [
        ["suites.run_x", 0.0, 12.0, -1, 0],
        ["root", 1.0, 11.0, 0, 0],
        ["a", 2.0, 5.0, 1, 0],    # overlaps its sibling b on [4, 5]
        ["b", 4.0, 7.0, 1, 0],
        ["a", 3.0, 4.0, 2, 0],    # nested call of the same function
        ["c", 9.0, 10.0, 1, 0],
    ]
    selfs = spans.self_times(tree)
    assert selfs["suites.run_x"] == 2.0
    assert selfs["root"] == 10.0 - 5.0 - 1.0
    assert selfs["a"] == (3.0 - 1.0) + 1.0
    assert selfs["b"] == 3.0
    assert selfs["c"] == 1.0
    assert spans.total_times(tree)["a"] == 4.0
    # the suite runner span is not a layer: coverage is root's 10 s of 20 s
    assert spans.coverage(tree, 20.0) == 0.5


def test_highest_percentile_keeps_ten_samples_above():
    assert run.highest_percentile(list(range(10))) is None
    pct, value = run.highest_percentile(list(range(20, 0, -1)))
    assert pct == 50.0
    assert sum(1 for x in range(1, 21) if x > value) == 10


def test_tightened_tolerances_are_failed_operations_not_a_stop(tmp_path):
    wl = workloads.SuiteWorkload(("taubnut", "quotient"), 7, tmp_path,
                                 extra_argv=("--tol-scale", "1e-30"))
    tally = workloads.Tally()
    wl.run_pass(tally)
    assert tally.failed > 0
    assert tally.wrong == tally.failed
    assert set(wl.digests) == {"taubnut", "quotient"}


def test_refused_call_and_raising_item_are_counted(tmp_path):
    tally = workloads.Tally()
    refused = workloads.SuiteWorkload(("taubnut",), 7, tmp_path, extra_argv=("--tol-scale", "-1"))
    refused.run_pass(tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 0)

    sweep = workloads.SweepWorkload(0)
    sweep.items = [("bianchi.taubnut", {"m": 1.125}),
                   ("exterior.star-star", {"dim": 4, "a": {(0, 1): 1.0 + 2.0j}})]
    tally = workloads.Tally()
    sweep.run_pass(tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 0)
    assert "ArithmeticError" in tally.notes[0]


def test_seed_changes_sweep_inputs_but_not_item_counts():
    a, b = workloads.build_sweep(1), workloads.build_sweep(2)
    assert [family for family, _ in a] == [family for family, _ in b]
    assert a != b
    assert workloads.build_sweep(1) == a
    masses = [p["m"] for family, p in a if family == "bianchi.taubnut"]
    assert sum(m in workloads.TN_RAISES for m in masses) == 1


def _one_item_per_family(seed):
    seen = {}
    for family, params in workloads.build_sweep(seed):
        seen.setdefault(family, (family, params))
    return list(seen.values())


def test_per_layer_counts_repeat_exactly(tmp_path):
    sweep = workloads.SweepWorkload(5)
    sweep.items = _one_item_per_family(5)
    suite = workloads.SuiteWorkload(("taubnut",), 5, tmp_path)
    runs = []
    for _ in range(2):
        with spans.Tracer() as tracer:
            for wl in (sweep, suite):
                wl.run_pass(workloads.Tally(), tracer)
        runs.append((dict(tracer.counts), [s[0] for s in tracer.spans]))
    assert runs[0] == runs[1]
    counts = runs[0][0]
    assert counts["numerics.exterior_derivative_at.evals"] == \
        49 * counts["numerics.exterior_derivative_at.calls"]
    assert counts["nahm.ivp_tangent.nodes"] == 501
    assert counts["nahm.nahm_residual.calls"] == 2
    assert counts["nahm.bump_gauge_path.calls"] == 1
    assert counts["report.emit_json.bytes"] > 0


def test_tracer_sees_from_imports_and_restores_them():
    original = bianchi.classify_l2
    runner = suites._RUNNERS["taubnut"]
    with spans.Tracer():
        assert bianchi.classify_l2 is not original
        assert suites._RUNNERS["taubnut"] is not runner
        assert suites.run_taubnut is suites._RUNNERS["taubnut"]
    assert bianchi.classify_l2 is original
    assert suites._RUNNERS["taubnut"] is runner


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "verify-sweep", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
