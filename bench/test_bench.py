"""Tests of the benchmark itself: construction labels, the closed-form
partial-transpose eigenvalue, span arithmetic, and a tiny run of each workload.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gdistill  # noqa: E402
from gdistill import (CorrelationMatrix, is_npt, partial_transpose,  # noqa: E402
                      symplectic_eigenvalues, tmss_cm)

import harness  # noqa: E402
import tracing  # noqa: E402
from labelled import KINDS, PAD_NU, Spec, build, core_for, embed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def min_pt_nu(gamma: np.ndarray, partition) -> float:
    cm = CorrelationMatrix(entries=gamma, partition=partition)
    return float(symplectic_eigenvalues(partial_transpose(cm).entries)[0])


@pytest.mark.parametrize("partition", [(1, 1), (2, 3), (4, 1)])
@pytest.mark.parametrize("seed", range(4))
def test_thermal_products_are_labelled_and_decided_ppt(partition, seed):
    inp = build(Spec("thermal", partition, seed))
    assert not inp.npt and inp.decisive
    assert not is_npt(CorrelationMatrix(entries=inp.gamma, partition=partition)).npt


@pytest.mark.parametrize("r", [0.05, 0.5, 1.0, 2.0])
def test_squeezed_pairs_are_labelled_and_decided_npt(r):
    inp = build(Spec("squeezed", (1, 2), seed=5, r=r))
    assert inp.npt and inp.decisive
    assert inp.nu_tilde == pytest.approx(np.exp(-2 * r), rel=1e-12)
    assert is_npt(CorrelationMatrix(entries=inp.gamma, partition=(1, 2))).npt


@pytest.mark.parametrize("seed", range(4))
def test_entangled_inputs_are_labelled_and_decided_npt(seed):
    inp = build(Spec("entangled", (3, 2), seed))
    assert inp.npt and inp.decisive
    assert is_npt(CorrelationMatrix(entries=inp.gamma, partition=(3, 2))).npt


@pytest.mark.parametrize("kind", [k for k in KINDS if k != "thermal"])
@pytest.mark.parametrize("seed", range(6))
def test_nu_tilde_is_a_minus_c_on_unscrambled_cores(kind, seed):
    rng = np.random.default_rng(seed)
    core, nu_t = core_for(kind, rng, r=3.0 * (seed + 1) / 6)
    assert core[0, 0] - core[0, 2] == pytest.approx(nu_t, rel=1e-12)
    assert min_pt_nu(core, (1, 1)) == pytest.approx(nu_t, rel=1e-10, abs=1e-12)
    pad = rng.uniform(*PAD_NU, size=5)
    assert min_pt_nu(embed(core, pad, 2), (2, 3)) == pytest.approx(nu_t, rel=1e-10, abs=1e-12)


def test_boundary_inputs_sit_inside_the_band():
    for seed in range(20):
        inp = build(Spec("boundary", (2, 2), seed))
        assert 1e-9 <= abs(inp.nu_tilde - 1.0) <= 1e-6
        assert not inp.decisive


def test_self_time_on_a_synthetic_span_tree():
    names = ["bench.op", "distill.a", "states.b", "linalg.c"]
    spans = [  # name, start, end, parent, op, ok
        [0, 0.0, 10.0, -1, 0, True],
        [1, 1.0, 7.0, 0, 0, True],
        [2, 2.0, 5.0, 1, 0, True],
        [3, 3.0, 4.0, 2, 0, True],
        [3, 5.5, 6.0, 1, 0, False],
        [2, 8.0, 9.0, 0, 0, True],
    ]
    table = tracing.span_table(spans, names)
    assert table["bench.op"]["self"] == pytest.approx(10 - 6 - 1)
    assert table["distill.a"]["self"] == pytest.approx(6 - 3 - 0.5)
    assert table["states.b"]["self"] == pytest.approx((3 - 1) + 1)
    assert table["linalg.c"]["self"] == pytest.approx(1.5)
    assert table["linalg.c"]["calls"] == 2 and table["linalg.c"]["failed"] == 1
    assert table["states.b"]["entered"] == pytest.approx(4.0)
    assert sum(r["self"] for r in table.values()) == pytest.approx(10.0)


def test_tally_counts_inputs_not_repeats_and_flags_a_changed_outcome():
    outcomes = iter([("a", None), ("b", "unphysical"), ("a", None), ("b", "unphysical"),
                     ("a", None), ("b", None)])
    workload = WORKLOADS["decide_mixed"]
    tally = harness.Tally()
    for key in (0, 1, 0, 1):
        tally.run(workload, key, None, call=lambda op, inp: next(outcomes))
    assert (tally.attempted, tally.failed, tally.executions) == (2, 1, 4)
    assert tally.correct
    tally.run(workload, 0, None, call=lambda op, inp: next(outcomes))
    tally.run(workload, 1, None, call=lambda op, inp: next(outcomes))
    assert not tally.correct
    assert tally.mismatches == ["input 1 changed outcome on a repeat"]


def test_tracer_patches_importing_modules_and_restores_them():
    original = gdistill.distill.is_npt
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert gdistill.distill.is_npt is not original
        tracer.run_op(0, gdistill.distill.is_npt, tmss_cm(0.5))
    assert gdistill.distill.is_npt is original
    assert gdistill.states.CorrelationMatrix.__post_init__.__name__ == "__post_init__"
    table = tracing.span_table(tracer.spans, tracer.names)
    assert table["states.is_npt"]["calls"] == 1
    assert table["states.validate_physical"]["calls"] == 1
    assert table["linalg.eigvalsh"]["calls"] >= 1
    assert tracer.counters["linalg.dim3"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_of_each_workload_is_correct_and_deterministic(name):
    plain = harness.run(name, seed=3, seconds=0.0, trace=False)
    traced = harness.run(name, seed=3, seconds=0.0, trace=True)
    for record, metrics in ((plain, harness.END_TO_END), (traced, harness.PER_LAYER)):
        result = record["result"]
        assert result["correct"], record["determinism_mismatches"]
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == set(metrics)
    assert plain["output_digest"] == traced["output_digest"]
    assert plain["result"]["metrics"]["ops_per_s"]["value"] > 0


def test_benchmark_json_names_every_metric_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == harness.PER_LAYER


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "pipeline_small"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
