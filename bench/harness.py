"""Benchmark runs: the untraced timed run (end-to-end metrics) and the traced
run (per-layer metrics).  See README.md for what each metric means."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

import gdistill
from gdistill.fuzz import REGISTRY

import tracing
from workloads import WORKLOADS, WRONG_ANSWER

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_RUNS = 7
PROBE_TIMEOUT_S = 120
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_frac": "frac",
    "peak_rss_mb": "MB",
}

# (metric, how it is computed, span name or counter)
_PER_LAYER_SOURCES = [
    ("symplectic.extend_to_symplectic_basis_ms", "incl", "symplectic.extend_to_symplectic_basis"),
    ("states.is_npt_ms", "incl", "states.is_npt"),
    ("states.is_npt_calls", "calls", "states.is_npt"),
    ("states.validate_physical_ms", "incl", "states.validate_physical"),
    ("states.validate_physical_calls", "calls", "states.validate_physical"),
    ("states.cm_constructions", "calls", "states.CorrelationMatrix"),
    ("states.wigner_cm_calls", "calls", "states.wigner_cm"),
    ("symplectic.symplectic_eigenvalues_ms", "incl", "symplectic.symplectic_eigenvalues"),
    ("symplectic.symplectic_eigenvalues_calls", "calls", "symplectic.symplectic_eigenvalues"),
    ("symplectic.form_matrix_calls", "calls", "symplectic.form_matrix"),
    ("symplectic.random_symplectic_ms", "incl", "symplectic.random_symplectic"),
    ("two_mode.rc_value_ms", "incl", "two_mode.rc_value"),
    ("two_mode.standard_form_params_calls", "calls", "two_mode.standard_form_params"),
    ("two_mode.standard_form_transform_ms", "incl", "two_mode.standard_form_transform"),
    ("distill.distill_pipeline_ms", "incl", "distill.distill_pipeline"),
    ("distill.find_npt_witness_ms", "incl", "distill.find_npt_witness"),
    ("distill.concentrate_ms", "incl", "distill.concentrate"),
    ("distill.symmetrize_ms", "incl", "distill.symmetrize"),
    ("distill.witness_attempts", "calls", "distill.find_npt_witness"),
    ("distill.witness_retries", "counter", "distill.witness_retries"),
    ("distill.concentrate_success_ratio", "ok_ratio", "distill.concentrate"),
    ("random_states.local_scramble_ms", "incl", "random_states.local_scramble"),
    ("statefile.report_serialize_ms", "entered", "statefile"),
    *((f"fuzz.{name}_ms", "incl", f"fuzz.{name}") for name, _ in REGISTRY),
    *((f"linalg.{k}_calls", "calls", f"linalg.{k}") for k in (*tracing.LINALG, "expm")),
    ("linalg.dim3_computed", "counter", "linalg.dim3"),
    *((f"layer.{layer}_self_ms", "self", layer)
      for layer in (*tracing.LAYERS, "linalg", "bench")),
]
_UNITS = {"incl": ("ms/op", "lower"), "entered": ("ms/op", "lower"),
          "self": ("ms/op", "lower"), "calls": ("1/op", "lower"),
          "counter": ("1/op", "lower"), "ok_ratio": ("frac", "higher")}
PER_LAYER = {name: _UNITS[how] for name, how, _ in _PER_LAYER_SOURCES}
PER_LAYER["linalg.dim3_computed"] = ("n3/op", "lower")
PER_LAYER["trace.overhead_frac"] = ("frac", "lower")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Tally:
    """Outcomes of every op of a run, keyed by the input's pool index.

    Each input keeps its fastest time over its repeats: on a shared machine
    contention only ever slows an op down, so the per-input minimum is the
    steadiest estimate of what the op costs.

    ``attempted`` and ``failed`` count inputs, not executions: an input's
    outcome must be the same on every repeat (a different outcome or
    different bytes is a determinism mismatch), so the counts depend on the
    seed alone and not on how many passes fitted in the run.
    """

    def __init__(self):
        self.best: dict[int, float] = {}
        self.reasons: dict[int, str | None] = {}
        self.kinds: dict[int, str] = {}
        self.executions = 0
        self.first_messages: dict[str, str] = {}
        self.digests: dict[int, str] = {}
        self.mismatches: list[str] = []

    def run(self, workload, key: int, inp, call=None):
        """Time one op; call(op, inp) lets the tracer wrap it."""
        start = time.perf_counter()
        try:
            out, reason = call(workload.op, inp) if call else workload.op(inp)
        except Exception as exc:  # a refused op is counted, not fatal
            out, reason = f"{type(exc).__name__}: {exc}", f"error:{type(exc).__name__}"
        seconds = time.perf_counter() - start
        self.executions += 1
        self.record(key, digest(out), reason, getattr(inp, "kind", "fuzz"))
        self.best[key] = min(seconds, self.best.get(key, seconds))
        if reason is not None:
            self.first_messages.setdefault(reason, out[:300])

    def record(self, key: int, dg: str, reason: str | None, kind: str):
        if self.digests.setdefault(key, dg) != dg:
            self.mismatches.append(f"input {key} printed different bytes on a repeat")
        if self.reasons.setdefault(key, reason) != reason:
            self.mismatches.append(f"input {key} changed outcome on a repeat")
        self.kinds[key] = kind

    @property
    def attempted(self) -> int:
        return len(self.reasons)

    @property
    def failures(self) -> Counter:
        return Counter(r for r in self.reasons.values() if r is not None)

    @property
    def failed_kinds(self) -> Counter:
        return Counter(f"{r}/{self.kinds[k]}" for k, r in self.reasons.items()
                       if r is not None)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def correct(self) -> bool:
        return not self.mismatches and not self.failures[WRONG_ANSWER]

    def ok_best(self) -> list[float]:
        return [t for k, t in self.best.items() if self.reasons[k] is None]

    def output_digest(self) -> str:
        return digest("".join(self.digests[k] for k in sorted(self.digests)))


def run_pass(workload, pool, tally: Tally, call=None):
    for i, inp in enumerate(pool):
        tally.run(workload, i, inp, call)


def probe(workload, seed: int) -> dict:
    """Body of a fresh-interpreter set-up run: one op on the first input."""
    tally = Tally()
    tally.run(workload, 0, workload.first_input(seed))
    return {"digest": tally.digests[0]}


def setup_probe(workload, seed: int) -> tuple[float, str]:
    """Wall time of a fresh interpreter that imports gdistill and runs one op,
    with the digest it printed."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--probe",
           "--workload", workload.name, "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return (time.perf_counter() - start,
            json.loads(proc.stdout.strip().splitlines()[-1])["digest"])


def end_to_end(workload, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    """Whole passes over the pool until ``seconds`` have gone by.

    The budget covers building the pool and the SETUP_RUNS set-up probes
    too, so a run takes about ``seconds`` whatever the workload.  Latencies
    are quantiles over the inputs of each input's best time; ops_per_s is
    successful inputs over the summed best times of all inputs.  The probes
    run between passes, spread over the run: back-to-back probes see the
    same machine state and vary together.
    """
    start = time.perf_counter()
    probes = [setup_probe(workload, seed)]
    pool = workload.pool(seed)
    gen_s = time.perf_counter() - start - probes[0][0]
    warm = Tally()
    warm.run(workload, 0, pool[0])
    tally = Tally()
    wall = 0.0
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        pass_start = time.perf_counter()
        run_pass(workload, pool, tally)
        wall += time.perf_counter() - pass_start
        passes += 1
        due = len(probes) * seconds / SETUP_RUNS
        if len(probes) < SETUP_RUNS and time.perf_counter() - start >= due:
            probes.append(setup_probe(workload, seed))
    while len(probes) < SETUP_RUNS:
        probes.append(setup_probe(workload, seed))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first = tally.digests[0]
    if any(dg != first for _, dg in probes) or warm.digests[0] != first:
        tally.mismatches.append("a fresh interpreter printed different bytes for input 0")
    ok = tally.ok_best()
    if not ok:
        raise RuntimeError(f"no {workload.name} op succeeded; there is nothing to time")
    p50 = statistics.median(ok)
    p90 = statistics.quantiles(ok, n=10)[8] if len(ok) > 1 else ok[0]
    values = {
        "setup_s": statistics.median(s for s, _ in probes),
        "ops_per_s": len(ok) / sum(tally.best.values()),
        "latency_p50_ms": 1e3 * p50,
        "latency_p90_ms": 1e3 * p90,
        "success_frac": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": rss_mb,
    }
    details = {"setup_runs_s": [s for s, _ in probes], "input_generation_s": gen_s,
               "timed_s": wall, "passes": passes, "inputs": len(pool),
               "executions": tally.executions,
               "latency_samples": len(ok)}
    return values, tally, details


def layer_values(table: dict, counters: Counter, ops: int) -> dict:
    layers: dict[str, dict] = {}
    for name, row in table.items():
        acc = layers.setdefault(tracing.layer_of(name), Counter())
        acc["self"] += row["self"]
        acc["entered"] += row["entered"]
    values = {}
    for metric, how, key in _PER_LAYER_SOURCES:
        row = table.get(key, {})
        if how == "incl":
            value = 1e3 * row.get("incl", 0.0) / ops
        elif how in ("self", "entered"):
            value = 1e3 * layers.get(key, {}).get(how, 0.0) / ops
        elif how == "calls":
            value = row.get("calls", 0) / ops
        elif how == "counter":
            value = counters[key] / ops
        else:  # ok_ratio: useful calls over attempted calls, 0 when none
            calls = row.get("calls", 0)
            value = (calls - row["failed"]) / calls if calls else 0.0
        values[metric] = value
    return values


def traced(workload, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    """Alternate untraced and traced passes over the pool.

    Counts are per op and identical on every traced pass; times are per-op
    means over all traced passes.  The overhead compares the summed best
    times of the two kinds of pass.  The spans of the first traced pass are
    kept for writing out.
    """
    pool = workload.pool(seed)
    plain, traced_tally = Tally(), Tally()
    plain.run(workload, 0, pool[0])  # warm-up
    tracer = tracing.Tracer()
    table: dict[str, Counter] = {}
    counters: Counter = Counter()
    first_counts = kept = None
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        run_pass(workload, pool, plain)
        tracer.clear()
        ids = iter(range(passes * len(pool), (passes + 1) * len(pool)))
        with tracing.installed(tracer):
            run_pass(workload, pool, traced_tally,
                     call=lambda op, inp: tracer.run_op(next(ids), op, inp))
        passes += 1
        pass_table = tracing.span_table(tracer.spans, tracer.names)
        counts = ({n: r["calls"] for n, r in pass_table.items()}, dict(tracer.counters))
        if first_counts is None:
            first_counts, kept = counts, (list(tracer.names), list(tracer.spans))
        elif counts != first_counts:
            plain.mismatches.append("span or counter totals differ between traced passes")
        for name, row in pass_table.items():
            table.setdefault(name, Counter()).update(row)
        counters.update(tracer.counters)
    for key, dg in traced_tally.digests.items():  # a traced op is one more repeat
        plain.record(key, dg, traced_tally.reasons[key], traced_tally.kinds[key])
    values = layer_values(table, counters, passes * len(pool))
    values["trace.overhead_frac"] = (1.0 - sum(plain.best.values())
                                     / sum(traced_tally.best.values()))
    plain.mismatches += traced_tally.mismatches
    details = {"passes": passes, "inputs": len(pool),
               "executions": plain.executions + traced_tally.executions}
    return values, plain, {**details, "spans": kept}


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "gdistill": gdistill.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": commit,
        "seed": seed,
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    values, tally, details = (traced if trace else end_to_end)(workload, seed, seconds)
    units = {m: u for m, (u, _) in PER_LAYER.items()} if trace else END_TO_END
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }
    spans = details.pop("spans", None)
    record = {
        "workload": name, "seconds": seconds, "trace": int(trace),
        "environment": environment(seed), "result": result, "details": details,
        "failures": dict(tally.failures), "failures_by_kind": dict(tally.failed_kinds),
        "first_failure_messages": tally.first_messages,
        "determinism_mismatches": tally.mismatches,
        "output_digest": tally.output_digest(),
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if spans is not None:
        names, rows = spans
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps(
            {"names": names, "columns": ["name", "start_s", "end_s", "parent", "op", "ok"],
             "spans": rows}))
    return record


def report(record: dict):
    result = record["result"]
    print(f"== {record['workload']}  seed={record['environment']['seed']}  "
          f"trace={record['trace']}  attempted={result['attempted']}  "
          f"failed={result['failed']}  correct={result['correct']}")
    for reason, n in sorted(record["failures_by_kind"].items()):
        print(f"   failed {reason}: {n}")
    for problem in record["determinism_mismatches"][:5]:
        print(f"   determinism: {problem}")
    details = record["details"]
    print(f"   {details['inputs']} inputs, {details['passes']} passes; "
          f"output digest {record['output_digest']}")
    for name, metric in result["metrics"].items():
        print(f"   {name} = {metric['value']:.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gdistill benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if args.probe:
        print(json.dumps(probe(WORKLOADS[args.workload], args.seed)))
        return 0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    for record in records:
        report(record)
    if args.workload == "all":
        print(json.dumps({r["workload"]: r["result"] for r in records}))
    else:
        print(json.dumps(records[0]["result"]))
    return 0 if all(r["result"]["correct"] for r in records) else 1
