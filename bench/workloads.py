"""The four benchmark workloads: input pools, the op each one times, and the
check each op's result must pass.

A pool holds every stratum of the workload's mix once, in a seeded order, so
every pass over it has exactly the stated mix; timed loops repeat whole
passes.  All randomness comes from the workload seed, and the library is
handed only the matrices.

An op's outcome is (printed text, failure reason or None).  Failure reasons:

label           a verdict that contradicts the construction label outside the
                boundary band (a wrong answer: the run is not correct)
rc_nonnegative  DISTILLABLE with reduction-criterion value >= 0
unphysical      ``validate`` refused a physical input (prints "npt": null)
fuzz_violation  the fuzz campaign recorded a violation
error:<Type>    the op raised
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from gdistill import distill, fuzz, statefile, states

from labelled import R_MAX, Spec, build

WRONG_ANSWER = "label"


def subseed(*entropy: int) -> int:
    return int(np.random.SeedSequence(entropy=entropy).generate_state(1)[0])


def _cm(inp):
    return states.CorrelationMatrix(entries=inp.gamma, partition=inp.partition)


def pipeline_op(inp):
    """``gdistill pipeline --json``: the full pipeline and its report bytes."""
    report = distill.distill_pipeline(_cm(inp))
    out = statefile.dumps(statefile.pipeline_report_to_dict(report))
    if report.verdict == distill.VERDICT_DISTILLABLE and not report.rc.value < 0:
        return out, "rc_nonnegative"
    want = distill.VERDICT_DISTILLABLE if inp.npt else distill.VERDICT_NOT_DISTILLABLE
    if inp.decisive and report.verdict != want:
        return out, WRONG_ANSWER
    return out, None


def decide_op(inp):
    """``gdistill validate``: physicality, then the NPT verdict."""
    cm = _cm(inp)
    verdict = states.validate_physical(cm)
    doc = statefile.physicality_to_dict(verdict)
    if not verdict.physical:
        doc["npt"] = None
        return statefile.dumps(doc), "unphysical"
    npt = states.is_npt(cm)
    doc.update(statefile.npt_to_dict(npt))
    out = statefile.dumps(doc)
    return out, WRONG_ANSWER if inp.decisive and npt.npt != inp.npt else None


def fuzz_op(fuzz_seed: int):
    """One trial of every registered invariant (``gdistill fuzz`` with trials=1)."""
    summary = fuzz.run_fuzz(fuzz.FuzzConfig(seed=fuzz_seed, trials=1))
    summary.pop("elapsed_seconds")
    out = statefile.dumps(summary)
    return out, "fuzz_violation" if summary["total_violations"] else None


def _specs(strata, seed: int, salt: int) -> list[Spec]:
    """Every (partition, kind) stratum once, in a seeded order.  Squeezed
    pairs get r stratified over (0, R_MAX]."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, salt)))
    order = [strata[i] for i in rng.permutation(len(strata))]
    n_sq = sum(kind == "squeezed" for _, kind in order)
    r = iter(R_MAX * (rng.permutation(n_sq) + rng.uniform(1e-3, 1.0, n_sq)) / n_sq)
    return [Spec(kind=kind, partition=part, seed=subseed(seed, salt, i),
                 r=float(next(r)) if kind == "squeezed" else 0.0)
            for i, (part, kind) in enumerate(order)]


def _mix(**shares: int) -> list[str]:
    return [kind for kind, n in shares.items() for _ in range(n)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    salt: int
    op: object
    strata: tuple = ()          # (partition, kind) pairs, each one input
    fuzz_seeds: int = 0         # fuzz only: the pool is this many fuzz seeds

    def pool(self, seed: int) -> list:
        if self.fuzz_seeds:
            return [subseed(seed, self.salt, i) for i in range(self.fuzz_seeds)]
        return [build(s) for s in _specs(self.strata, seed, self.salt)]

    def first_input(self, seed: int):
        """pool(seed)[0], without building the rest of the pool."""
        if self.fuzz_seeds:
            return subseed(seed, self.salt, 0)
        return build(_specs(self.strata, seed, self.salt)[0])


def _grid(sides):
    return list(itertools.product(sides, repeat=2))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="pipeline_small",
        why="distill_pipeline on 1x1..4x4 mixed states: per-call overhead of "
            "repeated NPT checks, validation, 4x4 det/eigh and the rc sweep",
        salt=1, op=pipeline_op,
        strata=tuple((p, k) for p in _grid(range(1, 5)) for k in _mix(
            entangled=12, thermal=3, boundary=2, squeezed=3))),
    Workload(
        name="pipeline_large",
        why="distill_pipeline on NPT states at 8x8, 4x12 and 12x12, where the "
            "O(dim^3) symplectic basis extension takes 60-75% of each op",
        salt=2, op=pipeline_op,
        strata=tuple((p, "entangled") for p in
                     [(8, 8)] * 8 + [(4, 12)] * 4 + [(12, 12)] * 8)),
    Workload(
        name="decide_mixed",
        why="validate + is_npt only on 1x1..8x8 mixed states: decision traffic "
            "that never runs the constructive stages",
        salt=3, op=decide_op,
        strata=tuple((p, k) for p in _grid(range(1, 9)) for k in _mix(
            thermal=7, entangled=7, boundary=3, squeezed=3))),
    Workload(
        name="fuzz_campaign",
        why="one trial of all 18 fuzz invariants per op: random states, random "
            "symplectics (expm), Wigner companions, homodyne conditioning",
        salt=4, op=fuzz_op, fuzz_seeds=128),
)}
