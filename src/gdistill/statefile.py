"""JSON state files and report serialization.

A state file is a JSON object

    {
      "schema_version": 1,
      "state": {
        "n_a": <int>, "n_b": <int>,
        "gamma": [[...], ...],          row-major, 2(n_a+n_b) square
        "d": [...]                      optional, defaults to zeros
      },
      "metadata": { ... }               optional, round-tripped untouched
    }

Loading validates shape, symmetry and positive definiteness and reports the
offending field in the error message.  All report serializers emit plain
dicts of JSON types with matrices row-major, so ``json.dumps(..., sort_keys
=True)`` yields byte-identical output for identical inputs.
"""

from __future__ import annotations

import json

import numpy as np

from .distill import (Concentration, NptWitness, PipelineReport,
                      SymmetrizationReport)
from .states import (CorrelationMatrix, GaussianState, NptVerdict,
                     PhysicalityVerdict)
from .two_mode import RcWitnessResult, StandardForm, StdFormParams

SCHEMA_VERSION = 1


class StateFileError(ValueError):
    """Raised when a JSON input file (a state file or a fuzz config, see
    read_json) cannot be read or parsed, or a state file fails validation."""


def _require(cond: bool, field: str, message: str):
    if not cond:
        raise StateFileError(f"field '{field}': {message}")


def state_to_dict(state: GaussianState, metadata: dict | None = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "state": {
            "n_a": state.gamma.n_a,
            "n_b": state.gamma.n_b,
            "gamma": state.gamma.entries.tolist(),
            "d": state.d.tolist(),
        },
    }
    if metadata is not None:
        doc["metadata"] = metadata
    return doc


def _is_int(value) -> bool:
    # JSON true and false load as bool, which Python counts as int
    return isinstance(value, int) and not isinstance(value, bool)


def _is_numeric(value, depth: int) -> bool:
    """value is a JSON number (not a boolean or a string), or at depth > 0 an
    array of such values nested depth deep."""
    if depth == 0:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, list) and all(_is_numeric(v, depth - 1) for v in value)


def state_from_dict(doc: dict) -> tuple[GaussianState, dict]:
    """Parse and validate a state-file document; returns (state, metadata).
    The JSON types are checked here; shapes, finiteness, symmetry and
    positive definiteness by CorrelationMatrix and GaussianState, whose
    errors are reported against the field."""
    _require(isinstance(doc, dict), "<root>", "expected a JSON object")
    version = doc.get("schema_version")
    _require(_is_int(version) and version == SCHEMA_VERSION, "schema_version",
             f"expected {SCHEMA_VERSION}, got {version!r}")
    _require("state" in doc, "state", "missing")
    state = doc["state"]
    _require(isinstance(state, dict), "state", "expected a JSON object")
    for key in ("n_a", "n_b"):
        _require(key in state, f"state.{key}", "missing")
        _require(_is_int(state[key]), f"state.{key}",
                 f"expected an integer, got {state[key]!r}")
        _require(state[key] >= 0, f"state.{key}", "must be >= 0")
    n_a, n_b = state["n_a"], state["n_b"]
    _require(n_a + n_b >= 1, "state.n_a", "partition must contain at least one mode")
    _require("gamma" in state, "state.gamma", "missing")
    _require(_is_numeric(state["gamma"], 2), "state.gamma",
             "expected an array of arrays of numbers")
    d = state.get("d")
    _require(d is None or _is_numeric(d, 1), "state.d", "expected an array of numbers")
    try:
        cm = CorrelationMatrix(entries=state["gamma"], partition=(n_a, n_b))
    except ValueError as exc:
        raise StateFileError(f"field 'state.gamma': {exc}")
    try:
        gs = GaussianState(gamma=cm, d=d)
    except ValueError as exc:
        raise StateFileError(f"field 'state.d': {exc}")
    metadata = doc.get("metadata")
    _require(metadata is None or isinstance(metadata, dict), "metadata",
             f"expected a JSON object, got {metadata!r}")
    return gs, {} if metadata is None else metadata


def read_json(path: str):
    """The JSON document in the file at path, the one reader of input files;
    StateFileError naming the path when it cannot be read or parsed."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise StateFileError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise StateFileError(f"{path} is not valid JSON: line {exc.lineno}: {exc.msg}")


def load_state(path: str) -> tuple[GaussianState, dict]:
    return state_from_dict(read_json(path))


def save_state(state: GaussianState, path: str, metadata: dict | None = None):
    with open(path, "w") as fh:
        json.dump(state_to_dict(state, metadata), fh, sort_keys=True, indent=1)
        fh.write("\n")


def dumps(doc: dict) -> str:
    """Canonical JSON form used by the command line (deterministic bytes)."""
    return json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# report serializers

def physicality_to_dict(v: PhysicalityVerdict) -> dict:
    return {
        "physical": v.physical,
        "physical_margin": v.margin,
        "min_symplectic_eigenvalue": v.min_symplectic_eigenvalue,
    }


def npt_to_dict(v: NptVerdict) -> dict:
    return {
        "npt": v.npt,
        "margin": v.margin,
        "raw_margin": v.raw_margin,
        "min_pt_symplectic_eigenvalue": v.min_pt_symplectic_eigenvalue,
    }


def params_to_dict(p: StdFormParams) -> dict:
    return {"n_a": p.n_a, "n_b": p.n_b, "k_x": p.k_x, "k_p": p.k_p}


def standard_form_to_dict(sf: StandardForm) -> dict:
    return {
        "s_a": sf.s_a.entries.tolist(),
        "s_b": sf.s_b.entries.tolist(),
        "gamma_std": sf.params.entries().tolist(),
        "params": params_to_dict(sf.params),
    }


def witness_to_dict(w: NptWitness) -> dict:
    return {
        "z_real": np.asarray(w.z).real.tolist(),
        "z_imag": np.asarray(w.z).imag.tolist(),
        "margin": w.margin,
        "eps": w.eps,
        "skew_a": w.skew_a,
        "skew_b": w.skew_b,
    }


def concentration_to_dict(c: Concentration) -> dict:
    return {
        "f_a": c.f_a.tolist(),
        "f_b": c.f_b.tolist(),
        "gamma_1x1": c.gamma_1x1.entries.tolist(),
    }


def rc_to_dict(rc: RcWitnessResult) -> dict:
    return {"r": rc.r, "value": rc.value, "asymptotic_value": rc.asymptotic_value}


def symmetrization_to_dict(rep: SymmetrizationReport) -> dict:
    return {
        "theta": rep.theta,
        "swapped_sides": rep.swapped_sides,
        "gamma_out": rep.gamma_out_entries.tolist(),
        "insep_residual_in": rep.insep_residual_in,
        "insep_residual_out": rep.insep_residual_out,
        "scale_factor": rep.scale_factor,
    }


def pipeline_report_to_dict(rep: PipelineReport) -> dict:
    """Serialize a pipeline report with the fixed stage names
    npt_check, witness, concentrate, standard_form, symmetrize, rc_witness;
    stages that did not run are omitted."""
    stages: dict = {"npt_check": npt_to_dict(rep.npt)}
    if rep.witness is not None:
        stages["witness"] = witness_to_dict(rep.witness)
    if rep.concentration is not None:
        stages["concentrate"] = concentration_to_dict(rep.concentration)
    if rep.standard_form is not None:
        stages["standard_form"] = standard_form_to_dict(rep.standard_form)
    if rep.symmetrization is not None:
        stages["symmetrize"] = symmetrization_to_dict(rep.symmetrization)
    if rep.rc is not None:
        stages["rc_witness"] = {
            "final_params": params_to_dict(rep.final_params),
            **rc_to_dict(rep.rc),
            "sweep": [rc_to_dict(r) for r in rep.rc_sweep],
        }
    return {
        "input_partition": list(rep.input_partition),
        "verdict": rep.verdict,
        "stages": stages,
    }
