import dataclasses
import inspect
import json
import re

import numpy as np
import pytest

from gdistill import (DEFAULT_TOLERANCES, FuzzConfig, cli, distill, fuzz,
                      run_fuzz, states, vacuum)
from gdistill.fuzz import REGISTRY, Violation


# every setting FuzzConfig dropped, the partition range, the kind mix and the
# 13 bounds it had, the 9 bounds named since, and the two scaling-law bounds
# and three others that left with their checks: no bound is settable
REMOVED_KEYS = ["max_modes_a", "max_modes_b", "npt_fraction_target",
                "scaling_rel", "scaling_abs", "pairing", "ordering", "unit_slack",
                *DEFAULT_TOLERANCES]


def test_config_defaults_and_overrides():
    # seed and trials are the only settings
    assert [f.name for f in dataclasses.fields(FuzzConfig)] == ["seed", "trials"]
    cfg = FuzzConfig()
    assert cfg.trials == 1000 and cfg.seed == 0
    cfg = FuzzConfig(seed=3, trials=42)
    assert cfg.seed == 3 and cfg.trials == 42


def test_config_validation():
    with pytest.raises(ValueError):
        FuzzConfig(trials=0)
    for bad in ({"trials": "many"}, {"seed": 1.5}, {"trials": True}, {"seed": -1},
                [1, 2], {"trials": 5, "bogus_field": 1}, {"tolerances": {}}):
        with pytest.raises(ValueError):
            FuzzConfig.from_dict(bad)


@pytest.mark.parametrize("name, value", [("seed", 1.5), ("seed", np.float64(2.0)),
                                         ("seed", True), ("trials", True),
                                         ("trials", 20.0), ("trials", "20")])
def test_config_refuses_a_value_that_is_not_an_integer(name, value):
    # a float seed used to run the campaign of its integer part under its own name
    with pytest.raises(ValueError, match=f"config field '{name}' must be an integer"):
        FuzzConfig(**{name: value})


def test_config_stores_integers_as_int():
    cfg = FuzzConfig(seed=np.int64(3), trials=np.uint8(7))
    assert type(cfg.seed) is int and type(cfg.trials) is int
    assert cfg == FuzzConfig(seed=3, trials=7)


def test_config_dict_roundtrip():
    cfg = FuzzConfig(seed=3, trials=42)
    assert cfg.to_dict() == {"seed": 3, "trials": 42}
    assert FuzzConfig.from_dict(cfg.to_dict()) == cfg
    assert FuzzConfig.from_dict({}) == FuzzConfig()


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_config_keys_are_rejected(key, tmp_path, capsys):
    doc = {"trials": 5, key: 1}
    with pytest.raises(ValueError, match=key):
        FuzzConfig.from_dict(doc)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["fuzz", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and key in err


def test_default_tolerances_are_read_only_library_guards():
    with pytest.raises(TypeError):
        DEFAULT_TOLERANCES["purity"] = 1.0
    assert len(DEFAULT_TOLERANCES) == 17 and len(REMOVED_KEYS) == 25
    guards = {"verdict_band": distill.BOUNDARY_BAND,
              "purity": states.PURITY_TOL,
              "symmetry": distill.SYMMETRY_TOL}
    for name, guard in guards.items():
        assert DEFAULT_TOLERANCES[name] == guard, name


def test_every_default_tolerance_is_read_by_a_check():
    # a bound whose check was deleted must go with it
    source = inspect.getsource(fuzz)
    read = set(re.findall(r'DEFAULT_TOLERANCES\["(\w+)"\]', source))
    assert set(DEFAULT_TOLERANCES) <= read, set(DEFAULT_TOLERANCES) - read


def test_registry_names_are_stable():
    # trial streams are keyed by registry index: a reorder changes every campaign
    assert tuple(name for name, _ in REGISTRY) == (
        "form_matrix_structure", "symplectic_group_closure",
        "symplectic_spectrum_congruence_invariance", "basis_extension_pairing",
        "physicality_criteria_agree", "partial_transpose_involution",
        "wigner_involution_and_purity", "npt_local_invariance",
        "conditioning_preserves_physicality", "two_mode_equivalence",
        "standard_form_local_invariance", "inseparable_kxkp_negative",
        "symmetric_specialization", "wigner_duality_inequalities", "rc_soundness",
        "symmetrization_invariants", "concentration_invariants", "pipeline_equivalence")


def test_run_fuzz_small_campaign_clean():
    summary = run_fuzz(FuzzConfig(trials=25, seed=0))
    assert summary["total_violations"] == 0
    assert summary["violations"] == []
    assert set(summary["invariants"]) == {name for name, _ in REGISTRY}
    for entry in summary["invariants"].values():
        assert entry == {"checked": 25, "violations": 0}
    assert summary["config"]["trials"] == 25
    assert summary["elapsed_seconds"] > 0


def test_run_fuzz_reproducible():
    a = run_fuzz(FuzzConfig(trials=10, seed=5))
    b = run_fuzz(FuzzConfig(trials=10, seed=5))
    a.pop("elapsed_seconds"), b.pop("elapsed_seconds")
    assert a == b


def test_run_fuzz_records_violations_without_crashing(monkeypatch):
    # one invariant fails with a state, one raises unexpectedly; the campaign
    # must finish and record both, the state dumped with the first
    def fails(t):
        raise Violation("deliberate", state=vacuum(1, 1))

    def crashes(t):
        raise RuntimeError("boom")

    monkeypatch.setattr(fuzz, "REGISTRY", (("fails", fails), ("crashes", crashes)))
    summary = run_fuzz(FuzzConfig(trials=3, seed=0))
    assert summary["total_violations"] == 6
    assert summary["invariants"] == {"fails": {"checked": 3, "violations": 3},
                                     "crashes": {"checked": 3, "violations": 3}}
    first, last = summary["violations"][0], summary["violations"][-1]
    assert {"invariant", "trial", "seed_entropy", "message"} <= set(first)
    assert first["seed_entropy"] == [0, 0, 0]
    assert first["state"] == {"n_a": 1, "n_b": 1, "gamma": np.eye(4).tolist()}
    assert last["invariant"] == "crashes" and "state" not in last
    assert last["message"] == "unexpected RuntimeError: boom"


def test_run_fuzz_caps_the_dumped_violations(monkeypatch):
    # every violation is counted, but only the first 25 are dumped
    def fails(t):
        raise Violation("deliberate")

    monkeypatch.setattr(fuzz, "REGISTRY", (("first", fails), ("second", fails)))
    summary = run_fuzz(FuzzConfig(trials=15, seed=0))
    assert summary["total_violations"] == 30
    assert len(summary["violations"]) == 25
    assert [v["invariant"] for v in summary["violations"]] == ["first"] * 15 + ["second"] * 10
