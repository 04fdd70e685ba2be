import json
import re
import subprocess
import sys

import numpy as np
import pytest

import gdistill.cli as cli
from gdistill import (
    CorrelationMatrix,
    FuzzConfig,
    GaussianState,
    StateFileError,
    distill_pipeline,
    find_npt_witness,
    is_npt,
    load_state,
    pipeline_report_to_dict,
    random_npt_cm,
    random_state,
    save_state,
    state_from_dict,
    state_to_dict,
    tmss_cm,
    vacuum,
    validate_physical,
)
from gdistill.statefile import (dumps, npt_to_dict, params_to_dict, read_json,
                                witness_to_dict)
from gdistill.two_mode import standard_form_params

CLI = [sys.executable, "-m", "gdistill.cli"]


def run_cli(*args, env=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=env)


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def write_state(tmp_path, name, gamma, metadata=None):
    st = GaussianState(gamma=gamma)
    path = tmp_path / name
    save_state(st, str(path), metadata=metadata)
    return str(path)


# ---------------------------------------------------------------------------
# state files


def test_state_roundtrip_dict():
    st = GaussianState(gamma=tmss_cm(0.5), d=[0.1, 0.0, -0.2, 0.3])
    doc = state_to_dict(st, metadata={"tag": 7})
    back, meta = state_from_dict(doc)
    assert back.gamma.partition == (1, 1)
    assert np.array_equal(back.gamma.entries, st.gamma.entries)
    assert np.array_equal(back.d, st.d)
    assert meta == {"tag": 7}


def test_state_roundtrip_file(tmp_path):
    g = random_npt_cm(2, 1, seed=3)
    st = GaussianState(gamma=g)
    path = tmp_path / "s.json"
    save_state(st, str(path), metadata={"seed": 3})
    back, meta = load_state(str(path))
    assert np.abs(back.gamma.entries - g.entries).max() == 0.0
    assert meta["seed"] == 3


def test_state_from_dict_field_diagnostics():
    good = state_to_dict(GaussianState(gamma=vacuum(1, 1)))

    def expect_error(mutate, needle):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        with pytest.raises(StateFileError) as err:
            state_from_dict(doc)
        assert needle in str(err.value)

    expect_error(lambda d: d.pop("schema_version"), "schema_version")
    expect_error(lambda d: d.update(schema_version=99), "schema_version")
    expect_error(lambda d: d.pop("state"), "state")
    expect_error(lambda d: d["state"].pop("n_a"), "state.n_a")
    expect_error(lambda d: d["state"].update(n_a=1.5), "state.n_a")
    expect_error(lambda d: d["state"].update(n_a=True), "state.n_a")
    expect_error(lambda d: d["state"].update(n_a=-1), "state.n_a")
    expect_error(lambda d: d["state"].update(gamma=[[1.0, 0.0], [0.0, 1.0]]),
                 "state.gamma")
    expect_error(lambda d: d["state"].update(gamma="nope"), "state.gamma")
    expect_error(lambda d: d["state"].update(d=[0.0, 0.0]), "state.d")
    # asymmetric matrix: construction failure is reported against the field
    bad = np.eye(4).tolist()
    bad[0][1] = 0.5
    expect_error(lambda d: d["state"].update(gamma=bad), "state.gamma")
    with pytest.raises(StateFileError):
        state_from_dict(["not", "an", "object"])


@pytest.mark.parametrize("field, bad", [("state.gamma", "1"), ("state.gamma", True),
                                        ("state.d", "1"), ("state.d", True),
                                        ("schema_version", True)])
def test_state_from_dict_refuses_strings_and_booleans_as_numbers(field, bad):
    doc = state_to_dict(GaussianState(gamma=vacuum(1, 1)))
    if field == "schema_version":
        doc["schema_version"] = bad
    elif field == "state.gamma":
        doc["state"]["gamma"][0][0] = bad
    else:
        doc["state"]["d"][0] = bad
    with pytest.raises(StateFileError, match=f"field '{field}'"):
        state_from_dict(doc)


def test_state_from_dict_rejects_non_finite_numbers():
    good = json.dumps(state_to_dict(GaussianState(gamma=vacuum(1, 1))))
    inf_diag, nan_pair, nan_d = (json.loads(good) for _ in range(3))
    inf_diag["state"]["gamma"][1][1] = float("inf")
    nan_pair["state"]["gamma"][0][3] = nan_pair["state"]["gamma"][3][0] = float("nan")
    nan_d["state"]["d"][2] = float("nan")
    for doc, field in ((inf_diag, "state.gamma"), (nan_pair, "state.gamma"),
                       (nan_d, "state.d")):
        with pytest.raises(StateFileError, match=f"field '{field}'.*finite"):
            state_from_dict(doc)


def test_state_from_dict_metadata_must_be_an_object():
    good = state_to_dict(GaussianState(gamma=vacuum(1, 1)))
    assert state_from_dict(good)[1] == {}
    assert state_from_dict({**good, "metadata": None})[1] == {}
    assert state_from_dict({**good, "metadata": {}})[1] == {}
    for bad in ([], 0, "", False, [1], "x", 3.5):
        with pytest.raises(StateFileError, match="field 'metadata'"):
            state_from_dict({**good, "metadata": bad})


def test_load_state_errors(tmp_path):
    with pytest.raises(StateFileError):
        load_state(str(tmp_path / "missing.json"))
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(StateFileError):
        load_state(str(path))


def test_dumps_is_canonical():
    assert dumps({"b": 1, "a": [1, 2]}) == '{"a": [1, 2], "b": 1}'
    assert dumps({"a": [1, 2], "b": 1}) == dumps({"b": 1, "a": [1, 2]})
    reports = [distill_pipeline(g) for g in (random_npt_cm(2, 2, seed=3), vacuum(1, 1),
                                            tmss_cm(1e-8))]
    assert [rep.verdict for rep in reports] == ["DISTILLABLE", "NOT_DISTILLABLE",
                                                "INCONCLUSIVE_BOUNDARY"]
    docs = [pipeline_report_to_dict(rep) for rep in reports]
    docs.append(state_to_dict(GaussianState(gamma=random_npt_cm(1, 2, seed=4)), {"b": 1, "a": 2}))
    for doc in docs:
        assert dumps(doc) == json.dumps(doc, sort_keys=True)


def test_report_serializers():
    npt = npt_to_dict(is_npt(tmss_cm(0.5)))
    assert npt["npt"] is True
    assert npt["raw_margin"] == pytest.approx(np.exp(-1.0) - 1.0)
    p = params_to_dict(standard_form_params(tmss_cm(0.5)))
    assert set(p) == {"n_a", "n_b", "k_x", "k_p"}
    w = witness_to_dict(find_npt_witness(tmss_cm(0.5)))
    z = np.array(w["z_real"]) + 1j * np.array(w["z_imag"])
    assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-12)
    assert w["margin"] < 0
    assert set(w) == {"z_real", "z_imag", "margin", "eps", "skew_a", "skew_b"}


def test_pipeline_report_dict_shape():
    doc = pipeline_report_to_dict(distill_pipeline(tmss_cm(0.5)))
    assert doc["verdict"] == "DISTILLABLE"
    assert doc["input_partition"] == [1, 1]
    assert set(doc) == {"input_partition", "verdict", "stages"}
    assert set(doc["stages"]) == {"npt_check", "witness", "concentrate",
                                  "standard_form", "symmetrize", "rc_witness"}
    assert len(doc["stages"]["rc_witness"]["sweep"]) == 8
    doc = pipeline_report_to_dict(distill_pipeline(vacuum(1, 1)))
    assert doc["verdict"] == "NOT_DISTILLABLE"
    assert set(doc["stages"]) == {"npt_check"}
    json.dumps(doc)  # serializable all the way down


# ---------------------------------------------------------------------------
# command line


def test_cli_validate_exit_codes(tmp_path):
    ok = write_state(tmp_path, "ok.json", tmss_cm(0.5))
    res = run_cli("validate", ok)
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["physical"] is True and doc["npt"] is True

    unphys = write_doc(tmp_path, "bad.json", {
        "schema_version": 1,
        "state": {"n_a": 1, "n_b": 1, "gamma": (0.5 * np.eye(4)).tolist()},
    })
    res = run_cli("validate", unphys)
    assert res.returncode == 2
    doc = json.loads(res.stdout)
    assert doc["physical"] is False and doc["npt"] is None

    junk = tmp_path / "junk.json"
    junk.write_text("{oops")
    res = run_cli("validate", str(junk))
    assert res.returncode == 1 and res.stdout == ""
    res = run_cli("validate", str(tmp_path / "missing.json"))
    assert res.returncode == 1


def test_cli_validate_reports_both_margins(tmp_path):
    # noisy squeezed pair: physical with room to spare, and NPT
    core = CorrelationMatrix.from_blocks(1.5 * np.eye(2), 1.5 * np.eye(2),
                                         np.diag([0.9, -0.9]))
    res = run_cli("validate", write_state(tmp_path, "n.json", core))
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["physical_margin"] == validate_physical(core).margin
    assert doc["margin"] == is_npt(core).margin
    assert doc["physical_margin"] > 0 > doc["margin"]


def test_cli_pipeline_exit_codes(tmp_path):
    dist = write_state(tmp_path, "d.json", tmss_cm(0.5))
    res = run_cli("pipeline", dist)
    assert res.returncode == 0
    assert "verdict: DISTILLABLE" in res.stdout
    assert "rc value" in res.stdout

    ppt = write_state(tmp_path, "p.json", vacuum(1, 1))
    res = run_cli("pipeline", ppt)
    assert res.returncode == 3
    assert "NOT_DISTILLABLE" in res.stdout

    edge = write_state(tmp_path, "e.json", tmss_cm(1e-8))
    res = run_cli("pipeline", edge)
    assert res.returncode == 4
    assert "INCONCLUSIVE_BOUNDARY" in res.stdout


def test_cli_pipeline_rejects_non_positive_r_max(tmp_path):
    path = write_state(tmp_path, "d.json", tmss_cm(0.5))
    for r_max in ("0", "-3"):
        res = run_cli("pipeline", path, "--r-max", r_max)
        assert res.returncode == 1
        assert res.stdout == "" and "r_max must be >= 1" in res.stderr


def test_cli_pipeline_r_max_limit(tmp_path):
    path = write_state(tmp_path, "d.json", tmss_cm(0.5))
    for r_max in ("180", "350"):
        res = run_cli("pipeline", path, "--json", "--r-max", r_max)
        assert res.returncode == 0
        rc = json.loads(res.stdout)["stages"]["rc_witness"]
        assert rc["r"] == float(r_max) and rc["value"] < 0
    res = run_cli("pipeline", path, "--r-max", "351")
    assert res.returncode == 1
    assert res.stdout == "" and "<= 350" in res.stderr


def test_cli_pipeline_exits_5_when_the_witness_is_not_negative(tmp_path):
    g = CorrelationMatrix.from_blocks(2.0 * np.eye(2), 2.0 * np.eye(2),
                                      1.01 * np.diag([1.0, -1.0]))
    path = write_state(tmp_path, "w.json", g)
    res = run_cli("pipeline", path, "--r-max", "1")
    assert res.returncode == 5
    assert res.stdout == "" and "rc_witness" in res.stderr


@pytest.mark.parametrize("command", ["validate", "pipeline", "concentrate",
                                     "standard-form", "symmetrize"])
def test_cli_one_sided_state_is_refused_without_traceback(tmp_path, command):
    for n_a, n_b in ((0, 2), (2, 0)):
        doc = {"schema_version": 1,
               "state": {"n_a": n_a, "n_b": n_b, "gamma": np.eye(4).tolist()}}
        path = write_doc(tmp_path, f"one_sided_{n_a}{n_b}.json", doc)
        res = run_cli(command, path)
        assert res.returncode == 1
        assert res.stdout == ""
        assert "Traceback" not in res.stderr
        assert res.stderr.strip().count("\n") == 0
        assert f"partition ({n_a}, {n_b})" in res.stderr


@pytest.mark.parametrize("command", ["validate", "pipeline", "standard-form"])
def test_cli_non_finite_state_is_refused_without_traceback(tmp_path, command):
    doc = state_to_dict(GaussianState(gamma=tmss_cm(0.5)))
    doc["state"]["gamma"][2][2] = float("inf")
    bad_gamma = write_doc(tmp_path, "inf.json", doc)
    doc = state_to_dict(GaussianState(gamma=tmss_cm(0.5)))
    doc["state"]["d"][0] = float("nan")
    bad_d = write_doc(tmp_path, "nan_d.json", doc)
    for path, field in ((bad_gamma, "state.gamma"), (bad_d, "state.d")):
        res = run_cli(command, path)
        assert res.returncode == 1
        assert res.stdout == ""
        assert "Traceback" not in res.stderr
        assert res.stderr.strip().count("\n") == 0
        assert f"field '{field}'" in res.stderr


def test_cli_numbers_no_float_holds_are_refused_without_traceback(tmp_path):
    # JSON integers are unbounded; 10**400 loads and is refused as a number
    huge = 10 ** 400
    doc = state_to_dict(GaussianState(gamma=tmss_cm(0.5)))
    doc["state"]["gamma"][0][0] = huge
    bad_gamma = write_doc(tmp_path, "huge_gamma.json", doc)
    doc = state_to_dict(GaussianState(gamma=tmss_cm(0.5)))
    doc["state"]["d"][3] = huge
    bad_d = write_doc(tmp_path, "huge_d.json", doc)
    for path, field in ((bad_gamma, "state.gamma"), (bad_d, "state.d")):
        res = run_cli("validate", path)
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == (f"field '{field}': expected real numbers: "
                              "int too large to convert to float\n")


def test_cli_asymmetry_near_the_float_limit_is_one_refusal_line(tmp_path):
    # the symmetry gate's g - g^T overflowed: a RuntimeWarning and its source
    # line were printed before the refusal
    doc = state_to_dict(GaussianState(gamma=tmss_cm(0.5)))
    doc["state"]["gamma"][0][1], doc["state"]["gamma"][1][0] = 1.7e308, -1.7e308
    res = run_cli("validate", write_doc(tmp_path, "asymmetric.json", doc))
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == "field 'state.gamma': correlation matrix must be symmetric\n"


def _nested_too_deep():
    return b"[" * 100_000


def _integer_too_long():
    doc = json.dumps(state_to_dict(GaussianState(gamma=tmss_cm(0.5))))
    return doc.replace("[[", "[[" + "1" * 5000 + ", ", 1).encode()


def _not_utf8():
    return b'{"schema_version": 1, "\xff": 0}'


# nesting deeper than the parser's recursion limit, an integer longer than
# Python converts from a string and bytes that are not UTF-8 used to escape
# read_json without the path
@pytest.mark.parametrize("content", [_nested_too_deep, _integer_too_long, _not_utf8])
def test_cli_json_the_parser_cannot_hold_is_refused_naming_the_path(tmp_path, content):
    path = tmp_path / "state.json"
    path.write_bytes(content())
    with pytest.raises(StateFileError, match=f"^cannot parse {re.escape(str(path))}: "):
        read_json(str(path))
    res = run_cli("validate", str(path))
    assert res.returncode == 1
    assert res.stdout == ""
    assert "Traceback" not in res.stderr
    assert res.stderr.count("\n") == 1 and str(path) in res.stderr


def test_cli_random_refuses_empty_sides_without_traceback():
    for flags in (("--modes-a", "0"), ("--modes-b", "0"), ("--modes-a", "-2")):
        res = run_cli("random", *flags)
        assert res.returncode == 1
        assert res.stdout == ""
        assert "Traceback" not in res.stderr
        assert res.stderr.strip().count("\n") == 0
        assert "at least one mode on each side" in res.stderr


def test_cli_random_refuses_a_negative_seed_without_traceback():
    res = run_cli("random", "--seed", "-1")
    assert res.returncode == 1
    assert res.stdout == ""
    assert "Traceback" not in res.stderr
    assert res.stderr.strip().count("\n") == 0
    assert "seed must be non-negative" in res.stderr


def test_cli_prints_the_library_refusal_verbatim(tmp_path):
    path = write_state(tmp_path, "d.json", tmss_cm(0.5))
    one_sided = write_doc(tmp_path, "one_sided.json", {
        "schema_version": 1, "state": {"n_a": 0, "n_b": 2, "gamma": np.eye(4).tolist()}})
    cases = (
        (("pipeline", path, "--r-max", "0"), lambda: distill_pipeline(tmss_cm(0.5), r_max=0)),
        (("random", "--seed", "-1"), lambda: random_state("entangled", 1, 1, -1)),
        (("random", "--modes-a", "0"), lambda: random_state("entangled", 0, 1, 0)),
        (("validate", one_sided), lambda: is_npt(load_state(one_sided)[0].gamma)),
    )
    for args, refuse in cases:
        with pytest.raises(ValueError) as err:
            refuse()
        res = run_cli(*args)
        assert res.returncode == 1 and res.stdout == ""
        assert res.stderr == f"{err.value}\n"


def test_cli_usage_errors_exit_1(tmp_path):
    # argparse's own usage code is 2, which is validate's "unphysical"
    path = write_state(tmp_path, "d.json", tmss_cm(0.5))
    for args in (("pipeline", path, "--seed", "3"), ("validate", path, "--bogus")):
        res = run_cli(*args)
        assert res.returncode == 1
        assert res.stdout == "" and "usage: gdistill" in res.stderr
    res = run_cli("--help")
    assert res.returncode == 0 and "usage: gdistill" in res.stdout


def test_cli_pipeline_json_deterministic(tmp_path):
    path = write_state(tmp_path, "d.json", random_npt_cm(2, 2, seed=11))
    a = run_cli("pipeline", path, "--json")
    b = run_cli("pipeline", path, "--json")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert doc["verdict"] == "DISTILLABLE"
    assert doc["stages"]["rc_witness"]["value"] < 0


def test_cli_stage_failure_exit(tmp_path):
    sep = write_state(tmp_path, "sep.json", vacuum(1, 1))
    for command, what in (("symmetrize", "symmetrization"), ("concentrate", "concentration")):
        res = run_cli(command, sep)
        assert res.returncode == 5
        assert res.stdout == ""
        assert f"stage failure: {what} requires an NPT state" in res.stderr

    # a wrong partition is an input the library refuses, not a stage failure
    wide = write_state(tmp_path, "wide.json", random_npt_cm(2, 1, seed=2))
    for command in ("standard-form", "symmetrize"):
        res = run_cli(command, wide)
        assert res.returncode == 1
        assert res.stdout == "" and "partition (2, 1)" in res.stderr


def test_cli_random_deterministic_bytes():
    a = run_cli("random", "--modes-a", "2", "--modes-b", "1", "--seed", "7")
    b = run_cli("random", "--modes-a", "2", "--modes-b", "1", "--seed", "7")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    c = run_cli("random", "--modes-a", "2", "--modes-b", "1", "--seed", "8")
    assert c.stdout != a.stdout
    state, meta = state_from_dict(json.loads(a.stdout))
    assert state.gamma.partition == (2, 1)
    assert validate_physical(state.gamma).physical
    assert meta["kind"] == "entangled"


def test_cli_random_kinds():
    res = run_cli("random", "--kind", "thermal", "--seed", "4")
    assert res.returncode == 0
    _, meta = state_from_dict(json.loads(res.stdout))
    assert meta["kind"] == "thermal" and meta["npt"] is False


def test_cli_standard_form_and_symmetrize_json(tmp_path):
    from gdistill import random_asymmetric_npt_1x1

    path = write_state(tmp_path, "a.json", random_asymmetric_npt_1x1(seed=1))
    res = run_cli("standard-form", path, "--json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["params"]["n_a"] > 1.0
    res = run_cli("symmetrize", path, "--json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["theta"] > 0
    assert 0 < doc["scale_factor"] < 1


def test_cli_concentrate(tmp_path):
    g = random_npt_cm(2, 2, seed=9)
    path = write_state(tmp_path, "n.json", g)
    res = run_cli("concentrate", path, "--json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert set(doc) == {"witness", "f_a", "f_b", "gamma_1x1", "npt_margin_1x1"}
    assert np.shape(doc["f_a"]) == (4, 2) and np.shape(doc["f_b"]) == (4, 2)
    assert doc["npt_margin_1x1"] < 0
    assert len(doc["gamma_1x1"]) == 4
    assert doc["witness"]["margin"] < 0
    # the pipeline's concentrate stage serializes the same record
    res = run_cli("pipeline", path, "--json")
    assert res.returncode == 0
    stage = json.loads(res.stdout)["stages"]["concentrate"]
    assert stage == {key: doc[key] for key in ("f_a", "f_b", "gamma_1x1")}
    conc = distill_pipeline(g).concentration
    assert doc["npt_margin_1x1"] == conc.npt_margin
    assert doc["gamma_1x1"] == conc.gamma_1x1.entries.tolist()


def test_cli_fuzz_small_run(tmp_path):
    cfg = write_doc(tmp_path, "cfg.json", {"trials": 20, "seed": 1})
    res = run_cli("fuzz", cfg)
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["total_violations"] == 0
    assert "elapsed_seconds" not in doc  # timing goes to stderr, bytes stay stable
    assert "fuzz: 20 trials" in res.stderr

    bad = write_doc(tmp_path, "bad.json", {"trials": 0})
    assert run_cli("fuzz", bad).returncode == 1
    unknown = write_doc(tmp_path, "unk.json", {"trils": 5})
    assert run_cli("fuzz", unknown).returncode == 1
    assert run_cli("fuzz", str(tmp_path / "missing.json")).returncode == 1


def test_cli_fuzz_prints_the_config_refusal_verbatim(tmp_path, capsys):
    # a config file is read as a state file is: one reader, one stderr line
    junk = tmp_path / "junk.json"
    junk.write_text('{"seed": 1,\n "trials": }')
    paths = [str(tmp_path / "missing.json"), str(junk),
             write_doc(tmp_path, "list.json", [1, 2]),
             write_doc(tmp_path, "float.json", {"seed": 1.5})]
    for path in paths:
        with pytest.raises(ValueError) as err:
            FuzzConfig.from_dict(read_json(path))
        assert cli.main(["fuzz", path]) == 1
        out, err_text = capsys.readouterr()
        assert out == "" and err_text == f"{err.value}\n"
    assert str(err.value) == "config field 'seed' must be an integer, got 1.5"
    invalid = f"^{re.escape(str(junk))} is not valid JSON: line 2: "
    with pytest.raises(StateFileError, match=invalid):
        read_json(str(junk))
    with pytest.raises(StateFileError, match="^cannot read .*missing.json"):
        read_json(paths[0])


def test_cli_tolerance_env(tmp_path):
    import os

    # the verdict tolerance is fixed: any value of the variable, the default
    # included, is refused rather than silently ignored
    path = write_state(tmp_path, "s.json", tmss_cm(0.5))
    for raw in ("1e-9", "1e-8", "abc", "inf"):
        res = run_cli("validate", path, env=dict(os.environ, GDISTILL_TOL=raw))
        assert res.returncode == 1
        assert res.stdout == "" and "GDISTILL_TOL" in res.stderr
    env = {k: v for k, v in os.environ.items() if k != "GDISTILL_TOL"}
    assert run_cli("validate", path, env=env).returncode == 0


def test_cli_no_subcommand_fails():
    res = run_cli()
    assert res.returncode == 1
