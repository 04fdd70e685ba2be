import numpy as np
import pytest

import gdistill.distill as distill_module
import gdistill.two_mode as two_mode_module
from gdistill import (
    ConcentrationError,
    NumericsError,
    PipelineStageError,
    PreconditionError,
    VERDICT_BOUNDARY,
    VERDICT_DISTILLABLE,
    VERDICT_NOT_DISTILLABLE,
    CorrelationMatrix,
    apply_symplectic,
    beam_splitter,
    concentrate,
    condition_on_x_measurement,
    direct_sum,
    direct_sum_states,
    distill_pipeline,
    embed_pair,
    find_npt_witness,
    form_matrix,
    is_npt,
    local_scramble,
    pipeline_report_to_dict,
    pt_form,
    random_npt_cm,
    random_state,
    reduce_to_modes,
    skew_product,
    standard_form_params,
    standard_form_transform,
    symmetrize,
    tmss_cm,
    vacuum,
    wigner_cm,
)
from gdistill.statefile import dumps

CH, SH = np.cosh(1.0), np.sinh(1.0)


def lossy_squeezed_pair(r=0.6, theta=0.7):
    """Two-mode squeezed state with one arm attenuated: NPT and asymmetric."""
    st = direct_sum_states(tmss_cm(r), vacuum(0, 1))
    st = apply_symplectic(st, embed_pair(beam_splitter(theta), 3, 1, 2))
    return reduce_to_modes(st, [0], [1])


def padded_squeezed_pair(n_a, n_b, seed, r=0.5):
    """Squeezed pair on the first mode pair, vacuum padding, local scrambling."""
    g = direct_sum_states(tmss_cm(r), vacuum(n_a - 1, n_b - 1))
    return local_scramble(g, seed=seed)


def witness_form_value(g, z):
    herm = g.entries - 1j * pt_form(g.n_a, g.n_b)
    return float(np.real(np.conj(z) @ herm @ z))


def test_find_npt_witness_squeezed_frozen():
    w = find_npt_witness(tmss_cm(0.5))
    assert w.retries == 0  # raw eigenvector already has healthy skews
    assert w.eps == pytest.approx(1.0 - np.exp(-1.0), abs=1e-12)
    assert w.margin == pytest.approx(np.exp(-1.0) - 1.0, abs=1e-12)
    assert np.linalg.norm(w.z) == pytest.approx(1.0, abs=1e-12)
    # reported skews match their definition
    za, zb = w.z[:2], w.z[2:]
    J1 = form_matrix(1)
    assert w.skew_a == pytest.approx(float(za.real @ J1 @ za.imag), abs=1e-15)
    assert w.skew_b == pytest.approx(float(zb.real @ J1 @ zb.imag), abs=1e-15)
    assert min(abs(w.skew_a), abs(w.skew_b)) > 1e-8
    # quadratic form reproduces the margin
    herm = tmss_cm(0.5).entries - 1j * pt_form(1, 1)
    assert float(np.real(np.conj(w.z) @ herm @ w.z)) == pytest.approx(w.margin, abs=1e-12)


def test_find_npt_witness_requires_npt():
    with pytest.raises(PreconditionError):
        find_npt_witness(vacuum(1, 1))
    with pytest.raises(PreconditionError):
        find_npt_witness(CorrelationMatrix(entries=np.diag([2.0, 2.0, 1.5, 1.5]),
                                           partition=(1, 1)))


def test_find_npt_witness_on_padded_states():
    for seed in range(20):
        g = padded_squeezed_pair(3, 2, seed)
        w = find_npt_witness(g, seed=seed)
        herm = g.entries - 1j * pt_form(3, 2)
        val = float(np.real(np.conj(w.z) @ herm @ w.z))
        assert val == pytest.approx(w.margin, abs=1e-12)
        assert w.margin < -0.5 * w.eps
        assert min(abs(w.skew_a), abs(w.skew_b)) > 1e-8
        assert w.retries <= 32


def test_concentrate_recovers_unscrambled_embedded_pair():
    # when the squeezed pair sits in plain coordinates the minimal eigenvector
    # lives exactly in its plane, so concentration returns the pair itself up
    # to a one-mode symplectic on each side: identical parameters
    g = direct_sum_states(tmss_cm(0.5), vacuum(2, 1))
    w = find_npt_witness(g)
    _, _, g_red = concentrate(g, w)
    assert g_red.partition == (1, 1)
    p = standard_form_params(g_red)
    assert abs(p.n_a - CH) < 1e-8
    assert abs(p.n_b - CH) < 1e-8
    assert abs(p.k_x - SH) < 1e-8
    assert abs(p.k_p + SH) < 1e-8


def test_concentrate_padded_scrambled_states():
    # scrambling moves the witness plane, so the reduced pair is generally a
    # different NPT state; what is preserved is the witness form value
    for seed in range(15):
        g = padded_squeezed_pair(3, 2, seed)
        w = find_npt_witness(g, seed=seed)
        s_a, s_b, g_red = concentrate(g, w)
        assert g_red.partition == (1, 1)
        red_verdict = is_npt(g_red)
        assert red_verdict.npt
        # reduced matrix is literally the first-pair submatrix of the transform
        moved = apply_symplectic(g, direct_sum(s_a.entries, s_b.entries))
        idx = [0, 1, 6, 7]
        assert np.array_equal(g_red.entries, moved.entries[np.ix_(idx, idx)])
        # quadratic form value carries over to the reduced witness
        z_hat = np.concatenate([
            np.linalg.solve(s_a.entries, w.z[:6]),
            np.linalg.solve(s_b.entries, w.z[6:]),
        ])
        z_red = z_hat[[0, 1, 6, 7]]
        assert witness_form_value(g_red, z_red) == pytest.approx(w.margin, abs=1e-10)
        assert red_verdict.raw_margin <= w.margin / np.linalg.norm(z_red) ** 2 + 1e-10


def test_concentrate_witness_columns():
    # first basis columns on each side span (Re z, Im z) with pairing -1
    g = padded_squeezed_pair(2, 2, seed=7)
    w = find_npt_witness(g, seed=7)
    s_a, s_b, _ = concentrate(g, w)
    za, zb = w.z[:4], w.z[4:]
    for side, z in ((s_a, za), (s_b, zb)):
        f1, f2 = side.entries[:, 0], side.entries[:, 1]
        assert abs(skew_product(f1, f2) + 1.0) < 1e-9
        span = np.column_stack([f1, f2])
        resid = np.column_stack([z.real, z.imag]) - span @ np.linalg.lstsq(
            span, np.column_stack([z.real, z.imag]), rcond=None)[0]
        assert np.abs(resid).max() < 1e-9


def test_concentrate_validates_partition():
    w = find_npt_witness(tmss_cm(0.5))
    with pytest.raises(ValueError):
        concentrate(vacuum(1, 0), w)


def test_symmetrize_asymmetric_frozen_case():
    g = lossy_squeezed_pair()
    rep = symmetrize(g)
    assert rep.theta == pytest.approx(1.2547916378788746, abs=1e-9)
    assert rep.swapped_sides is True
    assert rep.scale_factor == pytest.approx(0.1054857986489615, rel=1e-9)
    p = standard_form_params(rep.gamma_out)
    assert abs(p.n_a - p.n_b) <= 1e-8
    assert p.n_a == pytest.approx(1.0616141141314674, rel=1e-9)
    assert is_npt(rep.gamma_out).npt
    # residual scaling law holds exactly as reported
    assert rep.insep_residual_out == pytest.approx(
        rep.insep_residual_in * rep.scale_factor, rel=1e-8)


def test_symmetrize_matches_measurement_oracle():
    # closed-form output blocks vs actually conditioning the joint state:
    # beam-split the hot side with a vacuum ancilla, measure the ancilla q
    for seed in range(25):
        g = lossy_squeezed_pair(r=0.4 + 0.02 * seed, theta=0.3 + 0.02 * seed)
        rep = symmetrize(g)
        _, _, gw_std = standard_form_transform(wigner_cm(g))
        e = gw_std.entries
        if rep.swapped_sides:
            perm = [2, 3, 0, 1]
            e = e[np.ix_(perm, perm)]
        core = CorrelationMatrix(entries=e, partition=(1, 1))
        joint = direct_sum_states(core, vacuum(0, 1))  # ancilla = global mode 2
        joint = apply_symplectic(joint, embed_pair(beam_splitter(rep.theta), 3, 1, 2))
        cond = condition_on_x_measurement(joint, 2)
        out = cond.entries
        if rep.swapped_sides:
            perm = [2, 3, 0, 1]
            out = out[np.ix_(perm, perm)]
        got = wigner_cm(rep.gamma_out).entries
        assert np.abs(got - out).max() <= 1e-10 * max(1.0, np.abs(out).max())


def test_symmetrize_scale_factor_formula():
    for seed in range(25):
        g = lossy_squeezed_pair(r=0.35 + 0.025 * seed, theta=0.25 + 0.025 * seed)
        rep = symmetrize(g)
        _, _, gw_std = standard_form_transform(wigner_cm(g))
        n_a, n_b = gw_std.entries[0, 0], gw_std.entries[2, 2]
        n_hot = min(n_a, n_b)
        expect = 1.0 / (n_hot * np.tan(rep.theta) ** 2 + 1.0)
        assert rep.scale_factor == pytest.approx(expect, rel=1e-8)
        # residual itself shrinks but stays positive
        assert 0 < rep.insep_residual_out < rep.insep_residual_in


def test_symmetrize_symmetric_input_is_untouched():
    for r in (0.25, 0.6):
        rep = symmetrize(tmss_cm(r))
        assert rep.theta == 0.0
        assert rep.swapped_sides is False
        assert rep.scale_factor == 1.0
        assert rep.insep_residual_out == rep.insep_residual_in
        p_in = standard_form_params(tmss_cm(r))
        p_out = standard_form_params(rep.gamma_out)
        assert abs(p_in.n_a - p_out.n_a) < 1e-10
        assert abs(p_in.k_x - p_out.k_x) < 1e-10


def test_symmetrize_validates_input():
    with pytest.raises(PreconditionError):
        symmetrize(vacuum(1, 1))
    with pytest.raises(ValueError):
        symmetrize(vacuum(2, 1))


def test_pipeline_distillable_squeezed():
    rep = distill_pipeline(tmss_cm(0.5))
    assert rep.verdict == VERDICT_DISTILLABLE
    assert rep.input_partition == (1, 1)
    assert rep.npt.raw_margin == pytest.approx(np.exp(-1.0) - 1.0, abs=1e-12)
    assert rep.witness_attempts == 1
    for stage in (rep.witness, rep.s_a, rep.s_b, rep.gamma_1x1,
                  rep.standard_form, rep.symmetrization, rep.final_params, rep.rc):
        assert stage is not None
    p = rep.final_params
    assert abs(p.n_a - CH) < 1e-8 and abs(p.k_x - SH) < 1e-8
    assert len(rep.rc_sweep) == 8
    assert [w.r for w in rep.rc_sweep] == [float(r) for r in range(1, 9)]
    assert rep.rc is rep.rc_sweep[-1]
    assert rep.rc.value < 0
    assert rep.rc.asymptotic_value == pytest.approx(np.exp(-2.0) - 1.0, abs=1e-10)
    # certified protocol: (n - k_x)(n + k_p) < 1 for the final state
    n = np.sqrt(p.n_a * p.n_b)
    assert (n - p.k_x) * (n + p.k_p) - 1.0 < 0


def test_pipeline_strongly_squeezed_pairs():
    # pure pairs squeezed far beyond the random populations are decided NPT
    # and certified, not refused as unphysical
    for k in range(3):
        rep = distill_pipeline(local_scramble(tmss_cm(3.0), k), seed=k)
        assert rep.verdict == VERDICT_DISTILLABLE
        assert rep.rc.value < 0


def test_pipeline_refuses_a_certificate_that_is_not_negative():
    # NPT, but at r = 1 the probe is too weakly squeezed: the witness reads
    # +5.3e-3, so the rc_witness stage fails instead of certifying
    g = CorrelationMatrix.from_blocks(2.0 * np.eye(2), 2.0 * np.eye(2),
                                      1.01 * np.diag([1.0, -1.0]))
    with pytest.raises(PipelineStageError) as err:
        distill_pipeline(g, r_max=1)
    assert err.value.stage == "rc_witness"
    assert isinstance(err.value.cause, NumericsError)
    rep = distill_pipeline(g)
    assert rep.verdict == VERDICT_DISTILLABLE and rep.rc.value < 0


def test_pipeline_rejects_non_positive_r_max():
    for r_max in (0, -3):
        with pytest.raises(ValueError):
            distill_pipeline(tmss_cm(0.5), r_max=r_max)


def test_pipeline_wraps_concentrate_stage_errors(monkeypatch):
    def broken(gamma, witness, tol):
        raise NumericsError("injected")

    monkeypatch.setattr(distill_module, "concentrate", broken)
    with pytest.raises(PipelineStageError) as err:
        distill_pipeline(tmss_cm(0.5))
    assert err.value.stage == "concentrate"
    assert isinstance(err.value.cause, NumericsError)


def test_pipeline_retry_starts_from_a_perturbation(monkeypatch):
    # after a concentration failure the raw eigenvector is not tried again
    real = distill_module.concentrate
    seen = []

    def fails_once(gamma, witness, tol):
        seen.append(witness)
        if len(seen) == 1:
            raise ConcentrationError("injected")
        return real(gamma, witness, tol=tol)

    monkeypatch.setattr(distill_module, "concentrate", fails_once)
    rep = distill_pipeline(tmss_cm(0.5))
    assert rep.verdict == VERDICT_DISTILLABLE
    assert rep.witness_attempts == 2
    assert seen[0].retries == 0 and seen[1].retries >= 1
    assert not np.array_equal(seen[0].z, seen[1].z)
    assert rep.witness is seen[1]


def test_failed_basis_completion_triggers_a_retry(monkeypatch):
    # a completion that fails validation raises NumericsError; concentrate
    # turns it into ConcentrationError, so the pipeline retries
    real = distill_module.extend_to_symplectic_basis
    calls = []

    def fails_first(f1, f2):
        calls.append(f1)
        if len(calls) == 1:
            raise NumericsError("injected")
        return real(f1, f2)

    monkeypatch.setattr(distill_module, "extend_to_symplectic_basis", fails_first)
    rep = distill_pipeline(tmss_cm(0.5))
    assert rep.verdict == VERDICT_DISTILLABLE
    assert rep.witness_attempts == 2


def test_pipeline_tail_decides_npt_once_and_builds_no_probe_states(monkeypatch):
    calls = {"is_npt": 0, "tmss_cm": 0}

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(distill_module, "is_npt")
    counting(two_mode_module, "tmss_cm")
    g = local_scramble(random_npt_cm(3, 2, seed=7), seed=7)
    rep = distill_pipeline(g)
    assert rep.verdict == VERDICT_DISTILLABLE
    assert len(rep.rc_sweep) == 8
    # npt_check and symmetrize's output postcondition; the symmetrize input
    # was decided NPT by the concentrate stage
    assert calls == {"is_npt": 2, "tmss_cm": 0}


def test_pipeline_not_distillable():
    for g in (vacuum(1, 1), vacuum(2, 3),
              CorrelationMatrix(entries=np.diag([2.0, 2.0, 1.5, 1.5]), partition=(1, 1))):
        rep = distill_pipeline(g)
        assert rep.verdict == VERDICT_NOT_DISTILLABLE
        assert not rep.npt.npt
        assert rep.witness is None and rep.gamma_1x1 is None
        assert rep.final_params is None and rep.rc_sweep == ()


def test_pipeline_boundary_band():
    rep = distill_pipeline(tmss_cm(1e-8))  # margin ~ -2e-8, inside the band
    assert rep.verdict == VERDICT_BOUNDARY
    assert rep.npt.npt
    assert abs(rep.npt.raw_margin) < 1e-7
    assert rep.witness is None and rep.symmetrization is None


def test_pipeline_padded_asymmetric_state():
    # squeezed pair, lossy arm, vacuum padding, local scrambling: the
    # pipeline must run every stage including a nontrivial symmetrization
    core = lossy_squeezed_pair()
    g = local_scramble(direct_sum_states(core, vacuum(2, 1)), seed=13)
    assert g.partition == (3, 2)
    rep = distill_pipeline(g, seed=13)
    assert rep.verdict == VERDICT_DISTILLABLE
    assert rep.symmetrization.theta > 0.1
    p = rep.final_params
    assert abs(p.n_a - p.n_b) <= 1e-8
    assert rep.rc.value < 0
    assert is_npt(rep.symmetrization.gamma_out).npt


def test_pipeline_transforms_compose():
    # the reported transforms really map the input to the reported 1x1 state
    g = random_npt_cm(2, 2, seed=5)
    rep = distill_pipeline(g, seed=5)
    assert rep.verdict == VERDICT_DISTILLABLE
    moved = apply_symplectic(g, direct_sum(rep.s_a.entries, rep.s_b.entries))
    red = reduce_to_modes(moved, [0], [0])
    assert np.abs(red.entries - rep.gamma_1x1.entries).max() < 1e-12
    # standard-form stage transforms the reduced state to its gamma_std
    std = rep.standard_form
    S = direct_sum(std.s_a.entries, std.s_b.entries)
    assert np.abs(S.T @ rep.gamma_1x1.entries @ S - std.gamma_std.entries).max() < 1e-9


def test_pipeline_report_deterministic():
    g = random_npt_cm(2, 1, seed=21)
    a = dumps(pipeline_report_to_dict(distill_pipeline(g, seed=3)))
    b = dumps(pipeline_report_to_dict(distill_pipeline(g, seed=3)))
    assert a == b


def test_pipeline_verdict_matches_ppt_test():
    checked = 0
    for seed in range(40):
        kind = ("thermal", "entangled")[seed % 2]
        st, meta = random_state(kind, 1 + seed % 3, 1 + (seed // 2) % 2, seed)
        if abs(meta["npt_margin"]) < 1e-7:
            continue
        rep = distill_pipeline(st.gamma, seed=seed)
        want = VERDICT_DISTILLABLE if meta["npt"] else VERDICT_NOT_DISTILLABLE
        assert rep.verdict == want
        if rep.verdict == VERDICT_DISTILLABLE:
            assert rep.rc_sweep[-1].value < 0 or rep.final_params is not None
        checked += 1
    assert checked >= 30
