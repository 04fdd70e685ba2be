import decimal
import json
import math
import sys
from dataclasses import astuple, replace
from decimal import Decimal

import numpy as np
import pytest

import gdistill.cli as cli
import gdistill.distill as distill_module
import gdistill.two_mode as two_mode_module
from gdistill import (
    ConcentrationError,
    DegeneracyError,
    NumericsError,
    PipelineStageError,
    PreconditionError,
    StdFormParams,
    VERDICT_BOUNDARY,
    VERDICT_DISTILLABLE,
    VERDICT_NOT_DISTILLABLE,
    CorrelationMatrix,
    GaussianState,
    apply_symplectic,
    beam_splitter,
    concentrate,
    direct_sum,
    direct_sum_states,
    distill_pipeline,
    embed_pair,
    extend_to_symplectic_basis,
    find_npt_witness,
    form_matrix,
    is_npt,
    local_scramble,
    partial_transpose,
    pipeline_report_to_dict,
    pt_form,
    random_asymmetric_npt_1x1,
    random_npt_cm,
    random_state,
    random_symmetric_two_mode,
    reduce_to_modes,
    save_state,
    skew_product,
    standard_form_params,
    standard_form_transform,
    symmetrize,
    tmss_cm,
    vacuum,
    wigner_cm,
)
from gdistill.fuzz import symmetrization_oracle
from gdistill.states import TOL_VERDICT
from gdistill.symplectic import TOL_SYMPLECTIC, _sym
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
        w = find_npt_witness(g)
        herm = g.entries - 1j * pt_form(3, 2)
        val = float(np.real(np.conj(w.z) @ herm @ w.z))
        assert val == pytest.approx(w.margin, abs=1e-12)
        assert w.margin < -0.5 * w.eps
        assert min(abs(w.skew_a), abs(w.skew_b)) > 1e-8


@pytest.mark.parametrize("make", [
    *(lambda seed, r=r: local_scramble(tmss_cm(r), seed) for r in (1e-5, 0.5, 3.0)),
    *(lambda seed, n=n: random_npt_cm(*n, seed) for n in ((3, 2), (4, 4), (1, 6))),
], ids=["tmss_1e-5", "tmss_0.5", "tmss_3", "npt_3x2", "npt_4x4", "npt_1x6"])
def test_raw_witness_skews_obey_the_physicality_bound(make):
    # for physical gamma, skew_b >= (eps - tol)/4 and skew_a <= -(eps - tol)/4
    # (distill module docstring): the raw eigenvector is the witness
    for seed in range(5):
        w = find_npt_witness(make(seed))
        assert w.skew_a < 0 < w.skew_b
        assert min(-w.skew_a, w.skew_b) >= (w.eps - TOL_VERDICT) / 4


def eigh_witness(g, z):
    """eigh's minimal eigenvector of gamma - i*Jtilde in the phase of z,
    the witness's canonical phase up to rounding."""
    v = np.linalg.eigh(g.entries - 1j * pt_form(g.n_a, g.n_b))[1][:, 0]
    overlap = np.vdot(v, z)
    return v * (overlap / abs(overlap))


def quarter_turn_pair(r):
    """Two-mode squeezed state with a quarter-turn phase on side B.  The
    minimal eigenvector of gamma - i*Jtilde is proportional to (1, i, -i,
    -1), orthogonal to the witness iteration's start vector (1, 1, 1, 1)."""
    return CorrelationMatrix.from_blocks(
        np.cosh(2 * r) * np.eye(2), np.cosh(2 * r) * np.eye(2),
        np.sinh(2 * r) * np.array([[0.0, 1.0], [1.0, 0.0]]))


def orthogonal_start_states():
    """quarter_turn_pair alone and embedded in larger partitions, by label."""
    return {f"{where}-r{r:g}": g for r in (1e-5, 0.3, 1.0, 3.0, 6.0)
            for where, g in (("alone", quarter_turn_pair(r)),
                             ("first", direct_sum_states(quarter_turn_pair(r), vacuum(2, 1))),
                             ("last", direct_sum_states(vacuum(5, 5), quarter_turn_pair(r))))}


def test_witness_solve_matches_the_minimal_eigenvector():
    states = [random_npt_cm(1 + seed % 6, 1 + seed // 6 % 6, seed) for seed in range(400)]
    states += [local_scramble(tmss_cm(r), seed)
               for r in (1e-5, 0.5, 2.0, 4.0, 6.0) for seed in range(4)]
    states += orthogonal_start_states().values()
    for g in states:
        z = find_npt_witness(g).z
        assert np.abs(z - eigh_witness(g, z)).max() <= 1e-9


@pytest.mark.parametrize("g", orthogonal_start_states().values(),
                         ids=orthogonal_start_states().keys())
def test_pipeline_certifies_a_state_orthogonal_to_the_start_vector(g):
    rep = distill_pipeline(g)
    assert rep.verdict == VERDICT_DISTILLABLE
    assert abs(np.ones(g.dim) @ eigh_witness(g, rep.witness.z)) < 1e-10


@pytest.mark.parametrize("make, r", [(tmss_cm, r) for r in (1e-5, 0.5, 3.0)]
                         + [(quarter_turn_pair, r) for r in (0.3, 1.0, 6.0)])
def test_witness_phase_breaks_modulus_ties_by_index(make, r):
    # every component of these witnesses has modulus 1/2: the first is the
    # one made real positive, whatever rounding does to the others
    z = find_npt_witness(make(r)).z
    assert np.abs(np.abs(z) - 0.5).max() <= 1e-12
    assert z[0].real > 0 and abs(z[0].imag) <= 1e-15


# a solve shifted to exactly lambda_min meets an exact zero pivot in LU on
# these states; the witness's shift sits a rounding band below it
@pytest.mark.parametrize("n_a, n_b, seed", [
    (4, 1, 25), (6, 6, 208), (5, 1, 519), (5, 1, 817), (4, 1, 1606)])
def test_witness_where_a_solve_at_lambda_min_is_singular(n_a, n_b, seed):
    g = random_npt_cm(n_a, n_b, seed)
    w = find_npt_witness(g)
    assert np.abs(w.z - eigh_witness(g, w.z)).max() <= 1e-9
    assert w.margin < 0


@pytest.mark.parametrize("make", [
    lambda: tmss_cm(0.5),
    lambda: local_scramble(random_npt_cm(3, 2, seed=7), seed=7),
    lambda: local_scramble(random_npt_cm(6, 1, seed=2), seed=2),
], ids=["squeezed", "scrambled_3x2", "scrambled_6x1"])
def test_witness_eps_is_the_npt_stage_margin(make):
    rep = distill_pipeline(make())
    assert rep.verdict == VERDICT_DISTILLABLE
    assert rep.witness.eps == -rep.npt.raw_margin


def test_distillable_run_makes_no_eigh_of_the_input_dimension(monkeypatch):
    g = local_scramble(random_npt_cm(2, 2, seed=3), seed=3)
    dims = []
    real = np.linalg.eigh

    def eigh(a, *args, **kwargs):
        dims.append(np.shape(a)[-1])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    rep = distill_pipeline(g)
    assert rep.verdict == VERDICT_DISTILLABLE
    assert g.dim not in dims


def test_distillable_run_factorizes_nothing_after_the_witness(monkeypatch):
    # the basis completion, the projection onto the kept pair and the
    # standard form are closed forms: the witness's inverse iteration is
    # the only solve
    g = local_scramble(random_npt_cm(3, 2, seed=7), seed=7)
    calls = []
    for name in ("qr", "svd", "det", "eigh", "solve"):
        def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append((_name, sys._getframe(1).f_code.co_name))
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    rep = distill_pipeline(g)
    assert rep.verdict == VERDICT_DISTILLABLE
    assert calls and set(calls) == {("solve", "_witness")}


def test_concentrate_recovers_unscrambled_embedded_pair():
    # when the squeezed pair sits in plain coordinates the minimal eigenvector
    # lives exactly in its plane, so concentration returns the pair itself up
    # to a one-mode symplectic on each side: identical parameters
    g = direct_sum_states(tmss_cm(0.5), vacuum(2, 1))
    w = find_npt_witness(g)
    g_red = concentrate(g, w).gamma_1x1
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
        w = find_npt_witness(g)
        conc = concentrate(g, w)
        s_a, s_b = (extend_to_symplectic_basis(*f.T) for f in (conc.f_a, conc.f_b))
        g_red = conc.gamma_1x1
        assert g_red.partition == (1, 1)
        red_verdict = is_npt(g_red)
        assert red_verdict.npt
        assert red_verdict.raw_margin == conc.npt_margin
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
    w = find_npt_witness(g)
    conc = concentrate(g, w)
    s_a, s_b = (extend_to_symplectic_basis(*f.T) for f in (conc.f_a, conc.f_b))
    za, zb = w.z[:4], w.z[4:]
    for side, z in ((s_a, za), (s_b, zb)):
        f1, f2 = side.entries[:, 0], side.entries[:, 1]
        assert abs(skew_product(f1, f2) + 1.0) < 1e-9
        span = np.column_stack([f1, f2])
        resid = np.column_stack([z.real, z.imag]) - span @ np.linalg.lstsq(
            span, np.column_stack([z.real, z.imag]), rcond=None)[0]
        assert np.abs(resid).max() < 1e-9


def test_concentration_record_carries_the_kept_pairs():
    # f_a, f_b are the kept canonical pairs: their completion starts with
    # them exactly, and gamma_1x1 is the projection onto them, bit for bit
    for n_a, n_b in ((1, 1), (3, 2), (4, 4)):
        g = random_npt_cm(n_a, n_b, seed=7)
        conc = concentrate(g, find_npt_witness(g))
        assert conc.f_a.shape == (2 * n_a, 2)
        assert conc.f_b.shape == (2 * n_b, 2)
        for f in (conc.f_a, conc.f_b):
            assert not f.flags.writeable
            assert abs(skew_product(f[:, 0], f[:, 1]) + 1.0) <= TOL_SYMPLECTIC
            assert np.array_equal(extend_to_symplectic_basis(*f.T).entries[:, :2], f)
        F = direct_sum(conc.f_a, conc.f_b)
        assert np.array_equal(conc.gamma_1x1.entries, _sym(F.T @ g.entries @ F))


def test_non_canonical_kept_pair_is_a_concentration_error():
    # a tampered skew product halves f2, so f1^T J f2 = -1/2: the pair cannot
    # be completed to a symplectic, and the stage says so in its own error
    g = local_scramble(random_npt_cm(3, 2, seed=7), seed=7)
    w = find_npt_witness(g)
    with pytest.raises(ConcentrationError, match="f1\\^T J f2 = -5.000e-01"):
        concentrate(g, replace(w, skew_a=2 * w.skew_a))


def test_concentrate_validates_partition():
    w = find_npt_witness(tmss_cm(0.5))
    with pytest.raises(ValueError):
        concentrate(vacuum(1, 0), w)


def test_one_sided_partitions_are_refused_in_one_wording():
    g = vacuum(0, 2)
    w = find_npt_witness(tmss_cm(0.5))
    refusals = {"NPT test": lambda: is_npt(g),
                "partial transposition": lambda: partial_transpose(g),
                "concentration": lambda: concentrate(g, w)}
    for what, refuse in refusals.items():
        with pytest.raises(ValueError) as err:
            refuse()
        assert str(err.value) == (
            f"{what} needs at least one mode on each side, got partition (0, 2)")


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
        out = symmetrization_oracle(g, rep.theta, rep.swapped_sides)
        got = wigner_cm(rep.gamma_out).entries
        assert np.abs(got - out).max() <= 1e-10 * max(1.0, np.abs(out).max())


def test_symmetrize_scale_factor_formula():
    for seed in range(25):
        g = lossy_squeezed_pair(r=0.35 + 0.025 * seed, theta=0.25 + 0.025 * seed)
        rep = symmetrize(g)
        p = standard_form_transform(wigner_cm(g)).params
        n_hot = min(p.n_a, p.n_b)
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


def matrix_path_symmetrize(g):
    """The 4x4 route to symmetrize's output, as a reference for the scalar
    one: the companion's standard form by transforming wigner_cm, the
    closed-form blocks of the module docstring assembled as matrices, and
    wigner_cm of the result.  Returns (companion params, gamma_out)."""
    w = standard_form_transform(wigner_cm(g)).params
    if abs(w.n_a - w.n_b) <= 1e-9:
        return w, wigner_cm(w.matrix())
    swapped = w.n_a < w.n_b
    n_big, n_hot = (w.n_b, w.n_a) if swapped else (w.n_a, w.n_b)
    d_x = n_big * n_hot - w.k_x ** 2
    tan2 = (n_big ** 2 - n_hot ** 2) / (n_hot - d_x * n_big)
    c2 = 1.0 / (1.0 + tan2)
    s2, c = 1.0 - c2, np.sqrt(c2)
    nu = s2 * n_hot + c2
    a = np.diag([c2 * n_big + s2 * d_x, c2 * n_big + s2 * n_big * n_hot]) / nu
    b = np.diag([n_hot / nu, c2 * n_hot + s2])
    if swapped:
        a, b = b, a
    return w, wigner_cm(CorrelationMatrix.from_blocks(a, b, np.diag([c * w.k_x / nu, c * w.k_p])))


def _params_close(p, q, rel):
    u, v = np.array(astuple(p)), np.array(astuple(q))
    return np.abs(u - v).max() <= rel * np.abs(v).max()


def test_scalar_symmetrize_matches_the_matrix_path():
    states = [random_symmetric_two_mode(seed) for seed in range(25)]
    states += [random_asymmetric_npt_1x1(seed) for seed in range(20)]
    states += [tmss_cm(r) for r in np.linspace(0.1, 3.0, 10)]
    symmetrized = 0
    for g in states:
        p = standard_form_transform(g).params
        w_ref, gamma_ref = matrix_path_symmetrize(p.matrix())
        assert _params_close(p.companion(), w_ref, 1e-10)
        if not is_npt(g).npt:
            continue
        rep = symmetrize(g)
        scale = np.abs(gamma_ref.entries).max()
        assert np.abs(rep.gamma_out.entries - gamma_ref.entries).max() <= 1e-10 * scale
        assert _params_close(rep.output_params,
                             standard_form_transform(rep.gamma_out).params, 1e-10)
        symmetrized += 1
    assert symmetrized >= 30


def symmetrize_decimal(p: StdFormParams, digits: int = 50):
    """The closed form of the module docstring in `digits`-digit decimal
    arithmetic, from the exact binary values of p: (tan^2 theta, output
    params as a tuple)."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        n_a, n_b, k_x, k_p = map(Decimal, astuple(p))

        def companion(n_a, n_b, k_x, k_p):
            m = n_a * n_b
            f = 1 / ((m - k_x ** 2) * (m - k_p ** 2)).sqrt()
            return n_b * f, n_a * f, k_x * f, k_p * f

        w_a, w_b, w_kx, w_kp = companion(n_a, n_b, k_x, k_p)
        swapped = w_a < w_b
        big, hot = (w_b, w_a) if swapped else (w_a, w_b)
        d_x = big * hot - w_kx ** 2
        tan2 = (big ** 2 - hot ** 2) / (hot - d_x * big)
        c2 = 1 / (1 + tan2)
        s2 = 1 - c2
        nu = s2 * hot + c2
        a = ((c2 * big + s2 * d_x) / nu, (c2 * big + s2 * big * hot) / nu)
        b = (hot / nu, c2 * hot + s2)
        k = (c2.sqrt() * w_kx / nu, c2.sqrt() * w_kp)
        if swapped:
            a, b = b, a
        t = (a[1] * b[1] / (a[0] * b[0])).sqrt().sqrt()
        u, v = k[0] * t, k[1] / t
        k_min = min(abs(u), abs(v)) * (1 if u * v > 0 else -1)
        out = companion((a[0] * a[1]).sqrt(), (b[0] * b[1]).sqrt(),
                        max(abs(u), abs(v)), k_min)
        return tan2, out


def test_symmetrize_angle_is_accurate_near_the_degenerate_family():
    # N_hot - D_x N_big is 1.6e-7 from O(1) terms in companion parameters
    # here; evaluated in the input's parameters it keeps ~1e-11 accuracy
    p = StdFormParams(1.0004790640655243, 1.0004087976138665,
                      0.02859690463718892, -0.02859480153139564)
    rep = distill_module._symmetrize(p)
    tan2, want = symmetrize_decimal(p)
    theta = math.atan(math.sqrt(float(tan2)))
    assert rep.theta == pytest.approx(theta, rel=1e-10, abs=0)
    for got, ref in zip(astuple(rep.output_params), want):
        assert got == pytest.approx(float(ref), rel=1e-10, abs=0)


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
    for stage in (rep.witness, rep.concentration,
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
        rep = distill_pipeline(local_scramble(tmss_cm(3.0), k))
        assert rep.verdict == VERDICT_DISTILLABLE
        assert rep.rc.value < 0


def test_pipeline_certifies_pairs_near_the_ppt_boundary():
    # NPT margins of 2e-7 to 1e-5: Simon's general residual is ~1e-13 here
    # (quadratic in the margin), so the output check must be the linear one
    core = StdFormParams(1.0001, 1.0001, 1.0001 - (1.0 - 3e-7), (1.0 - 3e-7) - 1.0001)
    for g in (tmss_cm(1e-7), tmss_cm(1e-6), core.matrix()):
        rep = distill_pipeline(local_scramble(direct_sum_states(g, vacuum(1, 1)), 5))
        assert rep.verdict == VERDICT_DISTILLABLE
        assert rep.rc.value < 0 and rep.rc.asymptotic_value < 0


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


def test_pipeline_refuses_an_r_max_that_is_not_an_integer():
    # 2.5 would certify at r = 2 and True run as 1
    for r_max in (2.5, 2.0, True, np.bool_(True), "3"):
        with pytest.raises(ValueError, match="r_max must be an integer"):
            distill_pipeline(tmss_cm(0.5), r_max=r_max)
    rep = distill_pipeline(tmss_cm(0.5), r_max=np.int64(3))
    assert rep.verdict == VERDICT_DISTILLABLE and rep.rc.r == 3


def test_verdict_tolerance_lies_inside_the_witness_skew_bound():
    # the module docstring's bound: a raw eigenvector outside the boundary
    # band clears the skew floor only when TOL_VERDICT < 6e-8
    assert 0 < TOL_VERDICT < (distill_module.BOUNDARY_BAND
                              - 4 * distill_module.SKEW_FLOOR_FACTOR)


@pytest.mark.parametrize("r_max", [180, 350])
def test_pipeline_certifies_at_large_r_max(r_max):
    # X P overflows from r = 178 in the e^{2r} form of the sweep; in
    # u = e^{-2r} the value stays finite and negative up to the limit
    rep = distill_pipeline(tmss_cm(0.5), r_max=r_max)
    assert rep.verdict == VERDICT_DISTILLABLE
    assert rep.rc.r == r_max and rep.rc.value < 0
    assert all(res.value < 0 for res in rep.rc_sweep)


def test_pipeline_rejects_r_max_beyond_the_probe_limit():
    with pytest.raises(ValueError, match="<= 350"):
        distill_pipeline(tmss_cm(0.5), r_max=351)


def test_pipeline_wraps_concentrate_stage_errors(monkeypatch):
    def broken(gamma, witness):
        raise NumericsError("injected")

    monkeypatch.setattr(distill_module, "concentrate", broken)
    with pytest.raises(PipelineStageError) as err:
        distill_pipeline(tmss_cm(0.5))
    assert err.value.stage == "concentrate"
    assert isinstance(err.value.cause, NumericsError)


def test_witness_below_the_skew_floor_is_a_witness_stage_failure():
    # unphysical on side A only: the minimal eigenvector of gamma - i*Jtilde
    # lives on side A, so side B's skew product is zero
    g = CorrelationMatrix(entries=np.diag([0.1, 0.1, 1.0, 1.0]), partition=(1, 1))
    with pytest.raises(PipelineStageError) as err:
        distill_module.witness_and_concentrate(g)
    assert err.value.stage == "witness"
    assert isinstance(err.value.cause, DegeneracyError)


def test_failed_basis_completion_is_a_concentrate_stage_failure(monkeypatch, tmp_path):
    # a kept pair that could not be completed to a symplectic (f1^T J f2 is
    # not -1) is a ConcentrationError, and nothing retries it
    real_concentrate = distill_module.concentrate
    real_pair = distill_module._canonical_pair
    calls = []

    def fails(z_side, skew):
        f1, f2 = real_pair(z_side, skew)
        return f1, 2.0 * f2

    def counted(*args, **kwargs):
        calls.append(args)
        return real_concentrate(*args, **kwargs)

    monkeypatch.setattr(distill_module, "_canonical_pair", fails)
    monkeypatch.setattr(distill_module, "concentrate", counted)
    with pytest.raises(PipelineStageError) as err:
        distill_pipeline(tmss_cm(0.5))
    assert err.value.stage == "concentrate"
    assert isinstance(err.value.cause, ConcentrationError)
    assert "not canonical" in str(err.value.cause)
    assert len(calls) == 1

    path = tmp_path / "d.json"
    save_state(GaussianState(gamma=tmss_cm(0.5)), str(path))
    for command in ("pipeline", "concentrate"):
        assert cli.main([command, str(path)]) == 5


def test_hot_padded_pair_gets_a_verdict_or_a_stage_failure(monkeypatch, tmp_path, capsys):
    # F^T gamma F carries absolute rounding of about eps * |gamma| (1e-6 at
    # 1e10), so the projection is symmetrized like every other congruence
    def padded(big, seed):
        hot = CorrelationMatrix(entries=big * np.eye(4), partition=(1, 1))
        return local_scramble(direct_sum_states(tmss_cm(1.0), hot), seed)

    for big in (1e9, 1e10):
        for seed in range(20):
            try:
                assert distill_pipeline(padded(big, seed)).verdict == VERDICT_DISTILLABLE
            except PipelineStageError:
                pass
    path = tmp_path / "hot.json"
    save_state(GaussianState(gamma=padded(1e10, 0)), str(path))
    assert cli.main(["pipeline", str(path)]) == 0
    assert "verdict: DISTILLABLE" in capsys.readouterr().out
    # a projection that is still refused is a concentrate stage failure
    monkeypatch.setattr(distill_module, "_sym", lambda m: -m)
    assert "positive definite" in _stage_failure("concentrate", ConcentrationError)


def _stage_failure(stage, cause, gamma=None):
    """Run the pipeline, expecting the named stage to fail with cause."""
    with pytest.raises(PipelineStageError) as err:
        distill_pipeline(tmss_cm(0.5) if gamma is None else gamma)
    assert err.value.stage == stage
    assert isinstance(err.value.cause, cause)
    return str(err.value.cause)


def test_singular_witness_solve_is_a_witness_stage_failure(monkeypatch):
    def singular(a, b):
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(np.linalg, "solve", singular)
    assert "is singular" in _stage_failure("witness", DegeneracyError)


def test_unconverged_inverse_iteration_is_a_witness_stage_failure(monkeypatch):
    # a solve that returns its right-hand side leaves z = (1, ..., 1), which
    # is not an eigenvector: the residual never drops below the bound
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: b)
    message = _stage_failure("witness", DegeneracyError)
    assert f"after {distill_module.MAX_WITNESS_SOLVES} solves" in message


def test_concentrate_refuses_a_witness_of_the_wrong_length():
    g = random_npt_cm(2, 1, 3)
    w = find_npt_witness(g)
    for z in (w.z[:4], np.concatenate([w.z, np.zeros(2)])):
        with pytest.raises(ValueError, match=f"witness length {z.size} is not the "
                                             "state dimension 6"):
            concentrate(g, replace(w, z=z))


def test_concentrate_refuses_a_witness_side_without_real_part_or_skew():
    g = random_npt_cm(2, 1, 3)
    w = find_npt_witness(g)
    z = np.array(w.z)
    z[:4] = 1j * z[:4].imag
    for crafted in (replace(w, z=z), replace(w, skew_b=0.0)):
        with pytest.raises(ConcentrationError, match="vanishing real part"):
            concentrate(g, crafted)


def test_concentrate_decides_only_that_the_kept_pair_is_npt(monkeypatch):
    # the identity's first pair on each side leaves the witness spread over
    # every mode; the stage's outcome is then the NPT decision on the
    # first-mode block alone
    monkeypatch.setattr(distill_module, "_canonical_pair",
                        lambda z_side, skew: tuple(np.eye(z_side.size)[:2]))
    g = local_scramble(random_npt_cm(3, 2, seed=7), seed=7)
    conc = concentrate(g, find_npt_witness(g))
    assert np.array_equal(conc.gamma_1x1.entries, reduce_to_modes(g, [0], [0]).entries)
    message = _stage_failure("concentrate", ConcentrationError,
                             direct_sum_states(vacuum(1, 1), tmss_cm(0.5)))
    assert "reduced two-mode state is not NPT" in message


def test_another_states_witness_leaves_a_ppt_state_ppt():
    # a product state stays PPT under local congruence and reduction
    w = find_npt_witness(padded_squeezed_pair(2, 2, seed=1))
    thermal = CorrelationMatrix(entries=2.0 * np.eye(8), partition=(2, 2))
    with pytest.raises(ConcentrationError, match="not NPT"):
        concentrate(thermal, w)


def _degenerate_standard_form(gamma):
    # positive definite, but min(n) * d_p < max(n): no beam-splitter angle
    return replace(standard_form_transform(gamma),
                   params=StdFormParams(n_a=3.0, n_b=1.0, k_x=0.5, k_p=-0.9))


def _second_residual_doubled():
    calls = []

    def check(p):
        res = two_mode_module.check_inseparable(p)
        calls.append(p)
        return replace(res, residual=2.0 * res.residual) if len(calls) == 2 else res
    return check


@pytest.mark.parametrize("target, name, fake, message", [
    (distill_module, "standard_form_transform", _degenerate_standard_form,
     "angle formula degenerated"),
    (distill_module, "check_inseparable", None, "residual scaling violated"),
    (distill_module, "is_symmetric", lambda p: False, "is not symmetric"),
    (StdFormParams, "rc_limit", property(lambda p: -TOL_VERDICT), "lost NPT-ness"),
], ids=["angle", "scaling", "symmetry", "npt"])
def test_symmetrize_postconditions_are_stage_failures(monkeypatch, target, name, fake,
                                                      message):
    monkeypatch.setattr(target, name, fake or _second_residual_doubled())
    assert message in _stage_failure("symmetrize", NumericsError, lossy_squeezed_pair())


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
    # npt_check only: the concentrate stage decided the symmetrize input NPT,
    # and the output postcondition is its parameters' rc_limit
    assert calls == {"is_npt": 1, "tmss_cm": 0}


def _params_in(g):
    """The standard-form parameters read off the entries of g."""
    e = g.entries
    return StdFormParams(n_a=e[0, 0], n_b=e[2, 2], k_x=e[0, 2], k_p=e[1, 3])


CERTIFIED_INPUTS = pytest.mark.parametrize("make", [
    lambda: tmss_cm(0.5),
    lambda: local_scramble(tmss_cm(2.0), 5),
    lambda: local_scramble(random_npt_cm(3, 2, seed=7), seed=7),
], ids=["squeezed", "scrambled_squeezed", "scrambled_3x2"])


@CERTIFIED_INPUTS
def test_report_params_are_the_entries_of_the_certified_forms(make, monkeypatch):
    received = []
    real = distill_module.rc_sweep

    def recording(params, rs):
        received.append(params)
        return real(params, rs)

    monkeypatch.setattr(distill_module, "rc_sweep", recording)
    rep = distill_pipeline(make())
    assert rep.verdict == VERDICT_DISTILLABLE
    assert rep.standard_form.params == _params_in(rep.standard_form.gamma_std)
    [certified] = received
    assert certified is rep.final_params
    assert certified is rep.symmetrization.output_params


@CERTIFIED_INPUTS
def test_rc_limit_is_the_limit_of_the_final_params(make):
    rep = distill_pipeline(make())
    assert rep.verdict == VERDICT_DISTILLABLE
    p = rep.final_params
    n = np.sqrt(p.n_a * p.n_b)
    for res in rep.rc_sweep:
        assert res.asymptotic_value == (n - p.k_x) * (n + p.k_p) - 1.0


def test_pipeline_takes_each_standard_form_once(monkeypatch):
    transformed = []
    calls = {"standard_form_params": 0, "wigner_cm": 0, "is_npt": 0, "det_4x4": 0}
    real_transform = distill_module.standard_form_transform

    def transform(g):
        transformed.append(g)
        return real_transform(g)

    def counting(module, name):
        real = getattr(module, name, None)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted, raising=False)

    real_det = np.linalg.det

    def det(a):
        calls["det_4x4"] += np.shape(a)[-1] >= 4
        return real_det(a)

    monkeypatch.setattr(distill_module, "standard_form_transform", transform)
    for module in (distill_module, two_mode_module):
        counting(module, "standard_form_params")
        counting(module, "wigner_cm")
    counting(distill_module, "is_npt")
    monkeypatch.setattr(np.linalg, "det", det)
    g = local_scramble(random_npt_cm(3, 2, seed=7), seed=7)
    built = []
    real_post_init = CorrelationMatrix.__post_init__

    def recording(self):
        built.append(np.shape(self.entries))
        real_post_init(self)

    monkeypatch.setattr(CorrelationMatrix, "__post_init__", recording)
    rep = distill_pipeline(g)
    assert rep.verdict == VERDICT_DISTILLABLE
    # the reduced state only: symmetrize and the rc sweep work on its params
    assert len(transformed) == 1
    assert transformed[0] is rep.concentration.gamma_1x1
    assert calls == {"standard_form_params": 0, "wigner_cm": 0, "is_npt": 1, "det_4x4": 0}
    # concentration projects onto the kept pairs: no transformed 10x10 state
    assert built and (g.dim, g.dim) not in built


def test_distillable_run_factors_only_the_reduced_state(monkeypatch):
    # gamma_std and gamma_out are derived on read, and the serializers write
    # their entries, so after the input's own Cholesky (made before counting)
    # the run and its report factor the input's gamma - iJ + tau*I (the
    # physicality test) and build and factor gamma_1x1 only
    g = local_scramble(random_npt_cm(3, 2, seed=7), seed=7)
    factored, built = [], []
    real_cholesky = np.linalg.cholesky
    real_post_init = CorrelationMatrix.__post_init__

    def cholesky(a):
        factored.append(np.shape(a))
        return real_cholesky(a)

    def recording(self):
        built.append(self)
        real_post_init(self)

    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    monkeypatch.setattr(CorrelationMatrix, "__post_init__", recording)
    rep = distill_pipeline(g)
    pipeline_report_to_dict(rep)
    assert rep.verdict == VERDICT_DISTILLABLE
    assert factored == [(10, 10), (4, 4)]
    assert len(built) == 1 and built[0] is rep.concentration.gamma_1x1


def test_stage_matrices_are_derived_on_read():
    rep = distill_pipeline(local_scramble(random_npt_cm(3, 2, seed=7), seed=7))
    stages = json.loads(dumps(pipeline_report_to_dict(rep)))["stages"]
    std, sym = rep.standard_form, rep.symmetrization
    # nothing built them yet: the report holds params and entries only
    assert "gamma_std" not in vars(std) and "gamma_out" not in vars(sym)
    gamma_std = std.gamma_std.entries
    assert gamma_std.tobytes() == std.params.matrix().entries.tobytes()
    assert gamma_std.tobytes() == np.array(stages["standard_form"]["gamma_std"]).tobytes()
    gamma_out = sym.gamma_out.entries
    assert gamma_out.tobytes() == np.array(stages["symmetrize"]["gamma_out"]).tobytes()
    assert not gamma_out.flags.writeable and not sym.gamma_out_entries.flags.writeable
    assert std.gamma_std is std.gamma_std and sym.gamma_out is sym.gamma_out


def test_pipeline_not_distillable():
    for g in (vacuum(1, 1), vacuum(2, 3),
              CorrelationMatrix(entries=np.diag([2.0, 2.0, 1.5, 1.5]), partition=(1, 1))):
        rep = distill_pipeline(g)
        assert rep.verdict == VERDICT_NOT_DISTILLABLE
        assert not rep.npt.npt
        assert rep.witness is None and rep.concentration is None
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
    rep = distill_pipeline(g)
    assert rep.verdict == VERDICT_DISTILLABLE
    assert rep.symmetrization.theta > 0.1
    p = rep.final_params
    assert abs(p.n_a - p.n_b) <= 1e-8
    assert rep.rc.value < 0
    assert is_npt(rep.symmetrization.gamma_out).npt


def test_pipeline_transforms_compose():
    # the reported transforms really map the input to the reported 1x1 state
    g = random_npt_cm(2, 2, seed=5)
    rep = distill_pipeline(g)
    assert rep.verdict == VERDICT_DISTILLABLE
    conc = rep.concentration
    s_a, s_b = (extend_to_symplectic_basis(*f.T) for f in (conc.f_a, conc.f_b))
    moved = apply_symplectic(g, direct_sum(s_a.entries, s_b.entries))
    red = reduce_to_modes(moved, [0], [0])
    assert np.abs(red.entries - conc.gamma_1x1.entries).max() < 1e-12
    # standard-form stage transforms the reduced state to its gamma_std
    std = rep.standard_form
    S = direct_sum(std.s_a.entries, std.s_b.entries)
    assert np.abs(S.T @ conc.gamma_1x1.entries @ S - std.gamma_std.entries).max() < 1e-9


def test_pipeline_report_deterministic():
    g = random_npt_cm(2, 1, seed=21)
    a = dumps(pipeline_report_to_dict(distill_pipeline(g)))
    b = dumps(pipeline_report_to_dict(distill_pipeline(g)))
    assert a == b


def test_pipeline_verdict_matches_ppt_test():
    checked = 0
    for seed in range(40):
        kind = ("thermal", "entangled")[seed % 2]
        st, meta = random_state(kind, 1 + seed % 3, 1 + (seed // 2) % 2, seed)
        if abs(meta["npt_margin"]) < 1e-7:
            continue
        rep = distill_pipeline(st.gamma)
        want = VERDICT_DISTILLABLE if meta["npt"] else VERDICT_NOT_DISTILLABLE
        assert rep.verdict == want
        if rep.verdict == VERDICT_DISTILLABLE:
            assert rep.rc_sweep[-1].value < 0 or rep.final_params is not None
        checked += 1
    assert checked >= 30


def test_non_positive_definite_standard_form_is_a_symmetrize_stage_failure(monkeypatch):
    # StdFormParams.companion() is symmetrize's closed-form positive-definiteness
    # check: params with D_x <= 0 are a NumericsError there, a stage failure
    real_transform = distill_module.standard_form_transform
    bad = StdFormParams(2.0, 2.0, 2.0, 0.5)  # D_x = n_a n_b - k_x^2 = 0
    monkeypatch.setattr(distill_module, "standard_form_transform",
                        lambda g: replace(real_transform(g), params=bad))
    with pytest.raises(PipelineStageError) as err:
        distill_pipeline(tmss_cm(0.5))
    assert err.value.stage == "symmetrize"
    assert isinstance(err.value.cause, NumericsError)
    assert "not positive definite" in str(err.value.cause)
