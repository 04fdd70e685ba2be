import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

import gdistill.two_mode as two_mode_module
from gdistill import (
    CorrelationMatrix,
    NumericsError,
    StdFormParams,
    VERDICT_DISTILLABLE,
    apply_symplectic,
    check_inseparable,
    check_physical,
    check_symmetric_inseparable,
    det_invariants,
    direct_sum,
    direct_sum_states,
    distill_pipeline,
    is_npt,
    is_symmetric,
    local_scramble,
    random_asymmetric_npt_1x1,
    random_npt_cm,
    random_state,
    random_symmetric_two_mode,
    random_symplectic,
    rc_sweep,
    rc_value,
    standard_form_params,
    standard_form_transform,
    tmss_cm,
    vacuum,
    validate_physical,
    wigner_cm,
)
from gdistill.states import TOL_VERDICT

# a positive definite two-mode matrix already in standard form, with all four
# parameters distinct so no root of the extraction is degenerate
REF = CorrelationMatrix.from_blocks(2.0 * np.eye(2), 1.5 * np.eye(2), np.diag([0.8, -0.3]))


def scrambled(g, seed):
    S = direct_sum(
        random_symplectic(1, seed=2 * seed).entries,
        random_symplectic(1, seed=2 * seed + 1).entries,
    )
    return apply_symplectic(g, S)


def test_det_invariants_frozen():
    for r in (0.25, 0.5, 1.0):
        det_a, det_b, det_c, det_g = det_invariants(tmss_cm(r))
        ch2, sh2 = np.cosh(2 * r) ** 2, np.sinh(2 * r) ** 2
        assert det_a == pytest.approx(ch2, abs=1e-12)
        assert det_b == pytest.approx(ch2, abs=1e-12)
        assert det_c == pytest.approx(-sh2, abs=1e-12)
        assert det_g == pytest.approx(1.0, abs=1e-10)  # pure state
    with pytest.raises(ValueError):
        det_invariants(vacuum(2, 1))


def test_det_invariants_local_invariance():
    for seed in range(30):
        a = det_invariants(REF)
        b = det_invariants(scrambled(REF, seed))
        assert np.allclose(a, b, rtol=1e-10, atol=1e-10)


def test_standard_form_params_squeezed_frozen():
    for r in (0.25, 0.5, 1.0):
        p = standard_form_params(tmss_cm(r))
        assert abs(p.n_a - np.cosh(2 * r)) < 1e-12
        assert abs(p.n_b - np.cosh(2 * r)) < 1e-12
        assert abs(p.k_x - np.sinh(2 * r)) < 1e-12
        assert abs(p.k_p + np.sinh(2 * r)) < 1e-12


def test_standard_form_params_recovery_under_scrambling():
    for seed in range(40):
        p = standard_form_params(scrambled(REF, seed))
        assert abs(p.n_a - 2.0) < 1e-12
        assert abs(p.n_b - 1.5) < 1e-12
        assert abs(p.k_x - 0.8) < 1e-12
        assert abs(p.k_p + 0.3) < 1e-12


def test_standard_form_transform_congruence_and_signs():
    for seed in range(40):
        g = scrambled(REF, seed)
        sf = standard_form_transform(g)
        S = direct_sum(sf.s_a.entries, sf.s_b.entries)
        assert np.abs(S.T @ g.entries @ S - sf.gamma_std.entries).max() < 1e-10
        e = sf.gamma_std.entries
        assert np.array_equal(e, sf.params.matrix().entries)
        # diagonal blocks proportional to the identity, cross block diagonal
        assert np.abs(e[:2, :2] - e[0, 0] * np.eye(2)).max() < 1e-10
        assert np.abs(e[2:, 2:] - e[2, 2] * np.eye(2)).max() < 1e-10
        assert abs(e[0, 3]) < 1e-10 and abs(e[1, 2]) < 1e-10
        # ordering and sign conventions: k_x >= |k_p|, sign(k_p) = sign(det C)
        assert e[0, 2] >= abs(e[1, 3]) - 1e-9
        det_c = det_invariants(g)[2]
        assert e[0, 2] * e[1, 3] == pytest.approx(det_c, rel=1e-9, abs=1e-12)
        # transform output agrees with the invariant route
        p = standard_form_params(g)
        assert abs(e[0, 0] - p.n_a) < 1e-9
        assert abs(e[2, 2] - p.n_b) < 1e-9
        assert abs(e[0, 2] - p.k_x) < 1e-9
        assert abs(e[1, 3] - p.k_p) < 1e-9


def svd_standard_form(g):
    """The factorization route to standard_form_transform's params, kept as
    the reference for its closed form: eigh for each block's inverse square
    root, the signed singular values of the equalized cross block (the SVD's
    rotations made proper, sign(k_p) = sign(det C))."""
    e = g.entries
    roots = []
    for block in (e[:2, :2], e[2:, 2:]):
        n = float(np.sqrt(np.linalg.det(block)))
        w, Q = np.linalg.eigh(block)
        roots.append((n, np.sqrt(n) * (Q @ np.diag(w ** -0.5) @ Q.T)))
    (n_a, MA), (n_b, MB) = roots
    U, s, Vt = np.linalg.svd(MA.T @ e[:2, 2:] @ MB)
    k_p = s[1] * np.sign(np.linalg.det(U)) * np.sign(np.linalg.det(Vt))
    return np.array([n_a, n_b, s[0], k_p])


@pytest.mark.parametrize("make", [
    *(lambda seed, kind=kind: random_state(kind, 1, 1, seed)[0].gamma
      for kind in ("thermal", "entangled", "boundary")),
    random_asymmetric_npt_1x1,
    # k_x = |k_p| exactly: the rotation and reflection parts have equal weight
    lambda seed: local_scramble(tmss_cm(0.01 + 6.5 * seed / 500), seed),
], ids=["thermal", "entangled", "boundary", "asymmetric_npt", "scrambled_tmss"])
def test_standard_form_transform_matches_the_svd_route(make):
    for seed in range(500):
        g = make(seed)
        sf = standard_form_transform(g)
        p = sf.params
        got = np.array([p.n_a, p.n_b, p.k_x, p.k_p])
        ref = svd_standard_form(g)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        S = direct_sum(sf.s_a.entries, sf.s_b.entries)
        congruence = S.T @ g.entries @ S
        assert np.abs(congruence - sf.gamma_std.entries).max() <= 1e-12 * np.abs(ref).max()


def test_standard_form_transform_of_product_and_standard_forms():
    # C = 0: no correlations to carry
    for seed in range(20):
        p = standard_form_transform(random_state("thermal", 1, 1, seed)[0].gamma).params
        assert (p.k_x, p.k_p) == (0.0, 0.0)
    # a standard form comes back with identity rotations and its own entries;
    # k_x and k_p exactly when k_p is 0 or -k_x, else within rounding of
    # (k_x + k_p)/2 + (k_x - k_p)/2
    forms = [StdFormParams(2.0, 1.5, 0.8, -0.3), StdFormParams(1.7, 2.4, 0.9, 0.9),
             StdFormParams(3.0, 1.2, 0.7, 0.0)]
    for g in [p.matrix() for p in forms] + [tmss_cm(0.6), tmss_cm(4.0)]:
        e = g.entries
        sf = standard_form_transform(g)
        assert np.array_equal(sf.s_a.entries, np.eye(2))
        assert np.array_equal(sf.s_b.entries, np.eye(2))
        p = sf.params
        assert (p.n_a, p.n_b) == (e[0, 0], e[2, 2])
        k_x, k_p = e[0, 2], e[1, 3]
        if k_p in (0.0, -k_x):
            assert (p.k_x, p.k_p) == (k_x, k_p)
        assert abs(p.k_x - k_x) <= 4e-16 * k_x and abs(p.k_p - k_p) <= 4e-16 * k_x


def test_std_form_params_matrix_layout():
    p = StdFormParams(n_a=2.0, n_b=1.5, k_x=0.8, k_p=-0.3)
    g = p.matrix()
    assert g.partition == (1, 1)
    assert np.array_equal(g.entries, [[2.0, 0.0, 0.8, 0.0], [0.0, 2.0, 0.0, -0.3],
                                      [0.8, 0.0, 1.5, 0.0], [0.0, -0.3, 0.0, 1.5]])
    # D_x and D_p are the determinants of the x and p blocks
    x, q = np.ix_([0, 2], [0, 2]), np.ix_([1, 3], [1, 3])
    assert p.d_x == pytest.approx(np.linalg.det(g.entries[x]), rel=1e-14)
    assert p.d_p == pytest.approx(np.linalg.det(g.entries[q]), rel=1e-14)
    assert (p.d_x, p.d_p) == pytest.approx((2.36, 2.91), rel=1e-15)
    # the squeezed vacuum is built through it, bit-identical to its blocks
    for r in (0.0, 0.25, 1.0, 3.0):
        ch, sh = np.cosh(2.0 * r), np.sinh(2.0 * r)
        assert np.array_equal(tmss_cm(r).entries, CorrelationMatrix.from_blocks(
            ch * np.eye(2), ch * np.eye(2), sh * np.diag([1.0, -1.0])).entries)


def test_check_physical_frozen():
    for r in (0.0, 0.5, 1.0):
        chk = check_physical(standard_form_params(tmss_cm(r)))
        assert chk.physical
        assert chk.physicality_residual == pytest.approx(0.0, abs=1e-9)  # pure: boundary
    chk = check_physical(StdFormParams(n_a=2.0, n_b=1.5, k_x=0.8, k_p=-0.3))
    assert chk.physical and chk.physicality_residual > 1.0
    # correlations too strong for the local purities
    chk = check_physical(StdFormParams(n_a=1.2, n_b=1.2, k_x=1.3, k_p=-1.3))
    assert not chk.physical
    assert chk.correlation_residual < 0


def test_check_inseparable_frozen():
    for r in (0.25, 0.5, 1.0):
        chk = check_inseparable(standard_form_params(tmss_cm(r)))
        assert chk.inseparable
        assert chk.residual == pytest.approx(2 * np.cosh(4 * r) - 2.0, rel=1e-9)
    assert not check_inseparable(standard_form_params(vacuum(1, 1))).inseparable
    assert not check_inseparable(StdFormParams(n_a=2.0, n_b=1.5, k_x=0.8, k_p=-0.3)).inseparable


def test_inseparability_residual_matches_param_form():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n_a, n_b = rng.uniform(1.0, 3.0, size=2)
        kmax = np.sqrt(n_a * n_b - 1.0) if n_a * n_b > 1 else 0.0
        k_x = rng.uniform(0.0, kmax) if kmax > 0 else 0.0
        k_p = rng.uniform(-k_x, k_x) if k_x > 0 else 0.0
        g = CorrelationMatrix.from_blocks(
            n_a * np.eye(2), n_b * np.eye(2), np.diag([k_x, k_p]))
        # det A + det B - 2 det C - det gamma - 1, straight from the invariants
        det_a, det_b, det_c, det_g = det_invariants(scrambled(g, seed))
        direct = det_a + det_b - 2.0 * det_c - det_g - 1.0
        via_params = check_inseparable(StdFormParams(n_a, n_b, k_x, k_p)).residual
        assert direct == pytest.approx(via_params, rel=1e-9, abs=1e-9)


def test_check_inseparable_agrees_with_npt():
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n_a, n_b = rng.uniform(1.0, 2.5, size=2)
        kmax = np.sqrt(max(n_a * n_b - 1.0, 0.0))
        k_x = rng.uniform(0.0, kmax) if kmax > 0 else 0.0
        k_p = rng.uniform(-k_x, k_x) if k_x > 0 else 0.0
        p = StdFormParams(n_a, n_b, k_x, k_p)
        if not check_physical(p).physical:
            continue
        g = scrambled(CorrelationMatrix.from_blocks(
            n_a * np.eye(2), n_b * np.eye(2), np.diag([k_x, k_p])), seed)
        chk = check_inseparable(standard_form_params(g))
        if abs(chk.residual) < 1e-8:  # skip knife-edge cases
            continue
        assert chk.inseparable == is_npt(g).npt


def test_is_symmetric():
    assert is_symmetric(standard_form_params(tmss_cm(0.5)))
    assert not is_symmetric(StdFormParams(n_a=2.0, n_b=1.5, k_x=0.8, k_p=-0.3))


def test_check_symmetric_inseparable_matches_general_form():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = rng.uniform(1.0, 3.0)
        kmax = np.sqrt(n * n - 1.0) if n > 1 else 0.0
        k_x = rng.uniform(0.0, kmax) if kmax > 0 else 0.0
        k_p = rng.uniform(-k_x, k_x) if k_x > 0 else 0.0
        p = StdFormParams(n, n, k_x, k_p)
        if not check_physical(p).physical:
            continue
        sym = check_symmetric_inseparable(n, k_x, k_p)
        gen = check_inseparable(p)
        assert sym.inseparable == gen.inseparable
        # general residual factorizes as symmetric residual * positive factor
        u = n * (k_x - k_p)
        v = abs(n * n - k_x * k_p - 1.0)
        if u + v > 1e-9:
            assert gen.residual == pytest.approx(sym.residual * (u + v), rel=1e-9, abs=1e-12)


def test_rc_limit_is_the_symmetric_residual_negated():
    # every physical symmetric state has n^2 - k_x k_p >= 1, so the symmetric
    # residual n (k_x - k_p) - |n^2 - k_x k_p - 1| is -(n - k_x)(n + k_p) + 1
    checked = npt = 0
    for seed in range(300):
        # a symmetric draw is a standard form: its entries are the parameters
        e = random_symmetric_two_mode(seed).entries
        for k_p in (e[1, 3], -e[1, 3]):
            p = StdFormParams(e[0, 0], e[2, 2], e[0, 2], k_p)
            if not check_physical(p).physical:
                continue
            n = math.sqrt(p.n_a * p.n_b)
            sym = check_symmetric_inseparable(n, p.k_x, p.k_p)
            assert abs(p.rc_limit + sym.residual) <= 1e-15 * max(1.0, n * n), (seed, k_p)
            assert (p.rc_limit < -TOL_VERDICT) == sym.inseparable, (seed, k_p)
            checked += 1
            npt += sym.inseparable
    assert checked >= 300 and 0 < npt < checked


def test_tmss_cm_validation_and_purity():
    with pytest.raises(ValueError):
        tmss_cm(-1.0)
    assert np.array_equal(tmss_cm(0.0).entries, np.eye(4))
    for r in (0.25, 1.0):
        assert validate_physical(tmss_cm(r)).physical
        assert abs(np.linalg.det(tmss_cm(r).entries) - 1.0) < 1e-10


def test_companion_params_frozen():
    # pure states are fixed points of the companion map: same parameters
    wp = standard_form_params(wigner_cm(tmss_cm(0.5)))
    assert abs(wp.n_a - np.cosh(1.0)) < 1e-12
    assert abs(wp.n_b - np.cosh(1.0)) < 1e-12
    assert abs(wp.k_x - np.sinh(1.0)) < 1e-12
    assert abs(wp.k_p + np.sinh(1.0)) < 1e-12
    assert wp.n_a * wp.n_b - wp.k_x ** 2 == pytest.approx(1.0, abs=1e-10)
    assert wp.n_a * wp.n_b - wp.k_p ** 2 == pytest.approx(1.0, abs=1e-10)
    # thermal product: occupations invert, correlations stay zero
    g = CorrelationMatrix(entries=np.diag([2.0, 2.0, 4.0, 4.0]), partition=(1, 1))
    wp = standard_form_params(wigner_cm(g))
    assert (wp.n_a, wp.n_b) == pytest.approx((0.5, 0.25), abs=1e-12)
    assert (wp.k_x, wp.k_p) == pytest.approx((0.0, 0.0), abs=1e-12)
    assert wp.n_a * wp.n_b - wp.k_x ** 2 == pytest.approx(0.125, abs=1e-12)


@pytest.mark.parametrize("params", [StdFormParams(1.0, 1.0, 1.0, 0.0),
                                    StdFormParams(1.0, 1.0, 0.0, 1.5),
                                    StdFormParams(-1.0, -1.0, 0.0, 0.0)])
def test_companion_refuses_a_matrix_that_is_not_positive_definite(params):
    # D_x = 0, D_p < 0 and n_a < 0 with D_x, D_p > 0: none has a companion
    with pytest.raises(NumericsError, match="not positive definite"):
        params.companion()


def test_standard_form_params_refuses_inconsistent_invariants(monkeypatch):
    # det A = det B = det C = det gamma = 1 has discriminant sigma^2 - 4 det C^2
    # = -3: no real (k_x, k_p) fits, far beyond rounding
    monkeypatch.setattr(two_mode_module, "det_invariants", lambda g: (1.0, 1.0, 1.0, 1.0))
    with pytest.raises(NumericsError, match="discriminant came out negative"):
        standard_form_params(REF)


def test_rc_value_vacuum_is_zero():
    for r in (0.5, 2.0, 8.0):
        res = rc_value(vacuum(1, 1), r)
        assert res.value == pytest.approx(0.0, abs=1e-12)
    # separable: the asymptotic limit is nonnegative
    assert rc_value(vacuum(1, 1), 8.0).asymptotic_value == pytest.approx(0.0, abs=1e-12)


def test_rc_value_squeezed_frozen():
    res = rc_value(tmss_cm(0.5), 8.0)
    # value from the factored overlap determinant, asymptotics from the params
    assert res.value == pytest.approx(-7.734679908840033e-07, rel=1e-9)
    assert res.asymptotic_value == pytest.approx(np.exp(-2.0) - 1.0, abs=1e-12)
    assert res.r == 8.0
    # negative at every probe strength for an NPT symmetric state
    for r in (0.5, 1.0, 2.0, 4.0):
        assert rc_value(tmss_cm(0.5), r).value < 0


def test_rc_value_validation():
    with pytest.raises(ValueError):
        rc_value(vacuum(1, 1), 0.0)
    with pytest.raises(ValueError):
        rc_value(vacuum(1, 1), -1.0)
    with pytest.raises(ValueError):
        rc_value(vacuum(2, 1), 1.0)  # not a two-mode state


def padded_core(a, nu_t, pad_a, pad_b, seed):
    """A squeezed-thermal core [[a I, c Z], [c Z, a I]], c = a - nu_t, padded
    with thermal modes of the given nu per side and locally scrambled."""
    core = StdFormParams(a, a, a - nu_t, nu_t - a).matrix()
    pad = CorrelationMatrix(entries=np.diag(np.repeat(pad_a + pad_b, 2)),
                            partition=(len(pad_a), len(pad_b)))
    return local_scramble(direct_sum_states(core, pad), seed)


def _decimal(q):
    return Decimal(q.numerator) / q.denominator


def exact_rc(p, r):
    """rc_sweep's value for params p at probe squeezing r in exact arithmetic:
    the probe is rational (t = exp(2r) as a float, ch = (t + 1/t)/2, sh =
    (t - 1/t)/2), the determinants are closed-form rationals, and only the
    final square root is rounded (50 digits)."""
    n_a, n_b, k_x, k_p = (Fraction(v) for v in (p.n_a, p.n_b, p.k_x, p.k_p))
    t = Fraction(float(np.exp(2.0 * r)))
    ch, sh = (t + 1 / t) / 2, (t - 1 / t) / 2
    det_x = (n_a + ch) * (n_b + ch) - (k_x + sh) ** 2
    det_p = (n_a + ch) * (n_b + ch) - (k_p - sh) ** 2
    with localcontext() as ctx:
        ctx.prec = 50
        return float(2 / _decimal(n_a + ch) - 4 / _decimal(det_x * det_p).sqrt())


def _rc_relative_error(p, rs):
    exact = [exact_rc(p, r) for r in rs]
    return max(abs(res.value - x) / abs(x) for res, x in zip(rc_sweep(p, rs), exact))


def test_rc_sweep_matches_exact_arithmetic():
    states = [random_symmetric_two_mode(seed) for seed in range(25)]
    states += [standard_form_transform(random_asymmetric_npt_1x1(seed)).gamma_std
               for seed in range(20)]
    states += [tmss_cm(r) for r in np.linspace(0.1, 3.0, 10)]
    assert len(states) == 55
    rs = range(1, 9)
    for g in states:
        e = g.entries
        p = StdFormParams(n_a=e[0, 0], n_b=e[2, 2], k_x=e[0, 2], k_p=e[1, 3])
        assert np.array_equal(p.matrix().entries, e)
        sweep = rc_sweep(p, rs)
        assert [res.r for res in sweep] == [float(r) for r in rs]
        assert _rc_relative_error(p, rs) <= 1e-9
        n = np.sqrt(p.n_a * p.n_b)
        assert [res.asymptotic_value for res in sweep] == \
            [(n - p.k_x) * (n + p.k_p) - 1.0] * len(rs)


def test_rc_sweep_matches_exact_arithmetic_at_large_r():
    # rc_value's 4x4 determinants cannot follow the u-form past r ~ 10; the
    # exact reference can, down to values of about 1e-304 at r = 350.  The
    # worst relative error measured on these forms is 9.4e-16.
    forms = [standard_form_transform(tmss_cm(r)).params for r in (0.5, 2.0)]
    forms += [standard_form_transform(random_asymmetric_npt_1x1(seed)).params
              for seed in range(5)]
    for p in forms:
        assert is_npt(p.matrix()).raw_margin < -0.2  # decisively NPT
        assert _rc_relative_error(p, (20.0, 100.0, 178.0, 350.0)) <= 1e-13


@pytest.mark.parametrize("make", [
    lambda: local_scramble(random_npt_cm(3, 2, seed=7), seed=7),
    lambda: padded_core(a=1.6, nu_t=0.4, pad_a=(), pad_b=(1.3,), seed=3),
    lambda: padded_core(a=2.4, nu_t=0.7, pad_a=(1.1,), pad_b=(1.9,), seed=4),
], ids=["scrambled_3x2", "core_1x2", "core_2x2"])
def test_pipeline_rc_sweep_matches_exact_arithmetic(make):
    rep = distill_pipeline(make())
    assert rep.verdict == VERDICT_DISTILLABLE
    assert _rc_relative_error(rep.final_params, range(1, 9)) <= 1e-7


def test_rc_sweep_validation():
    p = standard_form_params(vacuum(1, 1))
    with pytest.raises(ValueError, match="probe squeezing must be > 0"):
        rc_sweep(p, (1.0, 0.0, 2.0))
    with pytest.raises(ValueError, match="probe squeezing must be > 0"):
        rc_sweep(p, [-1.0])
    assert rc_sweep(p, ()) == ()
    # beyond r = 350, exp(-2r) leaves the normal floats: refused
    for rs in ([351.0], (1.0, 350.5), [np.inf], [np.nan]):
        with pytest.raises(ValueError, match="<= 350"):
            rc_sweep(p, rs)
    # at and below the limit the tmss_cm(0.5) sweep stays negative; the
    # e^{2r} form overflowed from r = 178 to +1.8e-156 at r = 180
    q = standard_form_params(tmss_cm(0.5))
    values = [res.value for res in rc_sweep(q, (177.0, 178.0, 180.0, 300.0, 350.0))]
    assert all(np.isfinite(v) and v < 0 for v in values)


def test_rc_sign_matches_asymptotics_for_symmetric_states():
    hits = 0
    for seed in range(80):
        rng = np.random.default_rng(seed)
        n = rng.uniform(1.0, 2.5)
        kmax = np.sqrt(max(n * n - 1.0, 0.0))
        k_x = rng.uniform(0.0, kmax) if kmax > 0 else 0.0
        k_p = rng.uniform(-k_x, k_x) if k_x > 0 else 0.0
        p = StdFormParams(n, n, k_x, k_p)
        if not check_physical(p).physical:
            continue
        asym = (n - k_x) * (n + k_p) - 1.0
        if abs(asym) < 1e-3:
            continue
        g = CorrelationMatrix.from_blocks(
            n * np.eye(2), n * np.eye(2), np.diag([k_x, k_p]))
        res = rc_value(g, 8.0)
        assert np.sign(res.value) == np.sign(asym)
        hits += 1
    assert hits > 30  # the filter must leave a meaningful sample
