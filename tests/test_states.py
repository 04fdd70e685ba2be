import numpy as np
import pytest

from gdistill import (
    CorrelationMatrix,
    GaussianState,
    MeasurementError,
    NumericsError,
    PreconditionError,
    apply_symplectic,
    beam_splitter,
    condition_on_x_measurement,
    direct_sum_states,
    embed_pair,
    is_npt,
    is_pure,
    local_scramble,
    partial_transpose,
    pt_form,
    pt_sign_vector,
    random_physical_cm,
    random_symplectic,
    reduce_to_modes,
    tmss_cm,
    vacuum,
    validate_physical,
    wigner_cm,
)

CH, SH = np.cosh(1.0), np.sinh(1.0)


def thermal_cm(nus, partition):
    return CorrelationMatrix(entries=np.diag(np.repeat(nus, 2)), partition=partition)


def test_correlation_matrix_validation():
    with pytest.raises(ValueError):
        CorrelationMatrix(entries=np.eye(4), partition=(0, 0))
    with pytest.raises(ValueError):
        CorrelationMatrix(entries=np.eye(4), partition=(-1, 3))
    with pytest.raises(ValueError):
        CorrelationMatrix(entries=np.eye(6), partition=(1, 1))  # shape mismatch
    bad = np.eye(4)
    bad[0, 1] = 0.5  # asymmetric
    with pytest.raises(ValueError):
        CorrelationMatrix(entries=bad, partition=(1, 1))
    with pytest.raises(ValueError):
        CorrelationMatrix(entries=np.diag([1.0, 1.0, 1.0, -0.5]), partition=(1, 1))
    with pytest.raises(ValueError):
        CorrelationMatrix(entries=np.diag([1.0, 1.0, 0.0, 1.0]), partition=(1, 1))
    # entries are frozen after construction
    cm = vacuum(1, 1)
    with pytest.raises(ValueError):
        cm.entries[0, 0] = 9.0


def test_correlation_matrix_blocks():
    g = tmss_cm(0.5)
    assert g.n_a == 1 and g.n_b == 1 and g.n_modes == 2 and g.dim == 4
    assert np.allclose(g.a_block, CH * np.eye(2))
    assert np.allclose(g.b_block, CH * np.eye(2))
    assert np.allclose(g.cross_block, SH * np.diag([1.0, -1.0]))
    back = CorrelationMatrix.from_blocks(g.a_block, g.b_block, g.cross_block)
    assert np.array_equal(back.entries, g.entries)
    assert back.partition == (1, 1)


def test_gaussian_state_container():
    st = GaussianState(n_a=1, n_b=1, gamma=vacuum(1, 1))
    assert np.array_equal(st.d, np.zeros(4))  # default displacement
    st = GaussianState(n_a=1, n_b=1, gamma=vacuum(1, 1), d=[1.0, 0.0, 0.0, 2.0])
    assert np.array_equal(st.d, [1.0, 0.0, 0.0, 2.0])
    with pytest.raises(ValueError):
        GaussianState(n_a=1, n_b=1, gamma=vacuum(1, 1), d=np.zeros(3))
    with pytest.raises(ValueError):
        GaussianState(n_a=2, n_b=1, gamma=vacuum(1, 1))  # partition mismatch


def test_vacuum_physical_not_npt():
    v = vacuum(2, 1)
    verdict = validate_physical(v)
    assert verdict.physical
    assert verdict.margin == pytest.approx(0.0, abs=1e-12)
    assert verdict.min_symplectic_eigenvalue == pytest.approx(1.0, abs=1e-12)
    npt = is_npt(v)
    assert not npt.npt
    # pure product state sits exactly on the boundary of the PT cone
    assert npt.raw_margin == pytest.approx(0.0, abs=1e-10)
    assert npt.min_pt_symplectic_eigenvalue == pytest.approx(1.0, abs=1e-10)


def test_validate_physical_frozen_values():
    # thermal occupation 2 per mode: margin = lambda_min(gamma - iJ) = nu - 1
    verdict = validate_physical(thermal_cm([2.0, 2.0], (1, 1)))
    assert verdict.physical
    assert verdict.margin == pytest.approx(1.0, abs=1e-12)
    assert verdict.min_symplectic_eigenvalue == pytest.approx(2.0, abs=1e-12)
    # half the vacuum floor: margin = 0.5 - 1
    verdict = validate_physical(0.5 * np.eye(4))
    assert not verdict.physical
    assert verdict.margin == pytest.approx(-0.5, abs=1e-12)
    assert verdict.min_symplectic_eigenvalue == pytest.approx(0.5, abs=1e-12)
    # a scrambled pure pair squeezed far beyond the random populations
    verdict = validate_physical(local_scramble(tmss_cm(3.25), 1))
    assert verdict.physical
    assert abs(verdict.margin) < 1e-12


def test_validate_physical_criteria_agree():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        nus = rng.uniform(0.5, 2.0, size=n)
        S = random_symplectic(n, seed=seed).entries
        g = S.T @ np.diag(np.repeat(nus, 2)) @ S
        verdict = validate_physical(g)
        assert verdict.physical == (nus.min() >= 1.0 - 1e-9)
        assert verdict.physical == (verdict.min_symplectic_eigenvalue >= 1.0 - 1e-9)


def test_validate_physical_rejects_ill_conditioned():
    with pytest.raises(NumericsError):
        validate_physical(np.diag([1e-13, 1e13, 1.0, 1.0]))


def test_from_blocks_matches_np_block():
    rng = np.random.default_rng(5)
    for n_a, n_b in ((1, 1), (1, 2), (3, 2), (2, 4)):
        g = random_physical_cm(n_a, n_b, seed=int(rng.integers(1 << 30))).entries
        k = 2 * n_a
        A, B, C = g[:k, :k], g[k:, k:], g[:k, k:]
        cm = CorrelationMatrix.from_blocks(A, B, C)
        assert cm.partition == (n_a, n_b)
        assert np.array_equal(cm.entries, np.block([[A, C], [C.T, B]]))
    with pytest.raises(ValueError, match="do not form"):
        CorrelationMatrix.from_blocks(np.eye(2), np.eye(2), np.ones((1, 2)))
    with pytest.raises(ValueError, match="do not form"):
        CorrelationMatrix.from_blocks(np.eye(2), np.eye(4), np.zeros((2, 2)))


def test_pt_form_is_shared_and_read_only():
    assert pt_form(2, 3) is pt_form(2, 3)
    with pytest.raises(ValueError):
        pt_form(2, 3)[0, 1] = 5.0


def test_pt_sign_vector_pattern():
    assert np.array_equal(pt_sign_vector(2, 1), [1, 1, 1, 1, 1, -1])
    assert np.array_equal(pt_sign_vector(1, 2), [1, 1, 1, -1, 1, -1])
    J = pt_form(1, 1)
    assert np.array_equal(J, -J.T)
    # A-side block keeps its orientation, B-side block flips
    assert np.array_equal(J[:2, :2], [[0, -1], [1, 0]])
    assert np.array_equal(J[2:, 2:], [[0, 1], [-1, 0]])


def test_partial_transpose_involution_exact():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        n_a, n_b = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        m = rng.normal(size=(2 * (n_a + n_b), 2 * (n_a + n_b)))
        g = CorrelationMatrix(entries=m @ m.T + np.eye(m.shape[0]), partition=(n_a, n_b))
        twice = partial_transpose(partial_transpose(g))
        assert np.array_equal(twice.entries, g.entries)  # bit for bit
    with pytest.raises(ValueError):
        partial_transpose(vacuum(2, 0))


def test_is_npt_frozen_two_mode_squeezed():
    for r in (0.25, 0.5, 1.0, 3.25, 5.0):
        # eigenvalue rounding error is about machine epsilon times |gamma| = e^{2r}
        tol = max(1e-12, 4 * np.finfo(float).eps * np.exp(2 * r))
        npt = is_npt(tmss_cm(r))
        assert npt.npt
        assert npt.raw_margin == pytest.approx(np.exp(-2 * r) - 1.0, abs=tol)
        assert npt.margin == npt.raw_margin
        assert npt.min_pt_symplectic_eigenvalue == pytest.approx(np.exp(-2 * r), abs=tol)
    # separable thermal product is PPT
    npt = is_npt(thermal_cm([2.0, 1.5], (1, 1)))
    assert not npt.npt and npt.margin == 0.0 and npt.raw_margin >= 0.0


def test_is_npt_requires_physical_input():
    with pytest.raises(PreconditionError):
        is_npt(CorrelationMatrix(entries=0.5 * np.eye(4), partition=(1, 1)))
    with pytest.raises(ValueError):
        is_npt(vacuum(0, 2))


def test_is_npt_invariant_under_local_symplectics():
    for seed in range(25):
        g = tmss_cm(0.4 + 0.1 * (seed % 5))
        Sa = random_symplectic(1, seed=2 * seed).entries
        Sb = random_symplectic(1, seed=2 * seed + 1).entries
        S = np.zeros((4, 4))
        S[:2, :2], S[2:, 2:] = Sa, Sb
        moved = apply_symplectic(g, S)
        a, b = is_npt(g), is_npt(moved)
        assert a.npt == b.npt
        assert b.min_pt_symplectic_eigenvalue == pytest.approx(
            a.min_pt_symplectic_eigenvalue, rel=1e-9, abs=1e-9
        )


def test_wigner_cm_fixed_points_and_involution():
    # pure states are fixed points
    for g in (vacuum(1, 1), tmss_cm(0.7)):
        assert np.allclose(wigner_cm(g).entries, g.entries, atol=1e-12)
    # thermal diag(nu) maps to diag(1/nu)
    w = wigner_cm(thermal_cm([2.0, 4.0], (1, 1)))
    assert np.allclose(w.entries, np.diag([0.5, 0.5, 0.25, 0.25]), atol=1e-14)
    for seed in range(25):
        rng = np.random.default_rng(seed)
        n_a, n_b = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        m = rng.normal(size=(2 * (n_a + n_b), 2 * (n_a + n_b)))
        g = CorrelationMatrix(entries=m @ m.T + np.eye(m.shape[0]), partition=(n_a, n_b))
        back = wigner_cm(wigner_cm(g))
        scale = np.abs(g.entries).max()
        assert np.abs(back.entries - g.entries).max() < 1e-10 * max(1.0, scale)


def test_is_pure():
    assert is_pure(vacuum(1, 1))
    assert is_pure(tmss_cm(1.2))
    assert not is_pure(thermal_cm([1.3, 1.0], (1, 1)))
    # purity == fixed point of the companion map
    g = thermal_cm([1.0, 1.0], (1, 1))
    assert is_pure(g) and np.allclose(wigner_cm(g).entries, g.entries)


def test_reduce_to_modes():
    g = tmss_cm(0.5)
    a = reduce_to_modes(g, [0], [])
    assert a.partition == (1, 0)
    assert np.allclose(a.entries, CH * np.eye(2), atol=1e-15)
    b = reduce_to_modes(g, [], [0])
    assert b.partition == (0, 1)
    assert np.allclose(b.entries, CH * np.eye(2), atol=1e-15)
    with pytest.raises(ValueError):
        reduce_to_modes(g, [], [])
    with pytest.raises(ValueError):
        reduce_to_modes(g, [1], [0])  # A index out of range
    with pytest.raises(ValueError):
        reduce_to_modes(vacuum(2, 1), [1, 0], [0])  # not increasing


def test_reduce_keeps_submatrix_exactly():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(8, 8))
    g = CorrelationMatrix(entries=m @ m.T + np.eye(8), partition=(2, 2))
    r = reduce_to_modes(g, [1], [0, 1])
    assert r.partition == (1, 2)
    idx = [2, 3, 4, 5, 6, 7]
    assert np.array_equal(r.entries, g.entries[np.ix_(idx, idx)])


def test_condition_on_x_measurement_frozen():
    # measuring q of the partner arm of a squeezed pair purifies q and leaves
    # the thermal p variance behind: diag(1/cosh, cosh)
    out = condition_on_x_measurement(tmss_cm(0.5), 1)
    assert out.partition == (1, 0)
    assert np.allclose(out.entries, np.diag([1.0 / CH, CH]), atol=1e-14)
    # measuring the A arm leaves a (0, 1) state with the same entries
    out = condition_on_x_measurement(tmss_cm(0.5), 0)
    assert out.partition == (0, 1)
    assert np.allclose(out.entries, np.diag([1.0 / CH, CH]), atol=1e-14)


def test_condition_on_x_measurement_validates():
    g = CorrelationMatrix(entries=np.diag([1e-13, 1.0, 1.0, 1.0]), partition=(1, 1))
    with pytest.raises(MeasurementError):
        condition_on_x_measurement(g, 0)
    with pytest.raises(ValueError):
        condition_on_x_measurement(tmss_cm(0.5), 2)  # index out of range
    with pytest.raises(ValueError):
        condition_on_x_measurement(vacuum(1, 0), 0)  # nothing would remain


def test_condition_preserves_physicality():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        n_a = int(rng.integers(1, n))
        nus = rng.uniform(1.0, 2.5, size=n)
        S = random_symplectic(n, seed=seed + 77).entries
        g = CorrelationMatrix(
            entries=S.T @ np.diag(np.repeat(nus, 2)) @ S, partition=(n_a, n - n_a)
        )
        out = condition_on_x_measurement(g, int(rng.integers(0, n)))
        assert validate_physical(out).physical
        assert out.n_modes == n - 1


def test_apply_symplectic_accepts_wrapper_and_array():
    g = vacuum(1, 1)
    S = random_symplectic(2, seed=5)
    a = apply_symplectic(g, S)
    b = apply_symplectic(g, S.entries)
    assert np.array_equal(a.entries, b.entries)
    assert validate_physical(a).physical


def test_direct_sum_states_mode_ordering():
    g = direct_sum_states(tmss_cm(0.3), vacuum(1, 0))
    assert g.partition == (2, 1)
    ref = tmss_cm(0.3).entries
    assert np.array_equal(g.entries[0:2, 0:2], ref[0:2, 0:2])  # A1 = squeezed A
    assert np.array_equal(g.entries[2:4, 2:4], np.eye(2))      # A2 = appended vacuum
    assert np.array_equal(g.entries[4:6, 4:6], ref[2:4, 2:4])  # B1 = squeezed B
    assert np.array_equal(g.entries[0:2, 4:6], ref[0:2, 2:4])
    assert np.count_nonzero(g.entries[2:4, 4:6]) == 0


def test_direct_sum_states_preserves_verdicts():
    g = direct_sum_states(tmss_cm(0.5), thermal_cm([1.7], (0, 1)))
    assert g.partition == (1, 2)
    assert validate_physical(g).physical
    npt = is_npt(g)
    assert npt.npt
    # padding with a separable mode cannot change the PT margin
    assert npt.raw_margin == pytest.approx(np.exp(-1.0) - 1.0, abs=1e-12)


def test_conditioning_commutes_with_explicit_schur():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(6, 6))
    g = CorrelationMatrix(entries=m @ m.T + np.eye(6), partition=(2, 1))
    out = condition_on_x_measurement(g, 1)
    G = g.entries
    keep = [0, 1, 4, 5]
    sig = G[np.ix_(keep, [2, 3])]
    expect = G[np.ix_(keep, keep)] - np.outer(sig[:, 0], sig[:, 0]) / G[2, 2]
    assert np.allclose(out.entries, expect, atol=1e-12)


def test_beam_splitter_on_two_vacua_is_vacuum():
    st = apply_symplectic(vacuum(1, 1), embed_pair(beam_splitter(0.7), 2, 0, 1))
    assert np.allclose(st.entries, np.eye(4), atol=1e-14)
