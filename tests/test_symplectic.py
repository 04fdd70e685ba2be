import subprocess
import sys

import numpy as np
import pytest

import gdistill.symplectic as symplectic_module
from gdistill import (
    NumericsError,
    apply_symplectic,
    beam_splitter,
    direct_sum,
    embed_pair,
    extend_to_symplectic_basis,
    form_matrix,
    is_symplectic,
    random_symplectic,
    skew_product,
    symplectic_eigenvalues,
    tmss_cm,
    two_mode_squeezer,
    vacuum,
)
from gdistill.symplectic import SymplecticMatrix

J1 = np.array([[0.0, -1.0], [1.0, 0.0]])


def test_form_matrix_structure():
    for n in range(1, 6):
        J = form_matrix(n)
        assert J.shape == (2 * n, 2 * n)
        assert np.array_equal(J, -J.T)
        assert np.array_equal(J @ J, -np.eye(2 * n))
        for k in range(n):
            assert np.array_equal(J[2 * k : 2 * k + 2, 2 * k : 2 * k + 2], J1)
        # no coupling between different mode blocks
        off = J.copy()
        for k in range(n):
            off[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = 0.0
        assert np.count_nonzero(off) == 0


def test_form_matrix_is_shared_and_read_only():
    for n in (1, 3, 8):
        assert form_matrix(n) is form_matrix(n)
        with pytest.raises(ValueError):
            form_matrix(n)[0, 1] = 5.0


def test_make_form_rejects_bad_mode_count():
    with pytest.raises(ValueError):
        form_matrix(0)


def test_is_symplectic_basic():
    assert is_symplectic(np.eye(4))
    assert is_symplectic(beam_splitter(0.3))
    assert not is_symplectic(2.0 * np.eye(4))
    with pytest.raises(ValueError):
        is_symplectic(np.eye(3))  # odd dimension
    # tolerance behaves as a bound on S^T J S - J
    S = np.eye(2) + 1e-8
    assert is_symplectic(S, tol=1e-6)
    assert not is_symplectic(S, tol=1e-12)


def test_symplectic_matrix_validates_on_construction():
    S = SymplecticMatrix(n=2, entries=beam_splitter(0.9))
    assert np.array_equal(S.entries, beam_splitter(0.9))
    with pytest.raises(ValueError):
        SymplecticMatrix(n=2, entries=np.diag([2.0, 2.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        SymplecticMatrix(n=1, entries=np.eye(4))


def test_symplectic_eigenvalues_known_states():
    assert np.allclose(symplectic_eigenvalues(vacuum(2, 1)), [1.0, 1.0, 1.0])
    # product of thermal modes: eigenvalues are the occupations, sorted
    g = np.diag([3.0, 3.0, 1.5, 1.5])
    assert np.allclose(symplectic_eigenvalues(g), [1.5, 3.0])
    # pure two-mode squeezed state stays at the vacuum floor
    assert np.allclose(symplectic_eigenvalues(tmss_cm(0.8)), [1.0, 1.0], atol=1e-12)


def test_symplectic_eigenvalues_congruence_invariant():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        nus = np.sort(rng.uniform(1.0, 3.0, size=n))
        g = np.diag(np.repeat(nus, 2))
        S = random_symplectic(n, seed=seed + 1000).entries
        assert np.allclose(symplectic_eigenvalues(S.T @ g @ S), nus, rtol=1e-9, atol=1e-9)


def test_random_symplectic_deterministic_and_valid():
    for seed in range(20):
        n = seed % 3 + 1
        S1 = random_symplectic(n, seed=seed).entries
        S2 = random_symplectic(n, seed=seed).entries
        assert np.array_equal(S1, S2)
        assert is_symplectic(S1)
    assert not np.array_equal(
        random_symplectic(2, seed=0).entries, random_symplectic(2, seed=1).entries
    )


def test_skew_product():
    f1 = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2)
    f2 = np.array([0.0, 1.0, 0.0, 1.0]) / np.sqrt(2)
    assert skew_product(f1, f2) == pytest.approx(-1.0, abs=1e-15)
    assert skew_product(f2, f1) == pytest.approx(1.0, abs=1e-15)
    assert skew_product(f1, f1) == 0.0
    # bilinear in both slots
    rng = np.random.default_rng(7)
    u, v = rng.normal(size=4), rng.normal(size=4)
    assert skew_product(2.0 * u, v) == pytest.approx(2.0 * skew_product(u, v))
    assert skew_product(u, v) == pytest.approx(float(u @ form_matrix(2) @ v))


def test_extend_to_symplectic_basis_frozen_pair():
    f1 = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2)
    f2 = np.array([0.0, 1.0, 0.0, 1.0]) / np.sqrt(2)
    basis = extend_to_symplectic_basis(f1, f2)
    S = basis.entries
    assert S.shape == (4, 4)
    assert np.array_equal(S[:, 0], f1)
    assert np.array_equal(S[:, 1], f2)
    J = form_matrix(2)
    assert np.max(np.abs(S.T @ J @ S - J)) < 1e-12


def test_extend_to_symplectic_basis_random_pairs():
    # seeds 50..69 use 8 and 12 modes, the per-side sizes of large pipeline inputs
    sizes = [None] * 50 + [8] * 10 + [12] * 10
    for seed, n in enumerate(sizes):
        rng = np.random.default_rng(seed)
        n = n or int(rng.integers(1, 5))
        f1 = rng.normal(size=2 * n)
        f2 = rng.normal(size=2 * n)
        w = skew_product(f1, f2)
        if abs(w) < 1e-3:
            continue
        f2 = -f2 / w  # normalize the pairing to -1
        basis = extend_to_symplectic_basis(f1, f2)
        S = basis.entries
        J = form_matrix(n)
        assert np.max(np.abs(S.T @ J @ S - J)) <= 1e-9
        assert np.array_equal(S[:, 0], f1) and np.array_equal(S[:, 1], f2)


def test_extend_to_symplectic_basis_rejects_bad_input():
    f1 = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2)
    f2 = np.array([0.0, 1.0, 0.0, 1.0]) / np.sqrt(2)
    with pytest.raises(ValueError):
        extend_to_symplectic_basis(f1, -f2)  # pairing +1, wrong orientation
    with pytest.raises(ValueError):
        extend_to_symplectic_basis(f1, 0.5 * f2)  # pairing -1/2
    with pytest.raises(ValueError):
        extend_to_symplectic_basis(np.ones(3), np.ones(3))  # odd length


def test_extend_to_symplectic_basis_degenerate_completion_is_numerics_error():
    # a NaN passes the pairing check (the comparison is false) and leaves no
    # positive pairing on the complement: NumericsError, which concentrate
    # turns into a ConcentrationError, not a ValueError
    f1 = np.array([1.0, 0.0, np.nan, 0.0])
    f2 = np.array([0.0, 1.0, 0.0, 0.0])
    with pytest.raises(NumericsError):
        extend_to_symplectic_basis(f1, f2)


def test_beam_splitter_and_squeezer_are_symplectic():
    for theta in (0.0, 0.3, np.pi / 4, 1.2):
        assert is_symplectic(beam_splitter(theta), tol=1e-12)
    for r in (0.0, 0.25, 1.0, 2.5):
        assert is_symplectic(two_mode_squeezer(r), tol=1e-12)
    # theta = 0 is the identity; r = 0 is the identity
    assert np.allclose(beam_splitter(0.0), np.eye(4))
    assert np.allclose(two_mode_squeezer(0.0), np.eye(4))


def test_two_mode_squeezer_generates_squeezed_pair():
    for r in (0.2, 0.5, 1.0):
        out = apply_symplectic(vacuum(1, 1), two_mode_squeezer(r))
        assert np.max(np.abs(out.entries - tmss_cm(r).entries)) < 1e-12


def test_direct_sum():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    B = np.array([[5.0]])
    M = direct_sum(A, B)
    assert M.shape == (3, 3)
    assert np.array_equal(M[:2, :2], A)
    assert M[2, 2] == 5.0
    assert np.count_nonzero(M[:2, 2:]) == 0
    # rectangular blocks: each starts where the previous one ends
    R = np.arange(1.0, 7.0).reshape(3, 2)
    M = direct_sum(R, A, np.ones((1, 3)))
    assert M.shape == (6, 7)
    assert np.array_equal(M[:3, :2], R)
    assert np.array_equal(M[3:5, 2:4], A)
    assert np.array_equal(M[5:, 4:], np.ones((1, 3)))
    assert np.count_nonzero(M) == 6 + 4 + 3
    # zero-size blocks add no rows or no columns
    M = direct_sum(np.zeros((0, 2)), A, np.zeros((2, 0)), np.zeros((0, 0)))
    assert M.shape == (4, 4)
    assert np.array_equal(M[:2, 2:], A)
    assert np.count_nonzero(M) == 4
    assert direct_sum(np.zeros((0, 0))).shape == (0, 0)


def test_importing_the_cli_does_not_load_scipy():
    code = "import sys, gdistill.cli; assert 'scipy' not in sys.modules"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_random_symplectic_reads_expm_from_the_module(monkeypatch):
    # expm is loaded lazily but stays a rebindable module attribute
    calls = []
    expm = symplectic_module.expm
    plain = random_symplectic(2, seed=4).entries
    monkeypatch.setattr(symplectic_module, "expm",
                        lambda m: calls.append(m.shape) or expm(m))
    assert np.array_equal(random_symplectic(2, seed=4).entries, plain)
    assert calls == [(4, 4)]


def test_embed_pair_acts_only_on_selected_modes():
    S = embed_pair(two_mode_squeezer(0.7), 3, 0, 2)
    assert is_symplectic(S)
    # mode 1 is untouched
    assert np.array_equal(S[2:4, 2:4], np.eye(2))
    assert np.count_nonzero(S[2:4, :2]) == 0
    assert np.count_nonzero(S[2:4, 4:]) == 0
    # embedding at (0, 1) on 2 modes is the matrix itself
    assert np.array_equal(embed_pair(beam_splitter(0.4), 2, 0, 1), beam_splitter(0.4))


def test_embed_pair_matches_direct_construction():
    # squeeze modes (0, 2) of a 3-mode vacuum; mode 1 must stay vacuum
    st = apply_symplectic(vacuum(2, 1), embed_pair(two_mode_squeezer(0.5), 3, 0, 2))
    g = st.entries
    assert np.allclose(g[2:4, 2:4], np.eye(2), atol=1e-14)
    ref = tmss_cm(0.5).entries
    assert np.allclose(g[0:2, 0:2], ref[0:2, 0:2], atol=1e-14)
    assert np.allclose(g[4:6, 4:6], ref[2:4, 2:4], atol=1e-14)
    assert np.allclose(g[0:2, 4:6], ref[0:2, 2:4], atol=1e-14)
