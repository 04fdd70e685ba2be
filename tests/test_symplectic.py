import subprocess
import sys

import numpy as np
import pytest

import gdistill.symplectic as symplectic_module
import gdistill.two_mode as two_mode_module
from gdistill import (
    NumericsError,
    apply_symplectic,
    beam_splitter,
    direct_sum,
    embed_pair,
    extend_to_symplectic_basis,
    form_matrix,
    is_symplectic,
    local_scramble,
    random_symplectic,
    skew_product,
    symplectic_eigenvalues,
    tmss_cm,
    two_mode_squeezer,
    vacuum,
    validate_physical,
)
from gdistill.symplectic import SymplecticMatrix, expm

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
    # random_symplectic refuses through form_matrix, before any draw
    for n in (0, -2):
        with pytest.raises(ValueError, match=f"mode count must be >= 1, got {n}"):
            random_symplectic(n, seed=0)


@pytest.mark.parametrize("call", [
    lambda: SymplecticMatrix(entries=np.eye(2) + 0.3j * np.eye(2)),
    lambda: skew_product(np.array([1.0, 0.5j]), np.array([0.0, 1.0])),
    lambda: expm(0.3j * np.eye(4)),
    lambda: extend_to_symplectic_basis(np.array([1.0, 0.0]), np.array([0.0, 1.0 + 0j])),
], ids=["SymplecticMatrix", "skew_product", "expm", "extend_to_symplectic_basis"])
def test_complex_input_is_refused_not_cast(call):
    # casting to float would drop the imaginary part, leaving a valid input
    with pytest.raises(ValueError, match="expected real numbers"):
        call()


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


def test_is_symplectic_2x2_is_the_determinant_test(monkeypatch):
    # S^T J S = det(S) J for 2x2 S: |det S - 1| decides as max|S^T J S - J| does,
    # on matrices with det S = +-(1 + delta), |delta| straddling the tolerance
    rng = np.random.default_rng(11)
    tol = symplectic_module.TOL_SYMPLECTIC
    verdicts = []
    for _ in range(200):
        M = rng.normal(size=(2, 2))
        M /= np.sqrt(abs(np.linalg.det(M)))
        S = M * np.sqrt(1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -6.0))
        explicit = np.abs(S.T @ J1 @ S - J1).max() <= tol
        assert is_symplectic(S) == explicit
        verdicts.append(explicit)
    assert 20 <= sum(verdicts) <= 180

    equalizers = [two_mode_module._equalizer(block)[1]
                  for g in (tmss_cm(0.6), local_scramble(tmss_cm(0.6), seed=3))
                  for block in (g.a_block, g.b_block)]

    def no_form(n):
        raise AssertionError("a 2x2 check built J")

    monkeypatch.setattr(symplectic_module, "form_matrix", no_form)
    with pytest.raises(ValueError, match="not symplectic"):
        SymplecticMatrix(entries=2.0 * np.eye(2))
    for S in [np.diag([2.0, 0.5])] + equalizers:
        SymplecticMatrix(entries=S)
    for odd in (np.eye(1), np.eye(3)):
        with pytest.raises(ValueError, match="dimension must be even and positive"):
            is_symplectic(odd)


def test_symplectic_matrix_validates_on_construction():
    S = SymplecticMatrix(entries=beam_splitter(0.9))
    assert np.array_equal(S.entries, beam_splitter(0.9))
    with pytest.raises(ValueError):
        SymplecticMatrix(entries=np.diag([2.0, 2.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="dimension must be even"):
        SymplecticMatrix(entries=np.eye(3))


def test_symplectic_eigenvalues_known_states():
    assert np.allclose(symplectic_eigenvalues(vacuum(2, 1)), [1.0, 1.0, 1.0])
    # product of thermal modes: eigenvalues are the occupations, sorted
    g = np.diag([3.0, 3.0, 1.5, 1.5])
    assert np.allclose(symplectic_eigenvalues(g), [1.5, 3.0])
    # pure two-mode squeezed state stays at the vacuum floor
    assert np.allclose(symplectic_eigenvalues(tmss_cm(0.8)), [1.0, 1.0], atol=1e-12)


def test_symplectic_eigenvalues_refuses_shapes_as_is_symplectic_does():
    for bad in (np.zeros((0, 0)), np.eye(3), np.eye(4)[:2]):
        with pytest.raises(ValueError, match="dimension must be even and positive"):
            symplectic_eigenvalues(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_symplectic_eigenvalues_refuses_non_finite_entries(bad):
    g = np.eye(4)
    g[1, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        symplectic_eigenvalues(g)


def test_symplectic_eigenvalues_validates_as_a_correlation_matrix():
    # asymmetric within tolerance: the symmetrized matrix is used, as in
    # CorrelationMatrix, not its lower triangle, so the spectra agree exactly
    g = np.array(local_scramble(tmss_cm(0.7), 3).entries)
    g[0, 3] += 5e-9
    assert symplectic_eigenvalues(g)[0] == validate_physical(g).min_symplectic_eigenvalue
    g[0, 3] += 1e-6
    with pytest.raises(ValueError, match="must be symmetric"):
        symplectic_eigenvalues(g)
    with pytest.raises(ValueError, match="must be positive definite"):
        symplectic_eigenvalues(-np.eye(4))


def test_symplectic_eigenvalues_congruence_invariant():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        nus = np.sort(rng.uniform(1.0, 3.0, size=n))
        g = np.diag(np.repeat(nus, 2))
        S = random_symplectic(n, seed=seed + 1000).entries
        assert np.allclose(symplectic_eigenvalues(S.T @ g @ S), nus, rtol=1e-9, atol=1e-9)


def test_random_symplectic_deterministic_and_valid():
    for seed in range(36):
        n = seed % 12 + 1
        S1 = random_symplectic(n, seed=seed).entries
        S2 = random_symplectic(n, seed=seed).entries
        assert np.array_equal(S1, S2)
        assert is_symplectic(S1)
        J = form_matrix(n)
        assert np.abs(S1.T @ J @ S1 - J).max() <= 1e-13
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


@pytest.mark.parametrize("fn", [skew_product, extend_to_symplectic_basis])
def test_skew_product_and_extension_refuse_mismatched_odd_and_2d_input(fn):
    for u, v in ((np.ones(4), np.ones(2)), (np.ones(3), np.ones(3)),
                 (np.ones((2, 2)), np.ones((2, 2)))):
        with pytest.raises(ValueError, match="expected two real vectors of equal even length"):
            fn(u, v)


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
    # a NaN passes the pairing check (the comparison is false) and makes the
    # completion non-finite: NumericsError, which concentrate turns into a
    # ConcentrationError, not a ValueError
    f1 = np.array([1.0, 0.0, np.nan, 0.0])
    f2 = np.array([0.0, 1.0, 0.0, 0.0])
    with pytest.raises(NumericsError):
        extend_to_symplectic_basis(f1, f2)


def test_extend_to_symplectic_basis_refuses_a_completion_it_cannot_validate():
    # 3 modes, a unit f1 and f2 = J f1 + 1e4 w, w a unit vector skew-orthogonal
    # to both: the pair is canonical within rounding, but the sheared columns
    # grow like |f1| |f2| and the completion misses S^T J S = J by more than
    # TOL_SYMPLECTIC, which is a NumericsError, not the validator's ValueError
    J = form_matrix(3)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        f1 = rng.normal(size=6)
        f1 /= np.linalg.norm(f1)
        w = rng.normal(size=6)
        w -= (w @ f1) * f1 + (w @ (J @ f1)) * (J @ f1)
        w /= np.linalg.norm(w)
        f2 = J @ f1 + 1e4 * w
        assert abs(skew_product(f1, f2) + 1.0) < 1e-11
        with pytest.raises(NumericsError, match="too ill-conditioned to extend"):
            extend_to_symplectic_basis(f1, f2)


def test_extend_to_symplectic_basis_in_closed_form(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the completion must not factorize")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    rng = np.random.default_rng(11)

    def canonical_pair(n, zero_first_mode=False):
        f1, f2 = rng.normal(size=(2, 2 * n))
        if zero_first_mode:
            f1[:2] = 0.0  # e_1 stands in for the undefined phase of x_1
        return f1, -f2 / skew_product(f1, f2)

    # one mode: the pair itself
    f1, f2 = canonical_pair(1)
    assert np.array_equal(extend_to_symplectic_basis(f1, f2).entries,
                          np.column_stack([f1, f2]))
    for f1, f2 in [canonical_pair(n, zero_first_mode=True) for n in (2, 3, 5)] + [
            canonical_pair(24)]:
        n = f1.size // 2
        S = extend_to_symplectic_basis(f1, f2).entries
        assert np.array_equal(S[:, 0], f1) and np.array_equal(S[:, 1], f2)
        J = form_matrix(n)
        assert np.abs(S.T @ J @ S - J).max() <= 1e-12
    # f1 = +-e_1 with f2 = +-e_2: the reflector fixes every other mode
    for sign in (1.0, -1.0):
        f1, f2 = sign * np.eye(6)[0], sign * np.eye(6)[1]
        S = extend_to_symplectic_basis(f1, f2).entries
        assert np.array_equal(S, np.column_stack([f1, f2, np.eye(6)[:, 2:]]))


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


def test_drawing_random_states_and_fuzzing_do_not_load_scipy():
    code = ("import sys\n"
            "from gdistill import (FuzzConfig, local_scramble, random_state,\n"
            "                      run_fuzz)\n"
            "state, _ = random_state('entangled', 2, 3, 5)\n"
            "local_scramble(state.gamma, 6)\n"
            "assert run_fuzz(FuzzConfig(trials=1))['total_violations'] == 0\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_expm_one_mode_closed_forms():
    t = 0.7
    rotation = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    assert np.allclose(expm(t * J1), rotation, rtol=0, atol=1e-15)
    # a trace part is the scalar factor e^h
    assert np.allclose(expm(t * J1 + 0.3 * np.eye(2)), np.exp(0.3) * rotation,
                       rtol=1e-15, atol=0)
    hyperbolic = np.array([[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]])
    assert np.allclose(expm(np.array([[0.0, t], [t, 0.0]])), hyperbolic,
                       rtol=1e-15, atol=0)
    assert np.allclose(expm(np.diag([t, -2.0])), np.diag([np.exp(t), np.exp(-2.0)]),
                       rtol=1e-15, atol=0)
    # delta = 0: the nilpotent generator of a shear, exactly
    assert np.array_equal(expm(np.array([[0.0, 1.0], [0.0, 0.0]])),
                          [[1.0, 1.0], [0.0, 1.0]])
    assert np.array_equal(expm(np.zeros((2, 2))), np.eye(2))


def test_expm_pade_on_two_mode_generators():
    # squeezer and beam splitter are exponentials of generators X, Y with
    # X^2 = I and Y^2 = -I; theta = 30 runs the squaring branch
    Z = np.diag([1.0, -1.0])
    X = np.block([[np.zeros((2, 2)), Z], [Z, np.zeros((2, 2))]])
    Y = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
    for r in (0.3, 2.0):
        assert np.allclose(expm(r * X), two_mode_squeezer(r), rtol=1e-14, atol=0)
    for theta in (0.3, 2.0, 30.0):
        assert np.allclose(expm(theta * Y), beam_splitter(theta), rtol=0, atol=1e-14)
    assert np.allclose(expm(np.zeros((4, 4))), np.eye(4), rtol=0, atol=1e-15)


def test_expm_squaring_branch_inverts():
    rng = np.random.default_rng(8)
    for dim in (3, 6, 12):
        G = rng.normal(size=(dim, dim))
        A = 3.0 * (G - G.T)  # exp(A) is orthogonal
        assert np.abs(A).sum(axis=0).max() > symplectic_module._THETA13
        E = expm(A)
        assert np.abs(E @ expm(-A) - np.eye(dim)).max() <= 1e-13
        assert np.abs(E.T @ E - np.eye(dim)).max() <= 1e-13


def test_expm_refuses_non_square_and_non_finite_input():
    for bad in (np.zeros((2, 3)), np.zeros(4), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="square"):
            expm(bad)
    for dim in (2, 4):
        A = np.zeros((dim, dim))
        A[0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            expm(A)


def test_expm_matches_scipy():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(12)
    cases = []
    for n in range(1, 13):  # Hamiltonian generators as random_symplectic draws
        G = rng.normal(0.0, 0.45 / np.sqrt(n), size=(2 * n, 2 * n))
        cases.append(form_matrix(n) @ (0.5 * (G + G.T)))
    for dim in range(1, 13):  # general real matrices
        cases.append(rng.normal(0.0, 1.0 / np.sqrt(dim), size=(dim, dim)))
    for A in cases:
        want = scipy_linalg.expm(A)
        assert np.linalg.norm(expm(A) - want) <= 1e-13 * np.linalg.norm(want)


def test_random_symplectic_reads_expm_from_the_module(monkeypatch):
    # random_symplectic looks expm up by its module-level name at each call,
    # so rebinding the attribute reroutes it
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
