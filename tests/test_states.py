import gc
import weakref

import numpy as np
import pytest

from gdistill import (
    VERDICT_DISTILLABLE,
    CorrelationMatrix,
    GaussianState,
    MeasurementError,
    NptVerdict,
    NumericsError,
    PhysicalityVerdict,
    PreconditionError,
    apply_symplectic,
    beam_splitter,
    condition_on_x_measurement,
    direct_sum_states,
    distill_pipeline,
    embed_pair,
    is_npt,
    is_pure,
    local_scramble,
    partial_transpose,
    pipeline_report_to_dict,
    pt_form,
    random_physical_cm,
    random_symplectic,
    reduce_to_modes,
    tmss_cm,
    vacuum,
    validate_physical,
    wigner_cm,
)
from gdistill.random_states import KINDS, random_npt_cm, random_state
from gdistill.states import TOL_VERDICT, _pt_sign_vector, require_npt
from gdistill.symplectic import _as_matrix, form_matrix, spectrum_from_factor

CH, SH = np.cosh(1.0), np.sinh(1.0)
EPS = np.finfo(float).eps


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


def test_partition_sides_must_be_integers():
    # a fractional side used to be truncated: (1.5, 0.5) was stored as (1, 0)
    # beside 4x4 entries, and True counted as 1
    for partition in ((1.5, 0.5), (2.0, 0), (True, 1), (1, np.bool_(True))):
        with pytest.raises(ValueError, match=r"^bad partition"):
            CorrelationMatrix(entries=np.eye(4), partition=partition)
    cm = CorrelationMatrix(entries=np.eye(4), partition=(np.int64(1), np.int32(1)))
    assert cm.partition == (1, 1) and all(type(n) is int for n in cm.partition)


def test_non_finite_entries_are_rejected():
    inf_diag = np.eye(4)
    inf_diag[2, 2] = np.inf
    nan_pair = np.eye(4)
    nan_pair[0, 3] = nan_pair[3, 0] = np.nan
    for bad in (inf_diag, nan_pair):
        with pytest.raises(ValueError, match="finite"):
            CorrelationMatrix(entries=bad, partition=(1, 1))
    for d in ([np.nan, 0.0, 0.0, 0.0], [0.0, 0.0, -np.inf, 0.0]):
        with pytest.raises(ValueError, match="finite"):
            GaussianState(gamma=vacuum(1, 1), d=d)


def test_entries_near_the_float_limit_stay_finite_when_symmetrized():
    # the stored matrix is (g + g^T)/2, whose sum alone would overflow here
    huge = np.diag([1.7e308, 1.7e308, 1.0, 1.0])
    huge[0, 1] = huge[1, 0] = 1e308
    cm = CorrelationMatrix(entries=huge, partition=(1, 1))
    assert np.array_equal(cm.entries, huge) and cm._scale == 1.7e308
    skew = np.eye(4)
    skew[0, 1], skew[1, 0] = 1e308, 1.7e308
    with pytest.raises(ValueError, match="symmetric"):
        CorrelationMatrix(entries=skew, partition=(1, 1))


@pytest.mark.parametrize("call", [
    lambda: CorrelationMatrix(entries=np.eye(4) + 0.3j * np.eye(4)),
    lambda: CorrelationMatrix(entries=(np.eye(4) + 0j).tolist()),
    lambda: CorrelationMatrix.from_blocks(np.eye(2), np.eye(2), 0.1j * np.eye(2)),
    lambda: GaussianState(gamma=vacuum(1, 1), d=[0.0, 0.5j, 0.0, 0.0]),
], ids=["entries", "entries-list", "from_blocks", "displacement"])
def test_complex_entries_are_refused_not_cast(call):
    # a cast to float would drop the imaginary part and accept the real one
    with pytest.raises(ValueError, match="expected real numbers, got complex"):
        call()


def test_numbers_no_float_holds_are_refused_as_such():
    huge = 10 ** 400
    gamma = np.eye(4, dtype=object)
    gamma[1, 1] = huge
    with pytest.raises(ValueError, match="expected real numbers: int too large"):
        CorrelationMatrix(entries=gamma.tolist())
    with pytest.raises(ValueError, match="expected real numbers: int too large"):
        GaussianState(gamma=vacuum(1, 1), d=[0, huge, 0, 0])


def test_float_arrays_pass_through_the_conversion_uncopied():
    g, d, cm = np.eye(4), np.zeros(4), vacuum(1, 1)
    assert _as_matrix(g) is g and _as_matrix(cm) is cm.entries
    # a state keeps its own read-only copy of the displacement
    assert GaussianState(gamma=cm, d=d).d is not d and d.flags.writeable


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
    st = GaussianState(gamma=vacuum(1, 1))
    assert np.array_equal(st.d, np.zeros(4))  # default displacement
    st = GaussianState(gamma=vacuum(1, 1), d=[1.0, 0.0, 0.0, 2.0])
    assert np.array_equal(st.d, [1.0, 0.0, 0.0, 2.0])
    with pytest.raises(ValueError):
        GaussianState(gamma=vacuum(1, 1), d=np.zeros(3))


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


def test_validate_physical_decides_ill_conditioned():
    # a squeezed vacuum mode and a vacuum mode: pure, so margin 0, whatever
    # cond(gamma) = 1e26
    verdict = validate_physical(np.diag([1e-13, 1e13, 1.0, 1.0]))
    assert verdict.physical and verdict.margin == 0.0


def test_validate_physical_checks_a_bare_array_as_a_correlation_matrix():
    # only the lower triangle used to be read: I with g[0, 3] = 5 was
    # reported physical with margin 0
    g = np.eye(4)
    g[0, 3] = 5.0
    with pytest.raises(ValueError, match="symmetric"):
        validate_physical(g)
    # was a condition-number NumericsError
    with pytest.raises(ValueError, match="positive definite"):
        validate_physical(-np.eye(4))


def counting_linalg(monkeypatch):
    counts = {"cholesky": 0, "eigh": 0, "eigvalsh": 0}
    for name in counts:
        real = getattr(np.linalg, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def test_each_matrix_is_factored_once_and_decided_from_a_memo(monkeypatch):
    entries = local_scramble(tmss_cm(0.5), 3).entries
    counts = counting_linalg(monkeypatch)
    cm = CorrelationMatrix(entries=entries, partition=(1, 1))
    assert counts == {"cholesky": 1, "eigh": 0, "eigvalsh": 0}
    physical = validate_physical(cm)
    first = is_npt(cm)
    # the physicality Cholesky of gamma - iJ + tau*I; the reported margin of
    # gamma - iJ and the deciding one of gamma - i*Jtilde
    assert counts == {"cholesky": 2, "eigh": 0, "eigvalsh": 2}
    # the two reported spectra, each derived on its first read
    spectra = (physical.min_symplectic_eigenvalue, first.min_pt_symplectic_eigenvalue)
    assert counts == {"cholesky": 2, "eigh": 0, "eigvalsh": 4}
    assert is_npt(cm) == first
    assert (validate_physical(cm).min_symplectic_eigenvalue,
            is_npt(cm).min_pt_symplectic_eigenvalue) == spectra
    assert is_pure(cm)
    assert counts == {"cholesky": 2, "eigh": 0, "eigvalsh": 4}


def test_reported_spectra_are_the_memo_read_on_demand():
    for cm in (local_scramble(tmss_cm(0.5), 3), random_physical_cm(2, 3, seed=4)):
        physical, npt = validate_physical(cm), is_npt(cm)
        assert physical.min_symplectic_eigenvalue == float(
            spectrum_from_factor(cm._chol, form_matrix(cm.n_modes))[0])
        assert npt.min_pt_symplectic_eigenvalue == float(
            spectrum_from_factor(cm._chol, pt_form(cm.n_a, cm.n_b))[0])
        assert is_npt(cm) == npt and hash(is_npt(cm)) == hash(npt)
        assert validate_physical(cm) == physical
    # equality compares the derived spectrum too: equal decisions and margins
    # over matrices of different spectra give unequal verdicts
    first, second = (PhysicalityVerdict(physical=True, margin=0.0, gamma=thermal_cm(nus, (1, 1)))
                     for nus in ([1, 1], [2, 2]))
    assert first != second
    assert NptVerdict(npt=False, raw_margin=0.0, gamma=vacuum(1, 1)) != NptVerdict(
        npt=False, raw_margin=0.0, gamma=thermal_cm([2, 2], (1, 1)))


def test_random_state_makes_one_eigensolve_per_draw(monkeypatch):
    counts = counting_linalg(monkeypatch)
    for seed, kind in enumerate(("thermal", "entangled", "boundary")):
        before = counts["eigvalsh"]
        random_state(kind, 2, 2, seed)
        assert counts["eigvalsh"] - before == 1


def test_pipeline_reads_the_pt_spectrum_only_when_serialized(monkeypatch):
    g = local_scramble(tmss_cm(0.5), 3)
    counts = counting_linalg(monkeypatch)
    report = distill_pipeline(g)
    assert report.verdict == VERDICT_DISTILLABLE
    # the deciding margin of gamma and the reduced pair's
    assert counts["eigvalsh"] == 2
    pipeline_report_to_dict(report)
    assert counts["eigvalsh"] == 3


def test_verdicts_keep_no_cycle_with_their_matrix():
    gc.disable()
    try:
        cm = local_scramble(tmss_cm(0.5), 3)
        verdicts = [validate_physical(cm), is_npt(cm)]
        ref = weakref.ref(cm)
        del cm
        assert ref() is not None  # the verdicts read their spectra from it
        assert verdicts[0].min_symplectic_eigenvalue > 0
        assert verdicts[1].min_pt_symplectic_eigenvalue > 0
        del verdicts
        assert ref() is None
    finally:
        gc.enable()


def test_memoized_margins_decide_at_the_verdict_tolerance():
    # margin -1e-6 is beyond TOL_VERDICT: unphysical, and refused by is_npt,
    # on every call that reads the memo
    cm = CorrelationMatrix(entries=(1.0 - 1e-6) * np.eye(4), partition=(1, 1))
    for _ in range(2):
        assert not validate_physical(cm).physical
        with pytest.raises(PreconditionError):
            is_npt(cm)
    # PT margin e^{-2r} - 1 = -1e-6: NPT
    assert is_npt(tmss_cm(5e-7)).npt


def test_ill_conditioned_matrix_is_refused_on_every_call():
    # cond(gamma) = 1e26 decides nothing: the pure product state is physical
    # and PPT; only wigner_cm, which inverts gamma, refuses it
    cm = CorrelationMatrix(entries=np.diag([1e-13, 1e13, 1.0, 1.0]), partition=(1, 1))
    for _ in range(2):
        verdict = validate_physical(cm)
        assert verdict.physical and verdict.margin == 0.0
        assert not is_npt(cm).npt
        with pytest.raises(NumericsError, match="condition number"):
            wigner_cm(cm)


def test_matrix_at_the_rounding_edge_of_positive_definiteness_is_refused():
    # Q diag(lam, 1, 3, 10) Q^T with |lam| < 1e-15: the Cholesky factorization
    # succeeds, so the matrix is constructed, but it is far from physical
    g = np.array([
        [4.25656955803323, -3.403113210290711, 2.0636418862121646, -2.3416631191325443],
        [-3.403113210290711, 2.774371379827649, -1.3924946166633985, 1.6377550107932144],
        [2.0636418862121646, -1.3924946166633985, 4.523320554582785, -1.710771880139686],
        [-2.3416631191325443, 1.6377550107932144, -1.710771880139686, 2.4457385075563374],
    ])
    cm = CorrelationMatrix(entries=g, partition=(1, 1))
    verdict = validate_physical(cm)
    assert not verdict.physical
    assert verdict.margin == pytest.approx(-0.270, abs=1e-3)
    assert verdict.min_symplectic_eigenvalue == pytest.approx(5.6e-8, rel=0.01)
    with pytest.raises(PreconditionError, match=r"margin -2\.70"):
        is_npt(cm)


def scrambled_sum(core, pad):
    return [local_scramble(direct_sum_states(core, pad), seed) for seed in range(20)]


@pytest.mark.parametrize("r", [6.5, 6.8, 7.5, 8.5])
def test_strongly_squeezed_pairs_are_decided_and_distilled(r):
    # scrambled tmss_cm(r) + vacuum: NPT with nu_tilde = e^{-2r} by
    # construction; cond(gamma) reaches 1e15, which used to refuse the decision
    for g in scrambled_sum(tmss_cm(r), vacuum(1, 1)):
        assert is_npt(g).npt
        assert distill_pipeline(g).verdict == VERDICT_DISTILLABLE
        if r == 8.5:
            with pytest.raises(NumericsError, match="condition number"):
                wigner_cm(g)


@pytest.mark.parametrize("noise", [1e6, 1e7, 1e8])
def test_loud_classical_noise_is_physical_and_ppt(noise):
    # I + N V V^T / |V|^2 >= I: a classical mixture of coherent states, so
    # physical and separable by construction.  At N = 1e8 rounding alone moves
    # the margins by about 1e-9, which the absolute tolerance called
    # unphysical or NPT.
    rng = np.random.default_rng(0)
    for _ in range(40):
        v = rng.standard_normal((8, 2))
        g = CorrelationMatrix(entries=np.eye(8) + noise * v @ v.T / np.linalg.norm(v) ** 2,
                              partition=(2, 2))
        assert validate_physical(g).physical
        assert not is_npt(g).npt


@pytest.mark.parametrize("noise", [1e6, 1e7, 1e8])
def test_hot_padded_pairs_are_npt(noise):
    # scrambled tmss_cm(1) + thermal modes of variance N: NPT with nu_tilde =
    # e^{-2} by construction
    hot = CorrelationMatrix(entries=noise * np.eye(4), partition=(1, 1))
    for g in scrambled_sum(tmss_cm(1.0), hot):
        assert is_npt(g).npt


def test_each_matrix_keeps_one_rounding_scale():
    draws = [random_state(kind, n_a, n_b, seed)[0].gamma for kind in KINDS
             for n_a, n_b in ((1, 1), (2, 1), (1, 3), (3, 2)) for seed in range(3)]
    # asymmetric within the symmetry tolerance: the scale is of the stored,
    # symmetrized matrix
    skew = np.eye(4)
    skew[0, 1], skew[1, 0] = 0.3, 0.3 + 1e-9
    draws.append(CorrelationMatrix(entries=skew, partition=(1, 1)))
    for cm in draws:
        assert cm._scale == float(np.abs(cm.entries).max())
        assert cm._rounding == cm.dim * EPS * cm._scale
        assert cm._band == max(TOL_VERDICT, cm._rounding)


def squeezed_45(r):
    # pure one-mode state squeezed at 45 degrees: a = b = cosh(2r), c =
    # sinh(2r), the equality case of ab - c^2 >= 1
    rot = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2)
    return rot @ np.diag([np.exp(2 * r), np.exp(-2 * r)]) @ rot.T


def test_physical_matrices_have_the_scale_of_their_pt_hermitian():
    # max|gamma - i*Jtilde| = max|gamma| for physical gamma, the scale the
    # witness reads: |c -+ i|^2 = c^2 + 1 <= ab in each mode block
    # [[a, c], [c, b]], and |gamma_ij|^2 <= gamma_ii gamma_jj elsewhere
    draws = [random_state(kind, n_a, n_b, seed)[0].gamma for kind in KINDS
             for n_a, n_b in ((1, 1), (2, 2), (3, 1)) for seed in range(4)]
    draws += [random_physical_cm(2, 3, seed) for seed in range(4)]
    draws += [random_npt_cm(n, n, seed) for n in (1, 3) for seed in range(4)]
    draws += scrambled_sum(tmss_cm(8.5), vacuum(1, 1))
    draws += scrambled_sum(tmss_cm(1.0), CorrelationMatrix(entries=1e10 * np.eye(4),
                                                           partition=(1, 1)))
    draws += [CorrelationMatrix(entries=np.kron(np.eye(2), squeezed_45(r)), partition=(1, 1))
              for r in (0.3, 0.7, 2.0)]
    for cm in draws:
        assert validate_physical(cm).physical
        assert np.abs(cm._pt_herm).max() <= cm._scale * (1 + 4 * EPS)


def test_unphysical_matrix_beyond_the_band_is_refused():
    # symplectic eigenvalue 0.7: margin -7.3e-7, far outside the rounding
    # band of |gamma| = 7e5 (about 6e-10, so tau = TOL_VERDICT)
    cm = CorrelationMatrix(entries=np.diag([0.7e6, 0.7e-6, 1.0, 1.0]), partition=(1, 1))
    assert not validate_physical(cm).physical
    with pytest.raises(PreconditionError, match="physical state"):
        is_npt(cm)


def test_failed_cholesky_names_the_factorization_and_the_eigenvalue_range():
    # Q diag(-2.5e-18, 1, 3, 10) Q^T: Cholesky fails while eigvalsh(gamma)
    # puts lambda_min at +9.9e-16, so the message cites the range (the lower
    # end alone would contradict "must be positive definite")
    g = np.array([
        [1.4074794755439635, -0.1184952497627014, -1.8453861643266145, -0.39874117496539735],
        [-0.1184952497627014, 1.7260827679041388, -1.8896446047006306, 1.1309012039673065],
        [-1.8453861643266145, -1.8896446047006306, 9.029224864930427, 1.280825303192565],
        [-0.39874117496539735, 1.1309012039673065, 1.280825303192565, 1.8372128916214714],
    ])
    with pytest.raises(ValueError, match=r"must be positive definite: Cholesky factorization "
                                         r"failed \(eigenvalues in \[\S+, 1\.000e\+01\]\)"):
        CorrelationMatrix(entries=g, partition=(1, 1))


@pytest.mark.parametrize("r, bound", [(1, 2e-14), (3, 1e-10), (5, 3e-7)])
def test_pt_spectrum_of_scrambled_squeezed_states_matches_closed_form(r, bound):
    # local symplectics keep the partial transpose's smallest symplectic
    # eigenvalue of tmss_cm(r) at e^{-2r}
    for seed in range(10):
        nu = is_npt(local_scramble(tmss_cm(r), seed)).min_pt_symplectic_eigenvalue
        assert abs(nu / np.exp(-2 * r) - 1) <= bound


def test_decided_matrix_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        cm = local_scramble(tmss_cm(0.5), 3)
        validate_physical(cm)
        is_npt(cm)
        is_pure(cm)
        ref = weakref.ref(cm)
        del cm
        assert ref() is None
    finally:
        gc.enable()


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
    assert np.array_equal(_pt_sign_vector(2, 1), [1, 1, 1, 1, 1, -1])
    assert np.array_equal(_pt_sign_vector(1, 2), [1, 1, 1, -1, 1, -1])
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


def test_require_npt_names_the_stage_and_the_margin():
    with pytest.raises(PreconditionError) as err:
        require_npt(vacuum(1, 1), "x")
    assert "x requires an NPT state (margin" in str(err.value)
    require_npt(tmss_cm(0.5), "x")


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


@pytest.mark.parametrize("call", [
    lambda: reduce_to_modes(tmss_cm(0.5), [0.5], [0]),  # was numpy's IndexError
    lambda: reduce_to_modes(tmss_cm(0.5), [0], [np.float64(0.0)]),
    lambda: reduce_to_modes(tmss_cm(0.5), [False], [0]),
    lambda: condition_on_x_measurement(tmss_cm(0.5), True),  # conditioned mode 1
    lambda: condition_on_x_measurement(tmss_cm(0.5), 1.0),
    lambda: embed_pair(beam_splitter(0.7), 2, 0, 1.0),
    lambda: embed_pair(beam_splitter(0.7), 2, False, True),
    lambda: embed_pair(beam_splitter(0.7), 2.0, 0, 1),
])
def test_mode_indices_follow_the_integer_rule(call):
    with pytest.raises(ValueError, match="integer"):
        call()


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
