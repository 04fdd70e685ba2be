"""Constructive distillability pipeline for bipartite Gaussian states.

Distillability of an N x M-mode Gaussian state is equivalent to a
non-positive partial transpose, and the equivalence is constructive: the
chain implemented here turns any decisively NPT state into a symmetric NPT
1x1-mode state on which a reduction-criterion witness can be evaluated.

witness      An NPT state has a complex vector z with z^dag (gamma -
             i*Jtilde) z <= -eps < 0.  The minimal eigenvector of the
             Hermitian matrix gamma - i*Jtilde supplies one; if either
             side's skew product Re(z)^T J Im(z) vanishes (degenerate
             eigenspaces produce this), deterministic perturbations of size
             1e-4 restore it while keeping the quadratic form below -eps/2.
             A global phase rotation of z provably leaves the skew products
             unchanged, which is why additive perturbations are used.

concentrate  Per side, f1 = Re(z)/|Re(z)| and f2 = -Im(z)*|Re(z)|/skew form
             a canonical pair (f1^T J f2 = -1) spanning the same plane as
             (Re z, Im z).  Completing each pair to a symplectic basis gives
             local transformations after which z is supported on the first
             mode of each side only, so tracing out every other mode leaves
             a two-mode state that inherits the witness: it is NPT.

symmetrize   Work on the Wigner-form companion matrix, brought to standard
             form with parameters (N_a, N_b, K_x, K_p).  The side with the
             smaller companion parameter is the hotter one; mixing it with a
             vacuum ancilla on a beam splitter of transmittivity cos^2(theta),

                 tan^2(theta) = (N_a^2 - N_b^2) / (N_b - D_x N_a),
                 D_x = N_a N_b - K_x^2,   (N_b the hotter side's parameter)

             and measuring the ancilla's q quadrature yields a symmetric
             state.  The closed-form output blocks (with c = cos(theta),
             s = sin(theta), nu = s^2 N_b + c^2):

                 A~ = diag(c^2 N_a + s^2 D_x, c^2 N_a + s^2 N_a N_b) / nu
                 B~ = diag(N_b / nu, c^2 N_b + s^2)
                 C~ = diag(c K_x / nu, c K_p)

             reproduce homodyne conditioning of the actual joint state to
             machine precision, and the inseparability residual is scaled by
             exactly (N_b tan^2(theta) + 1)^{-1} > 0, so NPT is preserved.

The final symmetric state satisfies (n - k_x)(n + k_p) < 1 in standard-form
parameters, which makes the reduction-criterion witness negative for large
probe squeezing: distillability is certified by an explicit protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (ConcentrationError, DegeneracyError, DistillError,
                     NumericsError, PreconditionError)
from .states import (TOL_VERDICT, CorrelationMatrix, NptVerdict,
                     apply_symplectic, is_npt, pt_form, reduce_to_modes,
                     wigner_cm)
from .symplectic import (SymplecticMatrix, direct_sum,
                         extend_to_symplectic_basis, form_matrix)
from .two_mode import (RcWitnessResult, StdFormParams, inseparability_residual,
                       rc_sweep, standard_form_params, standard_form_transform)

BOUNDARY_BAND = 1e-7        # |NPT margin| below this: too close to decide constructively
SKEW_FLOOR_FACTOR = 1e-8    # minimum |Re(z)^T J Im(z)| per side, times |z|^2
PERTURBATION_SIZE = 1e-4    # witness de-degeneration step, times |z|
MAX_WITNESS_RETRIES = 32
MAX_PIPELINE_ATTEMPTS = 8   # fresh witness seeds tried after concentration failures
SUPPORT_LEAKAGE_LIMIT = 1e-6

VERDICT_DISTILLABLE = "DISTILLABLE"
VERDICT_NOT_DISTILLABLE = "NOT_DISTILLABLE"
VERDICT_BOUNDARY = "INCONCLUSIVE_BOUNDARY"


class PipelineStageError(DistillError):
    """A pipeline stage failed its postcondition; carries the stage name."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class NptWitness:
    """Witness vector z with z^dag (gamma - i*Jtilde) z = margin <= -eps."""

    z: np.ndarray = field(repr=False)
    margin: float
    eps: float        # |minimal eigenvalue| of gamma - i*Jtilde before perturbation
    skew_a: float     # Re(z_A)^T J Im(z_A)
    skew_b: float
    retries: int      # perturbation steps taken (0 = raw eigenvector worked)


@dataclass(frozen=True)
class SymmetrizationReport:
    theta: float
    swapped_sides: bool
    gamma_out: CorrelationMatrix
    insep_residual_in: float    # Wigner-picture inseparability residual of the input
    insep_residual_out: float
    scale_factor: float         # residual_out / residual_in = (N_hot tan^2 theta + 1)^{-1}


@dataclass(frozen=True)
class StandardFormStage:
    s_a: SymplecticMatrix
    s_b: SymplecticMatrix
    gamma_std: CorrelationMatrix
    params: StdFormParams


@dataclass(frozen=True)
class PipelineReport:
    input_partition: tuple[int, int]
    verdict: str                           # DISTILLABLE / NOT_DISTILLABLE / INCONCLUSIVE_BOUNDARY
    npt: NptVerdict
    witness: NptWitness | None = None
    s_a: SymplecticMatrix | None = None    # concentration transforms
    s_b: SymplecticMatrix | None = None
    gamma_1x1: CorrelationMatrix | None = None
    standard_form: StandardFormStage | None = None
    symmetrization: SymmetrizationReport | None = None
    final_params: StdFormParams | None = None
    rc: RcWitnessResult | None = None
    rc_sweep: tuple[RcWitnessResult, ...] = ()
    witness_attempts: int = 0


def _side_split(z: np.ndarray, n_a: int):
    return z[: 2 * n_a], z[2 * n_a :]


def _side_skews(z: np.ndarray, n_a: int, n_b: int) -> tuple[float, float]:
    za, zb = _side_split(z, n_a)
    ja, jb = form_matrix(n_a), form_matrix(n_b)
    return (
        float(za.real @ ja @ za.imag),
        float(zb.real @ jb @ zb.imag),
    )


def find_npt_witness(gamma: CorrelationMatrix, tol: float = TOL_VERDICT,
                     seed: int = 0) -> NptWitness:
    """Find a unit vector z with z^dag (gamma - i*Jtilde) z < 0 and nonzero
    skew products Re(z)^T J Im(z) on both sides.

    The minimal eigenvector of the Hermitian matrix gamma - i*Jtilde is the
    starting point.  When a skew product vanishes (within 1e-8), the vector
    is nudged by deterministic pseudo-random perturbations of relative size
    1e-4, keeping the quadratic form below half its optimal value.  At most
    32 perturbations are tried before giving up with a DegeneracyError.

    Raises PreconditionError when the state is not NPT.
    """
    verdict = is_npt(gamma, tol=tol)
    if not verdict.npt:
        raise PreconditionError(
            f"witness search requires an NPT state (margin {verdict.raw_margin:.3e})")
    return _search_witness(gamma, *_minimal_eigenvector(gamma), seed=seed, first=0)


def _minimal_eigenvector(gamma: CorrelationMatrix):
    """(gamma - i*Jtilde, eps = -lambda_min, unit eigenvector in canonical phase)."""
    herm = gamma.entries - 1j * pt_form(gamma.n_a, gamma.n_b)
    w, V = np.linalg.eigh(herm)
    z0 = V[:, 0]
    # canonical phase: make the largest component real positive, so results
    # do not depend on the eigensolver's phase choice
    pivot = int(np.argmax(np.abs(z0)))
    z0 = z0 * (np.conj(z0[pivot]) / abs(z0[pivot]))
    return herm, float(-w[0]), z0 / np.linalg.norm(z0)


def _search_witness(gamma: CorrelationMatrix, herm: np.ndarray, eps: float,
                    z0: np.ndarray, seed: int, first: int) -> NptWitness:
    """First usable witness among z0 (step 0) and its seeded perturbations
    (steps 1..32), starting at step ``first``."""
    floor = SKEW_FLOOR_FACTOR  # |z| = 1 throughout
    best = None
    for k in range(first, MAX_WITNESS_RETRIES + 1):
        if k == 0:
            z = z0
        else:
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), k)))
            u = rng.normal(size=z0.shape) + 1j * rng.normal(size=z0.shape)
            u /= np.linalg.norm(u)
            z = z0 + PERTURBATION_SIZE * u
            z /= np.linalg.norm(z)
        margin = float(np.real(np.conj(z) @ herm @ z))
        skew_a, skew_b = _side_skews(z, gamma.n_a, gamma.n_b)
        if best is None or min(abs(skew_a), abs(skew_b)) > best[0]:
            best = (min(abs(skew_a), abs(skew_b)), margin)
        if margin < -0.5 * eps and min(abs(skew_a), abs(skew_b)) > floor:
            z = z.copy()
            z.flags.writeable = False
            return NptWitness(z=z, margin=margin, eps=eps,
                              skew_a=skew_a, skew_b=skew_b, retries=k)
    raise DegeneracyError(
        f"no perturbation produced usable skew products after {MAX_WITNESS_RETRIES} "
        f"retries (best min-skew {best[0]:.3e}, eps {eps:.3e})")


def _canonical_pair(z_side: np.ndarray):
    zr = z_side.real
    zi = z_side.imag
    n = z_side.size // 2
    skew = float(zr @ form_matrix(n) @ zi)
    nrm = float(np.linalg.norm(zr))
    if nrm == 0.0 or skew == 0.0:
        raise ConcentrationError("witness side has vanishing real part or skew product")
    f1 = zr / nrm
    f2 = -zi * (nrm / skew)  # f1^T J f2 = -1
    return f1, f2


def concentrate(gamma: CorrelationMatrix, witness: NptWitness,
                tol: float = TOL_VERDICT):
    """Concentrate the witnessed entanglement into one mode pair.

    Builds local symplectic bases whose first canonical pairs span
    (Re z, Im z) on each side, transforms gamma, and keeps only the first
    mode of each side.  The transformed witness is then supported on the
    kept modes, the quadratic form value is unchanged, and the reduced
    two-mode state is NPT.  gamma must be physical (it is not re-checked).

    Returns (S_A, S_B, gamma_red).  Raises ConcentrationError when witness
    support leaks beyond the kept modes (> 1e-6) or the reduced state comes
    out PPT; both indicate a degenerate witness and the caller should retry
    with a fresh perturbation seed (see witness_and_concentrate).
    """
    n_a, n_b = gamma.partition
    if n_a < 1 or n_b < 1:
        raise ValueError("concentration needs at least one mode per side")
    za, zb = _side_split(np.asarray(witness.z), n_a)
    pairs = [_canonical_pair(z_side) for z_side in (za, zb)]
    try:
        sa, sb = (extend_to_symplectic_basis(*pair) for pair in pairs)
    except NumericsError as exc:
        raise ConcentrationError(f"basis extension failed: {exc}") from exc
    gamma_hat = apply_symplectic(gamma, direct_sum(sa, sb))
    z_hat = np.concatenate([np.linalg.solve(sa.entries, za),
                            np.linalg.solve(sb.entries, zb)])
    leak = max(
        float(np.abs(z_hat[2 : 2 * n_a]).max(initial=0.0)),
        float(np.abs(z_hat[2 * n_a + 2 :]).max(initial=0.0)),
    )
    if leak > SUPPORT_LEAKAGE_LIMIT:
        raise ConcentrationError(
            f"witness support leaked {leak:.3e} beyond the first mode pair")
    gamma_red = reduce_to_modes(gamma_hat, [0], [0])
    # congruence and reduction keep gamma physical: only NPT is left to check
    raw = float(np.linalg.eigvalsh(gamma_red.entries - 1j * pt_form(1, 1))[0])
    if not raw < -tol:
        raise ConcentrationError(
            f"reduced two-mode state is not NPT (margin {raw:.3e})")
    return sa, sb, gamma_red


def _in_stage(stage: str, fn, *args, **kwargs):
    """Call fn, re-raising any DistillError as a PipelineStageError."""
    try:
        return fn(*args, **kwargs)
    except DistillError as exc:
        raise PipelineStageError(stage, exc) from exc


def witness_and_concentrate(gamma: CorrelationMatrix, seed: int = 0,
                            tol: float = TOL_VERDICT):
    """The witness and concentrate stages, for a state the caller has decided
    is NPT: gamma - i*Jtilde is eigensolved once, not re-decided.  Attempt
    k < 8 searches with perturbation seed seed * 8 + k, starting from a
    perturbation when k > 0 (the raw eigenvector already failed); a
    ConcentrationError moves on to the next attempt.  Returns (witness, S_A,
    S_B, gamma_1x1, attempts); raises PipelineStageError naming the stage.
    """
    start = _minimal_eigenvector(gamma)
    for attempt in range(MAX_PIPELINE_ATTEMPTS):
        witness = _in_stage("witness", _search_witness, gamma, *start,
                            seed=seed * MAX_PIPELINE_ATTEMPTS + attempt,
                            first=min(attempt, 1))
        try:
            return (witness, *concentrate(gamma, witness, tol=tol), attempt + 1)
        except ConcentrationError as exc:
            last_exc = exc
        except DistillError as exc:
            raise PipelineStageError("concentrate", exc) from exc
    raise PipelineStageError("concentrate", last_exc)


def _swap_sides(g: np.ndarray) -> np.ndarray:
    """Exchange the two modes of a 4 x 4 (1x1-mode) matrix."""
    idx = [2, 3, 0, 1]
    return g[np.ix_(idx, idx)]


def symmetrize(gamma: CorrelationMatrix, tol: float = TOL_VERDICT) -> SymmetrizationReport:
    """Make a 1x1 NPT state symmetric (n_a = n_b) by local operations.

    See the module docstring for the construction.  The inseparability
    residual (Wigner picture) shrinks by exactly the reported scale factor
    but stays positive, so the output is NPT; this is verified numerically
    together with the symmetry of the output.

    Raises PreconditionError for non-NPT input and NumericsError if the
    beam-splitter angle formula degenerates (nonpositive denominator), which
    only happens on a measure-zero family at the physicality boundary.
    """
    if gamma.partition != (1, 1):
        raise ValueError(f"symmetrization expects a 1x1 state, got {gamma.partition}")
    verdict = is_npt(gamma, tol=tol)
    if not verdict.npt:
        raise PreconditionError(
            f"symmetrization requires an NPT state (margin {verdict.raw_margin:.3e})")
    return _symmetrize(gamma, tol)[0]


def _symmetrize(gamma: CorrelationMatrix,
                tol: float) -> tuple[SymmetrizationReport, StdFormParams]:
    """symmetrize for a 1x1 state the caller has decided is NPT (the input is
    not re-decided; the output checks all run).  Also returns the
    standard-form parameters of the output."""
    gw = wigner_cm(gamma)
    _, _, gw_std = standard_form_transform(gw)
    residual_in = inseparability_residual(gw_std)

    g = gw_std.entries
    n_big, n_hot = g[0, 0], g[2, 2]
    swapped = bool(n_big < n_hot)
    if swapped:
        g = _swap_sides(g)
        n_big, n_hot = g[0, 0], g[2, 2]
    k_x, k_p = g[0, 2], g[1, 3]

    if abs(n_big - n_hot) <= 1e-9:
        gamma_out = wigner_cm(gw_std)
        report = SymmetrizationReport(
            theta=0.0, swapped_sides=False, gamma_out=gamma_out,
            insep_residual_in=residual_in, insep_residual_out=residual_in,
            scale_factor=1.0)
        return report, standard_form_params(gamma_out)

    d_x = n_big * n_hot - k_x ** 2
    numerator = n_big ** 2 - n_hot ** 2
    denominator = n_hot - d_x * n_big
    if denominator <= 0.0 or numerator <= 0.0:
        raise NumericsError(
            "beam-splitter angle formula degenerated "
            f"(numerator {numerator:.3e}, denominator {denominator:.3e}); "
            "the input sits on the physicality boundary")
    tan2 = numerator / denominator
    theta = float(np.arctan(np.sqrt(tan2)))
    c2 = 1.0 / (1.0 + tan2)
    s2 = 1.0 - c2
    c = np.sqrt(c2)
    nu = s2 * n_hot + c2

    a_tilde = np.diag([c2 * n_big + s2 * d_x, c2 * n_big + s2 * n_big * n_hot]) / nu
    b_tilde = np.diag([n_hot / nu, c2 * n_hot + s2])
    c_tilde = np.diag([c * k_x / nu, c * k_p])
    # swapping the sides of [[A, C], [C^T, B]] gives [[B, C^T], [C, A]]
    if swapped:
        gw_out_cm = CorrelationMatrix.from_blocks(b_tilde, a_tilde, c_tilde.T)
    else:
        gw_out_cm = CorrelationMatrix.from_blocks(a_tilde, b_tilde, c_tilde)

    scale = 1.0 / (n_hot * tan2 + 1.0)
    residual_out = inseparability_residual(gw_out_cm)
    expected = residual_in * scale
    if abs(residual_out - expected) > 1e-8 * abs(expected) + 1e-14:
        raise NumericsError(
            f"inseparability residual scaling violated: got {residual_out:.6e}, "
            f"expected {expected:.6e}")

    gamma_out = wigner_cm(gw_out_cm)
    params_out = standard_form_params(gamma_out)
    if abs(params_out.n_a - params_out.n_b) > 1e-8:
        raise NumericsError(
            f"symmetrization output is not symmetric: n_a={params_out.n_a!r}, "
            f"n_b={params_out.n_b!r}")
    out_verdict = is_npt(gamma_out, tol=tol)
    if not out_verdict.npt:
        raise NumericsError(
            f"symmetrization lost NPT-ness (margin {out_verdict.raw_margin:.3e})")
    report = SymmetrizationReport(
        theta=theta, swapped_sides=swapped, gamma_out=gamma_out,
        insep_residual_in=residual_in, insep_residual_out=residual_out,
        scale_factor=scale)
    return report, params_out


def distill_pipeline(gamma: CorrelationMatrix, r_max: int = 8, seed: int = 0,
                     tol: float = TOL_VERDICT) -> PipelineReport:
    """Decide distillability and construct the certifying protocol.

    Stage order: NPT check, witness search, concentration to one mode pair,
    standard form, symmetrization, reduction-criterion sweep over probe
    squeezing r = 1..r_max.  PPT states return NOT_DISTILLABLE immediately.
    NPT states whose margin is within 1e-7 of zero return
    INCONCLUSIVE_BOUNDARY without running the constructive stages: the
    downstream numerical guards are not meaningful that close to the
    boundary.  (PPT states are never flagged as boundary cases: a pure
    product state sits exactly at margin zero and is decisively not
    distillable.)

    Concentration failures trigger fresh witness seeds, up to 8 attempts.
    Any stage failure raises PipelineStageError naming the stage; the
    rc_witness stage fails when the witness is not negative at r = r_max.
    Raises ValueError for r_max < 1.
    """
    if r_max < 1:
        raise ValueError(f"r_max must be >= 1, got {r_max}")
    npt_verdict = _in_stage("npt_check", is_npt, gamma, tol=tol)
    if not npt_verdict.npt:
        return PipelineReport(input_partition=gamma.partition,
                              verdict=VERDICT_NOT_DISTILLABLE, npt=npt_verdict)
    if abs(npt_verdict.raw_margin) < BOUNDARY_BAND:
        return PipelineReport(input_partition=gamma.partition,
                              verdict=VERDICT_BOUNDARY, npt=npt_verdict)

    witness, s_a, s_b, gamma_red, attempts = witness_and_concentrate(
        gamma, seed=seed, tol=tol)

    def std_stage():
        sa2, sb2, gamma_std = standard_form_transform(gamma_red)
        return StandardFormStage(s_a=sa2, s_b=sb2, gamma_std=gamma_std,
                                 params=standard_form_params(gamma_std))

    std = _in_stage("standard_form", std_stage)
    # the concentrate stage decided gamma_1x1 is NPT, and the standard form
    # is a local congruence of it, so symmetrize's input is not re-decided
    sym, final_params = _in_stage("symmetrize", _symmetrize, std.gamma_std, tol)

    def rc_stage():
        n = np.sqrt(final_params.n_a * final_params.n_b)
        limit = (n - final_params.k_x) * (n + final_params.k_p) - 1.0
        if limit >= tol:
            raise NumericsError(
                f"symmetric NPT output violates (n - k_x)(n + k_p) < 1: {limit:.3e}")
        _, _, gamma_final_std = standard_form_transform(sym.gamma_out)
        sweep = rc_sweep(gamma_final_std, range(1, int(r_max) + 1))
        if not sweep[-1].value < 0:
            raise NumericsError(
                f"reduction-criterion witness is not negative at r={r_max}: "
                f"{sweep[-1].value:.3e}")
        return sweep

    sweep = _in_stage("rc_witness", rc_stage)
    return PipelineReport(
        input_partition=gamma.partition,
        verdict=VERDICT_DISTILLABLE,
        npt=npt_verdict,
        witness=witness,
        s_a=s_a,
        s_b=s_b,
        gamma_1x1=gamma_red,
        standard_form=std,
        symmetrization=sym,
        final_params=final_params,
        rc=sweep[-1],
        rc_sweep=sweep,
        witness_attempts=attempts,
    )
