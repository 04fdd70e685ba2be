"""Constructive distillability pipeline for bipartite Gaussian states.

Distillability of an N x M-mode Gaussian state is equivalent to a
non-positive partial transpose, and the equivalence is constructive: the
chain implemented here turns any decisively NPT state into a symmetric NPT
1x1-mode state on which a reduction-criterion witness can be evaluated.

witness      An NPT state has a complex vector z with z^dag (gamma -
             i*Jtilde) z <= -eps < 0: the minimal eigenvector of the
             Hermitian matrix gamma - i*Jtilde, with eps = -lambda_min as
             is_npt computed it.  No second eigensolve finds it: inverse
             iteration solves (gamma - i*Jtilde - sigma*I) z' = z from z =
             (1, ..., 1), with the shift sigma a rounding band (dim *
             machine eps * max|gamma_ij|) below lambda_min; each solve damps
             every other eigenvector by (lambda_min - sigma) / (lambda_k -
             sigma).  A shift of exactly lambda_min can meet an exact zero
             pivot.  One solve converges unless the start vector is
             (nearly) orthogonal to the minimal eigenvector, as for a
             squeezed pair with a quarter-turn phase on one side; then the
             next solve amplifies the part that rounding left along it.
             Iteration stops once the residual |(gamma - i*Jtilde) z - m z|
             is below WITNESS_RESIDUAL_TOL * max|gamma_ij|, and gives up
             after MAX_WITNESS_SOLVES solves; max|gamma_ij| = max|gamma -
             i*Jtilde| for physical gamma, the only kind is_npt passes on
             (|c -+ i|^2 = c^2 + 1 <= ab in each mode block [[a, c], [c,
             b]]).  The skew products s = Re(z)^T J Im(z) per side of the
             eigenvector are bounded away from zero.
             For unit z, x = Re z, y = Im z, q = x^T gamma x + y^T gamma y,
             m = z^dag (gamma - i*Jtilde) z = q + 2 (s_A - s_B), while
             physicality (gamma - iJ >= -tau, tau the rounding band of
             is_npt) applied to z and conj(z) gives q +- 2 (s_A + s_B) >=
             -tau; so for m < 0, s_B >= (|m| - tau)/4 and s_A <= -(|m| -
             tau)/4.  The raw eigenvector (m = -eps) clears the skew floor
             1e-8 once eps > 4e-8 + tau.  Where tau = TOL_VERDICT the
             boundary band 1e-7 guarantees it (TOL_VERDICT < BOUNDARY_BAND -
             4 * SKEW_FLOOR_FACTOR, pinned by a test); for a gamma so large
             that tau exceeds TOL_VERDICT, the floor check is the guard.
             This bound is why there is no retry: the eigenvector is the
             witness, and a witness below the floor or a failed
             concentration is a stage failure.

concentrate  Per side, f1 = Re(z)/|Re(z)| and f2 = -Im(z)*|Re(z)|/skew form
             a canonical pair (f1^T J f2 = -1, checked within TOL_SYMPLECTIC)
             spanning (Re z, Im z).  Any local symplectic with that first
             pair leaves z on the first mode of each side only, so the kept
             mode pair inherits the witness: it is NPT.  Its state is the
             projection gamma_1x1 = F^T gamma F, F = (f1, f2)_A (+) (f1, f2)_B
             (2n x 4).  The record keeps the pairs; no basis is completed
             (extend_to_symplectic_basis completes one for a caller that
             wants the transformation).  The certificate link is that
             gamma_1x1 is NPT, decided on gamma_1x1 itself.

symmetrize   Work on the Wigner-form companion J^T gamma^{-1} J.  For a
             standard form (n_a, n_b, k_x, k_p) its standard-form parameters
             are, in closed form (StdFormParams.companion),

                 (N_a, N_b, K_x, K_p) = (n_b, n_a, k_x, k_p) / sqrt(d_x d_p),
                 d_x = n_a n_b - k_x^2,   d_p = n_a n_b - k_p^2.

             The side with the smaller companion parameter is the hotter
             one; mixing it with a vacuum ancilla on a beam splitter of
             transmittivity cos^2(theta),

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
             A symmetric input (N_a = N_b within 1e-9, e.g. a squeezed pair)
             takes the same formulas with tan^2(theta) = 0: the output has
             the input's standard-form parameters and an unscaled residual.
             The denominator of tan^2(theta) cancels near the degenerate
             family, so it is evaluated in the input's parameters as
             (n_lo - n_hi / d_p) / sqrt(d_x d_p), n_lo the hotter side's n.
             The blocks are diagonal, so gamma_out (validated on first read),
             its standard form and every postcondition are 2x2 closed forms.

The symmetrized output's NPT is checked once, as StdFormParams.rc_limit =
(n - k_x)(n + k_p) - 1 < -TOL_VERDICT.  A negative limit makes the
reduction-criterion witness negative for large probe squeezing, and the
rc_witness stage checks its value at r_max: an explicit protocol.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConcentrationError, DegeneracyError, DistillError,
                     NumericsError)
from .states import (TOL_VERDICT, CorrelationMatrix, NptVerdict, is_npt,
                     require_npt, require_two_sides)
from .symplectic import TOL_SYMPLECTIC, _is_integer, _skew, _sym
from .two_mode import (MAX_PROBE_R, SYMMETRY_TOL, RcWitnessResult, StandardForm,
                       StdFormParams, check_inseparable, diagonal_block_entries,
                       is_symmetric, rc_sweep, require_two_mode,
                       standard_form_transform)

BOUNDARY_BAND = 1e-7        # |NPT margin| below this: too close to decide constructively
SKEW_FLOOR_FACTOR = 1e-8    # minimum |Re(z)^T J Im(z)| per side, times |z|^2
WITNESS_RESIDUAL_TOL = 1e-12  # eigen-residual of the witness, times max|gamma_ij|
MAX_WITNESS_SOLVES = 3
SCALING_REL_TOL = 1e-8      # relative error allowed in the residual scaling law

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
    """Witness vector z with z^dag (gamma - i*Jtilde) z = margin (= -eps up
    to rounding)."""

    z: np.ndarray = field(repr=False)
    margin: float
    eps: float        # -lambda_min(gamma - i*Jtilde), is_npt's raw_margin negated
    skew_a: float     # Re(z_A)^T J Im(z_A)
    skew_b: float


@dataclass(frozen=True)
class Concentration:
    """concentrate's result: the kept canonical pairs f_a (2n_a x 2) and f_b
    (2n_b x 2), read-only, and gamma_1x1 = F^T gamma F, F = f_a (+) f_b.
    npt_margin, lambda_min(gamma_1x1 - i*Jtilde) < -tau (is_npt's rounding
    band), is read from the memo that concentrate decided on."""

    f_a: np.ndarray = field(repr=False)
    f_b: np.ndarray = field(repr=False)
    gamma_1x1: CorrelationMatrix

    @property
    def npt_margin(self) -> float:
        return self.gamma_1x1._pt_margin


@dataclass(frozen=True)
class SymmetrizationReport:
    theta: float
    swapped_sides: bool
    gamma_out_entries: np.ndarray = field(repr=False)  # read-only 4x4
    insep_residual_in: float    # Wigner-picture inseparability residual of the input
    insep_residual_out: float
    scale_factor: float         # residual_out / residual_in = (N_hot tan^2 theta + 1)^{-1}
    output_params: StdFormParams  # standard-form parameters of gamma_out

    @functools.cached_property
    def gamma_out(self) -> CorrelationMatrix:
        return CorrelationMatrix(entries=self.gamma_out_entries)


@dataclass(frozen=True)
class PipelineReport:
    """The records of the stages that ran; rc (the sweep's point at r_max) and
    final_params (the symmetrized standard form) are read from them, or None."""

    input_partition: tuple[int, int]
    verdict: str                           # DISTILLABLE / NOT_DISTILLABLE / INCONCLUSIVE_BOUNDARY
    npt: NptVerdict
    witness: NptWitness | None = None
    concentration: Concentration | None = None
    standard_form: StandardForm | None = None
    symmetrization: SymmetrizationReport | None = None
    rc_sweep: tuple[RcWitnessResult, ...] = ()

    @property
    def rc(self) -> RcWitnessResult | None:
        return self.rc_sweep[-1] if self.rc_sweep else None

    @property
    def final_params(self) -> StdFormParams | None:
        return None if self.symmetrization is None else self.symmetrization.output_params


def _side_split(z: np.ndarray, n_a: int):
    return z[: 2 * n_a], z[2 * n_a :]


def find_npt_witness(gamma: CorrelationMatrix) -> NptWitness:
    """Find a unit vector z with z^dag (gamma - i*Jtilde) z < 0 and nonzero
    skew products Re(z)^T J Im(z) on both sides: the minimal eigenvector of
    gamma - i*Jtilde, by inverse iteration at the lambda_min that is_npt
    computed (eps = -lambda_min).

    Raises PreconditionError when the state is not NPT, and DegeneracyError
    when a solve is singular, the iteration does not converge (module
    docstring), the form is not negative or a skew product does not clear
    1e-8, which the bound in the module docstring excludes for physical
    gamma and eps > 4e-8 + tau (tau the rounding band of is_npt).
    """
    require_npt(gamma, "witness search")
    return _witness(gamma)


def _witness(gamma: CorrelationMatrix) -> NptWitness:
    """The unit minimal eigenvector of gamma - i*Jtilde in canonical phase,
    by inverse iteration at lambda_min as is_npt computed it (eps =
    -lambda_min), checked for a negative form and skew products above the
    floor."""
    herm = gamma._pt_herm
    lam = gamma._pt_margin
    # shifted a rounding band below lambda_min (module docstring)
    shifted = herm.copy()
    shifted.flat[:: gamma.dim + 1] -= lam - gamma._rounding
    z = np.ones(gamma.dim, dtype=complex)
    for _ in range(MAX_WITNESS_SOLVES):
        try:
            z = np.linalg.solve(shifted, z)
        except np.linalg.LinAlgError as exc:
            raise DegeneracyError(
                f"shifted solve at lambda_min {lam:.3e} is singular") from exc
        # canonical phase: make the first of the largest components (ties
        # within 1e-9 relative) real positive, so results depend neither on
        # the start vector's phase nor on rounding among equal moduli
        modulus = np.abs(z)
        pivot = int(np.argmax(modulus >= (1.0 - 1e-9) * modulus.max()))
        z = z * (np.conj(z[pivot]) / abs(z[pivot]))
        z = z / np.linalg.norm(z)
        hz = herm @ z
        margin = float(np.real(np.conj(z) @ hz))
        residual = float(np.linalg.norm(hz - margin * z))
        if residual <= WITNESS_RESIDUAL_TOL * gamma._scale:
            break
    else:
        raise DegeneracyError(
            f"inverse iteration at lambda_min {lam:.3e} left residual "
            f"{residual:.3e} after {MAX_WITNESS_SOLVES} solves")
    eps = -lam
    skew_a, skew_b = (_skew(side.real, side.imag) for side in _side_split(z, gamma.n_a))
    min_skew = min(abs(skew_a), abs(skew_b))
    if not (margin < 0 and min_skew > SKEW_FLOOR_FACTOR):
        raise DegeneracyError(
            f"minimal eigenvector is not a usable witness (margin {margin:.3e}, "
            f"min skew {min_skew:.3e}, eps {eps:.3e})")
    z.flags.writeable = False
    return NptWitness(z=z, margin=margin, eps=eps, skew_a=skew_a, skew_b=skew_b)


def _canonical_pair(z_side: np.ndarray, skew: float):
    """(f1, f2) spanning (Re z, Im z) of one side, skew = Re(z)^T J Im(z)."""
    zr = z_side.real
    zi = z_side.imag
    nrm = float(np.linalg.norm(zr))
    if nrm == 0.0 or skew == 0.0:
        raise ConcentrationError("witness side has vanishing real part or skew product")
    f1 = zr / nrm
    f2 = -zi * (nrm / skew)  # f1^T J f2 = -1
    return f1, f2


def concentrate(gamma: CorrelationMatrix, witness: NptWitness) -> Concentration:
    """Concentrate the witnessed entanglement into one mode pair.

    Per side, the kept canonical pair (f1, f2) spans (Re z, Im z); the kept
    pair's state is the projection F^T gamma F, F = f_a (+) f_b (see the
    module docstring).  The witness form value carries over, so the reduced
    two-mode state is NPT, and that is decided on it directly.  gamma must
    be physical (it is not re-checked).

    Raises ValueError for a witness whose length is not gamma.dim, and
    ConcentrationError when a side's pair is not canonical, the reduced
    matrix is not positive definite or the reduced state is PPT (is_npt's rule).
    """
    require_two_sides(gamma.partition, "concentration")
    if np.shape(witness.z) != (gamma.dim,):
        raise ValueError(f"witness length {np.size(witness.z)} is not the state "
                         f"dimension {gamma.dim}")
    # F = f_a (+) f_b: each side's pair is written straight into its block
    k = 2 * gamma.n_a
    F = np.zeros((gamma.dim, 4))
    blocks = (F[:k, :2], F[k:, 2:])
    sides = zip("AB", blocks, _side_split(np.asarray(witness.z), gamma.n_a),
                (witness.skew_a, witness.skew_b))
    for side, f, z, skew in sides:
        f[:, 0], f[:, 1] = _canonical_pair(z, skew)
        pairing = _skew(f[:, 0], f[:, 1])
        if not abs(pairing + 1.0) <= TOL_SYMPLECTIC:
            raise ConcentrationError(f"side {side} pair is not canonical: "
                                     f"f1^T J f2 = {pairing:.3e}, expected -1")
    f_a, f_b = (f.copy() for f in blocks)
    f_a.flags.writeable = f_b.flags.writeable = False
    try:
        gamma_red = CorrelationMatrix(entries=_sym(F.T @ gamma.entries @ F), partition=(1, 1))
    except ValueError as exc:
        raise ConcentrationError(f"reduced two-mode state: {exc}") from exc
    # congruence and reduction keep gamma physical: only NPT is left to check
    if not gamma_red._npt:
        raise ConcentrationError(
            f"reduced two-mode state is not NPT (margin {gamma_red._pt_margin:.3e})")
    return Concentration(f_a=f_a, f_b=f_b, gamma_1x1=gamma_red)


def _in_stage(stage: str, fn, *args, **kwargs):
    """Call fn, re-raising any DistillError as a PipelineStageError."""
    try:
        return fn(*args, **kwargs)
    except DistillError as exc:
        raise PipelineStageError(stage, exc) from exc


def witness_and_concentrate(gamma: CorrelationMatrix):
    """The witness and concentrate stages, for a state the caller has decided
    is NPT: the witness is solved for at the memoized lambda_min of gamma -
    i*Jtilde, which is not re-decided.  Returns (witness, concentration);
    raises PipelineStageError naming the stage that failed.
    """
    witness = _in_stage("witness", _witness, gamma)
    return witness, _in_stage("concentrate", concentrate, gamma, witness)


def symmetrize(gamma: CorrelationMatrix) -> SymmetrizationReport:
    """Make a 1x1 NPT state symmetric (n_a = n_b) by local operations.

    See the module docstring for the construction.  The inseparability
    residual (Wigner picture) shrinks by exactly the reported scale factor
    but stays positive, so the output is NPT; this is verified numerically
    together with the symmetry of the output.

    Raises ValueError unless gamma is 1x1, PreconditionError for non-NPT
    input and NumericsError if the beam-splitter angle formula degenerates
    (nonpositive denominator), which only happens on a measure-zero family
    at the physicality boundary.
    """
    require_two_mode(gamma.partition, "symmetrization")
    require_npt(gamma, "symmetrization")
    return _symmetrize(standard_form_transform(gamma).params)


def _symmetrize(p: StdFormParams) -> SymmetrizationReport:
    """symmetrize for the standard form p of a 1x1 state the caller has
    decided is NPT (the input is not re-decided; the output checks all run).
    p.companion() and w_out.companion() are the positive-definiteness checks of
    gamma_std and gamma_out: a NumericsError, a stage error, not Cholesky's ValueError."""
    w = p.companion()
    residual_in = check_inseparable(w).residual
    symmetric = abs(w.n_a - w.n_b) <= 1e-9
    # a side swap of a standard form only exchanges N_a and N_b
    swapped = not symmetric and w.n_a < w.n_b
    n_big, n_hot = (w.n_b, w.n_a) if swapped else (w.n_a, w.n_b)
    d_x = w.d_x
    if symmetric:
        tan2 = 0.0
    else:
        numerator = n_big ** 2 - n_hot ** 2
        # N_hot - D_x N_big with N = f n, D_x = 1/d_p: no cancellation
        n_lo, n_hi = (p.n_b, p.n_a) if swapped else (p.n_a, p.n_b)
        d_p = p.d_p
        denominator = (n_lo - n_hi / d_p) / math.sqrt(p.d_x * d_p)
        if denominator <= 0.0 or numerator <= 0.0:
            raise NumericsError(
                "beam-splitter angle formula degenerated "
                f"(numerator {numerator:.3e}, denominator {denominator:.3e}); "
                "the input sits on the physicality boundary")
        tan2 = numerator / denominator
    theta = math.atan(math.sqrt(tan2))
    c2 = 1.0 / (1.0 + tan2)
    s2 = 1.0 - c2
    c = math.sqrt(c2)
    nu = s2 * n_hot + c2

    # (x, p) diagonals of the output blocks A~, B~, C~
    a = ((c2 * n_big + s2 * d_x) / nu, (c2 * n_big + s2 * n_big * n_hot) / nu)
    b = (n_hot / nu, c2 * n_hot + s2)
    k = (c * w.k_x / nu, c * w.k_p)
    if swapped:
        a, b = b, a
    w_out = StdFormParams.of_diagonal_blocks(a, b, k)
    scale = 1.0 / (n_hot * tan2 + 1.0)
    residual_out = check_inseparable(w_out).residual
    expected = residual_in * scale
    if abs(residual_out - expected) > SCALING_REL_TOL * abs(expected) + 1e-14:
        raise NumericsError(
            f"inseparability residual scaling violated: got {residual_out:.6e}, "
            f"expected {expected:.6e}")

    # J^T (.)^{-1} J: the inverses of the x and p 2x2 blocks, exchanged by J
    det_x, det_p = a[0] * b[0] - k[0] ** 2, a[1] * b[1] - k[1] ** 2
    g_out = diagonal_block_entries((b[1] / det_p, b[0] / det_x), (a[1] / det_p, a[0] / det_x),
                                   (-k[1] / det_p, -k[0] / det_x))
    params_out = w_out.companion()
    if not is_symmetric(params_out):
        raise NumericsError(
            f"symmetrization output is not symmetric within {SYMMETRY_TOL:.0e}: "
            f"n_a={params_out.n_a!r}, n_b={params_out.n_b!r}")
    # Simon's criterion in its symmetric form, (n - k_x)(n + k_p) < 1: linear
    # in the distance to the PPT boundary, where the general residual is
    # quadratic (16 r^2 for tmss_cm(r)), too small for TOL_VERDICT on
    # certifiable near-boundary states; rc_witness reports the same number
    if not params_out.rc_limit < -TOL_VERDICT:
        raise NumericsError(f"symmetrization lost NPT-ness (rc_limit {params_out.rc_limit:.3e})")
    return SymmetrizationReport(
        theta=theta, swapped_sides=swapped, gamma_out_entries=g_out,
        insep_residual_in=residual_in, insep_residual_out=residual_out,
        scale_factor=scale, output_params=params_out)


def distill_pipeline(gamma: CorrelationMatrix, r_max: int = 8) -> PipelineReport:
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

    Any stage failure raises PipelineStageError naming the stage; the
    rc_witness stage fails when the witness is not negative at r = r_max.
    Raises ValueError unless r_max is an integer (not a bool) with
    1 <= r_max <= MAX_PROBE_R (350).
    """
    if not _is_integer(r_max):
        raise ValueError(f"r_max must be an integer, got {r_max!r}")
    if not 1 <= r_max <= MAX_PROBE_R:
        raise ValueError(f"r_max must be >= 1 and <= {MAX_PROBE_R}, got {r_max}")
    npt_verdict = _in_stage("npt_check", is_npt, gamma)
    if not npt_verdict.npt:
        return PipelineReport(input_partition=gamma.partition,
                              verdict=VERDICT_NOT_DISTILLABLE, npt=npt_verdict)
    if abs(npt_verdict.raw_margin) < BOUNDARY_BAND:
        return PipelineReport(input_partition=gamma.partition,
                              verdict=VERDICT_BOUNDARY, npt=npt_verdict)

    witness, conc = witness_and_concentrate(gamma)

    std = _in_stage("standard_form", standard_form_transform, conc.gamma_1x1)
    # the concentrate stage decided gamma_1x1 is NPT, and the standard form
    # is a local congruence of it, so symmetrize's input is not re-decided
    sym = _in_stage("symmetrize", _symmetrize, std.params)

    def rc_stage():
        # symmetrize decided its output's rc_limit < 0: only the value is left
        sweep = rc_sweep(sym.output_params, range(1, r_max + 1))
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
        concentration=conc,
        standard_form=std,
        symmetrization=sym,
        rc_sweep=sweep,
    )
