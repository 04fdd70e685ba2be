"""Constructive distillability pipeline for bipartite Gaussian states.

Distillability of an N x M-mode Gaussian state is equivalent to a
non-positive partial transpose, and the equivalence is constructive: the
chain implemented here turns any decisively NPT state into a symmetric NPT
1x1-mode state on which a reduction-criterion witness can be evaluated.

witness      An NPT state has a complex vector z with z^dag (gamma -
             i*Jtilde) z <= -eps < 0: the minimal eigenvector of the
             Hermitian matrix gamma - i*Jtilde.  Its skew products
             s = Re(z)^T J Im(z) per side are bounded away from zero.  For
             unit z, x = Re z, y = Im z, q = x^T gamma x + y^T gamma y,
             m = z^dag (gamma - i*Jtilde) z = q + 2 (s_A - s_B), while
             physicality (gamma - iJ >= -tol) applied to z and conj(z) gives
             q +- 2 (s_A + s_B) >= -tol; so for m < 0, s_B >= (|m| - tol)/4
             and s_A <= -(|m| - tol)/4.  The raw eigenvector (m = -eps)
             clears the skew floor 1e-8 once eps > 4e-8 + tol, which the
             boundary band 1e-7 guarantees.  This bound is why there is no
             retry: the eigenvector is the witness, and a witness below the
             floor or a failed concentration is a stage failure.

concentrate  Per side, f1 = Re(z)/|Re(z)| and f2 = -Im(z)*|Re(z)|/skew form
             a canonical pair (f1^T J f2 = -1) spanning the same plane as
             (Re z, Im z).  Completing each pair to a symplectic basis gives
             local transformations S_A, S_B after which z is supported on
             the first mode of each side only, so tracing out every other
             mode leaves a two-mode state that inherits the witness: it is
             NPT.  The kept mode pair depends only on the first canonical
             pairs, so the reduced state is the projection
             gamma_1x1 = F^T gamma F, F = S_A[:, :2] (+) S_B[:, :2] (2n x 4),
             with no 2n x 2n congruence.  S_A and S_B are still completed:
             the leakage guard solves with them, and the report carries them.

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
             The blocks are diagonal, so gamma_out, its standard form and
             every postcondition are 2x2 algebra on these parameters.

The final symmetric state satisfies (n - k_x)(n + k_p) < 1 in standard-form
parameters, which makes the reduction-criterion witness negative for large
probe squeezing: distillability is certified by an explicit protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConcentrationError, DegeneracyError, DistillError,
                     NumericsError, PreconditionError)
from .states import TOL_VERDICT, CorrelationMatrix, NptVerdict, is_npt, pt_form
from .symplectic import (SymplecticMatrix, direct_sum,
                         extend_to_symplectic_basis, form_matrix)
from .two_mode import (MAX_PROBE_R, SYMMETRY_TOL, RcWitnessResult, StandardForm,
                       StdFormParams, check_inseparable,
                       check_symmetric_inseparable, is_symmetric, rc_sweep,
                       standard_form_transform)

BOUNDARY_BAND = 1e-7        # |NPT margin| below this: too close to decide constructively
SKEW_FLOOR_FACTOR = 1e-8    # minimum |Re(z)^T J Im(z)| per side, times |z|^2
SUPPORT_LEAKAGE_LIMIT = 1e-6
# the witness skew bound (module docstring) holds for every eps outside the
# band only when tol is below this, 6e-8
TOL_LIMIT = BOUNDARY_BAND - 4 * SKEW_FLOOR_FACTOR
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
    eps: float        # |minimal eigenvalue| of gamma - i*Jtilde
    skew_a: float     # Re(z_A)^T J Im(z_A)
    skew_b: float


@dataclass(frozen=True)
class Concentration:
    """concentrate's result: the local symplectics, the kept pair's state
    gamma_1x1 and its NPT margin, lambda_min(gamma_1x1 - i*Jtilde) < -tol."""

    s_a: SymplecticMatrix
    s_b: SymplecticMatrix
    gamma_1x1: CorrelationMatrix
    npt_margin: float


@dataclass(frozen=True)
class SymmetrizationReport:
    theta: float
    swapped_sides: bool
    gamma_out: CorrelationMatrix
    insep_residual_in: float    # Wigner-picture inseparability residual of the input
    insep_residual_out: float
    scale_factor: float         # residual_out / residual_in = (N_hot tan^2 theta + 1)^{-1}
    output_params: StdFormParams  # standard-form parameters of gamma_out


@dataclass(frozen=True)
class PipelineReport:
    input_partition: tuple[int, int]
    verdict: str                           # DISTILLABLE / NOT_DISTILLABLE / INCONCLUSIVE_BOUNDARY
    npt: NptVerdict
    witness: NptWitness | None = None
    concentration: Concentration | None = None
    standard_form: StandardForm | None = None
    symmetrization: SymmetrizationReport | None = None
    final_params: StdFormParams | None = None
    rc: RcWitnessResult | None = None
    rc_sweep: tuple[RcWitnessResult, ...] = ()


def _side_split(z: np.ndarray, n_a: int):
    return z[: 2 * n_a], z[2 * n_a :]


def _side_skews(z: np.ndarray, n_a: int, n_b: int) -> tuple[float, float]:
    za, zb = _side_split(z, n_a)
    ja, jb = form_matrix(n_a), form_matrix(n_b)
    return (
        float(za.real @ ja @ za.imag),
        float(zb.real @ jb @ zb.imag),
    )


def find_npt_witness(gamma: CorrelationMatrix, tol: float = TOL_VERDICT) -> NptWitness:
    """Find a unit vector z with z^dag (gamma - i*Jtilde) z < 0 and nonzero
    skew products Re(z)^T J Im(z) on both sides: the minimal eigenvector of
    gamma - i*Jtilde.

    Raises PreconditionError when the state is not NPT, and DegeneracyError
    when the form is not negative or a skew product does not clear 1e-8,
    which the bound in the module docstring excludes for physical gamma and
    eps > 4e-8 + tol.
    """
    verdict = is_npt(gamma, tol=tol)
    if not verdict.npt:
        raise PreconditionError(
            f"witness search requires an NPT state (margin {verdict.raw_margin:.3e})")
    return _witness(gamma)


def _witness(gamma: CorrelationMatrix) -> NptWitness:
    """The unit minimal eigenvector of gamma - i*Jtilde in canonical phase,
    checked for a negative form and skew products above the floor."""
    herm = gamma.entries - 1j * pt_form(gamma.n_a, gamma.n_b)
    w, V = np.linalg.eigh(herm)
    z = V[:, 0]
    # canonical phase: make the largest component real positive, so results
    # do not depend on the eigensolver's phase choice
    pivot = int(np.argmax(np.abs(z)))
    z = z * (np.conj(z[pivot]) / abs(z[pivot]))
    z = z / np.linalg.norm(z)
    eps = float(-w[0])
    margin = float(np.real(np.conj(z) @ herm @ z))
    skew_a, skew_b = _side_skews(z, gamma.n_a, gamma.n_b)
    min_skew = min(abs(skew_a), abs(skew_b))
    if not (margin < 0 and min_skew > SKEW_FLOOR_FACTOR):
        raise DegeneracyError(
            f"minimal eigenvector is not a usable witness (margin {margin:.3e}, "
            f"min skew {min_skew:.3e}, eps {eps:.3e})")
    z.flags.writeable = False
    return NptWitness(z=z, margin=margin, eps=eps, skew_a=skew_a, skew_b=skew_b)


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
                tol: float = TOL_VERDICT) -> Concentration:
    """Concentrate the witnessed entanglement into one mode pair.

    Builds local symplectic bases S_A, S_B whose first canonical pairs span
    (Re z, Im z) on each side; the kept pair's state is the projection
    F^T gamma F, F = S_A[:, :2] (+) S_B[:, :2], and the full bases serve the
    leakage guard and the report (see the module docstring).  The witness
    form value carries over, so the reduced two-mode state is NPT.  gamma
    must be physical (it is not re-checked).

    Raises ConcentrationError when the basis extension fails, witness
    support leaks beyond the kept modes (> 1e-6) or the reduced state comes
    out PPT.
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
    z_hat = np.concatenate([np.linalg.solve(sa.entries, za),
                            np.linalg.solve(sb.entries, zb)])
    leak = max(
        float(np.abs(z_hat[2 : 2 * n_a]).max(initial=0.0)),
        float(np.abs(z_hat[2 * n_a + 2 :]).max(initial=0.0)),
    )
    if leak > SUPPORT_LEAKAGE_LIMIT:
        raise ConcentrationError(
            f"witness support leaked {leak:.3e} beyond the first mode pair")
    F = direct_sum(sa.entries[:, :2], sb.entries[:, :2])
    gamma_red = CorrelationMatrix(entries=F.T @ gamma.entries @ F, partition=(1, 1))
    # congruence and reduction keep gamma physical: only NPT is left to check
    raw = float(np.linalg.eigvalsh(gamma_red.entries - 1j * pt_form(1, 1))[0])
    if not raw < -tol:
        raise ConcentrationError(
            f"reduced two-mode state is not NPT (margin {raw:.3e})")
    return Concentration(s_a=sa, s_b=sb, gamma_1x1=gamma_red, npt_margin=raw)


def _in_stage(stage: str, fn, *args, **kwargs):
    """Call fn, re-raising any DistillError as a PipelineStageError."""
    try:
        return fn(*args, **kwargs)
    except DistillError as exc:
        raise PipelineStageError(stage, exc) from exc


def witness_and_concentrate(gamma: CorrelationMatrix, tol: float = TOL_VERDICT):
    """The witness and concentrate stages, for a state the caller has decided
    is NPT: gamma - i*Jtilde is eigensolved once, not re-decided.  Returns
    (witness, concentration); raises PipelineStageError naming the stage
    that failed.
    """
    witness = _in_stage("witness", _witness, gamma)
    return witness, _in_stage("concentrate", concentrate, gamma, witness, tol=tol)


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
    return _symmetrize(standard_form_transform(gamma).params, tol)


def _symmetrize(p: StdFormParams, tol: float) -> SymmetrizationReport:
    """symmetrize for the standard form p of a 1x1 state the caller has
    decided is NPT (the input is not re-decided; the output checks all run)."""
    w = p.companion()
    residual_in = check_inseparable(w).residual
    symmetric = abs(w.n_a - w.n_b) <= 1e-9
    # a side swap of a standard form only exchanges N_a and N_b
    swapped = not symmetric and w.n_a < w.n_b
    n_big, n_hot = (w.n_b, w.n_a) if swapped else (w.n_a, w.n_b)
    d_x = n_big * n_hot - w.k_x ** 2
    if symmetric:
        tan2 = 0.0
    else:
        numerator = n_big ** 2 - n_hot ** 2
        # N_hot - D_x N_big with N = f n, D_x = 1/d_p: no cancellation
        n_lo, n_hi = (p.n_b, p.n_a) if swapped else (p.n_a, p.n_b)
        m = p.n_a * p.n_b
        d_p = m - p.k_p ** 2
        denominator = (n_lo - n_hi / d_p) / math.sqrt((m - p.k_x ** 2) * d_p)
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
    gamma_out = CorrelationMatrix.from_blocks(
        np.diag([b[1] / det_p, b[0] / det_x]), np.diag([a[1] / det_p, a[0] / det_x]),
        np.diag([-k[1] / det_p, -k[0] / det_x]))
    params_out = w_out.companion()
    if not is_symmetric(params_out):
        raise NumericsError(
            f"symmetrization output is not symmetric within {SYMMETRY_TOL:.0e}: "
            f"n_a={params_out.n_a!r}, n_b={params_out.n_b!r}")
    # the symmetric form of Simon's criterion: its residual is linear in the
    # distance to the PPT boundary, the general one quadratic (16 r^2 for
    # tmss_cm(r)), too small for tol on certifiable near-boundary states
    out_check = check_symmetric_inseparable(
        math.sqrt(params_out.n_a * params_out.n_b), params_out.k_x, params_out.k_p, tol)
    if not out_check.inseparable:
        raise NumericsError(
            f"symmetrization lost NPT-ness (residual {out_check.residual:.3e})")
    return SymmetrizationReport(
        theta=theta, swapped_sides=swapped, gamma_out=gamma_out,
        insep_residual_in=residual_in, insep_residual_out=residual_out,
        scale_factor=scale, output_params=params_out)


def distill_pipeline(gamma: CorrelationMatrix, r_max: int = 8,
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

    Any stage failure raises PipelineStageError naming the stage; the
    rc_witness stage fails when the witness is not negative at r = r_max.
    Raises ValueError unless 1 <= r_max <= MAX_PROBE_R (350).
    """
    if not 1 <= r_max <= MAX_PROBE_R:
        raise ValueError(f"r_max must be >= 1 and <= {MAX_PROBE_R}, got {r_max}")
    npt_verdict = _in_stage("npt_check", is_npt, gamma, tol=tol)
    if not npt_verdict.npt:
        return PipelineReport(input_partition=gamma.partition,
                              verdict=VERDICT_NOT_DISTILLABLE, npt=npt_verdict)
    if abs(npt_verdict.raw_margin) < BOUNDARY_BAND:
        return PipelineReport(input_partition=gamma.partition,
                              verdict=VERDICT_BOUNDARY, npt=npt_verdict)

    witness, conc = witness_and_concentrate(gamma, tol=tol)

    std = _in_stage("standard_form", standard_form_transform, conc.gamma_1x1)
    # the concentrate stage decided gamma_1x1 is NPT, and the standard form
    # is a local congruence of it, so symmetrize's input is not re-decided
    sym = _in_stage("symmetrize", _symmetrize, std.params, tol)
    final = sym.output_params

    def rc_stage():
        sweep = rc_sweep(final, range(1, int(r_max) + 1))
        limit = sweep[-1].asymptotic_value
        if limit >= tol:
            raise NumericsError(
                f"symmetric NPT output violates (n - k_x)(n + k_p) < 1: {limit:.3e}")
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
        final_params=final,
        rc=sweep[-1],
        rc_sweep=sweep,
    )
