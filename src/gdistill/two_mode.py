"""Standard form and separability analysis of 1x1-mode states.

Every two-mode correlation matrix gamma = [[A, C], [C^T, B]] can be brought
by local symplectic transformations to the standard form

    A -> n_a * I,   B -> n_b * I,   C -> diag(k_x, k_p),

with the convention k_x >= |k_p| and sign(k_p) = sign(det C).  The four
numbers are fixed by the local invariants det A, det B, det C and det gamma:

    n_a = sqrt(det A),  n_b = sqrt(det B),  k_x k_p = det C,
    (n_a n_b - k_x^2)(n_a n_b - k_p^2) = det gamma,

so k_x^2 and k_p^2 are the roots of t^2 - sigma t + (det C)^2 with
sigma = ((n_a n_b)^2 + (det C)^2 - det gamma) / (n_a n_b).

In these parameters a matrix is a physical state iff

    (n_a n_b - k_x^2)(n_a n_b - k_p^2) + 1 >= n_a^2 + n_b^2 + 2 k_x k_p
    n_a n_b - k_x^2 >= 1,

and a physical state is inseparable (equivalently NPT) iff

    (n_a n_b - k_x^2)(n_a n_b - k_p^2) + 1 < n_a^2 + n_b^2 - 2 k_x k_p.

Here D_x = n_a n_b - k_x^2 and D_p = n_a n_b - k_p^2 (StdFormParams.d_x and
.d_p) are the determinants of the x and p blocks.  Both sides of these
inequalities are polynomial in the block determinants, so the residuals
reported here are local-transformation invariants.

The same parameter extraction applied to the Wigner-form companion matrix
J^T gamma^{-1} J yields the Wigner-picture parameters: for physical states
they satisfy the first (physicality) inequality in the same direction and
the second with the direction reversed (n_a n_b - k_x^2 <= 1).  The
extraction routines therefore accept any positive definite input and do not
require physicality.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .states import TOL_VERDICT, CorrelationMatrix
from .symplectic import SymplecticMatrix

# relative slack when clamping tiny negative discriminants / roots that are
# exactly zero in exact arithmetic
_CLAMP_REL = 1e-10
SYMMETRY_TOL = 1e-8         # |n_a - n_b| allowed in a symmetric state's parameters
MAX_PROBE_R = 350           # largest probe squeezing rc_sweep evaluates: exp(-2r) stays normal


def diagonal_block_entries(a, b, c) -> np.ndarray:
    """The read-only 4x4 [[diag(a), diag(c)], [diag(c), diag(b)]], pairs in (x, p)."""
    (ax, ap), (bx, bp), (cx, cp) = a, b, c
    g = np.array([[ax, 0.0, cx, 0.0], [0.0, ap, 0.0, cp], [cx, 0.0, bx, 0.0], [0.0, cp, 0.0, bp]])
    g.flags.writeable = False
    return g


@dataclass(frozen=True)
class StdFormParams:
    """Standard-form parameters of a two-mode correlation matrix.

    For physical states n_a, n_b >= 1; parameters of Wigner-form companions
    are representable too, so no such bound is enforced here.
    """

    n_a: float
    n_b: float
    k_x: float
    k_p: float

    @property
    def d_x(self) -> float:
        """D_x = n_a n_b - k_x^2, the determinant of the x block."""
        return self.n_a * self.n_b - self.k_x ** 2

    @property
    def d_p(self) -> float:
        """D_p = n_a n_b - k_p^2, the determinant of the p block."""
        return self.n_a * self.n_b - self.k_p ** 2

    @property
    def rc_limit(self) -> float:
        """(n - k_x)(n + k_p) - 1, n = sqrt(n_a n_b), the witness's large-squeezing
        limit; < 0 exactly when a physical symmetric state is NPT."""
        n = math.sqrt(self.n_a * self.n_b)
        return (n - self.k_x) * (n + self.k_p) - 1.0

    def entries(self) -> np.ndarray:
        """The read-only 4x4 [[n_a I, K], [K, n_b I]], K = diag(k_x, k_p)."""
        return diagonal_block_entries((self.n_a,) * 2, (self.n_b,) * 2, (self.k_x, self.k_p))

    def matrix(self) -> CorrelationMatrix:
        """entries() as a CorrelationMatrix, validated by one Cholesky."""
        return CorrelationMatrix(entries=self.entries())

    def companion(self) -> "StdFormParams":
        """Standard-form parameters of the Wigner-form companion J^T gamma^{-1} J
        of self.matrix(): (n_b, n_a, k_x, k_p) / sqrt(D_x D_p).

        The inverse decouples into x and p 2x2 blocks, which J exchanges; a
        local squeeze, a quarter-turn and a sign flip bring it back to
        standard form (Serafini, Quantum Continuous Variables, 2017).  An
        involution.  Raises NumericsError unless self.matrix() is positive
        definite."""
        d_x, d_p = self.d_x, self.d_p
        if not (self.n_a > 0 and d_x > 0 and d_p > 0):
            raise NumericsError(f"no Wigner-form companion: {self} is not positive definite")
        f = 1.0 / math.sqrt(d_x * d_p)
        return StdFormParams(self.n_b * f, self.n_a * f, self.k_x * f, self.k_p * f)

    @classmethod
    def of_diagonal_blocks(cls, a, b, c) -> "StdFormParams":
        """Standard-form parameters of [[diag(a), diag(c)], [diag(c), diag(b)]]
        (pairs in (x, p) order, a and b positive): the local squeezes that
        equalize each diagonal block turn c into (c_x t, c_p / t) with
        t^4 = a_p b_p / (a_x b_x), and a quarter-turn and a sign flip put the
        larger magnitude in k_x."""
        t = (a[1] * b[1] / (a[0] * b[0])) ** 0.25
        u, v = c[0] * t, c[1] / t
        return cls(n_a=math.sqrt(a[0] * a[1]), n_b=math.sqrt(b[0] * b[1]),
                   k_x=max(abs(u), abs(v)), k_p=math.copysign(min(abs(u), abs(v)), u * v))


@dataclass(frozen=True)
class StandardForm:
    """A two-mode matrix gamma brought to standard form by local symplectics:
    gamma_std = params.matrix() = (s_a (+) s_b)^T gamma (s_a (+) s_b) within
    rounding, built and validated on first read (serializers read params)."""

    s_a: SymplecticMatrix
    s_b: SymplecticMatrix
    params: StdFormParams

    @functools.cached_property
    def gamma_std(self) -> CorrelationMatrix:
        return self.params.matrix()


@dataclass(frozen=True)
class TwoModePhysicality:
    physical: bool
    physicality_residual: float   # first inequality, LHS - RHS (>= 0 when physical)
    correlation_residual: float   # n_a n_b - k_x^2 - 1 (>= 0 when physical)


@dataclass(frozen=True)
class InseparabilityCheck:
    inseparable: bool
    residual: float               # RHS - LHS of the strict inequality (> 0 when inseparable)


@dataclass(frozen=True)
class RcWitnessResult:
    """Reduction-criterion witness evaluated against a two-mode squeezed probe.

    value < 0 certifies distillability directly.  asymptotic_value is the
    large-squeezing limit StdFormParams.rc_limit (meaningful for symmetric
    states, where n_a = n_b = n).
    """

    r: float
    value: float
    asymptotic_value: float


def require_two_mode(partition: tuple[int, int], what: str):
    """ValueError naming the partition unless it is (1, 1)."""
    if partition != (1, 1):
        raise ValueError(f"{what} needs a 1x1 state, got partition {partition}")


def det_invariants(gamma: CorrelationMatrix) -> tuple[float, float, float, float]:
    """(det A, det B, det C, det gamma) - invariant under local symplectics."""
    require_two_mode(gamma.partition, "determinant extraction")
    g = gamma.entries
    return (
        float(np.linalg.det(g[:2, :2])),
        float(np.linalg.det(g[2:, 2:])),
        float(np.linalg.det(g[:2, 2:])),
        float(np.linalg.det(g)),
    )


def _clamped_sqrt(x: float, scale: float, what: str) -> float:
    if x < 0:
        if x < -_CLAMP_REL * max(scale, 1.0):
            raise NumericsError(f"{what} came out negative beyond tolerance: {x:.3e}")
        x = 0.0
    return float(np.sqrt(x))


def standard_form_params(gamma: CorrelationMatrix) -> StdFormParams:
    """Extract (n_a, n_b, k_x, k_p) from the block-determinant invariants.

    The invariant route, independent of standard_form_transform: at the
    double root k_x = |k_p| (squeezed-thermal cores) the discriminant
    vanishes and k_x, k_p carry about sqrt(machine epsilon) relative error.
    Accepts any positive definite two-mode matrix (Wigner-form companions
    included).  Raises NumericsError if the root extraction turns up complex
    values beyond rounding tolerance (inconsistent invariants).
    """
    det_a, det_b, det_c, det_g = det_invariants(gamma)
    n_a = float(np.sqrt(det_a))
    n_b = float(np.sqrt(det_b))
    m = n_a * n_b
    sigma = (m * m + det_c * det_c - det_g) / m
    disc = sigma * sigma - 4.0 * det_c * det_c
    root = _clamped_sqrt(disc, sigma * sigma, "standard-form discriminant")
    kx2 = 0.5 * (sigma + root)
    kp2 = 0.5 * (sigma - root)
    k_x = _clamped_sqrt(kx2, abs(sigma), "k_x^2")
    k_p = float(np.sign(det_c)) * _clamped_sqrt(kp2, abs(sigma), "k_p^2")
    return StdFormParams(n_a=n_a, n_b=n_b, k_x=k_x, k_p=k_p)


def _equalizer(M: np.ndarray) -> tuple[float, np.ndarray]:
    """(n, sqrt(n) M^{-1/2}) for a 2x2 symmetric positive definite M, n =
    sqrt(det M): the symmetric determinant-1 congruence to n * I.  With
    sqrt(M) = (M + n I) / sqrt(tr M + 2n), it is adj(M + n I) /
    sqrt(n (tr M + 2n)), which is exactly I when M = n I."""
    (p, q), (_, r) = M.tolist()
    det = p * r - q * q
    if not (p > 0 and det > 0):
        raise ValueError("diagonal block is not positive definite")
    n = math.sqrt(det)
    adj = np.array([[r + n, -q], [-q, p + n]])
    return n, adj / math.sqrt(n * (p + r + 2.0 * n))


def _rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def standard_form_transform(gamma: CorrelationMatrix) -> StandardForm:
    """Construct local symplectics (S_A, S_B) bringing gamma to standard form.

    2x2 algebra, no factorization.  The A and B blocks are equalized by the
    symmetric determinant-1 congruences M = sqrt(n) * block^{-1/2}, n =
    sqrt(det block), in closed form (_equalizer).  The equalized cross block
    C1 = [[a, b], [c, d]] splits as rho_1 R(a_2) + rho_2 R(a_1) Z, a scaled
    rotation plus a scaled reflection, Z = diag(1, -1), with (E, F, G, H) =
    ((a + d)/2, (a - d)/2, (c + b)/2, (c - b)/2), rho_1 = hypot(E, H),
    a_2 = atan2(H, E), rho_2 = hypot(F, G), a_1 = atan2(G, F).  Since
    Z R(t) = R(-t) Z, the proper rotations R((a_1 + a_2)/2) on side A and
    R((a_1 - a_2)/2) on side B take C1 to diag(k_x, k_p) = diag(rho_1 +
    rho_2, rho_1 - rho_2): k_x >= |k_p|, and k_p carries the sign of
    det C = det C1 = rho_1^2 - rho_2^2.  params holds the two n and (k_x,
    k_p); a standard-form input returns its own entries.  Degenerate cross
    blocks are fine: any rotation pair works.
    """
    require_two_mode(gamma.partition, "standard form")
    m = gamma.entries
    n_a, MA = _equalizer(m[:2, :2])
    n_b, MB = _equalizer(m[2:, 2:])
    (a, b), (c, d) = (MA @ m[:2, 2:] @ MB).tolist()
    e, f, g, h = 0.5 * (a + d), 0.5 * (a - d), 0.5 * (c + b), 0.5 * (c - b)
    rho_1, rho_2 = math.hypot(e, h), math.hypot(f, g)
    a1, a2 = math.atan2(g, f), math.atan2(h, e)
    params = StdFormParams(n_a=n_a, n_b=n_b, k_x=rho_1 + rho_2, k_p=rho_1 - rho_2)
    return StandardForm(SymplecticMatrix(entries=MA @ _rotation(0.5 * (a1 + a2))),
                        SymplecticMatrix(entries=MB @ _rotation(0.5 * (a1 - a2))), params)


def check_physical(p: StdFormParams) -> TwoModePhysicality:
    """Evaluate both standard-form physicality inequalities."""
    physicality_residual = (p.d_x * p.d_p + 1.0) - (p.n_a ** 2 + p.n_b ** 2 + 2.0 * p.k_x * p.k_p)
    correlation_residual = p.d_x - 1.0
    return TwoModePhysicality(
        physical=bool(physicality_residual >= -TOL_VERDICT
                      and correlation_residual >= -TOL_VERDICT),
        physicality_residual=float(physicality_residual),
        correlation_residual=float(correlation_residual),
    )


def check_inseparable(p: StdFormParams) -> InseparabilityCheck:
    """Inseparability of a physical two-mode state from its parameters.

    The residual is n_a^2 + n_b^2 - 2 k_x k_p - (n_a n_b - k_x^2)(n_a n_b -
    k_p^2) - 1; strictly positive residual means inseparable (= NPT for two
    -mode states).  Inseparable states always have k_x k_p < 0.
    """
    residual = (p.n_a ** 2 + p.n_b ** 2 - 2.0 * p.k_x * p.k_p) - (p.d_x * p.d_p + 1.0)
    return InseparabilityCheck(inseparable=bool(residual > TOL_VERDICT),
                               residual=float(residual))


def is_symmetric(p: StdFormParams) -> bool:
    """Symmetric means equal local purities: n_a = n_b within SYMMETRY_TOL."""
    return bool(abs(p.n_a - p.n_b) <= SYMMETRY_TOL)


def check_symmetric_inseparable(n: float, k_x: float, k_p: float) -> InseparabilityCheck:
    """Inseparability condition specialized to symmetric states:

        |n^2 - k_x k_p - 1| < n (k_x - k_p).

    Agrees with check_inseparable at n_a = n_b = n.  A physical state has
    n^2 - k_x k_p >= 1, so the residual is -StdFormParams.rc_limit, which
    symmetrize decides on; this form is the reference it is tested against.
    """
    residual = n * (k_x - k_p) - abs(n * n - k_x * k_p - 1.0)
    return InseparabilityCheck(inseparable=bool(residual > TOL_VERDICT),
                               residual=float(residual))


def tmss_cm(r: float) -> CorrelationMatrix:
    """Two-mode squeezed vacuum with squeezing parameter r.

    Standard-form parameters are n_a = n_b = cosh(2r), k_x = -k_p =
    sinh(2r); the state is pure for every r and NPT for every r > 0.
    """
    if r < 0:
        raise ValueError(f"squeezing parameter must be >= 0, got {r}")
    ch, sh = np.cosh(2.0 * r), np.sinh(2.0 * r)
    return StdFormParams(n_a=ch, n_b=ch, k_x=sh, k_p=-sh).matrix()


def rc_value(gamma_rho: CorrelationMatrix, r: float) -> RcWitnessResult:
    """Reduction-criterion witness value against a squeezed probe at r.

    For a state rho with correlation matrix gamma_rho (displacements zero)
    and the pure probe psi = two-mode squeezed vacuum tmss_cm(r),

        value = 2 / sqrt(det(A_rho + A_psi)) - 4 / sqrt(det(gamma_rho + gamma_psi)),

    which is the expectation of (tr_B(rho) (x) 1 - rho) in the probe state up
    to a positive factor; a negative value certifies distillability.  The
    determinants come from the Gaussian overlap formula
    tr(rho_1 rho_2) = 2^n / sqrt(det(gamma_1 + gamma_2)).

    For any two-mode gamma_rho; the reference rc_sweep is tested against.
    det(gamma_rho + gamma_psi) cancels cosh^2(2r) - sinh^2(2r) = 1 at the
    scale of cosh^2(2r): up to 1e-3 relative error at r = 8 on squeezed
    states, where rc_sweep on standard-form parameters keeps about 1e-12.
    """
    require_two_mode(gamma_rho.partition, "reduction-criterion witness")
    if r <= 0:
        raise ValueError(f"probe squeezing must be > 0, got {r}")
    ch, sh = np.cosh(2.0 * r), np.sinh(2.0 * r)
    g = gamma_rho.entries + StdFormParams(n_a=ch, n_b=ch, k_x=sh, k_p=-sh).entries()
    value = 2.0 / np.sqrt(np.linalg.det(g[:2, :2])) - 4.0 / np.sqrt(np.linalg.det(g))
    return RcWitnessResult(r=float(r), value=float(value),
                           asymptotic_value=standard_form_params(gamma_rho).rc_limit)


@functools.lru_cache(maxsize=128)
def _probe_factors(rs: tuple) -> tuple[tuple[float, float, float], ...]:
    """(u, u^2, (1 + u^2) / 2) with u = exp(-2r) for each probe squeezing r in
    rs, the part of rc_sweep that does not depend on the state.  Raises
    ValueError unless 0 < r <= MAX_PROBE_R, on every call: a refused tuple is
    not cached."""
    for r in rs:
        if not 0 < r <= MAX_PROBE_R:
            raise ValueError(f"probe squeezing must be > 0 and <= {MAX_PROBE_R}, got {r}")
    return tuple((u, u * u, 0.5 * (1.0 + u * u))
                 for u in np.exp(-2.0 * np.array(rs, dtype=float)).tolist())


def rc_sweep(params: StdFormParams, rs) -> tuple[RcWitnessResult, ...]:
    """rc_value of params.matrix() at every probe squeezing in rs, in order.

    The x and p quadratures decouple, so with u = exp(-2r), s = n_a + n_b
    and params.d_x, params.d_p,

        value = u (2 / (n_a u + (1 + u^2) / 2) - 4 / sqrt(X_u P_u)),
        X_u = (D_x + 1) u + ((s - 2 k_x) + (s + 2 k_x) u^2) / 2,
        P_u = (D_p + 1) u + ((s + 2 k_p) + (s - 2 k_p) u^2) / 2,

    which is 2 / (n_a + cosh 2r) - 4 / sqrt(X P), X = X_u / u, P = P_u / u,
    with cosh^2 - sinh^2 = 1 exact: the values match exact rational
    arithmetic to about 1e-12 relative at r = 1..8.  In u nothing overflows
    (X P does from r = 178), so the sign stays right up to MAX_PROBE_R.
    Every point's asymptotic value is params.rc_limit, the number symmetrize
    decided its output NPT on.  Raises ValueError unless 0 < r <= MAX_PROBE_R.

    The probes are validated, and u, u^2 and (1 + u^2) / 2 computed by one
    np.exp, once per distinct tuple rs (of hashable numbers).  Each value is
    then evaluated in Python floats with the operations, and in the order, of
    the elementwise vector form, so it is the same float bit for bit.  params
    must be those of a positive definite matrix, as params.matrix() requires:
    otherwise X_u P_u or the first denominator can reach zero or below, where
    the float evaluation raises (ZeroDivisionError, or ValueError from
    math.sqrt) and the vector form returned nan or inf.
    """
    rs = tuple(rs)
    probes = _probe_factors(rs)
    p = params
    s = p.n_a + p.n_b
    n_a, dx1, dp1 = float(p.n_a), float(p.d_x + 1.0), float(p.d_p + 1.0)
    x0, x2 = float(s - 2.0 * p.k_x), float(s + 2.0 * p.k_x)
    q0, q2 = float(s + 2.0 * p.k_p), float(s - 2.0 * p.k_p)
    limit = p.rc_limit
    results = []
    for r, (u, u2, h) in zip(rs, probes):
        xq = (dx1 * u + 0.5 * (x0 + x2 * u2)) * (dp1 * u + 0.5 * (q0 + q2 * u2))
        value = u * (2.0 / (n_a * u + h) - 4.0 / math.sqrt(xq))
        results.append(RcWitnessResult(r=float(r), value=value, asymptotic_value=limit))
    return tuple(results)
