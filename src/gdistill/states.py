"""Correlation matrices of bipartite Gaussian states and the operations that
decide their physicality and partial-transpose properties.

Conventions
-----------
A state of N + M modes (N on side A, M on side B) is described by the
correlation matrix gamma appearing in its characteristic function

    chi(x) = exp(-(1/4) x^T gamma x - i d^T x),

with coordinates interleaved as (q_1, p_1, ..., q_{N+M}, p_{N+M}) and side A
occupying the first N modes.  The vacuum has gamma = identity.  A symmetric
positive definite gamma describes a physical state exactly when the
Hermitian matrix gamma - iJ is positive semidefinite, equivalently when
every symplectic eigenvalue is >= 1.  Physicality is decided as
gamma - iJ >= 0: the margin is the smallest eigenvalue of gamma - iJ.  The
symplectic spectrum is reported alongside but takes no part in the verdict;
its rounding error grows with cond(gamma), while the margin's stays at
machine precision times |gamma|.  In exact arithmetic the verdicts agree:
by Williamson, gamma - iJ = S^T (D - iJ) S with S symplectic, and by
Sylvester's law of inertia it has as many negative eigenvalues as gamma has
symplectic eigenvalues below 1 (each mode of D - iJ has eigenvalues nu +- 1);
likewise gamma - i*Jtilde and the partial transpose's spectrum.  The fuzz
invariant physicality_criteria_agree checks the agreement on samples.

Partial transposition on side B flips the sign of every B-side momentum:
gamma -> Lambda gamma Lambda with Lambda = diag(1,...,1, 1,-1,...,1,-1).
The state has non-positive partial transpose (NPT) exactly when the
transposed matrix fails the physicality condition, i.e. when the Hermitian
matrix gamma - i*Jtilde (Jtilde = Lambda J Lambda) has a negative eigenvalue.
For bipartite Gaussian states NPT is equivalent to distillability, which is
what the rest of the package exploits constructively.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import MeasurementError, NumericsError, PreconditionError
from .symplectic import (direct_sum, form_matrix, spectrum_from_eigh,
                         symplectic_eigenvalues)

TOL_VERDICT = 1e-9          # default tolerance for physicality / NPT verdicts
COND_LIMIT = 1e12           # refuse to decide or invert beyond this condition number
WIGNER_INVOLUTION_TOL = 1e-10
PURITY_TOL = 1e-8
QVAR_FLOOR = 1e-12          # degenerate-measurement guard


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric positive definite correlation matrix with an A|B partition.

    ``entries`` is the 2(n_a+n_b) x 2(n_a+n_b) matrix; ``partition`` is
    (n_a, n_b) with side A first.  Finiteness, symmetry and positive
    definiteness are checked on construction and the stored array is made
    read-only.  Positive definiteness does not imply physicality: partial
    transposes of NPT states and Wigner-form companions are representable on
    purpose.
    """

    entries: np.ndarray = field(repr=False)
    partition: tuple[int, int] = (1, 1)

    def __post_init__(self):
        n_a, n_b = self.partition
        if n_a < 0 or n_b < 0 or n_a + n_b < 1:
            raise ValueError(f"bad partition {self.partition}")
        g = np.array(self.entries, dtype=float)
        dim = 2 * (n_a + n_b)
        if g.shape != (dim, dim):
            raise ValueError(
                f"entries shape {g.shape} does not match partition {self.partition}")
        if not np.isfinite(g).all():
            raise ValueError("correlation matrix entries must be finite")
        scale = max(1.0, float(np.abs(g).max()))
        if np.abs(g - g.T).max() > 1e-8 * scale:
            raise ValueError("correlation matrix must be symmetric")
        g = _sym(g)
        w_min = np.linalg.eigvalsh(g)[0]
        if w_min <= 0:
            raise ValueError(
                f"correlation matrix must be positive definite (min eigenvalue {w_min:.3e})")
        g.flags.writeable = False
        object.__setattr__(self, "entries", g)
        object.__setattr__(self, "partition", (int(n_a), int(n_b)))

    @property
    def n_a(self) -> int:
        return self.partition[0]

    @property
    def n_b(self) -> int:
        return self.partition[1]

    @property
    def n_modes(self) -> int:
        return self.n_a + self.n_b

    @property
    def dim(self) -> int:
        return 2 * self.n_modes

    @property
    def a_block(self) -> np.ndarray:
        k = 2 * self.n_a
        return self.entries[:k, :k]

    @property
    def b_block(self) -> np.ndarray:
        k = 2 * self.n_a
        return self.entries[k:, k:]

    @property
    def cross_block(self) -> np.ndarray:
        k = 2 * self.n_a
        return self.entries[:k, k:]

    @classmethod
    def from_blocks(cls, A, B, C) -> "CorrelationMatrix":
        """Assemble [[A, C], [C^T, B]] with partition inferred from A and B."""
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
        C = np.asarray(C, dtype=float)
        if not (A.ndim == B.ndim == C.ndim == 2
                and A.shape[0] == A.shape[1] == C.shape[0]
                and B.shape[0] == B.shape[1] == C.shape[1]):
            raise ValueError(f"blocks of shapes {A.shape}, {B.shape}, {C.shape} "
                             "do not form [[A, C], [C^T, B]]")
        k = A.shape[0]
        g = np.empty((k + B.shape[0],) * 2)
        g[:k, :k] = A
        g[:k, k:] = C
        g[k:, :k] = C.T
        g[k:, k:] = B
        return cls(entries=g, partition=(k // 2, B.shape[0] // 2))


@dataclass(frozen=True)
class GaussianState:
    """A Gaussian state: correlation matrix plus displacement vector."""

    n_a: int
    n_b: int
    gamma: CorrelationMatrix
    d: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if (self.n_a, self.n_b) != self.gamma.partition:
            raise ValueError("state partition does not match its correlation matrix")
        d = self.d
        if d is None:
            d = np.zeros(self.gamma.dim)
        d = np.array(d, dtype=float)
        if d.shape != (self.gamma.dim,):
            raise ValueError(f"displacement shape {d.shape}, expected ({self.gamma.dim},)")
        if not np.isfinite(d).all():
            raise ValueError("displacement entries must be finite")
        d.flags.writeable = False
        object.__setattr__(self, "d", d)


@dataclass(frozen=True)
class PhysicalityVerdict:
    physical: bool
    margin: float                    # min eigenvalue of gamma - iJ (decides)
    min_symplectic_eigenvalue: float  # reported only


@dataclass(frozen=True)
class NptVerdict:
    npt: bool
    margin: float                    # min eigenvalue of gamma - i*Jtilde, clipped at 0
    min_pt_symplectic_eigenvalue: float  # reported only
    raw_margin: float                # same eigenvalue before clipping


def _coerce(gamma) -> np.ndarray:
    if isinstance(gamma, CorrelationMatrix):
        return gamma.entries
    return np.asarray(gamma, dtype=float)


def vacuum(n_a: int, n_b: int) -> CorrelationMatrix:
    """Vacuum state on the given partition (identity correlation matrix)."""
    return CorrelationMatrix(entries=np.eye(2 * (n_a + n_b)), partition=(n_a, n_b))


def pt_sign_vector(n_a: int, n_b: int) -> np.ndarray:
    """Diagonal of Lambda: +1 everywhere except B-side momenta."""
    lam = np.ones(2 * (n_a + n_b))
    lam[2 * n_a + 1 :: 2] = -1.0
    return lam


@functools.lru_cache(maxsize=64)
def pt_form(n_a: int, n_b: int) -> np.ndarray:
    """The read-only transposed-side form Jtilde = Lambda J Lambda, built once
    per partition and shared by every caller."""
    lam = pt_sign_vector(n_a, n_b)
    J = form_matrix(n_a + n_b)
    Jt = (lam[:, None] * J) * lam[None, :]
    Jt.flags.writeable = False
    return Jt


def _check_conditioning(w: np.ndarray, what: str):
    if w[0] <= 0 or w[-1] / w[0] > COND_LIMIT:
        raise NumericsError(
            f"{what}: matrix condition number exceeds {COND_LIMIT:.0e}; "
            "result would not be trustworthy")


def _decide_physical(g: np.ndarray, what: str):
    """(lambda_min(gamma - iJ), w, Q): one eigh(gamma) = (w, Q) guards the
    conditioning and factors gamma for the reported spectra."""
    w, Q = np.linalg.eigh(g)
    _check_conditioning(w, what)
    return float(np.linalg.eigvalsh(g - 1j * form_matrix(g.shape[0] // 2))[0]), w, Q


def validate_physical(gamma, tol: float = TOL_VERDICT) -> PhysicalityVerdict:
    """Decide physicality of a correlation matrix as gamma - iJ >= 0.

    The margin is the smallest eigenvalue of the Hermitian matrix gamma - iJ
    and the state is physical iff margin >= -tol.  The minimum symplectic
    eigenvalue is reported alongside; it is not consulted.

    Raises NumericsError when cond(gamma) exceeds COND_LIMIT.
    """
    margin, w, Q = _decide_physical(_coerce(gamma), "validate_physical")
    return PhysicalityVerdict(
        physical=bool(margin >= -tol),
        margin=margin,
        min_symplectic_eigenvalue=float(spectrum_from_eigh(w, Q)[0]),
    )


def partial_transpose(gamma: CorrelationMatrix) -> CorrelationMatrix:
    """Partial transpose on side B: flip the sign of every B-side momentum.

    An exact sign flip, so applying it twice returns the input bit for bit.
    """
    if gamma.n_a < 1 or gamma.n_b < 1:
        raise ValueError("partial transposition needs at least one mode on each side")
    lam = pt_sign_vector(gamma.n_a, gamma.n_b)
    g = (lam[:, None] * gamma.entries) * lam[None, :]
    return CorrelationMatrix(entries=g, partition=gamma.partition)


def is_npt(gamma: CorrelationMatrix, tol: float = TOL_VERDICT) -> NptVerdict:
    """Decide whether the bipartite state has non-positive partial transpose.

    The margin is the most negative eigenvalue of the Hermitian matrix
    gamma - i*Jtilde (clipped at zero for PPT states, where small positive
    eigenvalues carry no meaning: pure product states sit exactly at zero);
    NPT iff it is < -tol.  The symplectic spectrum of the transposed matrix
    is reported alongside; it is not consulted.

    Raises PreconditionError when gamma is not physical (gamma - iJ >= 0
    decided as in validate_physical), NumericsError when it is too
    ill-conditioned.
    """
    if gamma.n_a < 1 or gamma.n_b < 1:
        raise ValueError("NPT test needs at least one mode on each side")
    phys_margin, w, Q = _decide_physical(gamma.entries, "is_npt")
    if phys_margin < -tol:
        raise PreconditionError(
            f"is_npt requires a physical state (margin {phys_margin:.3e})")
    herm = gamma.entries - 1j * pt_form(gamma.n_a, gamma.n_b)
    raw = float(np.linalg.eigvalsh(herm)[0])
    lam = pt_sign_vector(gamma.n_a, gamma.n_b)
    return NptVerdict(
        npt=bool(raw < -tol),
        margin=min(raw, 0.0),
        min_pt_symplectic_eigenvalue=float(spectrum_from_eigh(w, Q, signs=lam)[0]),
        raw_margin=raw,
    )


def wigner_cm(gamma: CorrelationMatrix) -> CorrelationMatrix:
    """The Wigner-form companion matrix J^T gamma^{-1} J (same partition).

    An involution: applying it twice recovers the input.  The companion of a
    physical matrix is generally *not* physical (the inequality direction of
    the purity-type condition reverses); it equals the input exactly for
    pure states, which is the purity test used elsewhere.
    """
    g = gamma.entries
    _check_conditioning(np.linalg.eigvalsh(g), "wigner_cm")
    J = form_matrix(gamma.n_modes)
    w = _sym(J.T @ np.linalg.inv(g) @ J)
    return CorrelationMatrix(entries=w, partition=gamma.partition)


def is_pure(gamma: CorrelationMatrix, tol: float = PURITY_TOL) -> bool:
    """Pure iff every symplectic eigenvalue is 1 within tol."""
    nus = symplectic_eigenvalues(gamma.entries)
    return bool(np.abs(nus - 1.0).max() <= tol)


def reduce_to_modes(gamma: CorrelationMatrix, keep_a, keep_b) -> CorrelationMatrix:
    """Trace out all modes except the listed ones (0-based per side).

    Traced-out modes simply drop their rows and columns from gamma.  Index
    lists must be strictly increasing and in range; at least one mode must
    survive in total.
    """
    keep_a = list(keep_a)
    keep_b = list(keep_b)
    if not keep_a and not keep_b:
        raise ValueError("cannot trace out every mode")
    for name, keep, limit in (("A", keep_a, gamma.n_a), ("B", keep_b, gamma.n_b)):
        if any(not (0 <= k < limit) for k in keep):
            raise ValueError(f"side-{name} mode indices {keep} out of range (0..{limit-1})")
        if sorted(set(keep)) != keep:
            raise ValueError(f"side-{name} mode indices must be strictly increasing")
    modes = keep_a + [gamma.n_a + k for k in keep_b]
    idx = np.array([c for m in modes for c in (2 * m, 2 * m + 1)])
    g = gamma.entries[np.ix_(idx, idx)]
    return CorrelationMatrix(entries=g, partition=(len(keep_a), len(keep_b)))


def condition_on_x_measurement(gamma: CorrelationMatrix, mode: int) -> CorrelationMatrix:
    """Correlation matrix of the remaining modes after a homodyne measurement
    of the q quadrature of ``mode`` (0-based global index, side A first).

    The update is the Schur complement
        Gamma - sigma (pi gamma_m pi)^+ sigma^T,   pi = diag(1, 0),
    where gamma_m is the measured mode's 2x2 block and the pseudo-inverse of
    the rank-one projected block is formed explicitly.  The result does not
    depend on the measurement outcome (outcomes shift only the displacement),
    which is why none is taken as input.

    Raises MeasurementError when the measured q variance is degenerate.
    """
    n = gamma.n_modes
    if not (0 <= mode < n):
        raise ValueError(f"mode index {mode} out of range (0..{n-1})")
    if n < 2:
        raise ValueError("conditioning needs at least one unmeasured mode")
    meas = [2 * mode, 2 * mode + 1]
    keep = [i for i in range(2 * n) if i // 2 != mode]
    g = gamma.entries
    Gamma = g[np.ix_(keep, keep)]
    sigma = g[np.ix_(keep, meas)]
    qvar = g[meas[0], meas[0]]
    if qvar < QVAR_FLOOR:
        raise MeasurementError(
            f"measured q variance {qvar:.3e} below {QVAR_FLOOR:.0e}; "
            "homodyne conditioning is degenerate")
    pinv = np.array([[1.0 / qvar, 0.0], [0.0, 0.0]])
    out = _sym(Gamma - sigma @ pinv @ sigma.T)
    if mode < gamma.n_a:
        part = (gamma.n_a - 1, gamma.n_b)
    else:
        part = (gamma.n_a, gamma.n_b - 1)
    return CorrelationMatrix(entries=out, partition=part)


def apply_symplectic(gamma: CorrelationMatrix, S) -> CorrelationMatrix:
    """Congruence transform gamma -> S^T gamma S (partition unchanged).

    With S = S_A (+) S_B this is a local linear Bogoliubov transformation;
    physicality, NPT-ness and the four block-determinant invariants of
    two-mode states are all preserved by it.
    """
    S = np.asarray(getattr(S, "entries", S), dtype=float)
    g = _sym(S.T @ gamma.entries @ S)
    return CorrelationMatrix(entries=g, partition=gamma.partition)


def direct_sum_states(first: CorrelationMatrix, second: CorrelationMatrix) -> CorrelationMatrix:
    """Tensor product of two bipartite states at the correlation-matrix level.

    Side A of the result is (A modes of first, then of second) and likewise
    for side B, so the block structure stays A-before-B.
    """
    return CorrelationMatrix.from_blocks(
        direct_sum(first.a_block, second.a_block),
        direct_sum(first.b_block, second.b_block),
        direct_sum(first.cross_block, second.cross_block))
