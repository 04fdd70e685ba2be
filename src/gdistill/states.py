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
gamma - iJ >= 0, within the rounding band below; the margin, the smallest
eigenvalue of gamma - iJ, is reported.  The symplectic spectrum is derived
on first read and takes no part in the verdict; its rounding error grows with
cond(gamma), while that of the eigenvalues of gamma - iJ stays at machine
precision times |gamma|.  In exact arithmetic the verdicts agree:
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

Each CorrelationMatrix is factored once, at construction, by Cholesky
(gamma = L L^T, the positive definiteness test), which also takes
max|gamma_ij|, the one scale of its rounding band tau = max(TOL_VERDICT,
dim * machine eps * max|gamma_ij|): rounding gamma to floats, plus the
eigensolver's backward error, moves each eigenvalue of gamma - iJ or gamma
- i*Jtilde by about tau (Weyl's inequality), so no sign inside it means
anything.  Physicality is the success of one complex Cholesky factorization
of gamma - iJ + tau*I, the verdict of both validate_physical and is_npt;
NPT is lambda_min(gamma - i*Jtilde) < -tau.  The physicality verdict, both
reported spectra (from L) and the margins lambda_min(gamma - iJ) and
lambda_min(gamma - i*Jtilde) are computed on first use and kept on the
instance; a verdict derives its spectrum on first read, so a caller that
reads only the decision pays for no spectrum.  cond(gamma) decides nothing;
it guards wigner_cm, which inverts gamma.
A bare array given to validate_physical is validated as a CorrelationMatrix
with every mode on side A.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import MeasurementError, NumericsError, PreconditionError
from .symplectic import (_as_matrix, _is_integer, _sym, cholesky_factor,
                         direct_sum, form_matrix, spectrum_from_factor)

TOL_VERDICT = 1e-9          # least rounding band of every physicality / NPT verdict
COND_LIMIT = 1e12           # refuse to invert beyond this condition number
PURITY_TOL = 1e-8
QVAR_FLOOR = 1e-12          # degenerate-measurement guard
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric positive definite correlation matrix with an A|B partition.

    ``entries`` is the 2(n_a+n_b) x 2(n_a+n_b) matrix; ``partition`` is
    (n_a, n_b) with side A first, two integers (numpy integers too, not
    bools), stored as ints.  Finiteness, symmetry and positive
    definiteness are checked on construction and the stored array is made
    read-only.  Positive definiteness does not imply physicality: partial
    transposes of NPT states and Wigner-form companions are representable on
    purpose.

    Construction factors the matrix once by Cholesky, gamma = L L^T, keeps
    the read-only factor L in ``_chol`` and sets ``_scale`` = max|gamma_ij|,
    ``_rounding`` = dim * eps * _scale and ``_band`` = tau (module docstring).
    """

    entries: np.ndarray = field(repr=False)
    partition: tuple[int, int] = (1, 1)

    def __post_init__(self):
        n_a, n_b = self.partition
        if (not (_is_integer(n_a) and _is_integer(n_b))
                or n_a < 0 or n_b < 0 or n_a + n_b < 1):
            raise ValueError(f"bad partition {self.partition}")
        g = _as_matrix(self.entries)
        dim = 2 * (n_a + n_b)
        if g.shape != (dim, dim):
            raise ValueError(
                f"entries shape {g.shape} does not match partition {self.partition}")
        g, L, scale = cholesky_factor(g)
        object.__setattr__(self, "entries", g)
        object.__setattr__(self, "partition", (int(n_a), int(n_b)))
        object.__setattr__(self, "_chol", L)
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_rounding", dim * _EPS * scale)
        object.__setattr__(self, "_band", max(TOL_VERDICT, self._rounding))

    # computed on first use; the memo holds floats and arrays only, never a
    # reference back to the instance (no cycle to collect)

    @functools.cached_property
    def _physical(self) -> bool:
        """gamma - iJ >= -tau, decided by a Cholesky of gamma - iJ + tau*I."""
        herm = self.entries - _i_form(self.n_modes, 0)
        herm.flat[:: self.dim + 1] += self._band
        try:
            np.linalg.cholesky(herm)
        except np.linalg.LinAlgError:
            return False
        return True

    @functools.cached_property
    def _margin(self) -> float:
        """lambda_min(gamma - iJ)."""
        return float(np.linalg.eigvalsh(self.entries - _i_form(self.n_modes, 0))[0])

    @functools.cached_property
    def _pt_herm(self) -> np.ndarray:
        """gamma - i*Jtilde (read-only), shared by _pt_margin and the witness."""
        herm = self.entries - _i_form(*self.partition)
        herm.flags.writeable = False
        return herm

    @functools.cached_property
    def _pt_margin(self) -> float:
        """lambda_min(gamma - i*Jtilde)."""
        return float(np.linalg.eigvalsh(self._pt_herm)[0])

    @property
    def _npt(self) -> bool:
        """The NPT rule: lambda_min(gamma - i*Jtilde) < -tau."""
        return bool(self._pt_margin < -self._band)

    @functools.cached_property
    def _spectrum(self) -> np.ndarray:
        """Symplectic spectrum, ascending."""
        return spectrum_from_factor(self._chol, form_matrix(self.n_modes))

    @functools.cached_property
    def _min_pt_nu(self) -> float:
        """Smallest symplectic eigenvalue of the partial transpose."""
        return float(spectrum_from_factor(self._chol, pt_form(self.n_a, self.n_b))[0])

    @functools.cached_property
    def _cond(self) -> float:
        """cond(gamma) from eigvalsh, for wigner_cm; inf when rounding leaves
        lambda_min <= 0."""
        w = np.linalg.eigvalsh(self.entries)
        return float(w[-1] / w[0]) if w[0] > 0 else np.inf

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
        A, B, C = _as_matrix(A), _as_matrix(B), _as_matrix(C)
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
    """A Gaussian state: correlation matrix (and its partition) plus displacement."""

    gamma: CorrelationMatrix
    d: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        d = np.zeros(self.gamma.dim) if self.d is None else np.array(_as_matrix(self.d))
        if d.shape != (self.gamma.dim,):
            raise ValueError(f"displacement shape {d.shape}, expected ({self.gamma.dim},)")
        if not np.isfinite(d).all():
            raise ValueError("displacement entries must be finite")
        d.flags.writeable = False
        object.__setattr__(self, "d", d)


class _Verdict:
    """Equality, hash and repr over every reported number, the spectrum
    that gamma's memo derives on first read included.  gamma holds no
    reference back to the verdict."""

    _REPORTED: tuple[str, ...] = ()

    def _numbers(self) -> tuple:
        return tuple(getattr(self, name) for name in self._REPORTED)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._numbers() == other._numbers()

    def __hash__(self):
        return hash(self._numbers())

    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._REPORTED)
        return f"{type(self).__name__}({shown})"


@dataclass(frozen=True, eq=False, repr=False)
class PhysicalityVerdict(_Verdict):
    physical: bool
    margin: float                    # min eigenvalue of gamma - iJ, reported only
    gamma: CorrelationMatrix         # the matrix decided on

    _REPORTED = ("physical", "margin", "min_symplectic_eigenvalue")

    @property
    def min_symplectic_eigenvalue(self) -> float:
        """Reported only, derived on first read."""
        return float(self.gamma._spectrum[0])


@dataclass(frozen=True, eq=False, repr=False)
class NptVerdict(_Verdict):
    npt: bool
    raw_margin: float                # min eigenvalue of gamma - i*Jtilde
    gamma: CorrelationMatrix         # the matrix decided on

    _REPORTED = ("npt", "min_pt_symplectic_eigenvalue", "raw_margin")

    @property
    def min_pt_symplectic_eigenvalue(self) -> float:
        """Reported only, derived on first read."""
        return self.gamma._min_pt_nu

    @property
    def margin(self) -> float:
        """raw_margin clipped at 0."""
        return min(self.raw_margin, 0.0)


def vacuum(n_a: int, n_b: int) -> CorrelationMatrix:
    """Vacuum state on the given partition (identity correlation matrix)."""
    return CorrelationMatrix(entries=np.eye(2 * (n_a + n_b)), partition=(n_a, n_b))


def _pt_sign_vector(n_a: int, n_b: int) -> np.ndarray:
    """Diagonal of Lambda: +1 everywhere except B-side momenta."""
    lam = np.ones(2 * (n_a + n_b))
    lam[2 * n_a + 1 :: 2] = -1.0
    return lam


@functools.lru_cache(maxsize=64)
def pt_form(n_a: int, n_b: int) -> np.ndarray:
    """The read-only transposed-side form Jtilde = Lambda J Lambda, built once
    per partition and shared by every caller."""
    lam = _pt_sign_vector(n_a, n_b)
    J = form_matrix(n_a + n_b)
    Jt = (lam[:, None] * J) * lam[None, :]
    Jt.flags.writeable = False
    return Jt


@functools.lru_cache(maxsize=64)
def _i_form(n_a: int, n_b: int) -> np.ndarray:
    """1j * Jtilde, read-only and built once per partition; (n, 0) gives 1j * J."""
    form = 1j * pt_form(n_a, n_b)
    form.flags.writeable = False
    return form


def require_two_sides(partition: tuple[int, int], what: str):
    """ValueError naming the partition unless both sides have a mode."""
    if partition[0] < 1 or partition[1] < 1:
        raise ValueError(f"{what} needs at least one mode on each side, got "
                         f"partition {partition}")


def validate_physical(gamma) -> PhysicalityVerdict:
    """Decide physicality of a correlation matrix as gamma - iJ >= 0.

    The state is physical iff a Cholesky factorization of gamma - iJ +
    tau*I succeeds, tau being the rounding band (module docstring); is_npt
    reads the same verdict.  The margin, the smallest eigenvalue of the
    Hermitian matrix gamma - iJ, is reported alongside, and the minimum
    symplectic eigenvalue is derived on first read; neither is consulted.
    A bare array is validated as CorrelationMatrix(gamma, (n, 0)), so it
    must be symmetric positive definite.
    """
    if not isinstance(gamma, CorrelationMatrix):
        gamma = CorrelationMatrix(entries=gamma, partition=(len(gamma) // 2, 0))
    return PhysicalityVerdict(physical=gamma._physical, margin=gamma._margin, gamma=gamma)


def partial_transpose(gamma: CorrelationMatrix) -> CorrelationMatrix:
    """Partial transpose on side B: flip the sign of every B-side momentum.

    An exact sign flip, so applying it twice returns the input bit for bit.
    """
    require_two_sides(gamma.partition, "partial transposition")
    lam = _pt_sign_vector(gamma.n_a, gamma.n_b)
    g = (lam[:, None] * gamma.entries) * lam[None, :]
    return CorrelationMatrix(entries=g, partition=gamma.partition)


def is_npt(gamma: CorrelationMatrix) -> NptVerdict:
    """Decide whether the bipartite state has non-positive partial transpose.

    The margin is the most negative eigenvalue of the Hermitian matrix
    gamma - i*Jtilde (clipped at zero for PPT states, where small positive
    eigenvalues carry no meaning: pure product states sit exactly at zero);
    NPT iff it is < -tau, the rounding band (module docstring), by the rule
    CorrelationMatrix._npt that concentrate reads too.  The
    symplectic spectrum of the transposed matrix is derived on first read;
    it is not consulted.

    Raises PreconditionError, citing the margin lambda_min(gamma - iJ), when
    gamma is not physical as validate_physical decides it.
    """
    require_two_sides(gamma.partition, "NPT test")
    if not gamma._physical:
        raise PreconditionError(
            f"is_npt requires a physical state (margin {gamma._margin:.3e})")
    return NptVerdict(npt=gamma._npt, raw_margin=gamma._pt_margin, gamma=gamma)


def require_npt(gamma: CorrelationMatrix, what: str):
    """PreconditionError naming `what` and the margin unless is_npt decides
    gamma is NPT."""
    verdict = is_npt(gamma)
    if not verdict.npt:
        raise PreconditionError(
            f"{what} requires an NPT state (margin {verdict.raw_margin:.3e})")


def wigner_cm(gamma: CorrelationMatrix) -> CorrelationMatrix:
    """The Wigner-form companion matrix J^T gamma^{-1} J (same partition).

    An involution: applying it twice recovers the input.  The companion of a
    physical matrix is generally *not* physical (the inequality direction of
    the purity-type condition reverses); it equals the input exactly for
    pure states, which is the purity test used elsewhere.

    Raises NumericsError when cond(gamma) exceeds COND_LIMIT.
    """
    if gamma._cond > COND_LIMIT:
        raise NumericsError(
            f"wigner_cm: matrix condition number exceeds {COND_LIMIT:.0e}; "
            "result would not be trustworthy")
    J = form_matrix(gamma.n_modes)
    w = _sym(J.T @ np.linalg.inv(gamma.entries) @ J)
    return CorrelationMatrix(entries=w, partition=gamma.partition)


def is_pure(gamma: CorrelationMatrix) -> bool:
    """Pure iff every symplectic eigenvalue is 1 within PURITY_TOL."""
    return bool(np.abs(gamma._spectrum - 1.0).max() <= PURITY_TOL)


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
        if not all(map(_is_integer, keep)):
            raise ValueError(f"side-{name} mode indices {keep} must be integers")
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
    if not _is_integer(mode):
        raise ValueError(f"mode index {mode!r} must be an integer")
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
    S = _as_matrix(S)
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
