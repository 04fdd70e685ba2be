"""Symplectic linear algebra over interleaved quadrature coordinates.

Phase space coordinates are ordered (q_1, p_1, ..., q_n, p_n).  The symplectic
form is the block diagonal

    J = diag(J_1, ..., J_1),   J_1 = [[0, -1], [1, 0]],

and a real 2n x 2n matrix S is symplectic when S^T J S = J.  Column pairs
(2k-1, 2k) of a symplectic matrix form canonical pairs: with this sign choice
of J_1 the canonical basis satisfies e_1^T J e_2 = -1, so a canonical pair
(f1, f2) obeys f1^T J f2 = -1 (equivalently f2^T J f1 = +1).  That is the
pairing convention used throughout the package.

Symplectic eigenvalues of a symmetric positive definite matrix are the n
positive members of the spectrum of i*J^T*gamma, which come in +/- pairs.
They are computed here from the Hermitian-equivalent eigenproblem of
i*sqrt(gamma)*J*sqrt(gamma) for numerical symmetry.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError

TOL_SYMPLECTIC = 1e-9

_J1 = np.array([[0.0, -1.0], [1.0, 0.0]])


def _as_matrix(S) -> np.ndarray:
    """Accept a bare ndarray or a wrapper exposing .entries."""
    if isinstance(S, np.ndarray):
        return S
    return np.asarray(getattr(S, "entries", S), dtype=float)


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SymplecticMatrix:
    """A validated symplectic matrix (S^T J S = J within tolerance)."""

    n: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        S = np.array(self.entries, dtype=float)
        if S.shape != (2 * self.n, 2 * self.n):
            raise ValueError(f"expected shape {(2*self.n, 2*self.n)}, got {S.shape}")
        if not is_symplectic(S, tol=TOL_SYMPLECTIC):
            raise ValueError("matrix is not symplectic within tolerance")
        object.__setattr__(self, "entries", _frozen(S))


def form_matrix(n: int) -> np.ndarray:
    """The read-only 2n x 2n form matrix J for n modes, built once per n and
    shared by every caller."""
    if n < 1:
        raise ValueError(f"mode count must be >= 1, got {n}")
    return _form_matrix(n)


# the cache sits behind form_matrix so that form_matrix stays a plain
# function, whose calls the benchmark's tracer counts
@functools.lru_cache(maxsize=64)
def _form_matrix(n: int) -> np.ndarray:
    J = np.zeros((2 * n, 2 * n))
    for k in range(n):
        J[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = _J1
    J.flags.writeable = False
    return J


def is_symplectic(S, tol: float = TOL_SYMPLECTIC) -> bool:
    """True when max|S^T J S - J| <= tol.

    Raises ValueError for non-square or odd-dimensioned input.
    """
    S = _as_matrix(S)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {S.shape}")
    if S.shape[0] % 2 != 0 or S.shape[0] == 0:
        raise ValueError(f"dimension must be even and positive, got {S.shape[0]}")
    J = form_matrix(S.shape[0] // 2)
    return float(np.abs(S.T @ J @ S - J).max()) <= tol


def symplectic_eigenvalues(gamma) -> np.ndarray:
    """Symplectic spectrum of a symmetric positive definite matrix, ascending.

    A correlation matrix is physical exactly when every value returned here
    is >= 1.  The identity (vacuum) gives all ones.
    """
    g = _as_matrix(gamma)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] % 2:
        raise ValueError(f"expected an even-dimensional square matrix, got {g.shape}")
    if np.abs(g - g.T).max() > 1e-8 * max(1.0, np.abs(g).max()):
        raise ValueError("matrix is not symmetric")
    w, Q = np.linalg.eigh(g)
    if w[0] <= 0:
        raise ValueError(f"matrix is not positive definite (min eigenvalue {w[0]:.3e})")
    return spectrum_from_eigh(w, Q)


def spectrum_from_eigh(w: np.ndarray, Q: np.ndarray, signs=None) -> np.ndarray:
    """Symplectic spectrum, ascending, of gamma = Q diag(w) Q^T (w > 0), or
    with ``signs`` (the +-1 diagonal of Lambda) of Lambda gamma Lambda, from
    the same factorization: sqrt(Lambda gamma Lambda) = Lambda sqrt(gamma) Lambda."""
    n = w.size // 2
    root = Q @ np.diag(np.sqrt(w)) @ Q.T
    if signs is not None:
        root = (signs[:, None] * root) * signs[None, :]
    herm = 1j * (root @ form_matrix(n) @ root)  # Hermitian, spectrum +/- nu_k
    return np.linalg.eigvalsh(herm)[n:]


def skew_product(u: np.ndarray, v: np.ndarray) -> float:
    """u^T J v for real vectors of even length."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1 or u.size % 2:
        raise ValueError("expected two real vectors of equal even length")
    J = form_matrix(u.size // 2)
    return float(u @ J @ v)


def extend_to_symplectic_basis(f1: np.ndarray, f2: np.ndarray,
                               tol: float = TOL_SYMPLECTIC) -> SymplecticMatrix:
    """Complete a canonical pair (f1, f2) to a symplectic matrix whose first
    two columns are exactly f1 and f2.

    Requires f1^T J f2 = -1 within tol (see the module docstring for the sign
    convention).  The other pairs span the symplectic complement of
    span(f1, f2), which is the Euclidean complement of span(J f1, J f2): its
    orthonormal basis B is the tail of one complete QR factorization.  The
    restricted form B^T J B is real antisymmetric, so i*B^T J B is Hermitian
    with eigenvalues +-t_k; each eigenvector u_k with t_k > 0 gives the
    canonical pair sqrt(2/t_k) * (Re B u_k, Im B u_k), as in
    spectrum_from_eigh.  Raises NumericsError when a t_k is not positive or
    the result fails S^T J S = J within TOL_SYMPLECTIC.
    """
    f1 = np.asarray(f1, dtype=float)
    f2 = np.asarray(f2, dtype=float)
    if f1.shape != f2.shape or f1.ndim != 1 or f1.size % 2:
        raise ValueError("expected two real vectors of equal even length")
    n = f1.size // 2
    J = form_matrix(n)
    pairing = float(f1 @ J @ f2)
    if abs(pairing + 1.0) > tol:
        raise ValueError(
            f"(f1, f2) is not a canonical pair: f1^T J f2 = {pairing:.3e}, expected -1")

    B = np.linalg.qr(J @ np.column_stack([f1, f2]), mode="complete").Q[:, 2:]
    t, U = np.linalg.eigh(1j * (B.T @ J @ B))
    t, W = t[n - 1 :], B @ U[:, n - 1 :]
    if not np.all(t > 0):
        raise NumericsError(
            "symplectic complement of the input pair is degenerate; the pair is "
            "too ill-conditioned to extend")
    W = W * np.sqrt(2.0 / t)
    pairs = np.stack([W.real, W.imag], axis=2).reshape(2 * n, 2 * n - 2)
    S = np.column_stack([f1, f2, pairs])
    try:
        return SymplecticMatrix(n=n, entries=S)
    except ValueError as exc:
        raise NumericsError(
            "completed symplectic basis failed validation; the input pair is "
            "too ill-conditioned to extend") from exc


def random_symplectic(n: int, seed: int) -> SymplecticMatrix:
    """Seeded random symplectic matrix, S = expm(J H) with H symmetric.

    The generator entries are scaled down with n to keep the condition number
    of S moderate, so downstream eigenvalue checks hold at tight tolerances.
    """
    if n < 1:
        raise ValueError(f"mode count must be >= 1, got {n}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), 0x5f)))
    scale = 0.45 / np.sqrt(n)
    G = rng.normal(0.0, scale, size=(2 * n, 2 * n))
    H = 0.5 * (G + G.T)
    S = sys.modules[__name__].expm(form_matrix(n) @ H)
    return SymplecticMatrix(n=n, entries=S)


def __getattr__(name: str):
    """scipy.linalg.expm, imported on first use so that importing the package
    does not load scipy; random_symplectic reads it here, so rebinding works."""
    if name != "expm":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.linalg import expm
    return expm


def direct_sum(*blocks) -> np.ndarray:
    """Block-diagonal stack of matrices (ndarray result).  Blocks may be
    rectangular or have zero rows or columns: the result has the summed
    shape, each block starting where the previous one ends."""
    mats = [_as_matrix(b) for b in blocks]
    out = np.zeros((sum(m.shape[0] for m in mats), sum(m.shape[1] for m in mats)))
    row = col = 0
    for m in mats:
        out[row : row + m.shape[0], col : col + m.shape[1]] = m
        row, col = row + m.shape[0], col + m.shape[1]
    return out


def beam_splitter(theta: float) -> np.ndarray:
    """Two-mode beam splitter with transmittivity cos^2(theta)."""
    c, s = np.cos(theta), np.sin(theta)
    eye = np.eye(2)
    return np.block([[c * eye, s * eye], [-s * eye, c * eye]])


def two_mode_squeezer(r: float) -> np.ndarray:
    """Two-mode squeezer; acting on two vacua it produces the state with
    diagonal blocks cosh(2r)*I and cross block sinh(2r)*diag(1, -1)."""
    ch, sh = np.cosh(r), np.sinh(r)
    Z = np.diag([1.0, -1.0])
    eye = np.eye(2)
    return np.block([[ch * eye, sh * Z], [sh * Z, ch * eye]])


def embed_pair(S4: np.ndarray, n: int, i: int, j: int) -> np.ndarray:
    """Embed a 4x4 symplectic acting on modes (i, j) into an n-mode identity."""
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"need two distinct modes below {n}, got ({i}, {j})")
    out = np.eye(2 * n)
    idx = np.array([2 * i, 2 * i + 1, 2 * j, 2 * j + 1])
    out[np.ix_(idx, idx)] = _as_matrix(S4)
    return out
