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

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .errors import NumericsError

TOL_SYMPLECTIC = 1e-9
# candidate vectors with residual below this norm are skipped during basis
# extension; they are (numerically) inside the span already built
BASIS_RESIDUAL_FLOOR = 1e-8

_J1 = np.array([[0.0, -1.0], [1.0, 0.0]])


def _as_matrix(S) -> np.ndarray:
    """Accept a bare ndarray or any wrapper exposing .entries / .columns."""
    if isinstance(S, np.ndarray):
        return S
    for attr in ("entries", "columns"):
        if hasattr(S, attr):
            return getattr(S, attr)
    return np.asarray(S, dtype=float)


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


@dataclass(frozen=True)
class SymplecticBasis:
    """2n basis vectors stored as the columns of a symplectic matrix.

    Columns (2k-1, 2k) are canonical pairs: f_{2k-1}^T J f_{2k} = -1.
    """

    n: int
    columns: np.ndarray = field(repr=False)


def form_matrix(n: int) -> np.ndarray:
    """The read-only 2n x 2n form matrix J for n modes."""
    if n < 1:
        raise ValueError(f"mode count must be >= 1, got {n}")
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
                               tol: float = TOL_SYMPLECTIC) -> SymplecticBasis:
    """Complete a canonical pair (f1, f2) to a full symplectic basis.

    Requires f1^T J f2 = -1 within tol (see the module docstring for the sign
    convention).  Remaining pairs are produced by skew-orthogonal
    Gram-Schmidt over the standard basis vectors, with pivoting (the
    candidate with the largest projection residual wins) and a second
    projection pass to scrub first-order rounding error; the partner of each
    accepted vector is chosen to maximize |pairing| before normalization.
    The returned columns always satisfy S^T J S = J to the requested
    tolerance.
    """
    f1 = np.asarray(f1, dtype=float)
    f2 = np.asarray(f2, dtype=float)
    if f1.shape != f2.shape or f1.ndim != 1 or f1.size % 2:
        raise ValueError("expected two real vectors of equal even length")
    dim = f1.size
    n = dim // 2
    J = form_matrix(n)
    pairing = float(f1 @ J @ f2)
    if abs(pairing + 1.0) > tol:
        raise ValueError(
            f"(f1, f2) is not a canonical pair: f1^T J f2 = {pairing:.3e}, expected -1")

    cols = [f1, f2]

    def project_out(v):
        # remove skew components along all completed pairs (a, b):
        # v + (v^T J b) a - (v^T J a) b is J-orthogonal to both
        for k in range(0, len(cols), 2):
            a, b = cols[k], cols[k + 1]
            v = v + float(v @ J @ b) * a - float(v @ J @ a) * b
        return v

    def stalled():
        return NumericsError(
            f"symplectic basis extension stalled at {len(cols)}/{dim} vectors; "
            "input pair is too close to degenerate")

    candidates = list(np.eye(dim))
    while len(cols) < dim:
        nrm, idx, v = max(
            ((np.linalg.norm(w), i, w)
             for i, w in enumerate(map(project_out, candidates))),
            key=lambda item: item[0])
        if nrm < BASIS_RESIDUAL_FLOOR:
            raise stalled()
        candidates.pop(idx)
        v = project_out(v)  # second pass kills first-order rounding error
        a_new = v / np.linalg.norm(v)
        d, idx, w = max(
            ((float(a_new @ J @ u), i, u)
             for i, u in enumerate(map(project_out, candidates))),
            key=lambda item: abs(item[0]))
        if abs(d) < BASIS_RESIDUAL_FLOOR:
            raise stalled()
        candidates.pop(idx)
        w = project_out(w)
        b_new = -w / float(a_new @ J @ w)  # a_new^T J b_new = -1
        cols.extend([a_new, b_new])

    S = np.column_stack(cols)
    if not is_symplectic(S, tol=max(tol, TOL_SYMPLECTIC)):
        raise NumericsError(
            "completed symplectic basis failed validation; the input pair is "
            "too ill-conditioned to extend at this tolerance")
    return SymplecticBasis(n=n, columns=_frozen(S))


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
    S = expm(form_matrix(n) @ H)
    return SymplecticMatrix(n=n, entries=S)


def direct_sum(*blocks) -> np.ndarray:
    """Block-diagonal stack of matrices (ndarray result)."""
    mats = [_as_matrix(b) for b in blocks]
    dim = sum(m.shape[0] for m in mats)
    out = np.zeros((dim, dim))
    at = 0
    for m in mats:
        d = m.shape[0]
        out[at : at + d, at : at + d] = m
        at += d
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
