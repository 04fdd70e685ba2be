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
With gamma = L L^T (Cholesky), iJ L L^T is similar to the Hermitian
i*L^T J L, whose positive eigenvalues they are.  Jtilde in place of J gives
the partial transpose's, since Lambda gamma Lambda = (Lambda L)(Lambda L)^T.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError

TOL_SYMPLECTIC = 1e-9

_J1 = np.array([[0.0, -1.0], [1.0, 0.0]])


def _as_matrix(S) -> np.ndarray:
    """Caller data (an array or a wrapper exposing .entries) as floats, converted
    here only; a float64 ndarray passes through uncopied.  ValueError for complex
    numbers and numbers no float holds; callers check finiteness, naming the field."""
    a = np.asarray(getattr(S, "entries", S))
    if a.dtype.kind == "c":
        raise ValueError("expected real numbers, got complex entries")
    try:
        return a.astype(dtype=float, copy=False)
    except (OverflowError, TypeError) as exc:
        raise ValueError(f"expected real numbers: {exc}") from None


def _is_integer(n) -> bool:
    """The integer rule for caller data: an int or numpy integer, not a bool."""
    return type(n) is int or (isinstance(n, numbers.Integral) and not isinstance(n, bool))


@dataclass(frozen=True)
class SymplecticMatrix:
    """A validated symplectic matrix (S^T J S = J within tolerance), 2n x 2n
    for n modes; is_symplectic refuses a non-square, odd or empty shape."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        S = np.array(_as_matrix(self.entries))
        if not is_symplectic(S, tol=TOL_SYMPLECTIC):
            raise ValueError("matrix is not symplectic within tolerance")
        S.flags.writeable = False
        object.__setattr__(self, "entries", S)


def form_matrix(n: int) -> np.ndarray:
    """The read-only 2n x 2n form matrix J for n modes, built once per n and
    shared by every caller.  ValueError unless n is an integer (integer rule)
    and at least 1."""
    if not _is_integer(n):
        raise ValueError(f"mode count must be an integer, got {n!r}")
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
    """True when max|S^T J S - J| <= tol, which for 2x2 S is |det S - 1| <= tol.

    Raises ValueError for non-square, odd-dimensioned or empty input.
    """
    S = _as_matrix(S)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {S.shape}")
    if S.shape[0] % 2 != 0 or S.shape[0] == 0:
        raise ValueError(f"dimension must be even and positive, got {S.shape[0]}")
    if S.shape[0] == 2:  # S^T J S = det(S) J exactly: no product needed
        return bool(abs(S[0, 0] * S[1, 1] - S[0, 1] * S[1, 0] - 1.0) <= tol)
    J = form_matrix(S.shape[0] // 2)
    return float(np.abs(S.T @ J @ S - J).max()) <= tol


def _sym(m: np.ndarray) -> np.ndarray:
    # halved before the sum, so that no finite matrix overflows; equal to
    # 0.5 * (m + m^T) bit for bit wherever neither half is subnormal
    return 0.5 * m + 0.5 * m.T


def cholesky_factor(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The symmetrized float matrix s = (g + g^T)/2 and its lower Cholesky
    factor L, both read-only, and max|s_ij|, the matrix's rounding scale.
    ValueError unless the entries are finite, max|g - g^T| <= 1e-8 * max(1,
    max|s_ij|) and Cholesky succeeds; a failed Cholesky cites the eigenvalue
    range (a positive lower end: too ill-conditioned, not indefinite).  Both
    s and the asymmetry are taken of h = g/2, so no finite matrix overflows."""
    if not np.isfinite(g).all():
        raise ValueError("correlation matrix entries must be finite")
    h = 0.5 * g
    s = h + h.T  # _sym(g), bit for bit
    scale = float(np.abs(s).max())
    # h - h^T is exactly antisymmetric, so its largest entry is its largest modulus
    if (h - h.T).max() > 0.5e-8 * max(1.0, scale):
        raise ValueError("correlation matrix must be symmetric")
    try:
        L = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        w = np.linalg.eigvalsh(s)
        raise ValueError("correlation matrix must be positive definite: Cholesky "
                         f"factorization failed (eigenvalues in [{w[0]:.3e}, {w[-1]:.3e}])"
                         ) from None
    s.flags.writeable = L.flags.writeable = False
    return s, L, scale


def spectrum_from_factor(L: np.ndarray, form: np.ndarray) -> np.ndarray:
    """Symplectic spectrum, ascending, of L L^T for ``form`` J (Jtilde: of its
    partial transpose), the positive half of eigvalsh(i*L^T form L)."""
    return np.linalg.eigvalsh(1j * (L.T @ form @ L))[L.shape[0] // 2 :]


def symplectic_eigenvalues(gamma) -> np.ndarray:
    """Symplectic spectrum of a symmetric positive definite matrix, ascending.

    A correlation matrix is physical exactly when every value returned here
    is >= 1.  The identity (vacuum) gives all ones.  The input is validated
    by cholesky_factor, as a CorrelationMatrix is.
    """
    g = _as_matrix(gamma)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] % 2 or g.shape[0] == 0:
        raise ValueError("expected a square matrix; dimension must be even and "
                         f"positive, got shape {g.shape}")
    L = cholesky_factor(g)[1]
    return spectrum_from_factor(L, form_matrix(g.shape[0] // 2))


def skew_product(u: np.ndarray, v: np.ndarray) -> float:
    """u^T J v for real vectors of even length; ValueError unless u and v are
    1-D of one even length."""
    u, v = _as_matrix(u), _as_matrix(v)
    if u.shape != v.shape or u.ndim != 1 or u.size % 2:
        raise ValueError("expected two real vectors of equal even length")
    return _skew(u, v)


def _skew(u: np.ndarray, v: np.ndarray) -> float:
    """u^T J v for float vectors of one even length, which the caller has
    fixed (skew_product checks them)."""
    return float(u @ _form_matrix(u.size // 2) @ v)


def extend_to_symplectic_basis(f1: np.ndarray, f2: np.ndarray) -> SymplecticMatrix:
    """Complete a canonical pair (f1, f2) to a symplectic matrix whose first
    two columns are exactly f1 and f2.

    Requires f1^T J f2 = -1 within TOL_SYMPLECTIC (see the module docstring
    for the sign convention), computed by skew_product, which also refuses
    input that is not two 1-D vectors of one even length.  Any completion
    will do, so it is built in closed form with no factorization.  J acts as
    multiplication by i on the complex n-vector x = q + i p, so a unitary
    acts as an orthogonal symplectic matrix (U(n) = Sp(2n) cap O(2n)): with
    x = f1 / |f1| and u the unit real form of x + e^{i arg x_1} e_1, the
    Householder reflector Q = I - 2 (u u^T + Ju (Ju)^T), an involution,
    maps f1 into the first mode.  In that frame the basis vectors of modes
    2..n, each sheared along Q f1 so that it pairs to zero with Q f2,
    complete the pair; mapped back they are Q[:, 2:] - f1 (r^T J)[2:],
    r = Q f2.  The work is O(n^2) before validation; the pipeline does not
    call it, as concentrate keeps only the pairs.  Raises NumericsError
    when the result is not finite or fails S^T J S = J within TOL_SYMPLECTIC.
    """
    f1, f2 = _as_matrix(f1), _as_matrix(f2)
    pairing = skew_product(f1, f2)
    if abs(pairing + 1.0) > TOL_SYMPLECTIC:
        raise ValueError(
            f"(f1, f2) is not a canonical pair: f1^T J f2 = {pairing:.3e}, expected -1")

    n = f1.size // 2
    J = form_matrix(n)
    x = f1 / np.linalg.norm(f1)
    # x + e^{i arg x_1} e_1 in real form: no cancellation in its first mode
    u = x.copy()
    u[:2] += x[:2] / np.hypot(*x[:2]) if x[:2].any() else (1.0, 0.0)
    u /= np.linalg.norm(u)
    U = np.array([u, J @ u])
    Q = np.eye(2 * n) - 2.0 * (U.T @ U)
    r = Q @ f2
    S = np.column_stack([f1, f2, Q[:, 2:] - np.outer(f1, (r @ J)[2:])])
    if not np.isfinite(S).all():
        raise NumericsError("completed symplectic basis is not finite")
    try:
        return SymplecticMatrix(entries=S)
    except ValueError as exc:
        raise NumericsError(
            "completed symplectic basis failed validation; the input pair is "
            "too ill-conditioned to extend") from exc


def seed_sequence(seed: int, *salt: int) -> np.random.SeedSequence:
    """The SeedSequence of the entropy tuple (seed, *salt), given as the uint32
    words numpy would coerce that tuple to: each value in little-endian 32-bit
    words, [0] for 0.  ValueError naming the value unless the seed and every
    salt is a non-negative integer under the integer rule (no bool)."""
    words = []
    for n in (seed, *salt):
        name = "salt" if words else "seed"
        if not _is_integer(n):
            raise ValueError(f"{name} must be an integer, got {n!r}")
        n = int(n)
        if n < 0:
            raise ValueError(f"{name} must be non-negative, got {n}")
        words.append(n & 0xFFFFFFFF)
        while n > 0xFFFFFFFF:
            n >>= 32
            words.append(n & 0xFFFFFFFF)
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def random_symplectic(n: int, seed: int) -> SymplecticMatrix:
    """Seeded random symplectic matrix, S = expm(J H) with H symmetric.

    J H is Hamiltonian, so its exponential is symplectic.  expm is the
    scaling-and-squaring Pade approximant of Higham (2005), and for one mode
    the Cayley-Hamilton closed form (see expm); it is read by its
    module-level name, so rebinding ``symplectic.expm`` reroutes this call.
    The generator entries are scaled down with n to keep the condition number
    of S moderate, so downstream eigenvalue checks hold at tight tolerances.
    """
    J = form_matrix(n)  # refuses n < 1 before any draw
    rng = np.random.default_rng(seed_sequence(seed, 0x5f))
    scale = 0.45 / np.sqrt(n)
    G = rng.normal(0.0, scale, size=(2 * n, 2 * n))
    H = 0.5 * (G + G.T)
    return SymplecticMatrix(entries=expm(J @ H))


# b_0..b_13 of the degree-13 Pade approximant to exp and the 1-norm up to
# which it needs no scaling (Higham 2005, Table 2.3)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152
# rows: the coefficients of (I, A^2, A^4, A^6) in the four sums that U and V
# are built from; U = A (A^6 row0 + row1), V = A^6 row2 + row3
_PADE13_MIX = np.array([(0.0, *_PADE13[9::2]), _PADE13[1:9:2],
                        (0.0, *_PADE13[8::2]), _PADE13[0:8:2]])


def expm(A) -> np.ndarray:
    """Matrix exponential of a real square matrix.

    2 x 2 input is done in closed form.  With h = tr(A)/2, Cayley-Hamilton
    gives (A - hI)^2 = delta I, so exp(A) = e^h (c I + s (A - hI)), where
    (c, s) is (cosh w, sinh w / w) with w = sqrt(delta) for delta > 0,
    (cos w, sin w / w) with w = sqrt(-delta) for delta < 0, and (1, 1) for
    delta = 0.  Larger input takes the degree-13 Pade approximant with
    scaling and squaring (N. J. Higham, SIAM J. Matrix Anal. Appl. 26 (2005)
    1179): A is scaled by 2^-s so that its 1-norm is at most theta_13,
    r = (V - U)^{-1} (V + U) is built from A^2, A^4 and A^6 with one solve,
    and r is squared s times.  ValueError unless A is square and finite.
    """
    A = _as_matrix(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite")
    dim = A.shape[0]
    if dim == 2:
        (a, b), (c, d) = A.tolist()
        h, m = 0.5 * (a + d), 0.5 * (a - d)  # A - hI = [[m, b], [c, -m]]
        delta = m * m + b * c
        if delta > 0:
            w = math.sqrt(delta)
            cw, sw = math.cosh(w), math.sinh(w) / w
        elif delta < 0:
            w = math.sqrt(-delta)
            cw, sw = math.cos(w), math.sin(w) / w
        else:
            cw, sw = 1.0, 1.0
        e = math.exp(h)
        return np.array([[e * (cw + sw * m), e * sw * b],
                         [e * sw * c, e * (cw - sw * m)]])
    norm = float(np.abs(A).sum(axis=0).max(initial=0.0))
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0 else 0
    if s:
        A = A * 2.0 ** -s
    powers = np.empty((4, dim, dim))  # I, A^2, A^4, A^6
    powers[0] = np.eye(dim)
    np.matmul(A, A, out=powers[1])
    np.matmul(powers[1], powers[1], out=powers[2])
    np.matmul(powers[2], powers[1], out=powers[3])
    sums = (_PADE13_MIX @ powers.reshape(4, -1)).reshape(4, dim, dim)
    odd, even = powers[3] @ sums[0::2]
    U = A @ (odd + sums[1])
    V = even + sums[3]
    r = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        r = r @ r
    return r


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
    if (not all(map(_is_integer, (n, i, j))) or i == j
            or not (0 <= i < n and 0 <= j < n)):
        raise ValueError(
            f"need two distinct integer modes below {n!r}, got ({i!r}, {j!r})")
    out = np.eye(2 * n)
    idx = np.array([2 * i, 2 * i + 1, 2 * j, 2 * j + 1])
    out[np.ix_(idx, idx)] = _as_matrix(S4)
    return out
