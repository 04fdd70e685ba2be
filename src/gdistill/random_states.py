"""Seeded generation of random Gaussian states for tests, fuzzing and the
command line.

All generators are deterministic functions of their integer seed; internal
retry loops derive sub-seeds by counter, so a given (kind, partition, seed)
triple always produces the same state.

Kinds
-----
thermal    Thermal spectrum scrambled by *local* symplectics only, hence a
           product state across A|B: always physical and always PPT.
entangled  A noisy two-mode squeezed core on the first A and B modes (a
           convex mixture of a squeezed vacuum and a thermal state), thermal
           padding on the remaining modes, then local scrambling.  NPT with
           high probability; whether a given sample is NPT is reported.
boundary   Like entangled but the core is tuned so the minimal symplectic
           eigenvalue of the partial transpose is 1 +/- delta with delta
           drawn log-uniformly from [1e-9, 1e-6]: states straddling the
           PPT/NPT boundary.
"""

from __future__ import annotations

import numpy as np

from .states import (CorrelationMatrix, GaussianState, apply_symplectic,
                     direct_sum_states, is_npt, require_two_sides)
from .symplectic import direct_sum, random_symplectic, seed_sequence
from .two_mode import StdFormParams, check_physical

KINDS = ("thermal", "entangled", "boundary")

MAX_TRIES = 64              # rejection-sampling draws before a generator gives up
NPT_MIN_MARGIN = 1e-6       # random_npt_cm: NPT margin <= -NPT_MIN_MARGIN
ASYM_MIN_MARGIN = 1e-5      # random_asymmetric_npt_1x1: NPT margin <= -this
ASYM_MIN_ASYMMETRY = 1e-3   #   and |n_a - n_b| >= this
SYM_MIN_PHYSICALITY = 1e-6  # random_symmetric_two_mode: physicality residual floor


def _rng(seed: int, *salt: int) -> np.random.Generator:
    return np.random.default_rng(seed_sequence(seed, *salt))


def _subseed(seed: int, *salt: int) -> int:
    # collapse (seed, salt...) into one integer for APIs that take a seed
    return int(seed_sequence(seed, *salt).generate_state(1)[0])


def local_scramble(gamma: CorrelationMatrix, seed: int) -> CorrelationMatrix:
    """Apply independent random symplectics on sides A and B."""
    sa = random_symplectic(gamma.n_a, _subseed(seed, 1)).entries
    sb = random_symplectic(gamma.n_b, _subseed(seed, 2)).entries
    return apply_symplectic(gamma, direct_sum(sa, sb))


def _thermal_product(n_a: int, n_b: int, rng: np.random.Generator) -> CorrelationMatrix:
    nus = rng.uniform(1.05, 2.5, size=n_a + n_b)
    diag = np.repeat(nus, 2)
    return CorrelationMatrix(entries=np.diag(diag), partition=(n_a, n_b))


def _squeezed_thermal_core(a: float, c: float) -> CorrelationMatrix:
    """[[a*I, c*Z], [c*Z, a*I]] with Z = diag(1, -1)."""
    return StdFormParams(n_a=a, n_b=a, k_x=c, k_p=-c).matrix()


def _pad_and_scramble(core: CorrelationMatrix, n_a: int, n_b: int,
                      rng: np.random.Generator, seed: int) -> CorrelationMatrix:
    if n_a + n_b > 2:
        core = direct_sum_states(core, _thermal_product(n_a - 1, n_b - 1, rng))
    return local_scramble(core, seed)


def random_physical_cm(n_a: int, n_b: int, seed: int,
                       nu_range=(1.0, 2.2)) -> CorrelationMatrix:
    """Random physical state: thermal spectrum under a *global* random
    symplectic.  Generically entangled; used where only physicality matters."""
    rng = _rng(seed, 10)
    n = n_a + n_b
    nus = rng.uniform(*nu_range, size=n)
    D = np.diag(np.repeat(nus, 2))
    S = random_symplectic(n, _subseed(seed, 11)).entries
    return CorrelationMatrix(entries=S.T @ D @ S, partition=(n_a, n_b))


def random_unphysical_pd(n_a: int, n_b: int, seed: int) -> CorrelationMatrix:
    """Positive definite but unphysical: some symplectic eigenvalues < 1."""
    rng = _rng(seed, 20)
    n = n_a + n_b
    nus = rng.uniform(0.3, 1.6, size=n)
    nus[rng.integers(n)] = rng.uniform(0.3, 0.9)  # force at least one below 1
    D = np.diag(np.repeat(nus, 2))
    S = random_symplectic(n, _subseed(seed, 21)).entries
    return CorrelationMatrix(entries=S.T @ D @ S, partition=(n_a, n_b))


def random_state(kind: str, n_a: int, n_b: int, seed: int) -> tuple[GaussianState, dict]:
    """Draw one state of the given kind; returns (state, metadata).

    Metadata records the kind, seed and whether the sample is NPT.  Raises
    ValueError for an unknown kind, an empty side or a negative seed.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    require_two_sides((n_a, n_b), "random_state")
    rng = _rng(seed, 0)
    if kind == "thermal":
        g = local_scramble(_thermal_product(n_a, n_b, rng), _subseed(seed, 3))
    elif kind == "entangled":
        r = rng.uniform(0.15, 1.1)
        eta = rng.uniform(0.4, 0.95)
        nu = rng.uniform(1.0, 1.8)
        ch, sh = np.cosh(2 * r), np.sinh(2 * r)
        a = eta * ch + (1 - eta) * nu
        core = _squeezed_thermal_core(a, eta * sh)
        g = _pad_and_scramble(core, n_a, n_b, rng, _subseed(seed, 4))
    else:  # boundary
        a = rng.uniform(1.3, 2.2)
        delta = 10.0 ** rng.uniform(-9.0, -6.0)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        c = a - (1.0 + sign * delta)  # PT minimal symplectic eigenvalue = 1 + sign*delta
        core = _squeezed_thermal_core(a, c)
        g = _pad_and_scramble(core, n_a, n_b, rng, _subseed(seed, 5))
    verdict = is_npt(g)
    meta = {
        "kind": kind,
        "seed": int(seed),
        "partition": [n_a, n_b],
        "npt": bool(verdict.npt),
        "npt_margin": float(verdict.raw_margin),
    }
    return GaussianState(gamma=g), meta


def random_npt_cm(n_a: int, n_b: int, seed: int) -> CorrelationMatrix:
    """Random decisively NPT state (|margin| >= NPT_MIN_MARGIN), by rejection."""
    for k in range(MAX_TRIES):
        state, meta = random_state("entangled", n_a, n_b, _subseed(seed, 30, k))
        if meta["npt"] and meta["npt_margin"] <= -NPT_MIN_MARGIN:
            return state.gamma
    raise RuntimeError(f"no NPT sample found in {MAX_TRIES} tries for seed {seed}")


def random_asymmetric_npt_1x1(seed: int) -> CorrelationMatrix:
    """Random 1x1 NPT state with decisively different local purities.

    A noisy two-mode squeezed core is attenuated on side B (beam splitter
    against vacuum, transmittivity t), which is a physical channel:
    B -> t*B + (1-t)*I, C -> sqrt(t)*C.  Local scrambling keeps the
    invariants while moving the matrix away from standard form.
    """
    for k in range(MAX_TRIES):
        rng = _rng(seed, 40, k)
        r = rng.uniform(0.35, 1.1)
        eta = rng.uniform(0.6, 0.97)
        nu = rng.uniform(1.0, 1.4)
        ch, sh = np.cosh(2 * r), np.sinh(2 * r)
        a = eta * ch + (1 - eta) * nu
        c = eta * sh
        t = rng.uniform(0.45, 0.92)
        b = t * a + 1.0 - t
        k_x = np.sqrt(t) * c
        core = StdFormParams(n_a=a, n_b=b, k_x=k_x, k_p=-k_x).matrix()
        g = local_scramble(core, _subseed(seed, 41, k))
        verdict = is_npt(g)
        if (verdict.npt and verdict.raw_margin <= -ASYM_MIN_MARGIN
                and abs(a - b) >= ASYM_MIN_ASYMMETRY):
            return g
    raise RuntimeError(f"no asymmetric NPT sample found in {MAX_TRIES} tries for seed {seed}")


def random_symmetric_two_mode(seed: int) -> CorrelationMatrix:
    """Random symmetric (n_a = n_b) two-mode state in standard form.

    Mix of separable and NPT samples; physicality residual bounded away
    from zero so verdicts are decisive.
    """
    for k in range(MAX_TRIES):
        rng = _rng(seed, 50, k)
        n = rng.uniform(1.02, 2.8)
        k_x = rng.uniform(0.0, 0.98 * np.sqrt(n * n - 1.0))
        k_p = rng.uniform(-k_x, k_x) if k_x > 0 else 0.0
        p = StdFormParams(n_a=n, n_b=n, k_x=k_x, k_p=k_p)
        if check_physical(p).physicality_residual < SYM_MIN_PHYSICALITY:
            continue
        return p.matrix()
    raise RuntimeError(f"no symmetric physical sample found in {MAX_TRIES} tries for seed {seed}")
