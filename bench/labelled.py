"""Labelled input states: the distillability label is known from the construction.

Every input is a squeezed-thermal core on the first mode of each side, padded
with thermal modes and scrambled by local symplectics (``local_scramble``).
Local symplectics change neither physicality nor the spectrum of the partial
transpose, so the label of the core is the label of the input.

The core [[a I, c Z], [c Z, a I]] (Z = diag(1, -1)) has symplectic eigenvalue
sqrt(a^2 - c^2) and its partial transpose has symplectic eigenvalues a - c and
a + c.  With nu_t = a - c the input is NPT exactly when nu_t < 1.

thermal    no core: a product of thermal modes, always PPT.
entangled  noisy squeezed core, nu in [1, 1.8], nu_t in [0.25, 0.9]: NPT.
boundary   core with nu_t = 1 +/- delta, delta log-uniform in [1e-9, 1e-6].
squeezed   the pure pair tmss_cm(r), r in (0, 3]: nu_t = exp(-2r), NPT.

Padding modes are thermal with nu in [1.05, 2.5], so the smallest symplectic
eigenvalue of the whole partial transpose is the core's nu_t (or the smallest
thermal nu for the product states).  Within BOUNDARY_DELTA of nu_t = 1 the
label is not compared with the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gdistill import CorrelationMatrix, local_scramble, tmss_cm

KINDS = ("thermal", "entangled", "boundary", "squeezed")
BOUNDARY_DELTA = 1e-6
R_MAX = 3.0
PAD_NU = (1.05, 2.5)


@dataclass(frozen=True)
class Spec:
    """What to build: cheap to make, so a fresh process can rebuild one input."""

    kind: str
    partition: tuple[int, int]
    seed: int
    r: float = 0.0          # squeezing of the pure pair (squeezed kind only)


@dataclass(frozen=True)
class Labelled:
    kind: str
    partition: tuple[int, int]
    gamma: np.ndarray       # the only thing the library is handed
    nu_tilde: float         # smallest partial-transpose symplectic eigenvalue
    npt: bool

    @property
    def decisive(self) -> bool:
        return abs(self.nu_tilde - 1.0) > BOUNDARY_DELTA


def squeezed_thermal_core(a: float, c: float) -> np.ndarray:
    z = np.diag([1.0, -1.0])
    return np.block([[a * np.eye(2), c * z], [c * z, a * np.eye(2)]])


def core_for(kind: str, rng: np.random.Generator, r: float):
    """(core, nu_t) for one kind; (None, None) for the thermal product.

    Every core's nu_t is below PAD_NU[0], so the padding never sets the
    smallest partial-transpose eigenvalue of a cored input.
    """
    if kind == "thermal":
        return None, None
    if kind == "entangled":
        nu = rng.uniform(1.0, 1.8)
        nu_t = rng.uniform(0.25, 0.9)
        # a - c = nu_t and a + c = nu^2 / nu_t, so a^2 - c^2 = nu^2
        a = 0.5 * (nu_t + nu * nu / nu_t)
        return squeezed_thermal_core(a, a - nu_t), nu_t
    if kind == "boundary":
        a = rng.uniform(1.3, 2.2)
        nu_t = 1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-9.0, -6.0)
        return squeezed_thermal_core(a, a - nu_t), nu_t
    if kind == "squeezed":
        return np.array(tmss_cm(r).entries), float(np.exp(-2.0 * r))
    raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")


def embed(core, pad: np.ndarray, n_a: int) -> np.ndarray:
    """Thermal modes with the core on mode 0 of side A and mode 0 of side B."""
    g = np.diag(np.repeat(pad, 2))
    if core is not None:
        idx = [0, 1, 2 * n_a, 2 * n_a + 1]
        g[np.ix_(idx, idx)] = core
    return g


def build(spec: Spec) -> Labelled:
    n_a, n_b = spec.partition
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(spec.seed, 1)))
    pad = rng.uniform(*PAD_NU, size=n_a + n_b)
    core, nu_t = core_for(spec.kind, rng, spec.r)
    if core is None:
        nu_t = float(pad.min())
    cm = CorrelationMatrix(entries=embed(core, pad, n_a), partition=(n_a, n_b))
    gamma = np.array(local_scramble(cm, spec.seed).entries)
    gamma.flags.writeable = False
    return Labelled(kind=spec.kind, partition=(n_a, n_b), gamma=gamma,
                    nu_tilde=float(nu_t), npt=bool(nu_t < 1.0))
