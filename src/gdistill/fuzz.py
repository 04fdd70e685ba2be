"""Randomized invariant campaign over the whole library.

Each named invariant compares two independent computations of a property the
modules promise, over a stream of seeded random states; none re-reads a library
decision or restates an identity the code computes exactly.  Trial seeds
are derived by counter from the master seed (SeedSequence entropy
``(seed, invariant_index, trial)``), so results are order-independent and
adding invariants to the end of the registry does not disturb existing
streams.

Violations are collected, never raised: an unexpected exception inside an
invariant is itself recorded as a violation with the reproduction seed, so a
broken invariant degrades into reported failures instead of a crash.  Only
the seed and the trial count are settable: no config loosens DEFAULT_TOLERANCES.
"""

from __future__ import annotations

import functools
import time
from dataclasses import asdict, dataclass, fields
from types import MappingProxyType

import numpy as np

from .distill import (BOUNDARY_BAND, VERDICT_DISTILLABLE, PipelineStageError,
                      distill_pipeline, symmetrize, witness_and_concentrate)
from .random_states import (_rng, _subseed, local_scramble, random_asymmetric_npt_1x1,
                            random_npt_cm, random_physical_cm, random_state,
                            random_symmetric_two_mode, random_unphysical_pd)
from .states import (PURITY_TOL, TOL_VERDICT, CorrelationMatrix, apply_symplectic,
                     condition_on_x_measurement, direct_sum_states, is_npt,
                     is_pure, partial_transpose, pt_form, reduce_to_modes,
                     vacuum, validate_physical, wigner_cm)
from .symplectic import (TOL_SYMPLECTIC, _is_integer, beam_splitter, direct_sum,
                         embed_pair, extend_to_symplectic_basis, form_matrix,
                         is_symplectic, random_symplectic, seed_sequence,
                         skew_product, symplectic_eigenvalues)
from .two_mode import (SYMMETRY_TOL, StdFormParams, check_inseparable,
                       check_physical, check_symmetric_inseparable, rc_sweep,
                       rc_value, standard_form_params, standard_form_transform)

MAX_MODES = 4              # modes per side of a drawn state, 1..MAX_MODES
NPT_FRACTION = 0.5         # share of draws from the entangled kind
THERMAL_SHARE = 0.75       # share of the other draws from the thermal kind
MIN_DRAW_SKEW = 0.1        # |f1^T J v| a basis-extension draw needs: keeps |f2| moderate

# The campaign's bounds, each read by a comparison of two computations; an entry
# that repeats a library guard reads it.  The leakage bound is the campaign's
# own: concentrate decides only that the kept pair is NPT; leakage measures why.
DEFAULT_TOLERANCES = MappingProxyType({
    "spectrum_rel": 1e-8,      # symplectic spectrum under congruence
    "params_rel": 1e-8,        # standard-form parameters under local scrambles
    "involution": 1e-10,       # double Wigner-form companion
    "purity": PURITY_TOL,
    "verdict_band": BOUNDARY_BAND,  # |NPT margin| below this: verdicts not compared
    "residual_floor": 1e-9,    # |inequality residual| below this: not compared
    "oracle": 1e-10,           # closed form vs its reference construction
    "symmetry": SYMMETRY_TOL,  # |n_a - n_b| after symmetrization
    "leakage": 1e-6,           # witness support beyond the kept pair
    "form_identity": 1e-10,    # witness quadratic form under restriction
    "sign_floor": 1e-3,        # |asymptotic| needed before comparing signs
    "closure": TOL_SYMPLECTIC * 10,  # inverse, transpose and product of symplectics
    "congruence": 1e-8,        # standard form vs its own congruence, times max|gamma|
    "factorization_rel": 1e-9,  # symmetric-residual factorization
    "boundary_clearance": 1e-6,  # physicality margin a duality sample needs
    "duality": 1e-8,           # companion relations, each times its scale
    "rc_closed_form_rel": 1e-9,  # rc_sweep vs rc_value
})


@dataclass(frozen=True)
class FuzzConfig:
    seed: int = 0
    trials: int = 1000

    def __post_init__(self):
        for name in ("seed", "trials"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValueError(f"config field {name!r} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        seed_sequence(self.seed)  # refuses a negative seed before any trial runs
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")

    @classmethod
    def from_dict(cls, doc: dict) -> "FuzzConfig":
        if not isinstance(doc, dict):
            raise ValueError("fuzz config must be a JSON object")
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown fuzz config fields: {sorted(unknown)}")
        return cls(**doc)

    def to_dict(self) -> dict:
        return asdict(self)


class Violation(Exception):
    """An invariant failed; optionally carries the offending state."""

    def __init__(self, message: str, state: CorrelationMatrix | None = None):
        super().__init__(message)
        self.state = state


class _Trial:
    """Per-trial randomness and drawing helpers for one invariant."""

    def __init__(self, seed: int, index: int, trial: int):
        self.entropy = (seed, index, trial)

    @functools.cached_property
    def rng(self) -> np.random.Generator:
        """The trial's generator, made on first use: not every invariant draws."""
        return _rng(*self.entropy)

    def seed(self, salt: int = 0) -> int:
        return _subseed(*self.entropy, salt)

    def partition(self) -> tuple[int, int]:
        return (int(self.rng.integers(1, MAX_MODES + 1)),
                int(self.rng.integers(1, MAX_MODES + 1)))

    def kind(self) -> str:
        u = self.rng.random()
        if u < NPT_FRACTION:
            return "entangled"
        thermal = (u - NPT_FRACTION) < THERMAL_SHARE * (1.0 - NPT_FRACTION)
        return "thermal" if thermal else "boundary"

    def state(self, n_a: int | None = None, n_b: int | None = None):
        if n_a is None:
            n_a, n_b = self.partition()
        gs, meta = random_state(self.kind(), n_a, n_b, self.seed(101))
        return gs.gamma, meta


def _maxdiff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _scale(g: CorrelationMatrix) -> float:
    return max(1.0, g._scale)


# ---------------------------------------------------------------------------
# invariants (each: one seeded trial, raise Violation on failure)

def form_matrix_structure(t: _Trial):
    """J is exactly antisymmetric, squares to -identity, has 2n entries +-1."""
    n = int(t.rng.integers(1, 9))
    J = form_matrix(n)
    if not np.array_equal(J.T, -J):
        raise Violation(f"form matrix for n={n} is not exactly antisymmetric")
    if not np.array_equal(J @ J, -np.eye(2 * n)):
        raise Violation(f"form matrix for n={n} does not square to -identity")
    nz = J[J != 0.0]
    if nz.size != 2 * n or not np.all(np.abs(nz) == 1.0):
        raise Violation(f"form matrix for n={n} has wrong sparsity pattern")


def symplectic_group_closure(t: _Trial):
    """Inverse, transpose and products of symplectics stay symplectic."""
    n = int(t.rng.integers(1, 5))
    tol = DEFAULT_TOLERANCES["closure"]
    s1 = random_symplectic(n, t.seed(1)).entries
    s2 = random_symplectic(n, t.seed(2)).entries
    for label, cand in (("inverse", np.linalg.inv(s1)), ("transpose", s1.T),
                        ("product", s1 @ s2)):
        if not is_symplectic(cand, tol=tol):
            raise Violation(f"{label} of a symplectic matrix failed the form test")


def symplectic_spectrum_congruence_invariance(t: _Trial):
    """S^T gamma S has the symplectic spectrum of gamma (and all values >= 1)."""
    n_a, n_b = t.partition()
    g = random_physical_cm(n_a, n_b, t.seed(1))
    S = random_symplectic(n_a + n_b, t.seed(2)).entries
    before = symplectic_eigenvalues(g.entries)
    after = symplectic_eigenvalues(S.T @ g.entries @ S)
    rel = float(np.max(np.abs(after - before) / before))
    if rel > DEFAULT_TOLERANCES["spectrum_rel"]:
        raise Violation(f"symplectic spectrum moved by {rel:.3e} under congruence",
                        state=g)
    if before[0] < 1.0 - TOL_VERDICT:
        raise Violation(
            f"physical sample has symplectic eigenvalue {before[0]!r} < 1", state=g)


def basis_extension_pairing(t: _Trial):
    """Completing a random canonical pair is not refused (NumericsError)."""
    n = int(t.rng.integers(1, 5))
    f1 = t.rng.normal(size=2 * n)
    f1 /= np.linalg.norm(f1)
    for _ in range(8):
        v = t.rng.normal(size=2 * n)
        s = skew_product(f1, v)
        if abs(s) > MIN_DRAW_SKEW:  # eight unlucky draws in a row check nothing
            extend_to_symplectic_basis(f1, -v / s)  # f1^T J f2 = -1
            return


def physicality_criteria_agree(t: _Trial):
    """The Cholesky verdict, the margin test against the rounding band tau and
    the symplectic-eigenvalue test agree."""
    n_a, n_b = t.partition()
    if t.rng.random() < 0.5:
        g = random_physical_cm(n_a, n_b, t.seed(1))
    else:
        g = random_unphysical_pd(n_a, n_b, t.seed(2))
    v = validate_physical(g)
    if abs(v.min_symplectic_eigenvalue - 1.0) < DEFAULT_TOLERANCES["verdict_band"]:
        return  # too close to the boundary for the two tolerances to align
    by_margin = v.margin >= -g._band
    by_spectrum = v.min_symplectic_eigenvalue >= 1.0 - TOL_VERDICT
    if by_margin != by_spectrum or v.physical != by_margin:
        raise Violation(
            f"physicality criteria disagree: Cholesky {v.physical}, margin "
            f"{v.margin:.3e} (band {g._band:.3e}), min symplectic eigenvalue "
            f"{v.min_symplectic_eigenvalue!r}", state=g)


def partial_transpose_involution(t: _Trial):
    """Applying the partial transpose twice restores gamma bitwise."""
    g, _ = t.state()
    back = partial_transpose(partial_transpose(g))
    if not np.array_equal(back.entries, g.entries):
        raise Violation("partial transpose is not an exact involution", state=g)
    if partial_transpose(g).partition != g.partition:
        raise Violation("partial transpose changed the partition", state=g)


def wigner_involution_and_purity(t: _Trial):
    """Double companion restores gamma; companion fixed points are exactly the
    pure states, constructed as such and by is_pure's unit symplectic spectrum."""
    n_a, n_b = t.partition()
    pure_sample = bool(t.rng.random() < 0.5)
    if pure_sample:
        S = random_symplectic(n_a + n_b, t.seed(1)).entries
        g = CorrelationMatrix(entries=S.T @ S, partition=(n_a, n_b))
    else:
        g = random_physical_cm(n_a, n_b, t.seed(2), nu_range=(1.05, 2.2))
    scale = _scale(g)
    gw = wigner_cm(g)
    back = _maxdiff(wigner_cm(gw).entries, g.entries)
    if back > DEFAULT_TOLERANCES["involution"] * scale ** 2:
        raise Violation(f"double companion moved gamma by {back:.3e}", state=g)
    purity = DEFAULT_TOLERANCES["purity"]
    fixed_point = _maxdiff(gw.entries, g.entries) <= purity * scale ** 2
    if not (is_pure(g) == fixed_point == pure_sample):
        raise Violation(
            f"purity characterizations disagree (constructed pure: {pure_sample}, "
            f"is_pure: {is_pure(g)}, fixed point: {fixed_point})", state=g)


def npt_local_invariance(t: _Trial):
    """The NPT verdict is unchanged by local symplectics on either side."""
    g, meta = t.state()
    before = is_npt(g)
    if abs(before.raw_margin) < DEFAULT_TOLERANCES["verdict_band"]:
        return
    after = is_npt(local_scramble(g, t.seed(3)))
    if after.npt != before.npt:
        raise Violation(
            f"NPT verdict flipped under local symplectics "
            f"(margins {before.raw_margin:.3e} -> {after.raw_margin:.3e}, "
            f"kind {meta['kind']})", state=g)


def conditioning_preserves_physicality(t: _Trial):
    """Homodyne conditioning of a physical state stays physical."""
    n_a, n_b = t.partition()
    g = random_physical_cm(n_a, n_b, t.seed(1))
    mode = int(t.rng.integers(0, n_a + n_b))
    v = validate_physical(condition_on_x_measurement(g, mode))
    if not v.physical:
        raise Violation(
            f"conditioned state unphysical (margin {v.margin:.3e}) after "
            f"measuring mode {mode}", state=g)


def two_mode_equivalence(t: _Trial):
    """On 1x1 states the parameter-level inseparability test equals the PPT test."""
    g, meta = t.state(1, 1)
    verdict = is_npt(g)
    check = check_inseparable(standard_form_params(g))
    floor = DEFAULT_TOLERANCES["residual_floor"] * _scale(g) ** 2
    decisive = (abs(verdict.raw_margin) >= DEFAULT_TOLERANCES["verdict_band"]
                and abs(check.residual) >= floor)
    if decisive and check.inseparable != verdict.npt:
        raise Violation(
            f"inseparability ({check.residual:.3e}) and PPT ({verdict.raw_margin:.3e}) "
            f"tests disagree (kind {meta['kind']})", state=g)


def standard_form_local_invariance(t: _Trial):
    """Parameters are local invariants; the transform realizes them by congruence.

    Near the double root k_x = |k_p| each k carries sqrt-of-epsilon noise, so
    k_x^2 + k_p^2 and k_x k_p are compared, at their natural scale; k_x >= |k_p|
    is exact in floats (k = rho_1 +- rho_2, two hypots) and is not checked.
    """
    g, _ = t.state(1, 1)
    p = standard_form_params(g)
    q = standard_form_params(local_scramble(g, t.seed(3)))
    tol = DEFAULT_TOLERANCES["params_rel"]
    sigma = p.k_x ** 2 + p.k_p ** 2
    pairs = (("n_a", p.n_a, q.n_a, max(1.0, p.n_a)),
             ("n_b", p.n_b, q.n_b, max(1.0, p.n_b)),
             ("k_x^2 + k_p^2", sigma, q.k_x ** 2 + q.k_p ** 2, max(1.0, sigma)),
             ("k_x k_p", p.k_x * p.k_p, q.k_x * q.k_p, max(1.0, sigma)))
    for name, a, b, scale in pairs:
        if abs(a - b) > tol * scale:
            raise Violation(f"parameter {name} moved under local symplectics: "
                            f"{a!r} -> {b!r}", state=g)
    sf = standard_form_transform(g)
    direct = apply_symplectic(g, direct_sum(sf.s_a.entries, sf.s_b.entries))
    tol_congruence = DEFAULT_TOLERANCES["congruence"] * _scale(g)
    if _maxdiff(direct.entries, sf.gamma_std.entries) > tol_congruence:
        raise Violation("standard-form transform does not reproduce its own "
                        "output by congruence", state=g)
    q2 = standard_form_params(sf.gamma_std)
    if (abs(q2.k_x ** 2 + q2.k_p ** 2 - sigma) > tol * max(1.0, sigma)
            or abs(q2.k_x * q2.k_p - p.k_x * p.k_p) > tol * max(1.0, sigma)):
        raise Violation("transform did not preserve the cross-block invariants",
                        state=g)


def inseparable_kxkp_negative(t: _Trial):
    """Every decisively inseparable sample has k_x * k_p < 0."""
    g, _ = t.state(1, 1)
    p = standard_form_params(g)
    check = check_inseparable(p)
    if check.inseparable and check.residual > DEFAULT_TOLERANCES["residual_floor"]:
        if not p.k_x * p.k_p < 0:
            raise Violation(
                f"inseparable sample with k_x*k_p = {p.k_x * p.k_p!r} >= 0", state=g)


def symmetric_specialization(t: _Trial):
    """The symmetric-state criterion matches the general one when n_a = n_b."""
    g = random_symmetric_two_mode(t.seed(1))
    p = standard_form_params(g)
    general = check_inseparable(p)
    special = check_symmetric_inseparable(p.n_a, p.k_x, p.k_p)
    # residuals factor: general = special * (n(k_x-k_p) + |n^2 - k_x k_p - 1|)
    u = p.n_a * (p.k_x - p.k_p)
    v = abs(p.n_a ** 2 - p.k_x * p.k_p - 1.0)
    expected = special.residual * (u + v)
    bound = DEFAULT_TOLERANCES["factorization_rel"] * max(1.0, abs(expected))
    if abs(general.residual - expected) > bound:
        raise Violation(
            f"residual factorization broke: general {general.residual:.3e}, "
            f"special*(u+v) {expected:.3e}", state=g)
    floor = DEFAULT_TOLERANCES["residual_floor"]
    if (min(abs(general.residual), abs(special.residual)) > floor
            and general.inseparable != special.inseparable):
        raise Violation("symmetric and general inseparability verdicts disagree",
                        state=g)


def wigner_duality_inequalities(t: _Trial):
    """Companion parameters keep the physicality inequality and reverse the
    correlation inequality; exact relations N_a n_a = N_b n_b, det flips."""
    g, _ = t.state(1, 1)
    v = validate_physical(g)
    if v.margin < DEFAULT_TOLERANCES["boundary_clearance"]:
        return  # stay clear of the physicality boundary
    p = standard_form_params(g)
    companion = wigner_cm(g)
    w = standard_form_params(companion)
    tol = DEFAULT_TOLERANCES["duality"]
    physicality = check_physical(w).physicality_residual
    if physicality < -tol * _scale(g) ** 4:
        raise Violation(
            f"companion parameters violate the physicality inequality: "
            f"{physicality:.3e}", state=g)
    if w.d_x > 1.0 + tol:
        raise Violation(
            f"companion correlation inequality not reversed: N_aN_b - K_x^2 = "
            f"{w.d_x!r} > 1", state=g)
    det_g = float(np.linalg.det(g.entries))
    if abs(w.n_a * p.n_a - w.n_b * p.n_b) > tol * _scale(g) ** 2:
        raise Violation("cross relation N_a n_a = N_b n_b violated", state=g)
    det_w = float(np.linalg.det(companion.entries))
    if abs(det_w * det_g - 1.0) > tol * max(1.0, det_g):
        raise Violation("determinant of the companion is not 1/det gamma", state=g)


def rc_soundness(t: _Trial):
    """A negative witness value only ever occurs on NPT states; on decisively
    asymptotic symmetric states the r=8 sign matches the limit."""
    symmetric = bool(t.rng.random() < 0.5)
    if symmetric:
        g = random_symmetric_two_mode(t.seed(1))
    else:
        g, _ = t.state(1, 1)
    npt = is_npt(g).npt
    sweep = [rc_value(g, r) for r in (0.5, 2.0, 8.0)]
    values = [res.value for res in sweep]
    # a symmetric draw is a standard form: (n_a, n_b, k_x, k_p) are its entries
    rel = DEFAULT_TOLERANCES["rc_closed_form_rel"]
    if symmetric and any(abs(c.value - v) > rel * abs(v) for c, v in zip(rc_sweep(
            StdFormParams(*g.entries[[0, 2, 0, 1], [0, 2, 2, 3]]), (0.5, 2.0)), values)):
        raise Violation("closed-form rc_sweep disagrees with rc_value", state=g)
    if min(values) < -TOL_VERDICT and not npt:
        raise Violation(
            f"witness went negative ({min(values):.3e}) on a PPT state", state=g)
    if symmetric:
        res = sweep[-1]
        if abs(res.asymptotic_value) >= DEFAULT_TOLERANCES["sign_floor"]:
            if np.sign(res.value) != np.sign(res.asymptotic_value):
                raise Violation(
                    f"witness sign at r=8 ({res.value:.3e}) disagrees with the "
                    f"asymptotic value ({res.asymptotic_value:.3e})", state=g)


def _swap_sides(g: np.ndarray) -> np.ndarray:
    """Exchange the two modes of a 4 x 4 (1x1-mode) matrix."""
    idx = [2, 3, 0, 1]
    return g[np.ix_(idx, idx)]


def symmetrization_oracle(gamma: CorrelationMatrix, theta: float,
                          swapped: bool) -> np.ndarray:
    """Independent reconstruction of the symmetrized companion matrix: couple a
    vacuum ancilla to the hotter side with a beam splitter and condition on a
    q-quadrature measurement of the ancilla (all in the companion picture)."""
    g = standard_form_transform(wigner_cm(gamma)).gamma_std.entries
    if swapped:
        g = _swap_sides(g)
    core = CorrelationMatrix(entries=g, partition=(1, 1))
    joint = direct_sum_states(core, vacuum(0, 1))       # ancilla is global mode 2
    mixer = embed_pair(beam_splitter(theta), 3, 1, 2)   # couples hot side to it
    cond = condition_on_x_measurement(apply_symplectic(joint, mixer), 2)
    out = cond.entries
    if swapped:
        out = _swap_sides(out)
    return out


def symmetrization_invariants(t: _Trial):
    """Closed-form output equals the measurement oracle; output symmetric and
    still NPT.  The scaling law and the scale factor's range are symmetrize's."""
    g = random_asymmetric_npt_1x1(t.seed(1))
    rep = symmetrize(g)
    oracle = symmetrization_oracle(g, rep.theta, rep.swapped_sides)
    got = wigner_cm(rep.gamma_out).entries
    dev = _maxdiff(got, oracle)
    if dev > DEFAULT_TOLERANCES["oracle"] * _scale(rep.gamma_out):
        raise Violation(f"closed-form blocks deviate from the measurement "
                        f"oracle by {dev:.3e}", state=g)
    p = standard_form_params(rep.gamma_out)
    if abs(p.n_a - p.n_b) > DEFAULT_TOLERANCES["symmetry"]:
        raise Violation(f"output not symmetric: n_a={p.n_a!r}, n_b={p.n_b!r}",
                        state=g)
    if not is_npt(rep.gamma_out).npt:
        raise Violation("symmetrization lost NPT-ness", state=g)


def _witness_form(g: np.ndarray, n_a: int, n_b: int, z: np.ndarray) -> float:
    herm = g - 1j * pt_form(n_a, n_b)
    return float(np.real(np.conj(z) @ herm @ z))


def concentration_invariants(t: _Trial):
    """Witness support stays on the first mode pair; the quadratic form value
    survives the congruence and the restriction; the reduced state is
    physical and is the first-pair block of the full congruence by the
    reported pairs' completions, the reference for F^T gamma F."""
    n_a, n_b = t.partition()
    g = random_npt_cm(n_a, n_b, t.seed(1))
    try:
        witness, conc = witness_and_concentrate(g)
    except PipelineStageError as exc:
        raise Violation(str(exc), state=g)
    s_a, s_b = (extend_to_symplectic_basis(*f.T) for f in (conc.f_a, conc.f_b))
    g_red = conc.gamma_1x1
    z = np.asarray(witness.z)
    za, zb = z[: 2 * n_a], z[2 * n_a:]
    z_hat = np.concatenate([np.linalg.solve(s_a.entries, za),
                            np.linalg.solve(s_b.entries, zb)])
    leak = max(float(np.abs(z_hat[2: 2 * n_a]).max(initial=0.0)),
               float(np.abs(z_hat[2 * n_a + 2:]).max(initial=0.0)))
    if leak > DEFAULT_TOLERANCES["leakage"]:
        raise Violation(f"witness support leaked {leak:.3e}", state=g)
    g_hat = apply_symplectic(g, direct_sum(s_a.entries, s_b.entries))
    form_in = _witness_form(g.entries, n_a, n_b, z)
    form_hat = _witness_form(g_hat.entries, n_a, n_b, z_hat)
    z_kept = np.concatenate([z_hat[:2], z_hat[2 * n_a: 2 * n_a + 2]])
    form_red = _witness_form(g_red.entries, 1, 1, z_kept)
    tol = DEFAULT_TOLERANCES["form_identity"] * _scale(g)
    if abs(form_hat - form_in) > tol:
        raise Violation(f"quadratic form moved under the local congruence: "
                        f"{form_in:.6e} -> {form_hat:.6e}", state=g)
    if abs(form_red - form_hat) > tol:
        raise Violation(f"quadratic form moved under restriction: "
                        f"{form_hat:.6e} -> {form_red:.6e}", state=g)
    if form_red >= 0:
        raise Violation("restricted witness form is not negative", state=g)
    red = validate_physical(g_red)
    if not red.physical:
        raise Violation(f"reduced state is unphysical (margin {red.margin:.3e})", state=g)
    diff = _maxdiff(reduce_to_modes(g_hat, [0], [0]).entries, g_red.entries)
    if diff > DEFAULT_TOLERANCES["oracle"] * _scale(g):
        raise Violation(f"reduced state disagrees with mode selection by {diff:.3e}",
                        state=g)


def pipeline_equivalence(t: _Trial):
    """On DISTILLABLE runs the concentrated pair is physical (concentrate decides
    only its NPT-ness), and the standard form and the symmetrized pair are NPT."""
    g, _ = t.state()
    rep = distill_pipeline(g)
    if rep.verdict != VERDICT_DISTILLABLE:
        return
    if not validate_physical(rep.concentration.gamma_1x1).physical:
        raise Violation("concentrated stage output is unphysical", state=g)
    for label, stage_g in (("standard-form", rep.standard_form.gamma_std),
                           ("symmetrized", rep.symmetrization.gamma_out)):
        if not is_npt(stage_g).npt:
            raise Violation(f"{label} stage output is not NPT", state=g)


REGISTRY: tuple[tuple[str, object], ...] = tuple((fn.__name__, fn) for fn in (
    form_matrix_structure, symplectic_group_closure,
    symplectic_spectrum_congruence_invariance, basis_extension_pairing,
    physicality_criteria_agree, partial_transpose_involution,
    wigner_involution_and_purity, npt_local_invariance,
    conditioning_preserves_physicality, two_mode_equivalence,
    standard_form_local_invariance, inseparable_kxkp_negative,
    symmetric_specialization, wigner_duality_inequalities, rc_soundness,
    symmetrization_invariants, concentration_invariants, pipeline_equivalence,
))

_VIOLATION_DUMP_LIMIT = 25


def run_fuzz(config: FuzzConfig) -> dict:
    """Run every registered invariant over the trial stream; returns the
    summary dict (JSON types only).  Never raises on violations."""
    started = time.perf_counter()
    counts = {name: {"checked": config.trials, "violations": 0} for name, _ in REGISTRY}
    dumps: list[dict] = []
    for index, (name, fn) in enumerate(REGISTRY):
        for trial in range(config.trials):
            t = _Trial(config.seed, index, trial)
            try:
                fn(t)
            except Exception as exc:  # a broken invariant must not crash the run
                counts[name]["violations"] += 1
                if len(dumps) == _VIOLATION_DUMP_LIMIT:
                    continue
                dumps.append({"invariant": name, "trial": trial,
                              "seed_entropy": list(t.entropy), "message": str(exc)})
                if not isinstance(exc, Violation):
                    dumps[-1]["message"] = f"unexpected {type(exc).__name__}: {exc}"
                elif exc.state is not None:
                    dumps[-1]["state"] = {"n_a": exc.state.n_a, "n_b": exc.state.n_b,
                                          "gamma": exc.state.entries.tolist()}
    return {
        "config": config.to_dict(),
        "invariants": counts,
        "violations": dumps,
        "total_violations": sum(c["violations"] for c in counts.values()),
        "elapsed_seconds": time.perf_counter() - started,
    }
