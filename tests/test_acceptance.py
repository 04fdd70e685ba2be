"""End-to-end acceptance gate.

Each test covers one acceptance criterion and prints exactly one
[PASS]/[FAIL] line with the measured numbers (run pytest with -s to see
them).  Tolerances are stated inline; none of them may be loosened without
revisiting the numerical analysis in the module docstrings.
"""

import time

import numpy as np

from gdistill import (
    KINDS,
    CorrelationMatrix,
    FuzzConfig,
    VERDICT_DISTILLABLE,
    VERDICT_NOT_DISTILLABLE,
    check_inseparable,
    check_physical,
    distill_pipeline,
    extend_to_symplectic_basis,
    is_npt,
    partial_transpose,
    random_asymmetric_npt_1x1,
    random_npt_cm,
    random_state,
    random_symmetric_two_mode,
    random_symplectic,
    rc_value,
    run_fuzz,
    standard_form_params,
    standard_form_transform,
    symmetrize,
    symplectic_eigenvalues,
    tmss_cm,
    wigner_cm,
)
from gdistill.distill import BOUNDARY_BAND, witness_and_concentrate
from gdistill.fuzz import symmetrization_oracle


def report(ok: bool, line: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {line}")
    assert ok, line


def test_01_pipeline_verdict_equals_transposition_test():
    # 1000 random states, mixed kinds, up to 4 modes per side: the pipeline
    # verdict must equal the partial-transposition test on every draw whose
    # margin is decisive (|margin| >= 1e-7), in under two minutes
    started = time.perf_counter()
    checked = skipped = 0
    failures = []
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        n_a, n_b = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        kind = KINDS[seed % len(KINDS)]
        state, meta = random_state(kind, n_a, n_b, seed)
        if abs(meta["npt_margin"]) < BOUNDARY_BAND:
            skipped += 1
            continue
        want = VERDICT_DISTILLABLE if meta["npt"] else VERDICT_NOT_DISTILLABLE
        try:
            got = distill_pipeline(state.gamma).verdict
        except Exception as exc:  # noqa: BLE001 - any failure counts
            failures.append((seed, f"{type(exc).__name__}: {exc}"))
            continue
        if got != want:
            failures.append((seed, f"verdict {got}, transposition test says {want}"))
        checked += 1
    elapsed = time.perf_counter() - started
    # a third of the draws hug the boundary on purpose; most get skipped
    ok = not failures and checked >= 600 and elapsed < 120.0
    report(ok, f"pipeline verdict vs transposition test: {checked - len(failures)}"
               f"/{checked} decisive draws agree, {skipped} boundary draws skipped, "
               f"{len(failures)} failures, {elapsed:.1f}s (limit 120s)"
               + (f"; first failure {failures[0]}" if failures else ""))


def test_02_two_mode_parameter_criterion_equals_transposition_test():
    # 1000 random one-pair states from four generators: the parameter-form
    # inseparability test must agree with the transposition test outside the
    # boundary band; zero disagreements allowed
    checked = skipped = 0
    disagreements = []
    for seed in range(1000):
        lane = seed % 4
        if lane == 0:
            g = random_symmetric_two_mode(seed)
        elif lane == 1:
            g = random_asymmetric_npt_1x1(seed)
        else:
            kind = "entangled" if lane == 2 else "thermal"
            g = random_state(kind, 1, 1, seed)[0].gamma
        verdict = is_npt(g)
        if abs(verdict.raw_margin) < BOUNDARY_BAND:
            skipped += 1
            continue
        chk = check_inseparable(standard_form_params(g))
        if chk.inseparable != verdict.npt:
            disagreements.append((seed, chk.residual, verdict.raw_margin))
        checked += 1
    ok = not disagreements and checked >= 900
    report(ok, f"parameter criterion vs transposition test: {checked} decisive "
               f"one-pair draws, {len(disagreements)} disagreements, "
               f"{skipped} boundary draws skipped"
               + (f"; first {disagreements[0]}" if disagreements else ""))


def test_03_squeezed_pair_frozen_parameters():
    # the squeezed pair at r in {0.25, 0.5, 1.0}: parameters
    # (cosh 2r, cosh 2r, sinh 2r, -sinh 2r) to 1e-12, physicality residual
    # 0 +- 1e-10, inseparability residual 2 cosh 4r - 2 +- 1e-9
    worst_param = worst_phys = worst_insep = 0.0
    for r in (0.25, 0.5, 1.0):
        p = standard_form_params(tmss_cm(r))
        ch, sh = np.cosh(2 * r), np.sinh(2 * r)
        worst_param = max(worst_param, abs(p.n_a - ch), abs(p.n_b - ch),
                          abs(p.k_x - sh), abs(p.k_p + sh))
        worst_phys = max(worst_phys, abs(check_physical(p).physicality_residual))
        worst_insep = max(worst_insep,
                          abs(check_inseparable(p).residual - (2 * np.cosh(4 * r) - 2)))
    ok = worst_param <= 1e-12 and worst_phys <= 1e-10 and worst_insep <= 1e-9
    report(ok, f"squeezed-pair parameter extraction: max parameter error "
               f"{worst_param:.2e} (tol 1e-12), physicality residual "
               f"{worst_phys:.2e} (tol 1e-10), inseparability residual error "
               f"{worst_insep:.2e} (tol 1e-9)")


def test_04_symmetrization_matches_measurement_oracle():
    # 500 random asymmetric one-pair NPT states: closed-form output blocks vs
    # actually beam-splitting the hot side with a vacuum ancilla and
    # conditioning on its q quadrature; max entrywise deviation <= 1e-10,
    # output symmetric to 1e-8 and NPT every trial, scale factor matches
    # (N_hot tan^2(theta) + 1)^{-1} to 1e-8 relative
    worst_entry = worst_sym = worst_scale = 0.0
    npt_failures = 0
    for seed in range(500):
        g = random_asymmetric_npt_1x1(seed)
        rep = symmetrize(g)
        oracle = symmetrization_oracle(g, rep.theta, rep.swapped_sides)
        got = wigner_cm(rep.gamma_out).entries
        worst_entry = max(worst_entry, float(np.abs(got - oracle).max()))
        p = standard_form_params(rep.gamma_out)
        worst_sym = max(worst_sym, abs(p.n_a - p.n_b))
        if not is_npt(rep.gamma_out).npt:
            npt_failures += 1
        gw = standard_form_transform(wigner_cm(g)).params
        n_hot = min(gw.n_a, gw.n_b)
        expect = 1.0 / (n_hot * np.tan(rep.theta) ** 2 + 1.0)
        worst_scale = max(worst_scale, abs(rep.scale_factor - expect) / expect)
    ok = (worst_entry <= 1e-10 and worst_sym <= 1e-8
          and npt_failures == 0 and worst_scale <= 1e-8)
    report(ok, f"symmetrization vs measurement oracle over 500 draws: max "
               f"entrywise deviation {worst_entry:.2e} (tol 1e-10), max "
               f"asymmetry {worst_sym:.2e} (tol 1e-8), {npt_failures} outputs "
               f"lost NPT, scale-factor error {worst_scale:.2e} (tol 1e-8 rel)")


def test_05_concentration_on_random_multimode_states():
    # 500 random multimode NPT states (up to 4x4): concentration must deliver
    # a one-pair NPT state with witness support leakage <= 1e-6; zero hard
    # failures allowed, and with no retry every concentration failure is one
    hard_failures = []
    worst_leak = 0.0
    for seed in range(500):
        rng = np.random.default_rng(seed + 10_000)
        n_a, n_b = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        g = random_npt_cm(n_a, n_b, seed)
        # the witness -> concentrate stages the pipeline and CLI run
        try:
            w, conc = witness_and_concentrate(g)
        except Exception as exc:  # noqa: BLE001 - any failure counts
            hard_failures.append((seed, f"{type(exc).__name__}: {exc}"))
            continue
        # complete the reported pairs to the local symplectics they start
        s_a, s_b = (extend_to_symplectic_basis(*f.T) for f in (conc.f_a, conc.f_b))
        z_hat = np.concatenate([
            np.linalg.solve(s_a.entries, w.z[: 2 * n_a]),
            np.linalg.solve(s_b.entries, w.z[2 * n_a :]),
        ])
        leak = max(float(np.abs(z_hat[2 : 2 * n_a]).max(initial=0.0)),
                   float(np.abs(z_hat[2 * n_a + 2 :]).max(initial=0.0)))
        worst_leak = max(worst_leak, leak)
        if not is_npt(conc.gamma_1x1).npt:
            hard_failures.append((seed, "reduced state not NPT"))
    ok = not hard_failures and worst_leak <= 1e-6
    report(ok, f"concentration over 500 multimode NPT draws: "
               f"{len(hard_failures)} hard failures, worst support leakage "
               f"{worst_leak:.2e} (tol 1e-6)"
               + (f"; first {hard_failures[0]}" if hard_failures else ""))


def test_06_reduction_witness_sign_matches_asymptotics():
    # 200 random symmetric one-pair states with decisive asymptotic value
    # (|(n-k_x)(n+k_p)-1| >= 1e-3): the witness value at probe r=8 must have
    # the asymptotic sign in 100% of cases
    accepted = 0
    mismatches = []
    seed = 0
    while accepted < 200 and seed < 4000:
        g = random_symmetric_two_mode(seed)
        seed += 1
        p = standard_form_params(g)
        n = np.sqrt(p.n_a * p.n_b)
        asym = (n - p.k_x) * (n + p.k_p) - 1.0
        if abs(asym) < 1e-3:
            continue
        accepted += 1
        value = rc_value(g, 8.0).value
        if np.sign(value) != np.sign(asym):
            mismatches.append((seed - 1, value, asym))
    ok = not mismatches and accepted == 200
    report(ok, f"reduction-witness sign vs asymptotics: {accepted - len(mismatches)}"
               f"/{accepted} decisive symmetric draws agree at probe r=8"
               + (f"; first mismatch {mismatches[0]}" if mismatches else ""))


def test_07_structural_invariants_and_fuzz_campaign():
    # 500 trials each: symplectic spectrum invariance under symplectic
    # congruence (1e-8), partial-transpose involution (bit-exact), Wigner
    # companion involution (1e-10); then the default fuzz campaign must
    # come back clean in under 60 seconds
    worst_spec = worst_wig = 0.0
    pt_exact = True
    for seed in range(500):
        rng = np.random.default_rng(seed + 50_000)
        n_a, n_b = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        n = n_a + n_b
        nus = np.sort(rng.uniform(1.0, 2.5, size=n))
        D = np.diag(np.repeat(nus, 2))
        S = random_symplectic(n, seed=seed).entries
        moved = symplectic_eigenvalues(S.T @ D @ S)
        worst_spec = max(worst_spec, float(np.abs(moved - nus).max() / nus.max()))

        m = rng.normal(size=(2 * n, 2 * n))
        g = CorrelationMatrix(entries=m @ m.T + np.eye(2 * n), partition=(n_a, n_b))
        if not np.array_equal(partial_transpose(partial_transpose(g)).entries, g.entries):
            pt_exact = False
        back = wigner_cm(wigner_cm(g)).entries
        scale = max(1.0, float(np.abs(g.entries).max()))
        worst_wig = max(worst_wig, float(np.abs(back - g.entries).max() / scale))

    started = time.perf_counter()
    summary = run_fuzz(FuzzConfig())
    fuzz_elapsed = time.perf_counter() - started
    fuzz_ok = summary["total_violations"] == 0 and fuzz_elapsed < 60.0
    ok = worst_spec <= 1e-8 and pt_exact and worst_wig <= 1e-10 and fuzz_ok
    report(ok, f"structural invariants over 500 trials: spectrum congruence "
               f"error {worst_spec:.2e} (tol 1e-8), transposition involution "
               f"exact={pt_exact}, companion involution error {worst_wig:.2e} "
               f"(tol 1e-10); default fuzz campaign: "
               f"{summary['total_violations']} violations in {fuzz_elapsed:.1f}s "
               f"(limit 60s)")
