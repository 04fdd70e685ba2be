import numpy as np
import pytest

from gdistill import (
    KINDS,
    check_physical,
    det_invariants,
    is_npt,
    is_symmetric,
    local_scramble,
    random_asymmetric_npt_1x1,
    random_npt_cm,
    random_physical_cm,
    random_state,
    random_symmetric_two_mode,
    random_symplectic,
    random_unphysical_pd,
    standard_form_params,
    tmss_cm,
    validate_physical,
)


def test_local_scramble_deterministic_and_invariant_preserving():
    g = tmss_cm(0.6)
    a = local_scramble(g, seed=4)
    b = local_scramble(g, seed=4)
    assert np.array_equal(a.entries, b.entries)
    assert not np.array_equal(a.entries, g.entries)
    assert np.allclose(det_invariants(a), det_invariants(g), rtol=1e-10, atol=1e-10)
    assert is_npt(a).npt


def test_local_scramble_preserves_npt_verdict_nxm():
    # the eigenvalue margin itself moves under local symplectics; the verdict
    # and the transposed-side symplectic spectrum are the invariants
    for seed in range(15):
        g = random_physical_cm(2, 3, seed)
        moved = local_scramble(g, seed=seed + 500)
        assert moved.partition == g.partition
        a, b = is_npt(g), is_npt(moved)
        assert a.npt == b.npt
        assert b.min_pt_symplectic_eigenvalue == pytest.approx(
            a.min_pt_symplectic_eigenvalue, rel=1e-8, abs=1e-9
        )


def test_random_physical_cm():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        n_a, n_b = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        g = random_physical_cm(n_a, n_b, seed)
        assert g.partition == (n_a, n_b)
        assert validate_physical(g).physical
    assert np.array_equal(
        random_physical_cm(2, 2, 9).entries, random_physical_cm(2, 2, 9).entries
    )


def test_random_unphysical_pd():
    for seed in range(25):
        g = random_unphysical_pd(2, 1, seed)
        assert np.linalg.eigvalsh(g.entries)[0] > 0
        assert not validate_physical(g).physical


def test_random_state_kinds_and_metadata():
    for kind in KINDS:
        st, meta = random_state(kind, 2, 1, seed=3)
        assert st.gamma.partition == (2, 1)
        assert validate_physical(st.gamma).physical
        assert meta["kind"] == kind and meta["seed"] == 3
        assert meta["partition"] == [2, 1]
        assert meta["npt"] == is_npt(st.gamma).npt
        assert meta["npt_margin"] == pytest.approx(is_npt(st.gamma).raw_margin)
    with pytest.raises(ValueError):
        random_state("squeezed", 1, 1, seed=0)
    with pytest.raises(ValueError):
        random_state("thermal", 0, 1, seed=0)


def test_random_state_thermal_is_separable():
    # thermal kind applies only local operations to a product state
    for seed in range(20):
        _, meta = random_state("thermal", 2, 2, seed)
        assert not meta["npt"]


def test_random_state_entangled_is_mostly_npt():
    hits = sum(random_state("entangled", 1, 1, seed)[1]["npt"] for seed in range(100))
    assert hits >= 90


def test_random_state_boundary_hugs_the_boundary():
    for seed in range(20):
        _, meta = random_state("boundary", 1, 2, seed)
        assert abs(meta["npt_margin"]) < 1e-4


def test_random_npt_cm():
    for seed in range(20):
        g = random_npt_cm(2, 2, seed)
        v = is_npt(g)
        assert v.npt and v.raw_margin <= -1e-6


def test_random_asymmetric_npt_1x1():
    for seed in range(20):
        g = random_asymmetric_npt_1x1(seed)
        assert g.partition == (1, 1)
        assert is_npt(g).npt
        p = standard_form_params(g)
        assert abs(p.n_a - p.n_b) >= 1e-3
        assert abs(p.n_a - p.n_b) > 1e-4


def test_random_symmetric_two_mode():
    npt_seen = sep_seen = False
    for seed in range(30):
        g = random_symmetric_two_mode(seed)
        p = standard_form_params(g)
        assert is_symmetric(p)
        assert check_physical(p).physical
        if is_npt(g).npt:
            npt_seen = True
        else:
            sep_seen = True
    assert npt_seen and sep_seen  # generator mixes both populations


@pytest.mark.parametrize("draw", [
    lambda: random_state("entangled", 1, 1, -1),
    lambda: random_npt_cm(1, 1, -1),
    lambda: random_physical_cm(1, 1, -1),
    lambda: random_unphysical_pd(1, 1, -1),
    lambda: random_asymmetric_npt_1x1(-1),
    lambda: random_symmetric_two_mode(-1),
    lambda: local_scramble(tmss_cm(0.5), -1),
    lambda: random_symplectic(1, -1),
], ids=["random_state", "random_npt_cm", "random_physical_cm", "random_unphysical_pd",
        "random_asymmetric_npt_1x1", "random_symmetric_two_mode", "local_scramble",
        "random_symplectic"])
def test_generators_refuse_a_negative_seed(draw):
    with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
        draw()
