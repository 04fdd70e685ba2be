import re

import numpy as np
import pytest

from gdistill import (
    CorrelationMatrix,
    KINDS,
    StdFormParams,
    apply_symplectic,
    check_physical,
    det_invariants,
    direct_sum,
    direct_sum_states,
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
from gdistill.random_states import _rng, _subseed


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


@pytest.mark.parametrize("draw, message", [
    (lambda: random_state("entangled", 1, 1, 1.5), "seed must be an integer, got 1.5"),
    (lambda: random_state("entangled", 1, 1, True), "seed must be an integer, got True"),
    (lambda: random_state("entangled", 1, 1, float("nan")), "seed must be an integer, got nan"),
    (lambda: random_state("entangled", 1, 1, "3"), "seed must be an integer, got '3'"),
    (lambda: random_npt_cm(1, 1, 2.0), "seed must be an integer, got 2.0"),
    (lambda: local_scramble(tmss_cm(0.5), 2.5), "seed must be an integer, got 2.5"),
    (lambda: random_symplectic(1, 1.5), "seed must be an integer, got 1.5"),
    (lambda: random_state("thermal", 1.5, 1, 0), "mode counts must be integers, got (1.5, 1)"),
    (lambda: random_state("entangled", True, 1, 0),
     "mode counts must be integers, got (True, 1)"),
    (lambda: random_npt_cm(2, 1.0, 0), "mode counts must be integers, got (2, 1.0)"),
    (lambda: random_physical_cm(1.0, 1, 0), "mode counts must be integers, got (1.0, 1)"),
    (lambda: random_unphysical_pd(1, True, 0), "mode counts must be integers, got (1, True)"),
    (lambda: random_symplectic(1.5, 0), "mode count must be an integer, got 1.5"),
    (lambda: random_symplectic(True, 0), "mode count must be an integer, got True"),
])
def test_generators_refuse_seeds_and_mode_counts_that_are_not_integers(draw, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        draw()


def test_generators_take_numpy_integers():
    st, meta = random_state("entangled", np.int64(2), np.int32(1), np.uint64(3))
    ref, ref_meta = random_state("entangled", 2, 1, 3)
    assert np.array_equal(st.gamma.entries, ref.gamma.entries)
    assert meta == ref_meta and type(meta["partition"][0]) is int


# the chain of validated matrices random_state and random_asymmetric_npt_1x1
# built before each draw validated only its result: every intermediate a
# CorrelationMatrix, the scramble S_A (+) S_B applied by apply_symplectic, as
# local_scramble applied it, on the same _rng/_subseed streams

def _chained_scramble(gamma, seed):
    sa = random_symplectic(gamma.n_a, _subseed(seed, 1)).entries
    sb = random_symplectic(gamma.n_b, _subseed(seed, 2)).entries
    return apply_symplectic(gamma, direct_sum(sa, sb))


def _chained_random_state(kind, n_a, n_b, seed):
    rng = _rng(seed, 0)

    def thermal(n_a, n_b):
        nus = rng.uniform(1.05, 2.5, size=n_a + n_b)
        return CorrelationMatrix(entries=np.diag(np.repeat(nus, 2)), partition=(n_a, n_b))

    if kind == "thermal":
        return _chained_scramble(thermal(n_a, n_b), _subseed(seed, 3))
    if kind == "entangled":
        r, eta, nu = rng.uniform(0.15, 1.1), rng.uniform(0.4, 0.95), rng.uniform(1.0, 1.8)
        a = eta * np.cosh(2 * r) + (1 - eta) * nu
        c, salt = eta * np.sinh(2 * r), 4
    else:
        a = rng.uniform(1.3, 2.2)
        delta = 10.0 ** rng.uniform(-9.0, -6.0)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        c, salt = a - (1.0 + sign * delta), 5
    core = StdFormParams(n_a=a, n_b=a, k_x=c, k_p=-c).matrix()
    if n_a + n_b > 2:
        core = direct_sum_states(core, thermal(n_a - 1, n_b - 1))
    return _chained_scramble(core, _subseed(seed, salt))


def _chained_asymmetric_npt_1x1(seed):
    for k in range(64):
        rng = _rng(seed, 40, k)
        r, eta, nu = rng.uniform(0.35, 1.1), rng.uniform(0.6, 0.97), rng.uniform(1.0, 1.4)
        a = eta * np.cosh(2 * r) + (1 - eta) * nu
        t = rng.uniform(0.45, 0.92)
        b, k_x = t * a + 1.0 - t, np.sqrt(t) * (eta * np.sinh(2 * r))
        core = StdFormParams(n_a=a, n_b=b, k_x=k_x, k_p=-k_x).matrix()
        g = _chained_scramble(core, _subseed(seed, 41, k))
        v = is_npt(g)
        if v.npt and v.raw_margin <= -1e-5 and abs(a - b) >= 1e-3:
            return g
    raise AssertionError(f"no sample for seed {seed}")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("partition", [(1, 1), (1, 3), (3, 2), (4, 4)])
def test_random_state_is_the_validated_chain_bit_for_bit(kind, partition):
    for seed in range(20):
        st, _ = random_state(kind, *partition, seed)
        assert np.array_equal(st.gamma.entries,
                              _chained_random_state(kind, *partition, seed).entries)


def test_random_asymmetric_npt_1x1_is_the_validated_chain_bit_for_bit():
    for seed in range(20):
        assert np.array_equal(random_asymmetric_npt_1x1(seed).entries,
                              _chained_asymmetric_npt_1x1(seed).entries)


def test_local_scramble_is_the_chained_scramble_bit_for_bit():
    for seed in range(10):
        g = random_physical_cm(2, 3, seed)
        assert np.array_equal(local_scramble(g, seed).entries,
                              _chained_scramble(g, seed).entries)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("partition", [(1, 1), (3, 2)])
def test_random_state_validates_one_matrix(kind, partition, monkeypatch):
    built = []
    real_post_init = CorrelationMatrix.__post_init__

    def recording(self):
        built.append(self)
        real_post_init(self)

    monkeypatch.setattr(CorrelationMatrix, "__post_init__", recording)
    st, _ = random_state(kind, *partition, 11)
    assert len(built) == 1 and built[0] is st.gamma
