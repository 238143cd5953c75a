"""Metropolis sampling, chain spectra, and the walk-operator gap relation."""

import tracemalloc

import numpy as np
import pytest

from qest.numerics import DomainError, HermitianOperator, exact_partition, FunctionSpec
from qest.sampler import (
    DENSE_WALK_BYTES_PER_ENTRY,
    MAX_CHAIN_STEPS,
    MAX_DENSE_WALK_BYTES,
    ChainConfig,
    ChainRun,
    MarkovChain,
    SamplerError,
    build_metropolis_matrix,
    chain_eigenvalues,
    discriminant_phase_gap,
    metropolis_sample,
    phase_gap,
    ratio_from_weights,
    run_chain,
    spectral_gap,
    szegedy_walk_operator,
    trajectory_to_csv,
    walk_eigenphases,
    _bit_count,
    _DrawStream,
)
from qest.synth import random_positive_weights, random_reversible_chain

# chi-square critical value at p = 0.001 for 7 degrees of freedom,
# frozen from a bisection of the regularized incomplete gamma function.
CHI2_CRIT_DF7 = 24.3219


def frequencies(samples, dim):
    return np.bincount(samples, minlength=dim) / len(samples)


# ----------------------------------------------------------------- chains

def test_markov_chain_validates_rows():
    with pytest.raises(DomainError):
        MarkovChain(np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(DomainError):
        MarkovChain(np.array([[1.5, -0.5], [0.5, 0.5]]))


def test_markov_chain_checks_stationary_claim():
    p = np.array([[0.75, 0.25], [0.5, 0.5]])
    MarkovChain(p, stationary=np.array([2 / 3, 1 / 3]))
    with pytest.raises(DomainError):
        MarkovChain(p, stationary=np.array([0.5, 0.5]))


def test_chain_config_validation():
    with pytest.raises(DomainError):
        ChainConfig(0, seed=1)
    with pytest.raises(DomainError):
        ChainConfig(10, seed=1, proposal="teleport")
    with pytest.raises(DomainError):
        ChainConfig(10, seed=1, burn_in=-1)
    with pytest.raises(DomainError):
        ChainConfig(10, seed=2 ** 64)


def test_build_uniform_target_uniform_proposal():
    chain = build_metropolis_matrix(np.ones(4), "uniform")
    np.testing.assert_allclose(chain.transition, np.full((4, 4), 0.25), atol=1e-14)


def test_build_two_state_hand_values():
    chain = build_metropolis_matrix(np.array([2.0, 1.0]), "uniform")
    np.testing.assert_allclose(
        chain.transition, [[0.75, 0.25], [0.5, 0.5]], atol=1e-14
    )
    np.testing.assert_allclose(chain.stationary, [2 / 3, 1 / 3], atol=1e-12)


def test_build_rejects_bad_weights():
    with pytest.raises(DomainError):
        build_metropolis_matrix(np.zeros(4), "uniform")
    with pytest.raises(DomainError):
        build_metropolis_matrix(np.array([1.0, -1.0]), "uniform")


def test_detailed_balance_sweep():
    for seed in range(10):
        rng = np.random.default_rng(900 + seed)
        mu = random_positive_weights(rng, 8)
        for proposal in ("uniform", "single-bit-flip"):
            chain = build_metropolis_matrix(mu, proposal)
            pi = chain.stationary
            flow = pi[:, None] * chain.transition
            assert np.abs(flow - flow.T).max() <= 1e-10


def test_stationarity_sweep():
    for seed in range(10):
        rng = np.random.default_rng(950 + seed)
        chain = random_reversible_chain(rng, 8, "single-bit-flip")
        pi = chain.stationary
        assert np.abs(pi @ chain.transition - pi).max() <= 1e-10


# ------------------------------------------------------------ eigenstructure

def test_spectral_gap_hand_values():
    flat = MarkovChain(np.full((2, 2), 0.5))
    assert spectral_gap(flat) == pytest.approx(1.0)
    frozen = build_metropolis_matrix(np.array([2.0, 1.0]), "uniform")
    vals = np.sort(chain_eigenvalues(frozen))
    np.testing.assert_allclose(vals, [0.25, 1.0], atol=1e-12)
    assert spectral_gap(frozen) == pytest.approx(0.75)


def test_spectral_gap_identity_chain():
    assert spectral_gap(MarkovChain(np.eye(4))) == pytest.approx(0.0)


def test_spectral_gap_rejects_non_reversible():
    # A 3-cycle has no detailed balance.
    p = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    with pytest.raises(DomainError):
        spectral_gap(MarkovChain(p))


def test_chain_eigenvalues_match_direct_solve():
    rng = np.random.default_rng(97)
    chain = random_reversible_chain(rng, 8, "uniform")
    got = np.sort(chain_eigenvalues(chain))
    want = np.sort(np.linalg.eigvals(chain.transition).real)
    np.testing.assert_allclose(got, want, atol=1e-10)


# ------------------------------------------------------------------ sampling

def test_uniform_target_frequency():
    cfg = ChainConfig(10 ** 5, seed=101, proposal="uniform", burn_in=100)
    samples = metropolis_sample(ratio_from_weights(np.ones(2)), 2, cfg)
    # Uniform target, uniform proposal: every move accepts, draws are iid.
    freq = frequencies(samples, 2)
    assert abs(freq[0] - 0.5) <= 3 * np.sqrt(0.25 / 10 ** 5)


def test_absorbing_support_stays_put():
    cfg = ChainConfig(500, seed=7, proposal="uniform", burn_in=50)
    samples = metropolis_sample(ratio_from_weights(np.array([1.0, 0.0])), 2, cfg)
    assert samples == [0] * 500


def test_boltzmann_weights_recovered():
    # Seeded diagonal 3-qubit Hamiltonian at beta = 1.
    rng = np.random.default_rng(103)
    energies = rng.uniform(0.0, 2.0, size=8)
    mu = np.exp(-energies)
    z = exact_partition(
        HermitianOperator(np.diag(energies)), 1.0, FunctionSpec.constant(1.0)
    )
    target = mu / z
    cfg = ChainConfig(10 ** 5, seed=105, proposal="uniform", burn_in=1000)
    samples = metropolis_sample(ratio_from_weights(mu), 8, cfg)
    freq = frequencies(samples, 8)
    n = len(samples)
    for x in range(8):
        sigma = np.sqrt(target[x] * (1 - target[x]) / n)
        # Correlated draws widen the band; the uniform proposal keeps the
        # correlation mild, so 3 sigma with a 2x inflation is safe.
        assert abs(freq[x] - target[x]) <= 6 * sigma
    chi2 = n * np.sum((freq - target) ** 2 / target)
    assert chi2 <= CHI2_CRIT_DF7


def test_all_zero_target_detected():
    ratio = lambda x, y: float("nan")
    cfg = ChainConfig(100, seed=3, proposal="uniform", burn_in=0)
    with pytest.raises(SamplerError):
        run_chain(ratio, 4, cfg)


def test_negative_ratio_rejected():
    cfg = ChainConfig(100, seed=3, proposal="uniform", burn_in=0)
    with pytest.raises(DomainError):
        run_chain(lambda x, y: -1.0, 4, cfg)


def test_fixed_seed_determinism():
    mu = np.array([1.0, 2.0, 3.0, 4.0])
    cfg = ChainConfig(300, seed=11, burn_in=20)
    first = run_chain(ratio_from_weights(mu), 4, cfg)
    again = run_chain(ratio_from_weights(mu), 4, cfg)
    assert first.samples == again.samples
    assert first.n_accepted == again.n_accepted


def test_scale_invariance_of_trajectories():
    # mu -> c*mu leaves every ratio unchanged, so the walk is identical.
    mu = np.array([0.2, 1.7, 0.9, 2.4])
    cfg = ChainConfig(400, seed=13, burn_in=10)
    base = run_chain(ratio_from_weights(mu), 4, cfg)
    scaled = run_chain(ratio_from_weights(173.0 * mu), 4, cfg)
    assert base.samples == scaled.samples


def test_run_chain_respects_schedule():
    cfg = ChainConfig(25, seed=17, burn_in=7, thinning=3)
    run = run_chain(ratio_from_weights(np.ones(4)), 4, cfg)
    assert len(run.samples) == 25
    assert run.n_proposed == 7 + 25 * 3


def test_bit_flip_needs_power_of_two():
    cfg = ChainConfig(10, seed=1, proposal="single-bit-flip")
    with pytest.raises(DomainError):
        run_chain(ratio_from_weights(np.ones(3)), 3, cfg)


def test_ratio_from_weights_values():
    ratio = ratio_from_weights(np.array([2.0, 1.0, 0.0]))
    assert ratio(0, 1) == pytest.approx(0.5)
    assert ratio(1, 0) == pytest.approx(2.0)
    assert ratio(2, 0) == np.inf
    assert np.isnan(ratio(2, 2))


def test_trajectory_csv_format():
    text = trajectory_to_csv([3, 1, 4])
    assert text.splitlines() == ["step,x", "0,3", "1,1", "2,4"]


# ------------------------------------------------------------- Szegedy walk

def test_walk_is_orthogonal():
    rng = np.random.default_rng(107)
    chain = random_reversible_chain(rng, 4, "uniform")
    w = szegedy_walk_operator(chain).entries
    assert np.abs(w @ w.conj().T - np.eye(16)).max() <= 1e-10
    assert np.abs(w.imag).max() == 0


def test_walk_identity_chain_has_zero_phase():
    chain = MarkovChain(np.eye(2))
    phases = walk_eigenphases(szegedy_walk_operator(chain), chain)
    np.testing.assert_allclose(phases, np.zeros(len(phases)), atol=1e-10)


def test_walk_two_state_frozen_phases():
    chain = build_metropolis_matrix(np.array([2.0, 1.0]), "uniform")
    walk = szegedy_walk_operator(chain)
    phases = np.sort(walk_eigenphases(walk, chain))
    want = np.sort([-np.arccos(0.25), 0.0, np.arccos(0.25)])
    np.testing.assert_allclose(phases, want, atol=1e-8)
    assert phase_gap(walk, chain) == pytest.approx(1.3181, abs=1e-4)


def test_phase_gap_lambda_zero_chain():
    chain = MarkovChain(np.full((2, 2), 0.5))
    walk = szegedy_walk_operator(chain)
    assert phase_gap(walk, chain) == pytest.approx(np.pi / 2, abs=1e-10)


def test_phase_gap_lazy_half_chain():
    # Lazy uniform chain with lambda_2 = 0.5: gap arccos(0.5) = pi/3 >= 1.
    chain = MarkovChain(np.array([[0.75, 0.25], [0.25, 0.75]]))
    walk = szegedy_walk_operator(chain)
    gap = phase_gap(walk, chain)
    assert gap == pytest.approx(np.pi / 3, abs=1e-10)
    assert gap >= np.sqrt(2 * spectral_gap(chain))


def test_phase_gap_degenerate_chain_flagged():
    chain = MarkovChain(np.eye(4))
    walk = szegedy_walk_operator(chain)
    with pytest.raises(DomainError):
        phase_gap(walk, chain)


def test_walk_dimension_guard():
    dim = 300  # squared walk space would exceed the desk-scale cap
    with pytest.raises(DomainError):
        szegedy_walk_operator(MarkovChain(np.full((dim, dim), 1 / dim)))


def test_walk_phases_match_chain_spectrum():
    for seed in range(10):
        rng = np.random.default_rng(1100 + seed)
        chain = random_reversible_chain(rng, 4, "uniform")
        lams = np.sort(chain_eigenvalues(chain))[::-1]
        walk = szegedy_walk_operator(chain)
        phases = np.sort(walk_eigenphases(walk, chain))
        acos = np.arccos(np.clip(lams[1:], -1.0, 1.0))
        want = np.sort(np.concatenate([[0.0], acos, -acos]))
        np.testing.assert_allclose(phases, want, atol=1e-8)
        # Real orthogonal walk: the phase multiset is symmetric.
        np.testing.assert_allclose(phases, -phases[::-1], atol=1e-8)


def test_gap_relation_sweep():
    for seed in range(20):
        rng = np.random.default_rng(1200 + seed)
        dim = int(rng.integers(2, 9))
        chain = random_reversible_chain(rng, dim, "uniform")
        delta = spectral_gap(chain)
        if delta <= 1e-9:
            continue
        gap = phase_gap(szegedy_walk_operator(chain), chain)
        assert gap >= np.sqrt(2 * delta) - 1e-10


# ---------------------------------------------- blocked kernel vs per-step

def reference_run_chain(ratio, dim: int, config: ChainConfig):
    """The per-step kernel the blocked run_chain replaced, kept as its oracle."""
    if dim < 1:
        raise DomainError(f"dimension must be >= 1, got {dim}")
    n_bits = _bit_count(dim) if config.proposal == "single-bit-flip" else 0
    rng = np.random.default_rng(config.seed)

    x = 0
    samples = []
    n_proposed = 0
    n_accepted = 0
    ever_accepted = False
    nan_streak = 0
    nan_budget = 100 + 10 * dim
    total = config.burn_in + config.n_steps * config.thinning
    for step in range(total):
        if config.proposal == "uniform":
            y = int(rng.integers(0, dim))
        else:
            y = x ^ (1 << int(rng.integers(0, n_bits)))
        r = float(ratio(x, y))
        n_proposed += 1
        if np.isnan(r):
            if not ever_accepted:
                nan_streak += 1
                if nan_streak > nan_budget:
                    raise SamplerError(
                        "target measure looks identically zero: no move "
                        f"accepted after {nan_streak} undefined ratios"
                    )
            accept = False
            rng.random()  # keep the draw stream aligned with accepted paths
        else:
            if r < 0:
                raise DomainError(f"ratio oracle returned negative value {r}")
            accept = rng.random() < min(1.0, r)
        if accept:
            x = y
            n_accepted += 1
            ever_accepted = True
        if step >= config.burn_in and (step - config.burn_in) % config.thinning == (
            config.thinning - 1
        ):
            samples.append(x)
    if not ever_accepted and nan_streak == n_proposed:
        # Short runs can end before the streak budget trips.
        raise SamplerError(
            "target measure looks identically zero: every ratio was undefined"
        )
    return ChainRun(samples, n_proposed, n_accepted)


def reference_ratio_from_weights(mu):
    """The numpy-division closure the plain-list ratio oracle replaced."""
    mu = np.asarray(mu, dtype=float)

    def ratio(x, y):
        with np.errstate(divide="ignore", invalid="ignore"):
            return mu[y] / mu[x]

    return ratio


def outcome(kernel, ratio, dim, config):
    try:
        run = kernel(ratio, dim, config)
    except (SamplerError, DomainError) as exc:
        return type(exc), str(exc)
    return run.n_proposed, run.n_accepted, run.samples


PROPOSAL_DIMS = [("uniform", d) for d in (2, 3, 6, 8, 16, 64)] + [
    ("single-bit-flip", d) for d in (2, 8, 16, 64)
]
# (n_steps, burn_in, thinning, seed); the last crosses a block boundary.
SCHEDULES = [(300, 0, 1, 0), (250, 7, 3, 2 ** 64 - 1), (3200, 1000, 1, 987654321)]


def weight_cases(dim, rng):
    """(name, blocked-kernel ratio, reference ratio) triples."""
    positive = rng.uniform(0.05, 1.0, size=dim) ** 3
    zeros = positive.copy()
    zeros[0] = 0.0  # the start state: inf ratios out of it
    zeros[rng.permutation(dim)[: dim // 3]] = 0.0  # and nan between zeros
    plain = lambda x, y: (y % 5 + 1) / (x % 5 + 1)
    return [
        ("positive", ratio_from_weights(positive), reference_ratio_from_weights(positive)),
        ("zeros", ratio_from_weights(zeros), reference_ratio_from_weights(zeros)),
        ("lambda", plain, plain),
    ]


@pytest.mark.parametrize("proposal, dim", PROPOSAL_DIMS)
def test_blocked_kernel_reproduces_per_step_trajectories(proposal, dim):
    rng = np.random.default_rng(1300 + dim)
    for name, ratio, reference in weight_cases(dim, rng):
        for n_steps, burn_in, thinning, seed in SCHEDULES:
            cfg = ChainConfig(n_steps, seed, proposal, burn_in, thinning)
            got = outcome(run_chain, ratio, dim, cfg)
            want = outcome(reference_run_chain, reference, dim, cfg)
            assert got == want, (name, cfg)
            assert isinstance(got[2], list), (name, cfg)


ERROR_CASES = {
    # total steps below the nan budget: the end-of-run check trips
    "all-nan-short": (lambda x, y: float("nan"), 4, ChainConfig(10, 3, "uniform", 0)),
    # the streak budget trips mid-run
    "all-nan-long": (lambda x, y: np.nan, 4, ChainConfig(500, 3, "uniform", 0)),
    "all-zero-weights": (ratio_from_weights(np.zeros(8)), 8, ChainConfig(200, 5)),
    "negative-ratio": (
        lambda x, y: -1.0 if y == 3 else 1.0, 4, ChainConfig(100, 3, "uniform", 0),
    ),
    "negative-after-burn-in": (
        lambda x, y: -2.0 if (x, y) == (6, 7) else 1.0, 8, ChainConfig(5000, 9, burn_in=10),
    ),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_blocked_kernel_raises_like_per_step(case):
    ratio, dim, cfg = ERROR_CASES[case]
    got = outcome(run_chain, ratio, dim, cfg)
    assert got == outcome(reference_run_chain, ratio, dim, cfg)
    assert got[0] in (SamplerError, DomainError)


PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
PCG_INC = 2 * 0x5EED + 1
MASK64 = 2 ** 64 - 1


def pcg64_emitting(word: int, position: int) -> np.random.Generator:
    """A PCG64 generator whose raw output number `position` (from 0) is word.

    PCG64 steps s -> s * PCG_MULT + inc (mod 2**128), then outputs
    rotr64(hi ^ lo, hi >> 58) of the new state. Pick hi, solve for lo, and
    step back position + 1 times.
    """
    hi = 0x9E3779B97F4A7C15
    rot = hi >> 58
    lo = hi ^ (((word << rot) | (word >> (64 - rot))) & MASK64)
    state = (hi << 64) | lo
    inverse = pow(PCG_MULT, -1, 2 ** 128)
    for _ in range(position + 1):
        state = (state - PCG_INC) * inverse % 2 ** 128
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": PCG_INC},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


# (v * 6) mod 2**32 = 2 < 2**32 % 6 = 4: integers(0, 6) rejects the half v.
REJECTED_HALF = 715827883

# (raw word, its position): words 0 and 3 are split words (steps 0-1, 2-3);
# the low half serves the even step, the high half the odd one.
REJECTION_CASES = {
    "even-step-0": (REJECTED_HALF | (7 << 32), 0),
    "odd-step-1": ((REJECTED_HALF << 32) | 5, 0),
    "even-step-2": (REJECTED_HALF | (9 << 32), 3),
    "odd-step-3": ((REJECTED_HALF << 32) | 11, 3),
}


@pytest.mark.parametrize("case", sorted(REJECTION_CASES))
def test_draw_stream_follows_lemire_rejection(case):
    word, position = REJECTION_CASES[case]
    assert (REJECTED_HALF * 6) % 2 ** 32 < 2 ** 32 % 6
    scalar = pcg64_emitting(word, position)
    want = [(int(scalar.integers(0, 6)), scalar.random()) for _ in range(9)]
    # Nine accepted halves would leave one buffered; the rejected tenth
    # shows that numpy itself redrew.
    assert scalar.bit_generator.state["has_uint32"] == 0
    blocked = pcg64_emitting(word, position)
    stream = _DrawStream(blocked, 6)
    got = []
    for k in (2, 3, 4):  # block edges on both buffer parities
        props, uniform = stream.take(k)
        got += zip(props.tolist(), uniform.tolist())
    assert got == want
    assert blocked.bit_generator.state["state"] == scalar.bit_generator.state["state"]


def test_draw_stream_without_draws_for_one_choice():
    scalar = np.random.default_rng(77)
    want = [(int(scalar.integers(0, 1)), scalar.random()) for _ in range(5)]
    props, uniform = _DrawStream(np.random.default_rng(77), 1).take(5)
    assert list(zip(props.tolist(), uniform.tolist())) == want


def test_ratio_from_weights_rejects_non_finite():
    for bad in ([1.0, np.nan], [np.inf, 1.0], [1.0, -1.0]):
        with pytest.raises(DomainError):
            ratio_from_weights(np.array(bad))


def test_chain_config_caps_total_steps():
    # Validation only: nothing of this size is drawn or allocated.
    ChainConfig(MAX_CHAIN_STEPS - 1000, seed=0, burn_in=1000)
    with pytest.raises(DomainError):
        ChainConfig(MAX_CHAIN_STEPS, seed=0, burn_in=1)
    with pytest.raises(DomainError):
        ChainConfig(MAX_CHAIN_STEPS // 2 + 1, seed=0, burn_in=0, thinning=2)


def test_bit_flip_needs_two_states():
    with pytest.raises(DomainError):
        run_chain(ratio_from_weights(np.ones(1)), 1, ChainConfig(10, seed=1))


@pytest.mark.parametrize(
    "transition, stationary",
    [
        ([[0.5, np.nan], [0.5, 0.5]], None),
        ([[np.inf, 0.0], [0.5, 0.5]], None),
        ([[0.75, 0.25], [0.5, 0.5]], [np.nan, 1.0]),
        ([[0.75, 0.25], [0.5, 0.5]], [2 / 3, np.inf]),
    ],
)
def test_markov_chain_rejects_non_finite_entries(transition, stationary):
    with pytest.raises(DomainError, match="non-finite"):
        MarkovChain(np.array(transition), None if stationary is None else np.array(stationary))


def reference_szegedy_walk(chain: MarkovChain) -> np.ndarray:
    """S (2 A A^T - I) from the dense edge-space isometry A."""
    n = chain.dim
    root = np.sqrt(chain.transition)
    a = np.zeros((n * n, n))
    for x in range(n):
        a[x * n:(x + 1) * n, x] = root[x, :]
    reflect = 2 * (a @ a.T) - np.eye(n * n)
    return reflect.reshape(n, n, n * n).transpose(1, 0, 2).reshape(n * n, n * n)


def test_walk_bitwise_equals_dense_reference():
    rng = np.random.default_rng(233)
    chains = [MarkovChain(np.eye(2)), MarkovChain(np.array([[0.0, 1.0], [1.0, 0.0]]))]
    for dim in (2, 3, 5, 8, 16):
        for proposal in ("uniform", "single-bit-flip") if dim in (2, 8, 16) else ("uniform",):
            chains.append(random_reversible_chain(rng, dim, proposal))
    for chain in chains:
        assert np.array_equal(szegedy_walk_operator(chain).entries, reference_szegedy_walk(chain))


# ------------------------------------- discriminant gap vs the dense walk

def dense_phase_gap(chain):
    return phase_gap(szegedy_walk_operator(chain), chain)


def assert_gap_matches_dense_walk(chain):
    assert discriminant_phase_gap(chain) == pytest.approx(dense_phase_gap(chain), rel=1e-12)


def weighted_graph_chain(weights):
    """Random walk on a symmetric weighted graph: reversible, pi ~ row sums."""
    w = np.asarray(weights, dtype=float)
    return MarkovChain(w / w.sum(axis=1, keepdims=True))


@pytest.mark.parametrize("dim", range(2, 33))
def test_discriminant_gap_matches_dense_walk_random_chains(dim):
    proposals = ("uniform", "single-bit-flip") if dim & (dim - 1) == 0 else ("uniform",)
    for proposal in proposals:
        for seed in range(3):
            rng = np.random.default_rng([1300, dim, seed])
            assert_gap_matches_dense_walk(random_reversible_chain(rng, dim, proposal))


def test_discriminant_gap_matches_dense_walk_periodic_chains():
    # Bipartite chains have eigenvalue -1; the gap is still set by lambda_2.
    rng = np.random.default_rng(1311)
    chains = [MarkovChain(np.array([[0.0, 1.0], [1.0, 0.0]]))]
    for dim in (4, 6, 10):  # cycles of even length
        ring = np.roll(np.eye(dim), 1, axis=1)
        chains.append(weighted_graph_chain(ring + ring.T))
    for left, right in ((2, 3), (3, 5), (4, 4)):
        w = np.zeros((left + right, left + right))
        w[:left, left:] = rng.uniform(0.1, 1.0, size=(left, right))
        chains.append(weighted_graph_chain(w + w.T))
    for chain in chains:
        assert chain_eigenvalues(chain)[-1] == pytest.approx(-1.0, abs=1e-12)
        assert_gap_matches_dense_walk(chain)
    assert discriminant_phase_gap(chains[0]) == np.pi


def test_discriminant_gap_matches_dense_walk_with_zero_entries():
    rng = np.random.default_rng(1312)
    for dim in (3, 5, 8, 12):
        for _ in range(3):
            w = rng.uniform(0.1, 1.0, size=(dim, dim)) * (rng.random((dim, dim)) < 0.4)
            w = np.triu(w, 1)
            w += w.T + np.diag(rng.uniform(0.0, 0.5, size=dim) * (rng.random(dim) < 0.5))
            path = np.eye(dim, k=1) * 0.2  # keeps the graph connected
            chain = weighted_graph_chain(w + path + path.T)
            assert (chain.transition == 0).any()
            assert_gap_matches_dense_walk(chain)


def test_discriminant_gap_matches_dense_walk_with_transient_state():
    chains = [
        MarkovChain(np.array([[1.0, 0.0], [1.0, 0.0]])),
        MarkovChain(np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.3, 0.3, 0.4]])),
        MarkovChain(
            np.array([[0.75, 0.25, 0.0], [0.5, 0.5, 0.0], [0.2, 0.2, 0.6]]),
            np.array([2.0, 1.0, 0.0]) / 3,
        ),
    ]
    for chain in chains:
        assert_gap_matches_dense_walk(chain)
    assert discriminant_phase_gap(chains[0]) == pytest.approx(np.pi / 2, abs=1e-15)


def test_discriminant_gap_on_the_walk_fixtures():
    fixtures = [
        (MarkovChain(np.array([[0.75, 0.25], [0.25, 0.75]])), np.pi / 3),  # lazy
        (MarkovChain(np.full((2, 2), 0.5)), np.pi / 2),  # lambda = 0
        (build_metropolis_matrix(np.array([2.0, 1.0]), "uniform"), np.arccos(0.25)),
    ]
    for chain, want in fixtures:
        assert discriminant_phase_gap(chain) == pytest.approx(want, abs=1e-14)
        assert_gap_matches_dense_walk(chain)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 8])
def test_degenerate_chains_raise_on_both_paths(dim):
    chain = MarkovChain(np.eye(dim))
    with pytest.raises(DomainError):
        dense_phase_gap(chain)
    with pytest.raises(DomainError):
        discriminant_phase_gap(chain)


def test_discriminant_gap_rejects_non_reversible_chains():
    # D = sqrt(P * P^T) of these chains has no eigenvalue 1, so dropping the
    # top one would skip the dense walk's smallest phase.
    rng = np.random.default_rng(1314)
    chains = [MarkovChain(np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]))]
    for dim in (3, 4, 6):
        p = rng.random((dim, dim))
        chains.append(MarkovChain(p / p.sum(axis=1, keepdims=True)))
    for chain in chains:
        assert np.linalg.eigvalsh(np.sqrt(chain.transition * chain.transition.T))[-1] < 0.99
        with pytest.raises(DomainError, match="not reversible"):
            discriminant_phase_gap(chain)


def test_discriminant_gap_reaches_the_walk_size_cap():
    rng = np.random.default_rng(1313)
    chain = random_reversible_chain(rng, 256, "uniform")
    gap = discriminant_phase_gap(chain)
    assert gap == pytest.approx(np.arccos(chain_eigenvalues(chain)[1]), rel=1e-12)
    assert gap >= np.sqrt(2 * spectral_gap(chain))
    with pytest.raises(DomainError, match="above the cap"):
        discriminant_phase_gap(MarkovChain(np.full((257, 257), 1 / 257)))


def test_dense_walk_budget_admits_sixty_four_states():
    assert DENSE_WALK_BYTES_PER_ENTRY * 64 ** 4 <= MAX_DENSE_WALK_BYTES
    assert DENSE_WALK_BYTES_PER_ENTRY * 65 ** 4 > MAX_DENSE_WALK_BYTES


@pytest.mark.parametrize("dim", [65, 256])
def test_dense_walk_budget_raises_before_allocating(dim):
    chain = MarkovChain(np.full((dim, dim), 1 / dim))
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="dense walk"):
            szegedy_walk_operator(chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20  # the walk would need 32 N^4 bytes: 571 MB at N = 65


def test_stationary_vector_is_solved_once_per_chain(monkeypatch):
    # walk-gap calls spectral_gap and then discriminant_phase_gap; a chain
    # given without a stationary vector has it solved by one eig, not two.
    rng = np.random.default_rng(1315)
    chain = MarkovChain(random_reversible_chain(rng, 6, "uniform").transition)
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda m: calls.append(m.shape) or eig(m))
    spectral_gap(chain)
    discriminant_phase_gap(chain)
    assert calls == [(6, 6)]
