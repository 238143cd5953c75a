"""Metropolis sampling, chain spectra, and the walk-operator gap relation."""

import tracemalloc
from collections import deque

import numpy as np
import pytest

try:
    from hypothesis import example, given, settings, strategies as st
except ImportError:  # only the weight-walk property test needs it
    st = None

from qest import sampler
from qest.numerics import DomainError, HermitianOperator, exact_partition, FunctionSpec
from qest.sampler import (
    BLOCK_STEPS,
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
    phase_gap,
    run_chain,
    spectral_gap,
    szegedy_walk_operator,
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


@pytest.mark.parametrize("n_bits", range(1, 12))
def test_build_at_a_strict_local_minimum(n_bits):
    # State 0 accepts each of its n_bits flips with probability fl(1/n_bits);
    # at 9 and 11 bits these sum to 1 + 2^-52, and 1 minus that is not a
    # stay probability.
    mu = np.ones(2 ** n_bits)
    mu[0] = 0.5
    p = build_metropolis_matrix(mu, "single-bit-flip").transition
    assert p.min() == 0.0 and p[0, 0] <= 2.0 ** -52


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
    with pytest.raises(DomainError, match="at least two states"):
        spectral_gap(MarkovChain(np.eye(1)))


def test_spectral_gap_rejects_non_reversible():
    # A 3-cycle has no detailed balance.
    p = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    with pytest.raises(DomainError):
        spectral_gap(MarkovChain(p))


def reference_chain_eigenvalues(chain: MarkovChain) -> np.ndarray:
    """Descending eigenvalues of diag(sqrt(pi)) P diag(1/sqrt(pi)), pi > 0."""
    root = np.sqrt(chain.stationary)
    sym = (root[:, None] * chain.transition) / root[None, :]
    return np.sort(np.linalg.eigvalsh((sym + sym.T) / 2))[::-1]


def test_chain_eigenvalues_match_direct_solve():
    rng = np.random.default_rng(97)
    chain = random_reversible_chain(rng, 8, "uniform")
    got = np.sort(chain_eigenvalues(chain))
    want = np.sort(np.linalg.eigvals(chain.transition).real)
    np.testing.assert_allclose(got, want, atol=1e-10)
    # The discriminant's spectrum against the symmetrisation by sqrt(pi).
    for dim in range(2, 65):
        proposals = ("uniform", "single-bit-flip") if dim & (dim - 1) == 0 else ("uniform",)
        for proposal in proposals:
            chain = random_reversible_chain(np.random.default_rng([97, dim]), dim, proposal)
            want = reference_chain_eigenvalues(chain)
            np.testing.assert_allclose(chain_eigenvalues(chain), want, rtol=0, atol=1e-12)
            mags = np.sort(np.abs(want))
            assert spectral_gap(chain) == pytest.approx(mags[-1] - mags[-2], rel=1e-12)


def reference_bit_flip_proposal(dim: int) -> np.ndarray:
    n_bits = _bit_count(dim)
    q = np.zeros((dim, dim))
    for x in range(dim):
        for bit in range(n_bits):
            q[x, x ^ (1 << bit)] = 1.0 / n_bits
    return q


def test_bit_flip_matrix_equals_the_loop_proposal():
    for n_bits in range(1, 9):
        dim = 2 ** n_bits
        mu = random_positive_weights(np.random.default_rng([98, dim]), dim)
        q = reference_bit_flip_proposal(dim)
        p = q * np.minimum(1.0, mu[None, :] / mu[:, None])
        np.fill_diagonal(p, 0.0)
        np.fill_diagonal(p, 1.0 - p.sum(axis=1))
        got = build_metropolis_matrix(mu, "single-bit-flip").transition
        assert np.array_equal(got, p)


# ------------------------------------------------------------------ sampling

def test_uniform_target_frequency():
    cfg = ChainConfig(10 ** 5, seed=101, proposal="uniform", burn_in=100)
    samples = run_chain(np.ones(2), cfg).samples
    # Uniform target, uniform proposal: every move accepts, draws are iid.
    freq = frequencies(samples, 2)
    assert abs(freq[0] - 0.5) <= 3 * np.sqrt(0.25 / 10 ** 5)


def test_absorbing_support_stays_put():
    cfg = ChainConfig(500, seed=7, proposal="uniform", burn_in=50)
    samples = run_chain(np.array([1.0, 0.0]), cfg).samples
    assert samples.tolist() == [0] * 500


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
    samples = run_chain(mu, cfg).samples
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
    cfg = ChainConfig(100, seed=3, proposal="uniform", burn_in=0)
    with pytest.raises(SamplerError):
        run_chain(np.zeros(4), cfg)


def test_fixed_seed_determinism():
    mu = np.array([1.0, 2.0, 3.0, 4.0])
    cfg = ChainConfig(300, seed=11, burn_in=20)
    first = run_chain(mu, cfg)
    again = run_chain(mu, cfg)
    assert np.array_equal(first.samples, again.samples)
    assert first.n_accepted == again.n_accepted


def test_scale_invariance_of_trajectories():
    # mu -> c*mu leaves every ratio unchanged, so the walk is identical.
    mu = np.array([0.2, 1.7, 0.9, 2.4])
    cfg = ChainConfig(400, seed=13, burn_in=10)
    base = run_chain(mu, cfg)
    scaled = run_chain(173.0 * mu, cfg)
    assert np.array_equal(base.samples, scaled.samples)


def test_run_chain_respects_schedule():
    cfg = ChainConfig(25, seed=17, burn_in=7, thinning=3)
    run = run_chain(np.ones(4), cfg)
    assert len(run.samples) == 25
    assert run.n_proposed == 7 + 25 * 3


def test_bit_flip_needs_power_of_two():
    cfg = ChainConfig(10, seed=1, proposal="single-bit-flip")
    with pytest.raises(DomainError):
        run_chain(np.ones(3), cfg)


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
    total = config.burn_in + config.n_steps * config.thinning
    for step in range(total):
        if config.proposal == "uniform":
            y = int(rng.integers(0, dim))
        else:
            y = x ^ (1 << int(rng.integers(0, n_bits)))
        r = float(ratio(x, y))
        n_proposed += 1
        if np.isnan(r):
            accept = False
            rng.random()  # keep the draw stream aligned with accepted paths
        else:
            if r < 0:
                raise DomainError(f"ratio oracle returned negative value {r}")
            accept = rng.random() < min(1.0, r)
        if accept:
            x = y
            n_accepted += 1
        if step >= config.burn_in and (step - config.burn_in) % config.thinning == (
            config.thinning - 1
        ):
            samples.append(x)
    if not n_accepted and np.isnan(ratio(0, 0)):  # 0/0: the start has weight 0
        raise SamplerError(f"no move out of the zero-weight state 0 in {total} steps")
    return ChainRun(np.array(samples, np.intp), n_proposed, n_accepted)


def reference_stranded(weights, proposal: str):
    """The error of a target whose positive weights the chain cannot all
    reach from state 0, or None; a plain breadth-first search.

    Moves into zero weights are refused and every other move can be taken,
    so the chain reaches the positive states joined to its start through
    positive states by single proposals. A zero-weight state 0 is left for
    one positive neighbour and never entered again, so the search starts
    there: the first positive proposal out of state 0.
    """
    positive = {x for x, wx in enumerate(weights) if wx > 0}
    if not positive:
        return "target measure is identically zero: no weight is positive"
    dim = len(weights)

    def near(x):
        if proposal == "uniform":
            return range(dim)
        return [x ^ (1 << b) for b in range(dim.bit_length() - 1)]

    start = 0 if 0 in positive else next((y for y in near(0) if y in positive), None)
    seen = set() if start is None else {start}
    queue = deque(seen)
    while queue:
        x = queue.popleft()
        for y in near(x):
            if y in positive and y not in seen:
                seen.add(y)
                queue.append(y)
    stranded = len(positive - seen)
    if stranded:
        return (
            f"the chain cannot reach {stranded} of the {len(positive)} "
            "positive-weight states from state 0"
        )
    return None


def reference_ratio(mu):
    """mu(y)/mu(x) by numpy division: y/0 is inf and 0/0 is nan."""
    mu = np.asarray(mu, dtype=float)

    def ratio(x, y):
        with np.errstate(divide="ignore", invalid="ignore"):
            return mu[y] / mu[x]

    return ratio


def outcome(kernel, *args):
    """An exception's type and message, or counters, sample dtype and
    samples."""
    try:
        run = kernel(*args)
    except (SamplerError, DomainError) as exc:
        return type(exc), str(exc)
    return run.n_proposed, run.n_accepted, run.samples.dtype, run.samples.tolist()


def reference_outcome(weights, config):
    stranded = reference_stranded(weights, config.proposal)
    if stranded is not None:
        return SamplerError, stranded
    return outcome(reference_run_chain, reference_ratio(weights), len(weights), config)


PROPOSAL_DIMS = [("uniform", d) for d in (2, 3, 6, 8, 16, 64)] + [
    ("single-bit-flip", d) for d in (2, 8, 16, 64)
]
# (n_steps, burn_in, thinning, seed); the last crosses a block boundary.
SCHEDULES = [(300, 0, 1, 0), (250, 7, 3, 2 ** 64 - 1), (3200, 1000, 1, 987654321)]


def weight_cases(dim, rng):
    """(name, weights) pairs."""
    positive = rng.uniform(0.05, 1.0, size=dim) ** 3
    zeros = positive.copy()
    zeros[0] = 0.0  # the start state: inf ratios out of it
    zeros[rng.permutation(dim)[: dim // 3]] = 0.0  # and nan between zeros
    return [
        ("positive", positive),
        ("zeros", zeros),
        ("mod-5", np.arange(dim) % 5 + 1.0),
        # Only state dim // 2, a bit flip from the start, has weight: a
        # uniform chain proposes its zero start to itself about as often as
        # it leaves, and then proposes that state to itself.
        ("one-positive", np.eye(dim)[dim // 2]),
    ]


@pytest.mark.parametrize("proposal, dim", PROPOSAL_DIMS)
def test_blocked_kernel_reproduces_per_step_trajectories(proposal, dim):
    rng = np.random.default_rng(1300 + dim)
    for name, weights in weight_cases(dim, rng):
        for n_steps, burn_in, thinning, seed in SCHEDULES:
            cfg = ChainConfig(n_steps, seed, proposal, burn_in, thinning)
            got = outcome(run_chain, weights, cfg)
            assert got == reference_outcome(weights, cfg), (name, cfg)
            assert got[2] == np.intp, (name, cfg)


ERROR_CASES = {
    # all-zero weights, every ratio 0/0: refused before the first draw,
    # whatever the run length
    "all-nan-short": (np.zeros(4), ChainConfig(10, 3, "uniform", 0)),
    "all-nan-long": (np.zeros(4), ChainConfig(500, 3, "uniform", 0)),
    "all-zero-weights": (np.zeros(8), ChainConfig(200, 5)),
    # the one positive weight is two bit flips away, across zero weights
    "flip-two-flips-away": (np.array([0.0, 0.0, 0.0, 1.0]), ChainConfig(200, 5, burn_in=0)),
    # state 0 has weight and moves nowhere: its neighbours 1 and 2 are zero
    "flip-split-support": (np.array([0.5, 0.0, 0.0, 0.5]), ChainConfig(200, 5)),
    # a zero-weight state 0 between the positive states 1 and 2: the chain
    # leaves it for one of them and stays there
    "flip-split-by-zero-start": (np.array([0.0, 1.0, 1.0, 0.0]), ChainConfig(200, 5)),
    # reachable, but no uniform proposal hits state 1023 in 5 steps
    "uniform-late-positive": (np.eye(1024)[1023], ChainConfig(5, 3, "uniform", 0)),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_blocked_kernel_raises_like_per_step(case):
    weights, cfg = ERROR_CASES[case]
    got = outcome(run_chain, weights, cfg)
    assert got == reference_outcome(weights, cfg)
    assert got[0] is SamplerError


WALKS = {"table": sampler._TableWalk, "weights": sampler._WeightWalk}


def force_walk(monkeypatch, walk: str) -> list:
    """Make run_chain take the named walk whatever the sizes; the walks it
    builds are recorded in the returned list. Force the table only where
    table_fits."""
    monkeypatch.setattr(sampler, "_use_table", lambda *sizes: walk == "table")
    return record_walks(monkeypatch)


def record_walks(monkeypatch, walks=None) -> list:
    """The names of the walks run_chain builds, in order; the walks
    themselves are appended to walks, if given."""
    built = []
    for name, cls in WALKS.items():
        def init(self, *args, cls=cls, name=name):
            built.append(name)
            cls.__init__(self, *args)
            if walks is not None:
                walks.append(self)

        monkeypatch.setattr(sampler, cls.__name__, type(cls.__name__, (cls,), {"__init__": init}))
    return built


def step_symbols(weights, n_bits: int) -> int:
    """A step table's symbols by the scalar rule: each proposal has one, plus
    one per state whose ratio under it is below 1."""
    w = [float(v) for v in weights]
    targets = [[x ^ (1 << k) if n_bits else k for x in range(len(w))] for k in range(n_bits or len(w))]
    return sum(1 + sum(w[y] / (w[x] or 5e-324) < 1 for x, y in enumerate(ys)) for ys in targets)


def table_fits(weights, proposal: str) -> bool:
    """Whether the step table of weights can be built: at most 256 states
    and 256 symbols, each read as a byte."""
    n_bits = _bit_count(len(weights)) if proposal == "single-bit-flip" else 0
    return len(weights) <= 256 and step_symbols(weights, n_bits) <= 256


def assert_both_walks_match_the_oracle(monkeypatch, weights, cfg):
    """Each walk, forced whatever the sizes, against reference_outcome; the
    table only where table_fits."""
    with np.errstate(over="ignore"):
        want = reference_outcome(weights, cfg)
    for walk in sorted(WALKS):
        if walk == "table" and not table_fits(weights, cfg.proposal):
            continue
        built = force_walk(monkeypatch, walk)
        assert outcome(run_chain, weights, cfg) == want, (walk, cfg)
        assert built == [walk] or want[0] is SamplerError, (walk, built)
    return want


@pytest.mark.parametrize("proposal, dim", PROPOSAL_DIMS)
def test_both_walks_reproduce_per_step_trajectories(monkeypatch, proposal, dim):
    rng = np.random.default_rng(1300 + dim)
    for name, weights in weight_cases(dim, rng):
        for n_steps, burn_in, thinning, seed in SCHEDULES:
            cfg = ChainConfig(n_steps, seed, proposal, burn_in, thinning)
            assert_both_walks_match_the_oracle(monkeypatch, weights, cfg)


def test_both_walks_on_one_state(monkeypatch):
    for weights in ([0.7], [0.0]):
        assert_both_walks_match_the_oracle(monkeypatch, weights, ChainConfig(100, 3, "uniform", 5000))


@pytest.mark.parametrize(
    "proposal, dim, n_choices",
    [("single-bit-flip", 16, 4), ("uniform", 8, 8), ("uniform", 1, 1), ("single-bit-flip", 64, 6)],
)
def test_size_rule_picks_the_table_from_its_entry_count(monkeypatch, proposal, dim, n_choices):
    # The table has a row per state and a column per symbol. With distinct
    # weights each proposal has one symbol, plus one per ratio below 1: half
    # of its ratios that are not 1. So 576, 288, 1 and 12672 entries.
    weights = np.linspace(1.0, 2.0, dim)
    n_symbols = n_choices + (n_choices * dim - (dim if proposal == "uniform" else 0)) // 2
    assert n_symbols == step_symbols(weights, n_choices if proposal == "single-bit-flip" else 0)
    entries = n_symbols * dim
    for total, want in ((entries, "table"), (entries - 1, "weights"), (entries + 1, "table")):
        if total < 1:  # a one-state chain takes the table at any length
            continue
        built = record_walks(monkeypatch)
        run_chain(weights, ChainConfig(1, 5, proposal, burn_in=total - 1))
        assert built == [want], total
    # thermal_chain's N_S = 16 chains (5e4 samples after 1000 steps of
    # burn-in) take the table; the 3000-step chain of a 64-state
    # `mean --mode shots` (circuit_table) reads the weights.
    rng = np.random.default_rng(1509)
    for n_states, total, want in ((16, 51000, "table"), (64, 3000, "weights")):
        built = record_walks(monkeypatch)
        run_chain(rng.random(n_states), ChainConfig(total - 1000, 5))
        assert built == [want], n_states
    # Symbols and states must each fit a byte, whatever the run length.
    assert sampler._use_table(256, 256, 256 * 256) is True
    assert sampler._use_table(257, 16, MAX_CHAIN_STEPS) is False
    assert sampler._use_table(9, 512, MAX_CHAIN_STEPS) is False


def test_sixteen_uniform_proposals_with_one_positive_weight_take_the_table(monkeypatch):
    # 15 zero-weight proposals, each with 16 ratios of 0 (17 symbols), and the
    # positive one with none below 1 (1 symbol): 256 symbols, the most a
    # uniform chain over 16 states can have. Runs of 256 * 16 steps take it.
    weights = np.eye(16)[8]
    assert step_symbols(weights, 0) == 256
    for total, want in ((4095, "weights"), (4096, "table"), (20000, "table")):
        cfg = ChainConfig(300, 31, "uniform", total - 300)
        built = record_walks(monkeypatch)
        assert outcome(run_chain, weights, cfg) == reference_outcome(weights, cfg)
        assert built == [want], total


def test_bit_flips_over_sixty_four_states_with_one_positive_weight_read_the_weights(monkeypatch):
    # Each of the 6 proposals has 63 ratios of 0 and one of inf: 6 * 64 = 384
    # symbols, more than a byte holds, so no run length takes the table.
    weights = np.eye(64)[32]
    assert step_symbols(weights, 6) == 384
    assert sampler._use_table(384, 64, MAX_CHAIN_STEPS) is False
    for total in (384 * 64, 2 * 384 * 64):
        cfg = ChainConfig(300, 32, "single-bit-flip", total - 300)
        built = record_walks(monkeypatch)
        assert outcome(run_chain, weights, cfg) == reference_outcome(weights, cfg)
        assert built == ["weights"], total


def test_every_table_the_rule_admits_fits_a_byte(monkeypatch):
    # At 2**16 steps the rule admits every table of at most 256 symbols over
    # at most 256 states (256 * 256 entries) and no other. Equal weights have
    # one symbol per proposal: 256 over 256 uniform states, 9 over 512.
    rng = np.random.default_rng(1510)
    cases = [("uniform", d) for d in (2, 16, 22, 23, 32, 64, 256)]
    cases += [("single-bit-flip", d) for d in (2, 16, 64, 128, 256, 512)]
    admitted = 0
    for proposal, dim in cases:
        n_bits = _bit_count(dim) if proposal == "single-bit-flip" else 0
        for name, weights in weight_cases(dim, rng) + [("equal", np.ones(dim))]:
            if reference_stranded(weights, proposal) is not None:
                continue
            walks = []
            built = record_walks(monkeypatch, walks)
            run_chain(weights, ChainConfig(1, 5, proposal, burn_in=2 ** 16 - 1))
            n_symbols = step_symbols(weights, n_bits)
            fits = dim <= 256 and n_symbols <= 256
            assert built == ["table" if fits else "weights"], (proposal, dim, name)
            if fits:
                table = walks[0].table
                assert len(table) == dim and {len(row) for row in table} == {n_symbols}
                admitted += 1
    assert admitted > 0


def table_walk(weights, n_bits: int):
    """The _TableWalk that run_chain builds for weights."""
    w = np.array(weights, dtype=float)
    return sampler._TableWalk(w, n_bits, *sampler._step_ratios(w, n_bits))


def scalar_steps(weights, n_bits: int, props, uniform, x: int = 0):
    """The states after each step and the acceptance count, by the scalar
    rule: move to proposal k's state y exactly when u < ratio[k][x], the
    ratio w[y] / w[x] with a zero w[x] read as the smallest float."""
    w = [float(v) for v in weights]
    states, accepted = [], 0
    for k, u in zip(props, uniform):
        y = x ^ (1 << k) if n_bits else k
        if u < w[y] / (w[x] or 5e-324):
            x, accepted = y, accepted + 1
        states.append(x)
    return states, accepted


def uniform_of(word: int) -> float:
    """numpy's random() of a raw generator word."""
    return (word >> 11) * 2.0 ** -53


def edge_words(ratio: float, rng) -> list:
    """Raw words of drawable uniforms (multiples of 2**-53 in [0, 1)): the
    one at or below a ratio and each edge of the 1/4096 buckets next to it,
    with its two neighbours, and one word at random. No other uniform can
    reach the walk. The low 11 bits, which random() drops, are random."""
    near = [ratio]
    if 0 <= ratio < 1:
        near += [np.floor(ratio * 4096) / 4096, np.ceil(ratio * 4096) / 4096]
    near.append(int(rng.integers(4096)) / 4096)
    out = [int(rng.integers(2 ** 64, dtype=np.uint64))]
    for v in near:
        j = min(int(min(v, 1.0) * 2 ** 53), 2 ** 53 - 1)  # the multiple at or below v
        out += [(i << 11) | int(rng.integers(2 ** 11)) for i in (j - 1, j, j + 1) if 0 <= i < 2 ** 53]
    return out


def hand_picked_draws(weights, n_bits: int, n_steps: int, seed: int):
    """Proposals at random and, at each step, a word picked from edge_words
    of the ratio that step reads; also how many uniforms are the smallest
    drawable value at or above that ratio (the ratio itself when it is
    drawable)."""
    w = [float(v) for v in weights]
    rng = np.random.default_rng(seed)
    n_choices = n_bits or len(w)
    x, props, words, hits = 0, [], [], 0
    for _ in range(n_steps):
        k = int(rng.integers(n_choices))
        y = x ^ (1 << k) if n_bits else k
        ratio = w[y] / (w[x] or 5e-324)
        word = int(rng.choice(np.array(edge_words(ratio, rng), np.uint64)))
        props.append(k)
        words.append(word)
        hits += ratio < 1 and word >> 11 == int(np.ceil(ratio * 2 ** 53))
        x = scalar_steps(w, n_bits, [k], [uniform_of(word)], x)[0][0]
    return props, words, hits


def assert_table_steps_like_the_scalar_rule(weights, n_bits: int, n_steps: int, seed: int):
    props, words, hits = hand_picked_draws(weights, n_bits, n_steps, seed)
    uniform = [uniform_of(word) for word in words]
    want, accepted = scalar_steps(weights, n_bits, props, uniform)
    walk = table_walk(weights, n_bits)
    got = []
    for lo, hi in ((0, 1), (1, n_steps // 2), (n_steps // 2, n_steps)):
        got += walk.advance(np.array(props[lo:hi], np.intp), np.array(words[lo:hi], np.uint64)).tolist()
    assert got == want
    assert (walk.x, walk.n_accepted) == (want[-1], accepted)
    return uniform, hits


def clustered(rng, dim):
    # Ratios within 1e-12 of 1: many of them in the bucket [4095/4096, 1).
    return (1 + 1e-12 * rng.random(dim)).tolist()


TABLE_STEP_CASES = {
    "clustered": clustered,
    # Ratios of exactly j/4096 and 1, on bucket edges.
    "bucket-edges": lambda rng, dim: [4096.0, 1.0, 2048.0, 3.0, 4096.0, 1024.0, 1.0, 4095.0][:dim],
    # A zero start: ratios of inf out of it, 0 into zeros, 1 between equals.
    "zero-start": lambda rng, dim: [0.0, 1.0, 0.0, 1.0, 2.0, 0.0, 1.0, 0.5][:dim],
    # -0.0 reads as 0, in the numerator and the denominator.
    "negative-zero": lambda rng, dim: [-0.0, 0.25, -0.0, 1.0, 0.25, -0.0, 3.0, 1.0][:dim],
    # Subnormals next to huge weights: ratios overflow to inf and underflow.
    "overflow": lambda rng, dim: [0.0, 1e300, 5e-324, 1e-310, 1e300, 2e-308, 1.0, 1e308][:dim],
    "random": lambda rng, dim: (rng.random(dim) ** 4).tolist(),
}


@pytest.mark.parametrize("n_bits", [0, 1, 2, 3])
@pytest.mark.parametrize("case", sorted(TABLE_STEP_CASES))
def test_table_walk_steps_like_the_scalar_rule(case, n_bits):
    dim = 2 ** n_bits if n_bits else 8
    rng = np.random.default_rng([1500, n_bits, len(case)])
    weights = TABLE_STEP_CASES[case](rng, dim)
    uniform, hits = assert_table_steps_like_the_scalar_rule(weights, n_bits, 3000, 1501)
    # Some uniforms equal the ratio their step reads, and some sit on a
    # bucket edge.
    assert hits > 0
    assert any((u * 4096).is_integer() for u in uniform)


def test_table_walk_on_one_state():
    for weights in ([0.7], [1e-310], [1e300]):
        assert_table_steps_like_the_scalar_rule(weights, 0, 200, 1502)


@pytest.mark.parametrize("dim, dtype", [(15, np.uint8), (16, np.uint8)])
@pytest.mark.parametrize("case", ["clustered", "zero-start"])
def test_table_walk_reads_symbols_as_bytes_up_to_256(case, dim, dtype):
    # Uniform proposals over at most 16 states have at most 256 symbols,
    # numbered proposal by proposal, and are read as bytes.
    rng = np.random.default_rng([1505, dim])
    weights = np.resize(TABLE_STEP_CASES[case](rng, dim), dim).tolist()
    walk = table_walk(weights, 0)
    assert walk.symbol.dtype == dtype
    assert walk.symbol.max() < len(walk.table[0]) == step_symbols(weights, 0) <= 256
    uniform, hits = assert_table_steps_like_the_scalar_rule(weights, 0, 3000, 1506)
    assert hits > 0
    if case == "clustered":  # some steps take the crowded-bucket fix-up
        assert walk.crowded[(np.array(uniform) * 4096).astype(np.intp)].any()


def test_table_walk_reads_bytes_on_sixteen_states_under_bit_flips():
    # thermal_chain's chains: 4 * 8 + 4 = 36 symbols for distinct weights.
    walk = table_walk(np.linspace(1.0, 2.0, 16), 4)
    assert walk.symbol.dtype == np.uint8
    assert len(walk.table[0]) == 36


@pytest.mark.parametrize("proposal", ["uniform", "single-bit-flip"])
def test_walks_overflow_silently(monkeypatch, proposal):
    # A zero start next to 1e300 and subnormal neighbours: the table's ratio
    # division overflows to inf (as the loop's Python division does) with no
    # RuntimeWarning, which pytest turns into an error.
    weights = [0.0, 1e300, 5e-324, 1e-310, 1.7976931348623157e308, 2e-308, 1e-320, 1.0]
    want = assert_both_walks_match_the_oracle(monkeypatch, weights, ChainConfig(2000, 21, proposal, 100))
    assert want[1] > 0


@pytest.mark.parametrize("dim", [2, 4, 8, 16, 64])
def test_stranded_targets_match_the_breadth_first_search(dim):
    # Sparse supports under single-bit-flip: the kernel refuses exactly the
    # targets the plain search strands, and otherwise walks like the oracle.
    rng = np.random.default_rng(1400 + dim)
    stranded = 0
    for density in (0.2, 0.5, 0.8):
        for seed in range(20):
            weights = rng.uniform(0.1, 1.0, dim) * (rng.random(dim) < density)
            cfg = ChainConfig(40, seed, "single-bit-flip", burn_in=0)
            got = outcome(run_chain, weights, cfg)
            assert got == reference_outcome(weights, cfg), (weights, cfg)
            stranded += reference_stranded(weights, "single-bit-flip") is not None
    assert 0 < stranded < 60


def test_ratio_from_weights_needs_a_nonempty_vector():
    # run_chain's weight check, before anything is drawn.
    for bad in (np.ones((2, 2)), np.array([]), 1.0):
        with pytest.raises(DomainError, match="nonempty vector"):
            run_chain(bad, ChainConfig(10, seed=1, proposal="uniform"))


if st is not None:
    # Exact-boundary floats: subnormals next to the largest finite ones make
    # ratios overflow to inf and underflow to 0 (or to a subnormal).
    EDGE_WEIGHTS = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300,
                    0.5, 1.0, 3.0, 1e300, 1.7976931348623157e308]
    WEIGHTS = st.sampled_from(EDGE_WEIGHTS) | st.floats(0.0, 1e308)

    @st.composite
    def weight_chains(draw):
        """(weights, config): zeros at the start state, all-zero targets,
        burn-in off the block grid and thinning above a block."""
        proposal = draw(st.sampled_from(["uniform", "single-bit-flip"]))
        if proposal == "uniform":
            dim = draw(st.integers(1, 40))
        else:
            dim = 2 ** draw(st.integers(1, 6))
        shape = draw(st.sampled_from(["any", "zero-start", "all-zero"]))
        weights = [0.0] * dim
        if shape != "all-zero":
            weights = draw(st.lists(WEIGHTS, min_size=dim, max_size=dim))
        if shape == "zero-start":
            weights[0] = 0.0
        thinning = draw(st.sampled_from([1, 2, 3, BLOCK_STEPS + 1, BLOCK_STEPS + 13]))
        n_steps = draw(st.integers(1, 1500 if thinning < BLOCK_STEPS else 2))
        burn_in = draw(st.integers(0, 5000))
        seed = draw(st.integers(0, 2 ** 64 - 1))
        return weights, ChainConfig(n_steps, seed, proposal, burn_in, thinning)

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(weight_chains())
    # all-zero targets, refused before the first draw: a run longer than a
    # block, and a single-bit-flip one
    @example(([0.0] * 512, ChainConfig(3000, 7, "uniform", 3000)))
    @example(([0.0] * 64, ChainConfig(200, 8, "single-bit-flip", 0)))
    # zero start whose one positive weight is a neighbour: nan steps, one
    # move, then ratios of 0 into the zero weights around it
    @example(([0.0] * 16 + [1e-310] + [0.0] * 15, ChainConfig(500, 9, "single-bit-flip", 4095, 2)))
    @example(([1.7976931348623157e308, 5e-324, 0.0, 1.0], ChainConfig(2, 3, "uniform", 4097, 4097)))
    # zero start whose one positive weight is the smallest float: its ratio
    # out of the start is inf, so the first proposal of it is taken
    @example(([0.0, 5e-324], ChainConfig(50, 1, "single-bit-flip", 0)))
    @example(([0.0, 0.0, 5e-324], ChainConfig(50, 2, "uniform", 0)))
    def test_weight_walk_matches_the_oracle_walk(case):
        weights, cfg = case
        got = outcome(run_chain, weights, cfg)
        with np.errstate(over="ignore", under="ignore"):
            want = reference_outcome(weights, cfg)
        assert got == want


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

# (raw word, its position): words 0, 3 and 9 are split words (steps 0-1,
# 2-3, 6-7); the low half serves the even step, the high half the odd one.
# Word 9 is in the block of steps 5-8, which starts on a buffered half.
REJECTION_CASES = {
    "even-step-0": (REJECTED_HALF | (7 << 32), 0),
    "odd-step-1": ((REJECTED_HALF << 32) | 5, 0),
    "even-step-2": (REJECTED_HALF | (9 << 32), 3),
    "odd-step-3": ((REJECTED_HALF << 32) | 11, 3),
    "even-step-6": (REJECTED_HALF | (13 << 32), 9),
    "odd-step-7": ((REJECTED_HALF << 32) | 13, 9),
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
        props, words = stream.take(k)
        got += zip(props.tolist(), ((words >> np.uint64(11)) * 2.0 ** -53).tolist())
    assert got == want
    assert blocked.bit_generator.state["state"] == scalar.bit_generator.state["state"]


def test_draw_stream_without_draws_for_one_choice():
    scalar = np.random.default_rng(77)
    want = [(int(scalar.integers(0, 1)), scalar.random()) for _ in range(5)]
    props, words = _DrawStream(np.random.default_rng(77), 1).take(5)
    assert list(zip(props.tolist(), ((words >> np.uint64(11)) * 2.0 ** -53).tolist())) == want


def test_ratio_from_weights_rejects_non_finite():
    # run_chain's weight check: no weight may be nan, infinite or negative.
    for bad in ([1.0, np.nan], [np.inf, 1.0], [1.0, -1.0]):
        with pytest.raises(DomainError, match="finite and nonnegative"):
            run_chain(np.array(bad), ChainConfig(10, seed=1, proposal="uniform"))


def test_chain_config_caps_total_steps():
    # Validation only: nothing of this size is drawn or allocated.
    ChainConfig(MAX_CHAIN_STEPS - 1000, seed=0, burn_in=1000)
    with pytest.raises(DomainError):
        ChainConfig(MAX_CHAIN_STEPS, seed=0, burn_in=1)
    with pytest.raises(DomainError):
        ChainConfig(MAX_CHAIN_STEPS // 2 + 1, seed=0, burn_in=0, thinning=2)


def test_bit_flip_needs_two_states():
    with pytest.raises(DomainError):
        run_chain(np.ones(1), ChainConfig(10, seed=1))


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


def test_dense_walk_peak_memory_is_its_budget_per_entry():
    # The walk, its complex copy and the Gram product of the unitarity check;
    # the N^2 x N isometry adds 8 / N bytes per entry.
    n = 32
    chain = random_reversible_chain(np.random.default_rng(1316), n, "uniform")
    tracemalloc.start()
    try:
        szegedy_walk_operator(chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (DENSE_WALK_BYTES_PER_ENTRY + 0.5) * n ** 4


def test_stationary_vector_is_solved_once_per_chain(monkeypatch):
    # walk-gap calls spectral_gap and then discriminant_phase_gap; a chain
    # given without a stationary vector has it solved by one eig, not two,
    # and checked for detailed balance once. Both gaps read one eigvalsh of
    # the discriminant; a declared stationary vector was checked when the
    # chain was built, so it needs no eig and no second check.
    rng = np.random.default_rng(1315)
    declared = random_reversible_chain(rng, 6, "uniform")
    solved = MarkovChain(declared.transition)
    calls = []
    for module, name in ((np.linalg, "eig"), (np.linalg, "eigvalsh"), (sampler, "_check_reversible")):
        func = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda m, *rest, f=func, n=name: calls.append(n) or f(m, *rest)
        )
    for chain, want in (
        (solved, ["eig", "_check_reversible", "eigvalsh"]),
        (declared, ["eigvalsh"]),
    ):
        calls.clear()
        spectral_gap(chain)
        discriminant_phase_gap(chain)
        assert calls == want
