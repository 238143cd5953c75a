"""Metropolis sampling over explicit weights and quantum-walk gap diagnostics.

The sampler reads the target's weights only through ratios mu(x')/mu(x),
so any overall scale of the target measure is irrelevant. The walk side
reads mixing information out of the walk's eigenphases, which sit at plus or
minus arccos of the chain eigenvalues: from the N x N discriminant
(discriminant_phase_gap), or from the dense N^2 x N^2 bipartite reflection
operator, which is kept as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import DomainError, UnitaryOperator

ROW_SUM_TOL = 1e-12
BALANCE_TOL = 1e-10
PROPOSALS = ("uniform", "single-bit-flip")

# Hard cap on the edge-space dimension N_S^2 for walk construction.
MAX_WALK_DIM = 2 ** 16

# Bytes the dense walk of an N-state chain holds at once, per edge-space
# matrix entry: the float64 array, its complex copy and the real Gram product
# of the unitarity check.
DENSE_WALK_BYTES_PER_ENTRY = 32

# Budget for the dense N^2 x N^2 walk, the oracle path: admits N <= 64.
MAX_DENSE_WALK_BYTES = 2 ** 29

# Eigenphases below this magnitude count as zero when the phase gap is taken.
PHASE_ZERO_TOL = 1e-9

# Longest Metropolis run (burn-in plus recorded transitions) a ChainConfig
# admits; also the cap on measurement shots per diag run.
MAX_CHAIN_STEPS = 2 ** 24

# Chain steps whose draws are decoded at once; bounds the kernel's memory.
BLOCK_STEPS = 4096

_LOW32 = 0xFFFFFFFF

# Equal buckets of [0, 1) through which _TableWalk ranks its uniforms. A
# uniform (w >> 11) * 2**-53 lies in bucket w >> (64 - _BUCKET_BITS) of its
# word w, exactly floor(u * _BUCKETS).
_BUCKET_BITS = 12
_BUCKETS = 2 ** _BUCKET_BITS

# Most entries a _TableWalk's table may have: a tuple slot of 8 bytes each, plus
# about 28 for its int above 256 states, where Python does not share them.
_MAX_TABLE_ENTRIES = 2 ** 22

# The smallest positive float: no positive weight is below it.
_SMALLEST_FLOAT = 5e-324


class SamplerError(RuntimeError):
    """The chain could not produce samples (for example an all-zero target)."""


@dataclass(frozen=True)
class MarkovChain:
    """Row-stochastic transition matrix with an optional stationary vector."""

    transition: np.ndarray
    stationary: np.ndarray | None = None

    def __post_init__(self):
        p = np.array(self.transition, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise DomainError(f"transition matrix must be square, got {p.shape}")
        if not np.all(np.isfinite(p)):
            raise DomainError("transition matrix has non-finite entries")
        if p.min() < 0:
            raise DomainError(f"negative transition probability {p.min():.3e}")
        rows = p.sum(axis=1)
        if np.abs(rows - 1).max() > ROW_SUM_TOL:
            raise DomainError(
                f"rows must sum to 1, worst deviation {np.abs(rows - 1).max():.3e}"
            )
        p.flags.writeable = False
        object.__setattr__(self, "transition", p)
        if self.stationary is not None:
            pi = np.array(self.stationary, dtype=float)
            if not np.all(np.isfinite(pi)):
                raise DomainError("stationary vector has non-finite entries")
            if pi.shape != (p.shape[0],) or pi.min() < 0 or abs(pi.sum() - 1) > 1e-10:
                raise DomainError("stationary vector is not a distribution")
            if np.abs(pi @ p - pi).max() > BALANCE_TOL:
                raise DomainError("claimed stationary vector is not stationary")
            _check_reversible(p, pi)
            pi.flags.writeable = False
            object.__setattr__(self, "stationary", pi)

    @property
    def dim(self) -> int:
        return self.transition.shape[0]

    @cached_property
    def pi(self) -> np.ndarray:
        """The stationary vector: the declared one, checked at construction,
        or the one solved from P, checked for detailed balance once."""
        if self.stationary is not None:
            return self.stationary
        vals, vecs = np.linalg.eig(self.transition.T)
        idx = int(np.argmin(np.abs(vals - 1)))
        if abs(vals[idx] - 1) > 1e-8:
            raise DomainError("chain has no eigenvalue 1; not a stochastic matrix?")
        pi = vecs[:, idx].real
        pi = np.abs(pi)
        total = pi.sum()
        if total <= 0:
            raise DomainError("failed to extract a stationary distribution")
        pi /= total
        _check_reversible(self.transition, pi)
        pi.flags.writeable = False
        return pi

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """P's eigenvalues. With pi > 0 everywhere, detailed balance makes
        D = sqrt(P * P^T) equal to diag(sqrt(pi)) P diag(1/sqrt(pi)), so they
        are D's, real and descending. A pi with zeros falls back to eig(P),
        unsorted and possibly with a complex pair (a transient cycle): the
        transient block of P need not be symmetrisable."""
        if (self.pi > 0).all():
            return self._discriminant_spectrum
        vals = np.linalg.eigvals(self.transition)
        vals.flags.writeable = False
        return vals

    @cached_property
    def _discriminant_spectrum(self) -> np.ndarray:
        # Eigenvalues of D = sqrt(P * P^T), descending: the walk's phase gap
        # and, for a full-support pi, the chain's own spectrum.
        p = self.transition
        vals = np.linalg.eigvalsh(np.sqrt(p * p.T))[::-1]
        vals.flags.writeable = False
        return vals


@dataclass(frozen=True)
class ChainConfig:
    """Proposal kind, schedule, and seed for one Metropolis run."""

    n_steps: int
    seed: int
    proposal: str = "single-bit-flip"
    burn_in: int = 1000
    thinning: int = 1

    def __post_init__(self):
        if self.proposal not in PROPOSALS:
            raise DomainError(f"proposal must be one of {PROPOSALS}")
        if self.n_steps < 1:
            raise DomainError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.burn_in < 0 or self.thinning < 1:
            raise DomainError("burn_in must be >= 0 and thinning >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise DomainError("seed must fit in 64 bits")
        total = self.burn_in + self.n_steps * self.thinning
        if total > MAX_CHAIN_STEPS:
            raise DomainError(
                f"chain of {total} steps (burn_in + n_steps * thinning) "
                f"exceeds the cap {MAX_CHAIN_STEPS}"
            )


@dataclass(frozen=True)
class ChainRun:
    """Recorded trajectory (an np.intp index array) plus acceptance
    bookkeeping."""

    samples: np.ndarray
    n_proposed: int
    n_accepted: int

    @property
    def acceptance_rate(self) -> float:
        return self.n_accepted / self.n_proposed if self.n_proposed else 0.0


def _bit_count(dim: int) -> int:
    n_bits = dim.bit_length() - 1
    if n_bits < 1 or 2 ** n_bits != dim:
        raise DomainError(
            f"single-bit-flip proposal needs a power-of-two dimension >= 2, got {dim}"
        )
    return n_bits


class _DrawStream:
    """Proposal indices and uniforms of a Metropolis run, a block at a time.

    Yields the draws of the per-step scalar calls rng.integers(0, n) then
    rng.random(), so a blocked chain follows the same trajectory as a
    step-by-step one. integers(0, n) takes a 32-bit half v: the buffered high
    half of the last split word if there is one, else the low half of a fresh
    word, whose high half is buffered; its value is (v * n) >> 32, and
    integers(0, 1) draws nothing. random() takes a whole word w and returns
    (w >> 11) * 2**-53; take hands out the word itself. take decodes the raw
    words of a block in which numpy rejects no half, that is
    (v * n) mod 2**32 >= 2**32 % n for every v (Lemire); numpy's own scalar
    calls draw a block with a rejection.
    """

    def __init__(self, rng: np.random.Generator, n: int):
        self._rng = rng
        self._raw = rng.bit_generator.random_raw
        self._n = n
        self._threshold = (1 << 32) % n
        self._half = None  # buffered high half, as PCG64's has_uint32

    def take(self, k: int):
        """The next k draws: the proposal indices as np.intp and the
        uniforms as their uint64 words."""
        if self._n == 1:
            return np.zeros(k, dtype=np.intp), self._raw(k)
        # Without rejections the words run [U] S U U S U U ... [S U]: the
        # leading U serves a step whose proposal is the buffered half, and
        # each split word S feeds the proposals of the two steps after it.
        start_half = self._half
        lead = int(start_half is not None)
        m = k - lead
        words = self._raw(k + (m + 1) // 2)
        # The split words' halves in step order, low then high: a
        # little-endian copy read as 32-bit halves, on any host.
        split = words[lead::3].astype("<u8").view("<u4")
        scaled = np.empty(k, np.uint64)
        uniform = np.empty(k, np.uint64)
        if lead:
            scaled[0], uniform[0] = start_half, words[0]
        scaled[lead:] = split[:m]
        uniform[lead::2] = words[lead + 1::3]
        uniform[lead + 1::2] = words[lead + 2::3]
        self._half = int(split[m]) if m % 2 else None
        scaled *= np.uint64(self._n)
        if self._threshold and ((scaled & _LOW32) < self._threshold).any():
            # A rejection (about 1e-9 per draw) shifts every later draw:
            # rewind the block's words and let numpy draw it step by step,
            # from and into the stream's buffered half.
            bits = self._rng.bit_generator
            bits.advance(-len(words))
            state = bits.state
            state["has_uint32"], state["uinteger"] = lead, start_half or 0
            bits.state = state
            draws = [(self._rng.integers(0, self._n), self._rng.random()) for _ in range(k)]
            state = bits.state
            self._half = state["uinteger"] if state["has_uint32"] else None
            props, uniform = zip(*draws)
            # Exact: each of numpy's uniforms is a multiple of 2**-53.
            words = (np.array(uniform) * 2.0 ** 53).astype(np.uint64) << np.uint64(11)
            return np.array(props, np.intp), words
        return (scaled >> np.uint64(32)).astype(np.intp), uniform


def run_chain(weights, config: ChainConfig) -> ChainRun:
    """Metropolis walk over the states 0 .. len(weights)-1 of a target measure.

    weights holds mu(x), finite and nonnegative; only the ratios
    mu(y)/mu(x) enter, so any overall scale is irrelevant. The chain starts
    at state 0, runs burn_in transitions, then records every thinning-th
    state until n_steps samples exist, as an np.intp index array. It raises
    SamplerError before the first draw if no weight is positive or some
    positive weight is out of the chain's reach from state 0 (a zero-weight
    start, once left, is never entered again), and after a run that never
    left a zero-weight start.

    Each step draws rng.integers(0, n) for the proposal (n = dim, or the bit
    count for single-bit-flip) and then rng.random() for the acceptance test,
    rng = default_rng(config.seed), whether or not the move is taken; the
    draws are decoded a block at a time (see _DrawStream). The steps run on a
    _TableWalk when _use_table admits its size, else on a _WeightWalk; both
    take the same steps.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise DomainError(f"weights must be a nonempty vector, got shape {w.shape}")
    if not np.all(np.isfinite(w)) or w.min() < 0:
        raise DomainError("weights must be finite and nonnegative")
    dim = w.size
    if dim > 2 ** 32:  # the decoder follows numpy's 32-bit draw path
        raise DomainError(f"dimension must be in 1 .. 2**32, got {dim}")
    n_bits = _bit_count(dim) if config.proposal == "single-bit-flip" else 0
    if not w.any():
        raise SamplerError("target measure is identically zero: no weight is positive")
    if n_bits and not w.all():  # a uniform proposal joins every pair of states
        _check_flip_reach(w > 0, n_bits)
    total = config.burn_in + config.n_steps * config.thinning
    if _use_table(n_bits or dim, dim, total):
        walk = _TableWalk(w, n_bits)
    else:
        walk = _WeightWalk(w.tolist(), n_bits)
    draws = _DrawStream(np.random.default_rng(config.seed), n_bits or dim)

    samples = np.empty(config.n_steps, np.intp)
    filled = 0
    record = config.burn_in + config.thinning - 1  # next step whose state is kept
    for start in range(0, total, BLOCK_STEPS):
        states = walk.advance(*draws.take(min(BLOCK_STEPS, total - start)))
        kept = states[record - start::config.thinning]
        samples[filled:filled + len(kept)] = kept
        filled += len(kept)
        record += len(kept) * config.thinning
    if not walk.n_accepted and not w[0]:
        raise SamplerError(f"no move out of the zero-weight state 0 in {total} steps")
    return ChainRun(samples, total, walk.n_accepted)


def _check_flip_reach(positive: np.ndarray, n_bits: int) -> None:
    """Raise SamplerError unless a single-bit-flip chain from state 0 can
    reach every positive weight. A move into a zero weight is refused and any
    other may be taken, so the chain walks the flips between positive
    weights; a zero-weight start is left once, for a positive neighbour, and
    never entered again. Search breadth first from state 0 or, if its weight
    is zero, from its first positive neighbour."""
    flips = 1 << np.arange(n_bits)
    frontier = np.zeros(1, np.intp) if positive[0] else flips[positive[flips]][:1]
    reached = ~positive  # zero weights count as seen: never entered
    reached[frontier] = True
    while frontier.size:
        near = np.unique(frontier[:, None] ^ flips)
        frontier = near[~reached[near]]
        reached[frontier] = True
    stranded = positive.size - np.count_nonzero(reached)
    if stranded:
        raise SamplerError(
            f"the chain cannot reach {stranded} of the {np.count_nonzero(positive)} "
            "positive-weight states from state 0"
        )


class _WeightWalk:
    """Metropolis steps over a weight list, the ratio w[y] / w[x] read inline.

    Weights are finite and nonnegative, so no ratio is negative, and a ratio
    out of a positive weight is never nan. A move into a zero weight is then
    refused (u < 0 fails), so a zero-weight state is occupied only at the
    start, before the first acceptance. Ratios out of it divide by
    _SMALLEST_FLOAT instead of 0: a positive weight then gives a ratio of at
    least 1 and is taken, as inf is, and a zero weight gives 0 and is
    refused, as the undefined 0/0 is.
    """

    __slots__ = ("w", "n_bits", "x", "n_accepted")

    def __init__(self, weights: list, n_bits: int):
        self.w, self.n_bits = weights, n_bits  # n_bits 0: uniform
        self.x = self.n_accepted = 0

    def advance(self, props: np.ndarray, words: np.ndarray) -> list:
        """Take one step per draw; the state after each step, in order."""
        w, x, n_accepted = self.w, self.x, self.n_accepted
        wx = w[x] or _SMALLEST_FLOAT
        uniform = (words >> np.uint64(11)) * 2.0 ** -53
        states = []
        append = states.append
        if self.n_bits:
            for flip, u in zip((1 << props).tolist(), uniform.tolist()):
                y = x ^ flip
                if u < w[y] / wx:
                    x = y
                    wx = w[y]
                    n_accepted += 1
                append(x)
        else:
            for y, u in zip(props.tolist(), uniform.tolist()):
                if u < w[y] / wx:  # u < min(1, r), as u < 1; y == x counts as accepted
                    x = y
                    wx = w[y]
                    n_accepted += 1
                append(x)
        self.x, self.n_accepted = x, n_accepted
        return states


def _use_table(n_choices: int, dim: int, total: int) -> bool:
    """Whether a chain of total steps runs on a _TableWalk: its table has
    n_choices * (dim + 1) * dim entries and costs O(n_choices * dim^2) to
    build, so it pays only for at least that many steps, and its memory is
    capped at _MAX_TABLE_ENTRIES."""
    return n_choices * (dim + 1) * dim <= min(total, _MAX_TABLE_ENTRIES)


class _TableWalk:
    """The steps of _WeightWalk as lookups in a table of the chain's maps.

    State x moves under proposal k and uniform u exactly when
    u < ratio[k, x], with the ratios _WeightWalk divides. That depends on u
    only through r = #(proposal k's ratios <= u): x moves when at least r of
    them are below ratio[k, x]. So a step is one of n_choices * (dim + 1)
    maps, symbol k * (dim + 1) + r, and table[x][symbol] is the next state.

    A uniform's rank g among the distinct ratios below 1 (levels) is read
    from its bucket floor(u * _BUCKETS), the top bits of its word, unless a
    level lies inside that bucket; only then is u made, and symbol[k, g] is
    the step's symbol. Up to 256 symbols fit a byte, and the walk then reads
    them as bytes, the fastest way out of numpy; more are read as a list.
    Both take the same steps.

    Acceptances are counted as _WeightWalk counts them: the steps that move
    x, plus, under uniform proposals, the proposals of x itself at a
    positive weight (u < 1 = ratio). Under uniform proposals these are the
    steps that end on their proposal, less the start's proposals of itself
    while it holds a zero weight (u < 0 fails); only state 0 can, and once
    left it is never entered again.
    """

    __slots__ = ("n_bits", "zero_start", "table", "symbol", "levels", "by_bucket", "crowded", "x",
                 "n_accepted")

    def __init__(self, weights: np.ndarray, n_bits: int):
        dim = weights.size
        states = np.arange(dim)
        if n_bits:
            target = states ^ (1 << np.arange(n_bits))[:, None]  # [k, x]
        else:
            target = np.broadcast_to(states[:, None], (dim, dim))
        with np.errstate(over="ignore"):  # as the Python division overflows to inf
            ratio = weights[target] / np.where(weights > 0, weights, _SMALLEST_FLOAT)
        self.n_bits, self.zero_start = n_bits, not weights[0] > 0  # -0.0 too
        self.levels = levels = np.unique(ratio[ratio < 1])
        ordered = np.sort(ratio, axis=1)
        # rank[k, g]: proposal k's ratios <= levels[g - 1], and 0 for g = 0
        rank = np.array([np.searchsorted(r, np.append(-1.0, levels), "right") for r in ordered])
        below = np.array([np.searchsorted(r, v) for r, v in zip(ordered, ratio)])  # ratios < ratio[k, x]
        moved = below.T[:, :, None] >= np.arange(dim + 1)
        table = np.where(moved, target.T[:, :, None], states[:, None, None]).reshape(dim, -1)
        self.table = list(map(tuple, table.tolist()))  # tuple rows index fastest
        symbol = rank + (dim + 1) * np.arange(len(ratio))[:, None]
        self.symbol = symbol.astype(np.uint8 if len(ratio) * (dim + 1) <= 256 else np.intp)
        scaled = levels * _BUCKETS  # exact, as _BUCKETS is a power of two
        # edges[b]: the levels <= b / _BUCKETS, those with ceil(scaled) <= b
        edges = np.bincount(np.ceil(scaled).astype(np.intp), minlength=_BUCKETS + 1)
        edges = np.cumsum(edges[:_BUCKETS])
        self.by_bucket = np.take(self.symbol, edges, axis=1).ravel()  # [k * _BUCKETS + bucket]
        self.crowded = np.zeros(_BUCKETS, bool)
        self.crowded[scaled[scaled != np.floor(scaled)].astype(np.intp)] = True
        self.x = self.n_accepted = 0

    def advance(self, props: np.ndarray, words: np.ndarray) -> np.ndarray:
        """Take one step per draw; the state after each step, in order."""
        bucket = (words >> np.uint64(64 - _BUCKET_BITS)).astype(np.intp)
        symbols = self.by_bucket.take(props * _BUCKETS + bucket)
        crowded = self.crowded.take(bucket).nonzero()[0]
        if crowded.size:
            uniform = (words.take(crowded) >> np.uint64(11)) * 2.0 ** -53
            g = np.searchsorted(self.levels, uniform, "right")
            symbols[crowded] = self.symbol.take(props.take(crowded) * self.symbol.shape[1] + g)
        table, x = self.table, self.x
        symbols = symbols.tobytes() if symbols.dtype == np.uint8 else symbols.tolist()
        states = [x := table[x][s] for s in symbols]
        dim = len(table)  # up to 256 states fit a byte, the fastest way into numpy
        states = np.frombuffer(bytearray(states), np.uint8) if dim <= 256 else np.array(states)
        if self.n_bits:  # an accepted flip moves x
            accepted = np.count_nonzero(states[1:] != states[:-1]) + (states[0] != self.x)
        else:
            landed = states == props
            accepted = np.count_nonzero(landed)
            if self.zero_start:  # whose self-proposals are refused
                accepted -= np.count_nonzero(landed & (states == 0))
        self.n_accepted += int(accepted)
        self.x = x
        return states


def build_metropolis_matrix(mu, proposal: str = "single-bit-flip") -> MarkovChain:
    """Dense Metropolis transition matrix for the target weights mu.

    Off-diagonal entries are q(x, y) * min(1, mu_y / mu_x) and the diagonal
    absorbs the remainder, clipped at 0; the normalized weights are attached as the
    stationary distribution, which also forces the detailed-balance check.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 1 or mu.shape[0] < 2:
        raise DomainError("mu must be a vector of at least two weights")
    if mu.min() < 0 or not np.all(np.isfinite(mu)):
        raise DomainError("weights must be finite and nonnegative")
    if mu.sum() <= 0:
        raise DomainError("weights must not be identically zero")
    dim = mu.shape[0]

    if proposal == "uniform":
        q = np.full((dim, dim), 1.0 / dim)
    elif proposal == "single-bit-flip":
        n_bits = _bit_count(dim)
        q = np.zeros((dim, dim))
        x = np.arange(dim)[:, None]
        q[x, x ^ (1 << np.arange(n_bits))] = 1.0 / n_bits
    else:
        raise DomainError(f"proposal must be one of {PROPOSALS}")

    # A weight over a subnormal one overflows to inf: accept with min(1, inf) = 1.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        accept = np.minimum(1.0, mu[None, :] / mu[:, None])
    accept[np.isnan(accept)] = 1.0  # 0/0 pairs carry no stationary weight
    p = q * accept
    np.fill_diagonal(p, 0.0)
    # n_bits accepted flips of fl(1/n_bits) each can sum to 1 + 2^-52.
    np.fill_diagonal(p, np.maximum(1.0 - p.sum(axis=1), 0.0))
    return MarkovChain(p, mu / mu.sum())


def chain_eigenvalues(chain: MarkovChain) -> np.ndarray:
    """Real eigenvalues of a reversible chain, descending; a complex pair in
    MarkovChain.eigenvalues is a DomainError."""
    vals = chain.eigenvalues
    if np.abs(vals.imag).max() > 1e-9:
        raise DomainError("reversible chain produced complex eigenvalues")
    return np.sort(vals.real)[::-1]


def spectral_gap(chain: MarkovChain) -> float:
    """delta = |lambda_1| - |lambda_2| over the magnitudes of
    MarkovChain.eigenvalues, which with zeros in pi may include a complex
    pair (a transient cycle): delta needs only magnitudes."""
    if chain.dim < 2:
        raise DomainError(f"a spectral gap needs at least two states, got {chain.dim}")
    mags = np.sort(np.abs(chain.eigenvalues))[::-1]
    return float(mags[0] - mags[1])


def _check_reversible(p: np.ndarray, pi: np.ndarray) -> None:
    flow = pi[:, None] * p
    dev = np.abs(flow - flow.T).max()
    if dev > BALANCE_TOL:
        raise DomainError(
            f"chain is not reversible: detailed balance violated by {dev:.3e}"
        )


def _edge_space_isometries(chain: MarkovChain):
    """Columns |x>|p_x> and their swaps |q_y>|y> as N^2 x N isometries."""
    p = chain.transition
    n = chain.dim
    root = np.sqrt(p)
    a = np.zeros((n * n, n))
    b = np.zeros((n * n, n))
    for x in range(n):
        a[x * n:(x + 1) * n, x] = root[x, :]
        b[x::n, x] = root[x, :]
    return a, b


def check_walk_size(n: int) -> None:
    """Reject an N-state chain whose walk cannot be built: N < 2, or an edge
    space of N^2 states above MAX_WALK_DIM. Depends on N alone, so callers
    can check a size before allocating anything of it."""
    if n < 2:
        raise DomainError(f"chain dimensions must be >= 2, got {n}")
    if n * n > MAX_WALK_DIM:
        raise DomainError(
            f"chain dimension {n} gives a walk edge space of {n * n}, "
            f"above the cap {MAX_WALK_DIM}"
        )


def szegedy_walk_operator(chain: MarkovChain) -> UnitaryOperator:
    """Walk unitary on the doubled space: swap times the edge reflection.

    W = S (2 Pi_A - 1) with Pi_A the projector onto span{|x>|p_x>} and S the
    register swap. Its square is the product of the reflections about the
    two edge subspaces; taking the swap form keeps the eigenphases at plus
    or minus arccos of the chain eigenvalues instead of twice that.
    """
    n = chain.dim
    check_walk_size(n)
    need = DENSE_WALK_BYTES_PER_ENTRY * n ** 4
    if need > MAX_DENSE_WALK_BYTES:
        raise DomainError(
            f"dense walk of a {n}-state chain needs {need} bytes, "
            f"above the budget {MAX_DENSE_WALK_BYTES}"
        )
    a = _edge_space_isometries(chain)[0]
    w = a @ a.T  # Pi_A
    w *= 2
    w[np.diag_indices_from(w)] -= 1.0
    # S moves row (x, y) to (y, x). Rebinding w frees the unswapped array
    # before the unitarity check allocates its own.
    w = w.reshape(n, n, n * n).transpose(1, 0, 2).reshape(n * n, n * n)
    return UnitaryOperator(w)


def _invariant_subspace_basis(chain: MarkovChain) -> np.ndarray:
    a, b = _edge_space_isometries(chain)
    stacked = np.hstack([a, b])
    u, s, _ = np.linalg.svd(stacked, full_matrices=False)
    return u[:, s > 1e-10]


def walk_eigenphases(walk: UnitaryOperator, chain: MarkovChain) -> np.ndarray:
    """Sorted eigenphases of the walk on its invariant edge subspace."""
    basis = _invariant_subspace_basis(chain)
    if walk.dim != basis.shape[0]:
        raise DomainError("walk dimension does not match the chain")
    sub = basis.conj().T @ walk.entries @ basis
    dev = np.abs(sub @ sub.conj().T - np.eye(sub.shape[0])).max()
    if dev > 1e-8:
        raise DomainError(
            f"edge subspace is not invariant under the walk (deviation {dev:.3e})"
        )
    return np.sort(np.angle(np.linalg.eigvals(sub)))


def phase_gap(walk: UnitaryOperator, chain: MarkovChain) -> float:
    """Smallest nonzero eigenphase magnitude of the walk.

    For a reversible chain this equals arccos(lambda_2) and dominates
    sqrt(2 delta), the quadratic speedup relation.
    """
    phases = np.abs(walk_eigenphases(walk, chain))
    nonzero = phases[phases > PHASE_ZERO_TOL]
    if nonzero.size == 0:
        raise DomainError("walk spectrum is degenerate: no nonzero eigenphase")
    return float(nonzero.min())


def discriminant_phase_gap(chain: MarkovChain) -> float:
    """Phase gap of the walk read from the chain's discriminant, in O(N^3).

    The walk's eigenphases on its invariant edge subspace are 0 for the top
    eigenvalue 1 of D = sqrt(P * P^T) and plus or minus arccos(lambda) for
    each other eigenvalue lambda (Szegedy, FOCS 2004), so the smallest
    nonzero magnitude is arccos of the second-largest. This is
    phase_gap(szegedy_walk_operator(chain), chain) without the N^2 x N^2
    walk, which stays as its test oracle.

    The top eigenvalue is dropped by index, not by a phase threshold: arccos
    of 1 - 1e-16 is about 1.5e-8, so rounding alone would pass a threshold.
    Phase gaps below about 1e-8 are therefore not resolved; a second
    eigenvalue that rounds to 1 (the identity chain) is degenerate. A chain
    that is not reversible is rejected: its D need not have the eigenvalue
    1, and then the top eigenvalue is a nonzero phase too.
    """
    check_walk_size(chain.dim)
    chain.pi  # rejects a chain that is not reversible
    gap = float(np.arccos(np.clip(chain._discriminant_spectrum[1], -1.0, 1.0)))
    if gap == 0.0:
        raise DomainError("walk spectrum is degenerate: no nonzero eigenphase")
    return gap

