"""Metropolis sampling over explicit weights and quantum-walk gap diagnostics.

The sampler reads the target's weights only through ratios mu(x')/mu(x),
so any overall scale of the target measure is irrelevant. The walk side
reads mixing information out of the walk's eigenphases, which sit at plus or
minus arccos of the chain eigenvalues: from the N x N discriminant
(discriminant_phase_gap), or from the dense N^2 x N^2 bipartite reflection
operator, which is kept as its oracle.
"""

from __future__ import annotations

import itertools
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
    def _solved_stationary(self) -> np.ndarray:
        # Solved and checked for detailed balance once per chain given
        # without a stationary vector; a declared one was checked above.
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
    def _discriminant_spectrum(self) -> np.ndarray:
        # Eigenvalues of D = sqrt(P * P^T), descending: the walk's phase gap
        # and, for a full-support pi, the chain's own spectrum.
        p = self.transition
        vals = np.linalg.eigvalsh(np.sqrt(p * p.T))[::-1]
        vals.flags.writeable = False
        return vals

    @classmethod
    def from_json(cls, obj: dict) -> "MarkovChain":
        stat = obj.get("stationary")
        return cls(
            np.array(obj["transition"], dtype=float),
            None if stat is None else np.array(stat, dtype=float),
        )


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

    Decodes raw PCG64 words exactly as the per-step scalar calls
    rng.integers(0, n) then rng.random() consume them, so a blocked chain
    follows the same trajectory as a step-by-step one:

    - integers(0, n) takes a 32-bit half: the buffered high half of the last
      split word if there is one, else the low half of a fresh word, whose
      high half is buffered. A half v is rejected and redrawn while
      (v * n) mod 2**32 < 2**32 % n (Lemire); the value is (v * n) >> 32.
      integers(0, 1) draws nothing.
    - random() takes a whole word w and returns (w >> 11) * 2**-53; it leaves
      the buffered half alone.
    """

    def __init__(self, rng: np.random.Generator, n: int):
        self._raw = rng.bit_generator.random_raw
        self._n = n
        self._threshold = (1 << 32) % n
        self._half = None  # buffered high half, as PCG64's has_uint32

    def take(self, k: int):
        """The next k (proposal index, uniform) draws as two arrays."""
        if self._n == 1:
            return np.zeros(k, dtype=np.uint64), _uniforms(self._raw(k))
        # Without rejections the words run [U] S U U S U U ... [S U]: the
        # leading U serves a step whose proposal is the buffered half, and
        # each split word S feeds the proposals of the two steps after it.
        start_half = self._half
        lead = int(start_half is not None)
        m = k - lead
        words = self._raw(k + (m + 1) // 2)
        groups = np.append(words[lead:], np.zeros(m % 2, np.uint64)).reshape(-1, 3)
        split = groups[:, 0]
        halves = np.column_stack((split & _LOW32, split >> np.uint64(32))).ravel()[:m]
        uniform = groups[:, 1:].ravel()[:m]
        if lead:
            halves = np.concatenate((np.array([start_half], np.uint64), halves))
            uniform = np.concatenate((words[:1], uniform))
        self._half = int(split[-1] >> np.uint64(32)) if m % 2 else None
        scaled = halves * np.uint64(self._n)
        if self._threshold and ((scaled & _LOW32) < self._threshold).any():
            # A rejection (about 1e-9 per draw) shifts every later draw.
            self._half = start_half
            return self._take_stepwise(k, words.tolist())
        return scaled >> np.uint64(32), _uniforms(uniform)

    def _take_stepwise(self, k: int, words: list):
        """take(k) one draw at a time, starting from the block's words.

        A block with a rejection consumes every word the rejection-free
        layout fetched and then some, so no fetched word is left over.
        """
        words = itertools.chain(words, iter(self._raw, None))
        props, uniform = [], []
        for _ in range(k):
            while True:
                if self._half is None:
                    w = next(words)
                    v, self._half = w & _LOW32, w >> 32
                else:
                    v, self._half = self._half, None
                scaled = v * self._n
                if scaled & _LOW32 >= self._threshold:
                    break
            props.append(scaled >> 32)
            uniform.append(next(words))
        return np.array(props, np.uint64), _uniforms(np.array(uniform, np.uint64))


def _uniforms(words: np.ndarray) -> np.ndarray:
    return (words >> np.uint64(11)) * 2.0 ** -53


def run_chain(weights, config: ChainConfig) -> ChainRun:
    """Metropolis walk over the states 0 .. len(weights)-1 of a target measure.

    weights holds mu(x), finite and nonnegative; only the ratios
    mu(y)/mu(x) enter, so any overall scale is irrelevant. The chain starts
    at state 0, runs burn_in transitions, then records every thinning-th
    state until n_steps samples exist, as an np.intp index array. A start
    from which only undefined ratios (0/0) are seen within the retry budget
    means the target is identically zero.

    Each step draws rng.integers(0, n) for the proposal (n = dim, or the bit
    count for single-bit-flip) and then rng.random() for the acceptance test,
    rng = default_rng(config.seed), whether or not the move is taken; the
    draws are decoded a block at a time (see _DrawStream).
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise DomainError(f"weights must be a nonempty vector, got shape {w.shape}")
    if not np.all(np.isfinite(w)) or w.min() < 0:
        raise DomainError("weights must be finite and nonnegative")
    dim = w.size
    if dim > 2 ** 32:  # the decoder follows numpy's 32-bit draw path
        raise DomainError(f"dimension must be in 1 .. 2**32, got {dim}")
    walk = _WeightWalk(w.tolist(), config.proposal == "single-bit-flip", 100 + 10 * dim)
    draws = _DrawStream(np.random.default_rng(config.seed), walk.n_bits or dim)

    samples = np.empty(config.n_steps, np.intp)
    filled = 0
    total = config.burn_in + config.n_steps * config.thinning
    record = config.burn_in + config.thinning - 1  # next step whose state is kept
    for start in range(0, total, BLOCK_STEPS):
        states = walk.advance(*draws.take(min(BLOCK_STEPS, total - start)))
        kept = states[record - start::config.thinning]
        samples[filled:filled + len(kept)] = kept
        filled += len(kept)
        record += len(kept) * config.thinning
    if not walk.n_accepted and walk.nan_streak == total:
        # Short runs can end before the streak budget trips.
        raise _zero_target_error()
    return ChainRun(samples, total, walk.n_accepted)


def _zero_target_error(nan_streak: int | None = None) -> SamplerError:
    """The error of a chain that only saw undefined ratios: mid-run once the
    streak passes its budget, or at the end of a run shorter than that."""
    if nan_streak is None:
        return SamplerError(
            "target measure looks identically zero: every ratio was undefined"
        )
    return SamplerError(
        "target measure looks identically zero: no move "
        f"accepted after {nan_streak} undefined ratios"
    )


class _WeightWalk:
    """Metropolis steps over a weight list, the ratio w[y] / w[x] read inline.

    nan_streak counts the undefined ratios (0/0) seen before the first
    acceptance; past nan_budget the target counts as identically zero.
    Weights are finite and nonnegative, so no ratio is negative, and a ratio
    out of a positive weight is never nan. A move into a zero weight is then
    refused (u < 0 fails), so a zero-weight state is occupied only at the
    start, before the first acceptance: only there can nan ratios occur, and
    from there every move into a positive weight has ratio inf and is taken.

    For single-bit-flip, state x's ratios w[x ^ 2^b] / w[x] over the n_bits
    bits b are computed once, when x is first occupied.
    """

    __slots__ = ("w", "n_bits", "rows", "nan_budget", "x", "n_accepted", "nan_streak")

    def __init__(self, weights: list, flip: bool, nan_budget: int):
        self.w, self.nan_budget = weights, nan_budget
        self.n_bits = _bit_count(len(weights)) if flip else 0  # 0: uniform
        self.rows = [None] * len(weights) if flip else None
        self.x = self.n_accepted = self.nan_streak = 0

    def advance(self, props: np.ndarray, uniform: np.ndarray) -> list:
        """Take one step per draw; the state after each step, in order."""
        props, uniform = props.tolist(), uniform.tolist()
        states = []
        if not self.w[self.x]:
            taken = self._leave_zero_start(props, states)
            if taken == len(props):  # still at the start, or left on the last draw
                return states
            props, uniform = props[taken:], uniform[taken:]
        if self.n_bits:
            self._flip_steps(props, uniform, states)
        else:
            self._uniform_steps(props, uniform, states)
        return states

    def _leave_zero_start(self, props: list, states: list) -> int:
        """Steps from the zero-weight start state 0 up to and including its
        first move; returns how many draws they took."""
        w, n_bits = self.w, self.n_bits
        for i, y in enumerate(props):
            if n_bits:
                y = 1 << y  # 0 ^ 2^b
            if w[y]:  # ratio inf: taken whatever the uniform
                states += [0] * i
                states.append(y)
                self.x = y
                self.n_accepted = 1
                return i + 1
            self.nan_streak += 1
            if self.nan_streak > self.nan_budget:
                raise _zero_target_error(self.nan_streak)
        states += [0] * len(props)
        return len(props)

    def _uniform_steps(self, props: list, uniform: list, states: list) -> None:
        w, x, n_accepted = self.w, self.x, self.n_accepted
        wx = w[x]
        append = states.append
        for y, u in zip(props, uniform):
            if u < w[y] / wx:  # u < min(1, r), as u < 1; y == x counts as accepted
                x = y
                wx = w[y]
                n_accepted += 1
            append(x)
        self.x, self.n_accepted = x, n_accepted

    def _flip_steps(self, bits: list, uniform: list, states: list) -> None:
        rows, x, n_accepted = self.rows, self.x, self.n_accepted
        row = rows[x] or self._row(x)
        append = states.append
        for b, u in zip(bits, uniform):
            if u < row[b]:
                x ^= 1 << b
                row = rows[x] or self._row(x)
                n_accepted += 1
            append(x)
        self.x, self.n_accepted = x, n_accepted

    def _row(self, x: int) -> list:
        w = self.w
        wx = w[x]
        row = self.rows[x] = [w[x ^ (1 << b)] / wx for b in range(self.n_bits)]
        return row


def build_metropolis_matrix(mu, proposal: str = "single-bit-flip") -> MarkovChain:
    """Dense Metropolis transition matrix for the target weights mu.

    Off-diagonal entries are q(x, y) * min(1, mu_y / mu_x) and the diagonal
    absorbs the remainder; the normalized weights are attached as the
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
    np.fill_diagonal(p, 1.0 - p.sum(axis=1))
    return MarkovChain(p, mu / mu.sum())


def chain_eigenvalues(chain: MarkovChain) -> np.ndarray:
    """Real eigenvalues of a reversible chain, descending.

    With pi > 0 everywhere, detailed balance makes the discriminant
    D = sqrt(P * P^T) equal to diag(sqrt(pi)) P diag(1/sqrt(pi)), so P's
    eigenvalues are D's: one symmetric eigenproblem per chain, shared with
    discriminant_phase_gap. A pi with zeros falls back to eig(P), since the
    transient block of P need not be symmetrisable and D's spectrum is then
    not P's.
    """
    if (_stationary(chain) > 0).all():
        return chain._discriminant_spectrum
    vals = np.linalg.eigvals(chain.transition)
    if np.abs(vals.imag).max() > 1e-9:
        raise DomainError("reversible chain produced complex eigenvalues")
    return np.sort(vals.real)[::-1]


def spectral_gap(chain: MarkovChain) -> float:
    """delta = |lambda_1| - |lambda_2| over the eigenvalue magnitudes. With
    zeros in pi it reads eig(P), whose transient block may have a complex
    pair (a transient cycle): delta needs only magnitudes."""
    if chain.dim < 2:
        raise DomainError(f"a spectral gap needs at least two states, got {chain.dim}")
    full = (_stationary(chain) > 0).all()
    vals = chain._discriminant_spectrum if full else np.linalg.eigvals(chain.transition)
    mags = np.sort(np.abs(vals))[::-1]
    return float(mags[0] - mags[1])


def _stationary(chain: MarkovChain) -> np.ndarray:
    """The chain's pi, declared or solved; either way checked for detailed
    balance, a declared pi at construction and a solved one when solved."""
    if chain.stationary is not None:
        return chain.stationary
    return chain._solved_stationary


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
    # Pi_A = A A^T is block diagonal, block x the outer product of
    # sqrt(P[x, :]) with itself, and S moves row (x, y) to (y, x). So
    # W[(y, x), (x, y')] = 2 sqrt(P[x, y]) sqrt(P[x, y']) - [y == y'] and every
    # other entry is zero; the products are the ones A A^T forms.
    root = np.sqrt(chain.transition)
    w = np.zeros((n, n, n, n))  # indexed [y, x, x', y']
    idx = np.arange(n)
    w[:, idx, idx, :] = (2 * (root[:, :, None] * root[:, None, :])).transpose(1, 0, 2)
    w[idx[:, None], idx, idx, idx[:, None]] -= 1.0
    return UnitaryOperator(w.reshape(n * n, n * n))


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
    _stationary(chain)  # rejects a chain that is not reversible
    gap = float(np.arccos(np.clip(chain._discriminant_spectrum[1], -1.0, 1.0)))
    if gap == 0.0:
        raise DomainError("walk spectrum is degenerate: no nonzero eigenphase")
    return gap

