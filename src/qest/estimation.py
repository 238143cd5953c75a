"""Seeded measurement sampling of a statevector: the test oracle for the
circuit's ancilla statistics. No CLI path loads this module."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .circuit import StateVector
from .numerics import DomainError

REGISTERS = ("probe", "main", "ancilla")


@dataclass(frozen=True, slots=True)
class SampleRecord:
    """One measurement of all three registers in the computational basis."""

    probe_outcome: int
    main_outcome: int
    ancilla_outcome: int


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Outcome counts over a chosen subset of registers."""

    registers: tuple
    counts: dict
    total: int

    def frequency(self, outcome) -> float:
        if self.total == 0:
            raise DomainError("empty distribution has no frequencies")
        return self.counts.get(tuple(outcome), 0) / self.total


def ancilla_zero_probability(state: StateVector) -> float:
    """Probability of measuring the ancilla in |0>."""
    tensor = state.as_register_tensor()
    return float(np.sum(np.abs(tensor[:, :, 0]) ** 2))


def _draw_indices(state: StateVector, n_sam: int, seed: int) -> np.ndarray:
    """Flat amplitude indices of n_sam seeded computational-basis draws.

    Inverts the cumulative amplitude-squared array against uniform draws from
    a generator seeded with the 64-bit seed.
    """
    if n_sam < 1:
        raise DomainError(f"n_sam must be >= 1, got {n_sam}")
    if not 0 <= seed < 2 ** 64:
        raise DomainError("seed must fit in 64 bits")
    probs = np.abs(state.amplitudes) ** 2
    cum = np.cumsum(probs)
    cum /= cum[-1]
    rng = np.random.default_rng(seed)
    draws = rng.random(n_sam)
    return np.searchsorted(cum, draws, side="right")


def sample_measurements(state: StateVector, n_sam: int, seed: int) -> list:
    """Draw i.i.d. computational-basis measurements of the full register.

    A repeated seed reproduces the sample list exactly (see _draw_indices).
    """
    indices = _draw_indices(state, n_sam, seed)
    j = (indices >> (state.n_main + 1)).tolist()
    x = ((indices >> 1) % state.n_main_states).tolist()
    b = (indices & 1).tolist()
    return list(map(SampleRecord, j, x, b))


def empirical_distribution(samples, registers=REGISTERS) -> EmpiricalDistribution:
    """Count outcomes marginalized onto the named registers."""
    registers = tuple(registers)
    if not registers or any(r not in REGISTERS for r in registers):
        raise DomainError(f"registers must be a nonempty subset of {REGISTERS}")
    samples = list(samples)
    if not samples:
        raise DomainError("cannot build a distribution from zero samples")
    keys = {
        "probe": lambda rec: rec.probe_outcome,
        "main": lambda rec: rec.main_outcome,
        "ancilla": lambda rec: rec.ancilla_outcome,
    }
    counts = Counter(tuple(keys[r](rec) for r in registers) for rec in samples)
    return EmpiricalDistribution(registers, dict(counts), len(samples))
