"""Measurement sampling and the ancilla-based diagonal-element estimator."""

from __future__ import annotations

import csv
import io
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

    def to_json(self) -> dict:
        return {
            "registers": list(self.registers),
            "total": self.total,
            "counts": {",".join(map(str, k)): v for k, v in sorted(self.counts.items())},
        }


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


def ancilla_zero_frequency(state: StateVector, n_sam: int, seed: int) -> float:
    """Fraction of n_sam seeded measurements that find the ancilla in |0>.

    The same draws as sample_measurements(state, n_sam, seed), counted
    without building the records.
    """
    indices = _draw_indices(state, n_sam, seed)
    return int(np.count_nonzero((indices & 1) == 0)) / n_sam


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


def estimate_diag_element(ancilla_zero_freq: float, gamma: float) -> float:
    """Invert the gamma scaling: mu_hat = P_b(0) / gamma."""
    if not 0 <= ancilla_zero_freq <= 1:
        raise DomainError(f"frequency {ancilla_zero_freq} outside [0, 1]")
    if not np.isfinite(gamma) or gamma <= 0:
        raise DomainError(f"gamma must be finite and > 0, got {gamma}")
    return ancilla_zero_freq / gamma


def samples_to_csv(samples) -> str:
    """Render samples as CSV with header s,probe,main,ancilla (s is 1-based)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["s", "probe", "main", "ancilla"])
    for s, rec in enumerate(samples, start=1):
        writer.writerow([s, rec.probe_outcome, rec.main_outcome, rec.ancilla_outcome])
    return buf.getvalue()


def samples_from_csv(text: str) -> list:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != ["s", "probe", "main", "ancilla"]:
        raise DomainError(f"unexpected CSV header: {header}")
    return [SampleRecord(int(p), int(m), int(a)) for _, p, m, a in reader]
