"""Seeded synthesis of operators, chains, and on-grid circuit instances."""

from __future__ import annotations

import numpy as np

from .numerics import HermitianOperator, UnitaryOperator
from .sampler import MarkovChain, build_metropolis_matrix


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> HermitianOperator:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator(scale * (m + m.conj().T) / 2)


def random_unitary(rng: np.random.Generator, dim: int) -> UnitaryOperator:
    """Haar-ish unitary from the QR of a complex Gaussian matrix."""
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    # Fix the phase freedom so the draw is basis-independent.
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return UnitaryOperator(q)


def random_density(rng: np.random.Generator, dim: int) -> HermitianOperator:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return HermitianOperator(rho / np.trace(rho).real)


def on_grid_hermitian(
    rng: np.random.Generator, dim: int, dt: float, n_probe: int
) -> HermitianOperator:
    """Hermitian operator whose eigenvalues sit exactly on the probe grid.

    Eigenvalues are drawn from 2*pi*j / (dt * N_j); the eigenbasis is a
    random unitary. Running the tomography circuit on such an operator
    produces no leakage, so the estimator is exact up to rounding.
    """
    n = 2 ** n_probe
    indices = rng.integers(0, n, size=dim)
    vals = 2 * np.pi * np.sort(indices) / (dt * n)
    u = random_unitary(rng, dim).entries
    m = (u * vals) @ u.conj().T
    return HermitianOperator((m + m.conj().T) / 2)


def random_positive_weights(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Strictly positive target weights with a few orders of spread."""
    return np.exp(rng.uniform(-2.0, 2.0, size=dim))


def random_reversible_chain(
    rng: np.random.Generator, dim: int, proposal: str = "uniform"
) -> MarkovChain:
    """Reversible chain from Metropolis applied to random positive weights."""
    return build_metropolis_matrix(random_positive_weights(rng, dim), proposal)

