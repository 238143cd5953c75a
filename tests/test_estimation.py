"""Measurement sampling and the ancilla-frequency estimator."""

import numpy as np
import pytest

from qest.circuit import CircuitConfig, StateVector, run_tomography_circuit
from qest.estimation import (
    SampleRecord,
    _draw_indices,
    ancilla_zero_probability,
    empirical_distribution,
    estimate_diag_element,
    sample_measurements,
    samples_from_csv,
    samples_to_csv,
)
from qest.numerics import (
    DomainError,
    FunctionSpec,
    HermitianOperator,
    UnitaryOperator,
    exact_diag_element,
)
from qest.synth import on_grid_hermitian, random_unitary


def fixture_state(seed=0, n_probe=2, gamma=1.0, f=None):
    rng = np.random.default_rng(seed)
    a = on_grid_hermitian(rng, 2, 1.0, n_probe)
    v = random_unitary(rng, 2)
    cfg = CircuitConfig(n_probe, 1.0, gamma, f or FunctionSpec.exponential(0.5))
    return a, v, cfg, run_tomography_circuit(a, v, 0, cfg)


def test_ancilla_zero_probability_pure_zero():
    amps = np.zeros(8)
    amps[0] = 1.0
    assert ancilla_zero_probability(StateVector(1, 1, amps)) == pytest.approx(1.0)


def test_ancilla_zero_probability_constant_function():
    _, _, _, state = fixture_state(gamma=0.25, f=FunctionSpec.constant(1.0))
    assert ancilla_zero_probability(state) == pytest.approx(0.25, abs=1e-12)


def test_ancilla_zero_probability_on_grid_oracle():
    f = FunctionSpec.exponential(0.5)
    a, v, cfg, state = fixture_state(seed=3, f=f)
    want = cfg.gamma * exact_diag_element(a, v, f, 0)
    assert abs(ancilla_zero_probability(state) - want) <= 1e-9


def test_sampling_deterministic_state():
    amps = np.zeros(8)
    amps[5] = 1.0  # j=1, x=0, b=1
    samples = sample_measurements(StateVector(1, 1, amps), 50, seed=9)
    assert len(samples) == 50
    assert all(s == SampleRecord(1, 0, 1) for s in samples)


def test_sampling_binomial_error_bar():
    # P_b(0) = 0.5 by construction; 10^5 draws stay within 3 sigma.
    amps = np.zeros(8)
    amps[0] = amps[1] = 1 / np.sqrt(2)
    state = StateVector(1, 1, amps)
    samples = sample_measurements(state, 10 ** 5, seed=11)
    freq = empirical_distribution(samples, ("ancilla",)).frequency((0,))
    assert abs(freq - 0.5) <= 3 * np.sqrt(0.25 / 10 ** 5)


def test_sampling_seed_contract():
    _, _, _, state = fixture_state(seed=5)
    first = sample_measurements(state, 200, seed=42)
    again = sample_measurements(state, 200, seed=42)
    other = sample_measurements(state, 200, seed=43)
    assert first == again
    assert first != other


def test_sampling_validates_arguments():
    _, _, _, state = fixture_state()
    with pytest.raises(DomainError):
        sample_measurements(state, 0, seed=1)
    with pytest.raises(DomainError):
        sample_measurements(state, 10, seed=2 ** 64)


def test_empirical_distribution_single_outcome():
    samples = [SampleRecord(0, 0, 0)] * 4
    dist = empirical_distribution(samples, ("ancilla",))
    assert dist.frequency((0,)) == pytest.approx(1.0)
    assert dist.frequency((1,)) == pytest.approx(0.0)


def test_empirical_distribution_half_split():
    samples = [SampleRecord(0, 0, b) for b in (0, 1, 0, 1)]
    dist = empirical_distribution(samples, ("ancilla",))
    assert dist.frequency((0,)) == pytest.approx(0.5)


def test_empirical_distribution_rejects_empty():
    with pytest.raises(DomainError):
        empirical_distribution([], ("ancilla",))


def test_marginal_consistency():
    _, _, _, state = fixture_state(seed=7)
    samples = sample_measurements(state, 5000, seed=13)
    joint = empirical_distribution(samples, ("main", "ancilla"))
    direct = empirical_distribution(samples, ("ancilla",))
    for b in (0, 1):
        marginal = sum(
            joint.frequency((x, b)) for x in range(state.n_main_states)
        )
        assert marginal == pytest.approx(direct.frequency((b,)), abs=1e-12)


def test_frequencies_sum_to_one():
    _, _, _, state = fixture_state(seed=8)
    samples = sample_measurements(state, 1000, seed=17)
    dist = empirical_distribution(samples)
    assert sum(dist.counts.values()) == dist.total
    total = sum(dist.frequency(key) for key in dist.counts)
    assert total == pytest.approx(1.0)


def test_estimator_arithmetic():
    assert estimate_diag_element(0.5, 0.25) == pytest.approx(2.0)
    assert estimate_diag_element(0.3, 0.3) == pytest.approx(1.0)


def test_estimator_validates_inputs():
    with pytest.raises(DomainError):
        estimate_diag_element(0.5, 0.0)
    with pytest.raises(DomainError):
        estimate_diag_element(1.5, 1.0)


def test_estimator_on_grid_matches_oracle():
    f = FunctionSpec.exponential(0.5)
    for seed in range(5):
        a, v, cfg, state = fixture_state(seed=20 + seed, f=f)
        got = estimate_diag_element(ancilla_zero_probability(state), cfg.gamma)
        assert abs(got - exact_diag_element(a, v, f, 0)) <= 1e-9


def test_shot_estimate_converges():
    # One seeded instance, increasing shots: the error should shrink
    # roughly like 1/sqrt(N). A single pair check keeps this fast; the
    # regression over the full grid lives in the acceptance suite.
    f = FunctionSpec.exponential(0.5)
    a, v, cfg, state = fixture_state(seed=31, f=f)
    truth = exact_diag_element(a, v, f, 0)
    errs = []
    for n_sam in (10 ** 2, 10 ** 4):
        errors = []
        for seed in range(10):
            samples = sample_measurements(state, n_sam, seed=seed)
            freq = empirical_distribution(samples, ("ancilla",)).frequency((0,))
            errors.append(abs(estimate_diag_element(freq, cfg.gamma) - truth))
        errs.append(np.mean(errors))
    assert errs[1] < errs[0] / 3


def test_csv_round_trip():
    _, _, _, state = fixture_state(seed=9)
    samples = sample_measurements(state, 64, seed=23)
    text = samples_to_csv(samples)
    assert text.splitlines()[0] == "s,probe,main,ancilla"
    assert samples_from_csv(text) == samples


def reference_sample_measurements(state, n_sam, seed):
    """The per-index decode that sample_measurements replaced, kept as its oracle."""
    records = []
    for idx in _draw_indices(state, n_sam, seed):
        b = int(idx & 1)
        x = int((idx >> 1) % state.n_main_states)
        j = int(idx >> (state.n_main + 1))
        records.append(SampleRecord(j, x, b))
    return records


def test_sample_records_equal_the_per_index_decode():
    states = [fixture_state(seed=s, n_probe=p)[3] for s, p in ((0, 2), (3, 3), (5, 4))]
    rng = np.random.default_rng(243)
    cfg = CircuitConfig(3, 0.9, 1.0, FunctionSpec.exponential(0.3))
    a = HermitianOperator(np.diag(np.arange(8.0)))
    states.append(run_tomography_circuit(a, random_unitary(rng, 8), 5, cfg))
    for state in states:
        for n_sam in (1, 1000):
            for seed in (0, 2 ** 64 - 1):
                records = sample_measurements(state, n_sam, seed)
                assert records == reference_sample_measurements(state, n_sam, seed)
                assert all(
                    type(v) is int
                    for rec in records
                    for v in (rec.probe_outcome, rec.main_outcome, rec.ancilla_outcome)
                )
