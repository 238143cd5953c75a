"""Acceptance gate: the eight release criteria, each timed against its budget.

Every test prints one verdict line (criterion, PASS/FAIL, measured numbers,
elapsed seconds). Run with `-rP` or `-s` to see the lines for passing tests.
"""

import time

import numpy as np
import pytest

from qest.circuit import (
    CircuitConfig,
    compose_gate_unitary,
    expand_multiplexor,
    leakage_amplitude,
    multiplexor_block,
    run_tomography_circuit,
)
from qest.estimation import (
    ancilla_zero_probability,
    empirical_distribution,
    estimate_diag_element,
    sample_measurements,
)
from qest.numerics import (
    FunctionSpec,
    HermitianOperator,
    UnitaryOperator,
    eigendecompose,
    exact_diag_element,
    unitary_exp,
)
from qest.sampler import (
    ChainConfig,
    build_metropolis_matrix,
    chain_eigenvalues,
    phase_gap,
    run_chain,
    spectral_gap,
    szegedy_walk_operator,
    walk_eigenphases,
)
from qest.scenarios import (
    ScenarioSpec,
    choose_gamma,
    run_scenario_mean,
    run_scenario_partition,
    trace_ratio,
)
from qest.synth import (
    on_grid_hermitian,
    random_hermitian,
    random_positive_weights,
    random_reversible_chain,
    random_unitary,
)


def verdict(num, name, ok, detail, elapsed, budget):
    line = (
        f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} "
        f"[{detail}; {elapsed:.1f}s of {budget}s]"
    )
    print(line)
    assert ok, line
    assert elapsed <= budget, line


def circuit_estimate(a, v, x0, cfg):
    state = run_tomography_circuit(a, v, x0, cfg)
    return estimate_diag_element(ancilla_zero_probability(state), cfg.gamma)


def pick_function(rng, which):
    if which == 0:
        return FunctionSpec.identity()
    if which == 1:
        return FunctionSpec.exponential(float(rng.uniform(0.2, 1.5)))
    coeffs = tuple(rng.uniform(0.1, 1.0, size=3))
    return FunctionSpec.weighted_exponential(coeffs, float(rng.uniform(0.0, 1.0)))


def test_criterion_1_on_grid_exactness():
    start = time.perf_counter()
    worst = 0.0
    for s in range(50):
        rng = np.random.default_rng(1000 + s)
        n_probe = int(rng.integers(2, 7))
        n_main = int(rng.integers(1, 4))
        dim = 2 ** n_main
        dt = float(rng.uniform(0.5, 2.0))
        a = on_grid_hermitian(rng, dim, dt, n_probe)
        v = random_unitary(rng, dim)
        x0 = int(rng.integers(dim))
        f = pick_function(rng, s % 3)
        cfg = CircuitConfig(n_probe, dt, choose_gamma(f, dt, n_probe), f)
        err = abs(circuit_estimate(a, v, x0, cfg) - exact_diag_element(a, v, f, x0))
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    verdict(
        1, "on-grid exactness", worst <= 1e-8,
        f"50 instances, max |mu_hat - mu| = {worst:.3e}", elapsed, 30,
    )


def test_criterion_2_off_grid_leakage_decay():
    start = time.perf_counter()
    a = HermitianOperator(np.diag([2 * np.pi / 3, 4 * np.pi / 3]).astype(complex))
    v = UnitaryOperator(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    f = FunctionSpec.exponential(1.5)
    dt = 1.0
    exact = exact_diag_element(a, v, f, 0)
    weights = np.array([0.5, 0.5])  # |<a_i|V|0>|^2 for the Hadamard column
    eigenvalues = np.array([2 * np.pi / 3, 4 * np.pi / 3])

    errors = []
    final_bound = None
    for n_probe in range(2, 9):
        cfg = CircuitConfig(n_probe, dt, choose_gamma(f, dt, n_probe), f)
        errors.append(abs(circuit_estimate(a, v, 0, cfg) - exact))
        n = cfg.n_slots
        off_mass = 0.0
        for w, k in zip(weights, eigenvalues * dt):
            amps = np.array([leakage_amplitude(k, x, n) for x in range(n)])
            mags = np.abs(amps) ** 2
            off_mass += w * (mags.sum() - mags.max())
        fvals = f.evaluate(cfg.grid())
        max_adjacent = np.abs(np.diff(fvals)).max()
        final_bound = 2 * off_mass * max_adjacent
    errors = np.array(errors)
    monotone = bool(np.all(np.diff(errors) < 0))
    bounded = errors[-1] <= final_bound
    pinned = (
        errors[0] == pytest.approx(7.75e-2, rel=2e-2)
        and errors[-1] == pytest.approx(5.67e-4, rel=2e-2)
    )
    elapsed = time.perf_counter() - start
    verdict(
        2, "off-grid leakage decay", monotone and bounded and pinned,
        f"errors {errors[0]:.2e} -> {errors[-1]:.2e}, bound {final_bound:.2e}",
        elapsed, 60,
    )


def test_criterion_3_shot_noise_scaling():
    start = time.perf_counter()
    rng = np.random.default_rng(31)
    dt, n_probe = 1.0, 3
    a = on_grid_hermitian(rng, 2, dt, n_probe)
    v = random_unitary(rng, 2)
    f = FunctionSpec.exponential(0.5)
    cfg = CircuitConfig(n_probe, dt, choose_gamma(f, dt, n_probe), f)
    state = run_tomography_circuit(a, v, 0, cfg)
    exact = exact_diag_element(a, v, f, 0)
    p = ancilla_zero_probability(state)
    assert 0.1 < p < 0.9  # keeps the Bernoulli variance away from zero

    n_sams = np.array([10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5])
    mean_errors = []
    for n_sam in n_sams:
        errs = []
        for seed in range(20):
            samples = sample_measurements(state, int(n_sam), 4000 + seed)
            freq = np.mean([rec.ancilla_outcome == 0 for rec in samples])
            errs.append(abs(estimate_diag_element(float(freq), cfg.gamma) - exact))
        mean_errors.append(np.mean(errs))
    slope = np.polyfit(np.log(n_sams), np.log(mean_errors), 1)[0]
    elapsed = time.perf_counter() - start
    verdict(
        3, "shot-noise scaling", -0.65 <= slope <= -0.35,
        f"log-log slope {slope:.3f}", elapsed, 60,
    )


def thermal_density(h_entries, beta):
    vals, vecs = np.linalg.eigh(h_entries)
    w = np.exp(-beta * (vals - vals.min()))
    return (vecs * (w / w.sum())) @ vecs.conj().T


def test_criterion_4_scenario_b_end_to_end():
    start = time.perf_counter()
    h = HermitianOperator(np.diag([0.0, 1.0]).astype(complex))
    spec = ScenarioSpec(
        kind="B",
        n_sam=10 ** 5,
        seed=41,
        n_probe=3,
        beta=float(np.log(2.0)),
        observable=eigendecompose(h),
        hamiltonian=h,
        burn_in=500,
    )
    report = run_scenario_mean(spec)
    dev_1q = abs(report.point_estimate - 1 / 3)
    ok = dev_1q <= 3 * report.standard_error

    worst_sigma = 0.0
    for s in range(3):
        rng = np.random.default_rng(4200 + s)
        h2 = random_hermitian(rng, 4)
        omega = random_hermitian(rng, 4)
        beta = float(rng.uniform(0.3, 1.0))
        spec2 = ScenarioSpec(
            kind="B",
            n_sam=2 * 10 ** 4,
            seed=4300 + s,
            n_probe=4,
            beta=beta,
            observable=eigendecompose(omega),
            hamiltonian=h2,
            burn_in=500,
        )
        report2 = run_scenario_mean(spec2)
        rho = thermal_density(h2.entries, beta)
        exact = float(np.trace(omega.entries @ rho).real)
        sigmas = abs(report2.point_estimate - exact) / report2.standard_error
        worst_sigma = max(worst_sigma, sigmas)
        ok = ok and sigmas <= 3
    elapsed = time.perf_counter() - start
    verdict(
        4, "scenario B end to end", ok,
        f"1-qubit |dev| = {dev_1q:.2e} vs 3se = {3 * report.standard_error:.2e}, "
        f"2-qubit worst {worst_sigma:.2f} sigma",
        elapsed, 60,
    )


def test_criterion_5_scenario_c_partition():
    start = time.perf_counter()
    h = HermitianOperator(np.diag([0.0, 1.0]).astype(complex))
    beta = float(np.log(2.0))
    z1_estimates = []
    for s in range(20):
        spec = ScenarioSpec(
            kind="C",
            n_sam=10 ** 5,
            seed=5100 + s,
            beta=beta,
            hamiltonian=h,
            g=FunctionSpec.constant(1.0),
            burn_in=500,
        )
        z1_estimates.append(run_scenario_partition(spec).point_estimate)
    median = float(np.median(z1_estimates))
    ok = abs(median - 1.5) <= 0.05 * 1.5

    base = dict(
        kind="C", n_sam=10 ** 5, beta=beta, hamiltonian=h, burn_in=500
    )
    zg = run_scenario_partition(
        ScenarioSpec(seed=5200, g=FunctionSpec.identity(), **base)
    )
    z1 = run_scenario_partition(
        ScenarioSpec(seed=5300, g=FunctionSpec.constant(1.0), **base)
    )
    ratio = trace_ratio(zg, z1)
    ratio_dev = abs(ratio.point_estimate - 1 / 3)
    ok = ok and ratio_dev <= 3 * ratio.standard_error
    elapsed = time.perf_counter() - start
    verdict(
        5, "scenario C partition", ok,
        f"Z1 median {median:.4f} vs 1.5, ratio dev {ratio_dev:.2e} "
        f"vs 3se = {3 * ratio.standard_error:.2e}",
        elapsed, 120,
    )


def test_criterion_6_walk_gap_relation():
    start = time.perf_counter()
    worst_phase_dev = 0.0
    worst_margin = np.inf
    for s in range(50):
        rng = np.random.default_rng(6000 + s)
        dim = int(rng.integers(2, 17))
        chain = random_reversible_chain(rng, dim, "uniform")
        walk = szegedy_walk_operator(chain)
        lams = np.sort(chain_eigenvalues(chain))[::-1]
        acos = np.arccos(np.clip(lams[1:], -1.0, 1.0))
        want = np.sort(np.concatenate([[0.0], acos, -acos]))
        phases = np.sort(walk_eigenphases(walk, chain))
        worst_phase_dev = max(worst_phase_dev, np.abs(phases - want).max())
        delta = spectral_gap(chain)
        gap = phase_gap(walk, chain)
        worst_margin = min(worst_margin, gap - np.sqrt(2 * delta))
    elapsed = time.perf_counter() - start
    verdict(
        6, "walk gap relation",
        worst_phase_dev <= 1e-8 and worst_margin >= -1e-10,
        f"50 chains, max phase dev {worst_phase_dev:.2e}, "
        f"min (gap - sqrt(2 delta)) = {worst_margin:.3f}",
        elapsed, 30,
    )


def test_criterion_7_multiplexor_compilation():
    start = time.perf_counter()
    worst = 0.0
    for n_probe in range(1, 5):
        n = 2 ** n_probe
        for s in range(5):
            rng = np.random.default_rng(700 + 10 * n_probe + s)
            angles = rng.uniform(-np.pi, np.pi, size=n)
            seq = expand_multiplexor(angles)
            assert len(seq.gates) <= 2 * n
            dev = np.abs(compose_gate_unitary(seq) - multiplexor_block(angles)).max()
            worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    verdict(
        7, "multiplexor compilation", worst <= 1e-10,
        f"n_probe 1..4, max deviation {worst:.2e}, counts <= 2 N_j",
        elapsed, 10,
    )


def test_criterion_8_invariant_suites():
    start = time.perf_counter()
    checks = {}

    # Detailed balance of the Metropolis matrix under both proposals.
    dev = 0.0
    for s, (dim, proposal) in enumerate([(5, "uniform"), (8, "single-bit-flip")]):
        rng = np.random.default_rng(8000 + s)
        mu = random_positive_weights(rng, dim)
        t = build_metropolis_matrix(mu, proposal).transition
        pi = mu / mu.sum()
        flow = pi[:, None] * t
        dev = max(dev, np.abs(flow - flow.T).max())
    checks["detailed balance"] = dev <= 1e-10

    # Norm preservation through the full tomography circuit.
    rng = np.random.default_rng(8100)
    a = random_hermitian(rng, 4)
    shift = np.linalg.eigvalsh(a.entries).min()
    a = HermitianOperator(a.entries - min(shift, 0.0) * np.eye(4))
    v = random_unitary(rng, 4)
    f = FunctionSpec.exponential(0.8)
    cfg = CircuitConfig(4, 0.7, choose_gamma(f, 0.7, 4), f)
    state = run_tomography_circuit(a, v, 1, cfg)
    checks["norm preservation"] = (
        abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-10
    )

    # Unitarity of compiled multiplexors, evolution steps, and the walk.
    angles = rng.uniform(-np.pi, np.pi, size=8)
    u = compose_gate_unitary(expand_multiplexor(angles))
    dev = np.abs(u @ u.conj().T - np.eye(u.shape[0])).max()
    w = unitary_exp(a, 0.9).entries
    dev = max(dev, np.abs(w @ w.conj().T - np.eye(4)).max())
    walk = szegedy_walk_operator(random_reversible_chain(rng, 5, "uniform")).entries
    dev = max(dev, np.abs(walk @ walk.conj().T - np.eye(25)).max())
    checks["unitarity"] = dev <= 1e-10

    # Marginalizing the joint empirical distribution matches direct counts.
    samples = sample_measurements(state, 2000, 8200)
    joint = empirical_distribution(samples, ("probe", "ancilla"))
    marginal = empirical_distribution(samples, ("ancilla",))
    dev = 0.0
    for b in (0, 1):
        summed = sum(
            count for key, count in joint.counts.items() if key[1] == b
        ) / joint.total
        dev = max(dev, abs(summed - marginal.frequency((b,))))
    checks["marginal consistency"] = dev == 0.0

    # Fixed-seed trajectories cannot see the normalization of the target.
    mu = random_positive_weights(np.random.default_rng(8300), 8)
    config = ChainConfig(n_steps=400, seed=8400, burn_in=50)
    base = run_chain(mu, config).samples
    scaled = run_chain(173.0 * mu, config).samples
    checks["scale invariance"] = np.array_equal(base, scaled)

    elapsed = time.perf_counter() - start
    failed = [name for name, ok in checks.items() if not ok]
    verdict(
        8, "invariant suites", not failed,
        "all green" if not failed else f"failed: {', '.join(failed)}",
        elapsed, 30,
    )
