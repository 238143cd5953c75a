"""End-to-end scenario runners against closed-form and oracle targets."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from qest import circuit, numerics, scenarios
from qest.circuit import MAX_STATE_DIM, leakage_amplitude, run_tomography_circuit
from qest.estimation import ancilla_zero_probability
from qest.numerics import (
    DomainError,
    FunctionSpec,
    HermitianOperator,
    SpectralDecomposition,
    UnitaryOperator,
    eigendecompose,
    exact_diag_element,
    exact_mean,
    exact_partition,
    function_of_hermitian,
)
from qest.scenarios import (
    KINDS,
    MODES,
    ScenarioSpec,
    choose_dt,
    choose_gamma,
    circuit_config,
    estimate_diagonal,
    estimate_partition,
    exact_oracle,
    mu_table,
    resolve_target,
    run_scenario_mean,
    run_scenario_partition,
    shift_nonnegative,
    signed_partition,
    split_signed_coeffs,
    trace_ratio,
)
from qest.synth import random_density, random_hermitian, random_unitary

LN2 = float(np.log(2.0))


def diag_observable(values) -> SpectralDecomposition:
    values = np.array(sorted(values), dtype=float)
    return SpectralDecomposition(values, UnitaryOperator(np.eye(len(values))))


def spec_b_fixture(n_sam=10 ** 4, seed=0, **kw) -> ScenarioSpec:
    kw.setdefault("hamiltonian", HermitianOperator(np.diag([0.0, 1.0])))
    kw.setdefault("observable", diag_observable([0.0, 1.0]))
    kw.setdefault("burn_in", 200)
    return ScenarioSpec(kind="B", n_sam=n_sam, seed=seed, beta=LN2, **kw)


def spec_c_fixture(g=None, n_sam=10 ** 4, seed=0, **kw) -> ScenarioSpec:
    return ScenarioSpec(
        kind="C",
        n_sam=n_sam,
        seed=seed,
        beta=kw.pop("beta", LN2),
        hamiltonian=kw.pop("hamiltonian", HermitianOperator(np.diag([0.0, 1.0]))),
        g=g or FunctionSpec.constant(1.0),
        burn_in=kw.pop("burn_in", 200),
        **kw,
    )


# ---------------------------------------------------------- configuration

def test_choose_gamma_identity_grid():
    got = choose_gamma(FunctionSpec.identity(), 1.0, 2)
    assert got == pytest.approx(2 / (3 * np.pi), abs=1e-12)


def test_choose_gamma_decreasing_exponential():
    assert choose_gamma(FunctionSpec.exponential(0.9), 1.0, 3) == pytest.approx(1.0)


def test_choose_gamma_weighted_peak():
    got = choose_gamma(FunctionSpec.weighted_exponential("identity", 1.0), 1.0, 2)
    want = 1.0 / ((np.pi / 2) * np.exp(-np.pi / 2))
    assert got == pytest.approx(want, abs=1e-12)


def test_choose_gamma_zero_function_rejected():
    with pytest.raises(DomainError):
        choose_gamma(FunctionSpec.constant(0.0), 1.0, 2)


def test_choose_dt_unit_case():
    assert choose_dt(np.pi, 1) == pytest.approx(1.0)
    assert choose_dt(2 * np.pi, 1) == pytest.approx(0.5)


def test_choose_dt_keeps_indices_in_range():
    rng = np.random.default_rng(131)
    for _ in range(100):
        a_max = float(rng.uniform(0.1, 50.0))
        n_probe = int(rng.integers(1, 9))
        n = 2 ** n_probe
        dt = choose_dt(a_max, n_probe)
        assert a_max * dt * n / (2 * np.pi) <= n - 1 + 1e-12


def test_choose_dt_rejects_nonpositive():
    with pytest.raises(DomainError):
        choose_dt(0.0, 2)


def test_shift_nonnegative_cases():
    h = HermitianOperator(np.diag([0.0, 1.0]))
    shifted, shift = shift_nonnegative(h)
    assert shift == 0.0
    np.testing.assert_allclose(shifted.entries, h.entries)

    z = HermitianOperator(np.diag([1.0, -1.0]))
    shifted, shift = shift_nonnegative(z)
    assert shift == pytest.approx(1.0)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(shifted.entries), [0.0, 2.0], atol=1e-12
    )


def test_shift_preserves_boltzmann_probabilities():
    rng = np.random.default_rng(137)
    h = random_hermitian(rng, 4)
    shifted, shift = shift_nonnegative(h)
    beta = 0.8
    direct = function_of_hermitian(shifted, FunctionSpec.exponential(beta)).entries
    # e^{-beta H'} = e^{-beta shift} e^{-beta H}
    vals, vecs = np.linalg.eigh(h.entries)
    raw = (vecs * np.exp(-beta * vals)) @ vecs.conj().T
    assert np.abs(direct - np.exp(-beta * shift) * raw).max() <= 1e-10


def test_scenario_spec_field_requirements():
    with pytest.raises(DomainError):
        ScenarioSpec(kind="A", n_sam=10, seed=0, rho=HermitianOperator(np.eye(2) / 2))
    with pytest.raises(DomainError):
        ScenarioSpec(kind="B", n_sam=10, seed=0, observable=diag_observable([0, 1]))
    with pytest.raises(DomainError):
        ScenarioSpec(
            kind="C", n_sam=10, seed=0, hamiltonian=HermitianOperator(np.eye(2))
        )
    with pytest.raises(DomainError):
        ScenarioSpec(kind="D", n_sam=10, seed=0)


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_scenario_spec_rejects_seed_outside_64_bits(seed):
    # Used to run seed mod 2^64: 2^64 - 1 for -1 and 0 for 2^64.
    with pytest.raises(DomainError, match="64 bits"):
        spec_b_fixture(seed=seed)


def test_scenario_rejects_non_density_rho():
    spec = ScenarioSpec(
        kind="A",
        n_sam=10,
        seed=0,
        observable=diag_observable([0.0, 1.0]),
        rho=HermitianOperator(np.diag([0.8, 0.8])),
    )
    with pytest.raises(DomainError):
        mu_table(spec)


# ----------------------------------------------------------------- mu_table

def test_mu_kind_a_diagonal():
    spec = ScenarioSpec(
        kind="A",
        n_sam=10,
        seed=0,
        observable=diag_observable([0.0, 1.0]),
        rho=HermitianOperator(np.diag([2 / 3, 1 / 3])),
    )
    mu = mu_table(spec)
    assert mu[0] == pytest.approx(2 / 3, abs=1e-12)
    assert mu[1] == pytest.approx(1 / 3, abs=1e-12)


def test_mu_kind_b_boltzmann_weights():
    spec = spec_b_fixture()
    mu = mu_table(spec)
    assert mu[0] == pytest.approx(1.0, abs=1e-12)
    assert mu[1] == pytest.approx(0.5, abs=1e-12)


def test_mu_cross_mode_agreement():
    # Auto dt lands diag(0,1) spectra exactly on the probe grid for every
    # kind, so the circuit route must reproduce the exact route.
    specs = [
        spec_b_fixture(n_probe=3),
        spec_c_fixture(n_probe=3),
        ScenarioSpec(
            kind="A",
            n_sam=10,
            seed=0,
            n_probe=3,
            observable=diag_observable([0.0, 1.0]),
            rho=HermitianOperator(np.diag([2 / 3, 1 / 3])),
        ),
    ]
    for spec in specs:
        exact = mu_table(spec, "exact-mu")
        circ = mu_table(spec, "circuit-mu")
        assert np.abs(exact - circ).max() <= 1e-8


# ---------------------------------------------------------------- kind A/B

def test_mean_identity_observable_zero_variance():
    rng = np.random.default_rng(139)
    spec = ScenarioSpec(
        kind="A",
        n_sam=500,
        seed=4,
        observable=SpectralDecomposition(
            np.array([1.0, 1.0]), UnitaryOperator(np.eye(2))
        ),
        rho=random_density(rng, 2),
        burn_in=50,
    )
    report = run_scenario_mean(spec)
    assert report.point_estimate == pytest.approx(1.0, abs=1e-12)
    assert report.standard_error == pytest.approx(0.0, abs=1e-12)


def test_mean_one_qubit_thermal_fixture():
    report = run_scenario_mean(spec_b_fixture(seed=21))
    assert report.standard_error > 0
    assert abs(report.point_estimate - 1 / 3) <= 3 * report.standard_error


def test_mean_two_qubit_seeded_instances():
    for seed in range(3):
        rng = np.random.default_rng(1400 + seed)
        h = random_hermitian(rng, 4)
        omega = random_hermitian(rng, 4)
        dec = eigendecompose(omega)
        spec = ScenarioSpec(
            kind="B",
            n_sam=2 * 10 ** 4,
            seed=seed,
            beta=0.7,
            hamiltonian=h,
            observable=dec,
            burn_in=500,
        )
        report = run_scenario_mean(spec)
        shifted, _ = shift_nonnegative(h)
        rho_raw = function_of_hermitian(shifted, FunctionSpec.exponential(0.7)).entries
        rho = HermitianOperator(rho_raw / np.trace(rho_raw).real)
        want = exact_mean(omega, rho)
        assert abs(report.point_estimate - want) <= 3 * report.standard_error


def test_mean_shift_invariance():
    base = spec_b_fixture(seed=33)
    shifted_h = HermitianOperator(base.hamiltonian.entries - 5.0 * np.eye(2))
    moved = spec_b_fixture(seed=33, hamiltonian=shifted_h)
    a = run_scenario_mean(base)
    b = run_scenario_mean(moved)
    assert abs(a.point_estimate - b.point_estimate) <= 1e-10


def test_mean_diagnostics_present():
    report = run_scenario_mean(spec_b_fixture(n_sam=2000, seed=5))
    for key in ("acceptance_rate", "visitation_coverage", "delta"):
        assert key in report.diagnostics


def test_mean_rejects_kind_c():
    with pytest.raises(DomainError):
        run_scenario_mean(spec_c_fixture())


# ------------------------------------------------------------------ kind C

def test_partition_two_state_identity_weights():
    # mu = (1,1): the estimator telescopes to exactly 2 once both states
    # appear in the trajectory.
    spec = spec_c_fixture(
        hamiltonian=HermitianOperator(np.zeros((2, 2))), beta=0.0, n_sam=2000, seed=7
    )
    report = run_scenario_partition(spec)
    assert report.point_estimate == pytest.approx(2.0, abs=1e-12)


def test_partition_infinite_temperature_counts_states():
    rng = np.random.default_rng(149)
    spec = spec_c_fixture(
        hamiltonian=random_hermitian(rng, 4), beta=0.0, n_sam=4000, seed=9
    )
    report = run_scenario_partition(spec)
    assert report.diagnostics["visitation_coverage"] == pytest.approx(1.0)
    assert report.point_estimate == pytest.approx(4.0, abs=1e-12)


def test_partition_thermal_fixture_five_percent():
    report = run_scenario_partition(spec_c_fixture(n_sam=10 ** 4, seed=11))
    assert abs(report.point_estimate - 1.5) <= 0.05 * 1.5


def test_partition_consistency_large_sample():
    # N_S = 4 at N_sam = 10^6: the estimator must land within 1%.
    rng = np.random.default_rng(151)
    h4 = random_hermitian(rng, 4)
    spec = spec_c_fixture(
        hamiltonian=h4, beta=0.5, n_sam=10 ** 6, seed=13, burn_in=1000
    )
    report = run_scenario_partition(spec)
    shifted, _ = shift_nonnegative(h4)
    want = exact_partition(shifted, 0.5, FunctionSpec.constant(1.0))
    assert abs(report.point_estimate - want) <= 0.01 * want


def test_trace_ratio_of_itself_is_one():
    report = run_scenario_partition(spec_c_fixture(seed=15))
    ratio = trace_ratio(report, report)
    assert ratio.point_estimate == pytest.approx(1.0)


def test_trace_ratio_thermal_third():
    zg = run_scenario_partition(
        spec_c_fixture(g=FunctionSpec.weighted_exponential("identity", 0.0), seed=17)
    )
    z1 = run_scenario_partition(spec_c_fixture(seed=18))
    ratio = trace_ratio(zg, z1)
    assert ratio.standard_error > 0
    assert abs(ratio.point_estimate - 1 / 3) <= 3 * ratio.standard_error


def test_trace_ratio_rejects_nonpositive_denominator():
    report = run_scenario_partition(spec_c_fixture(seed=19))
    from qest.scenarios import EstimateReport

    bad = EstimateReport(0.0, 0.1, 100, "exact-mu", {})
    with pytest.raises(DomainError):
        trace_ratio(report, bad)


# ------------------------------------------------------------- signed g

def test_split_signed_coeffs():
    plus, minus = split_signed_coeffs((-1.0, 1.0))
    assert plus.g_coeffs == (0.0, 1.0)
    assert minus.g_coeffs == (1.0,)
    plus, minus = split_signed_coeffs((2.0, 0.5))
    assert plus.g_coeffs == (2.0, 0.5)
    assert minus is None or all(c == 0 for c in minus.g_coeffs)


def test_signed_partition_reduces_when_negative_part_empty():
    spec = spec_c_fixture(seed=23)
    plus, minus = split_signed_coeffs((1.0,))
    combined = signed_partition(spec, plus, minus)
    plain = run_scenario_partition(spec_c_fixture(seed=23))
    assert combined.point_estimate == pytest.approx(plain.point_estimate)


def test_signed_partition_hand_value():
    # g = xi - 1: Z_g = Z_xi - Z_1 = 0.5 - 1.5 = -1 at H=diag(0,1), beta=ln2.
    spec = spec_c_fixture(g=FunctionSpec.weighted_exponential((-1.0, 1.0), 0.0),
                          n_sam=5000, seed=25)
    plus, minus = split_signed_coeffs((-1.0, 1.0))
    report = signed_partition(spec, plus, minus)
    assert report.point_estimate == pytest.approx(-1.0, abs=1e-10)


def test_signed_partition_seeded_polynomial():
    rng = np.random.default_rng(157)
    h = random_hermitian(rng, 4)
    coeffs = (1.5, -2.0, 0.75)
    spec = spec_c_fixture(
        hamiltonian=h,
        g=FunctionSpec("weighted_exponential", beta=0.0, g_coeffs=coeffs),
        beta=0.4,
        n_sam=4 * 10 ** 4,
        seed=27,
        burn_in=500,
    )
    plus, minus = split_signed_coeffs(coeffs)
    report = signed_partition(spec, plus, minus)
    shifted, _ = shift_nonnegative(h)
    want = exact_partition(
        shifted, 0.4, FunctionSpec("weighted_exponential", beta=0.0, g_coeffs=coeffs)
    )
    assert abs(report.point_estimate - want) <= 3 * max(report.standard_error, 1e-12)


# ------------------------------------------------------ scenario API

@pytest.mark.parametrize(
    "g", [FunctionSpec.weighted_exponential((0.0, 1.0), 0.0), FunctionSpec.identity()]
)
def test_estimate_partition_unsigned_weight_is_plain_run(g):
    spec = spec_c_fixture(g=g, n_sam=3000, seed=31)
    zg, z1, ratio = estimate_partition(spec)
    assert zg == run_scenario_partition(spec)
    assert z1 == run_scenario_partition(spec_c_fixture(n_sam=3000, seed=33))
    assert ratio == trace_ratio(zg, z1)


def test_kind_c_spec_rejects_non_polynomial_weight():
    with pytest.raises(DomainError):
        spec_c_fixture(g=FunctionSpec.exponential(0.0))


def test_spec_rejects_n_probe_above_size_cap():
    cap_qubits = MAX_STATE_DIM.bit_length() - 1
    # 4-dim main register (2 qubits) plus the ancilla: one qubit over the cap.
    h = HermitianOperator(np.diag([0.0, 1.0, 2.0, 3.0]))
    with pytest.raises(DomainError, match="cap"):
        spec_c_fixture(hamiltonian=h, n_probe=cap_qubits - 2)


def test_exact_oracle_mean_matches_numerics():
    rng = np.random.default_rng(191)
    h = random_hermitian(rng, 4)
    # Large eigenvalues: the rebuilt observable must still pass as Hermitian.
    omega = random_hermitian(rng, 4, scale=1e5)
    spec_b = spec_b_fixture(hamiltonian=h, observable=eigendecompose(omega), n_sam=10)
    shifted, _ = shift_nonnegative(h)
    thermal = function_of_hermitian(shifted, FunctionSpec.exponential(LN2)).entries
    rho = HermitianOperator(thermal / np.trace(thermal).real)
    oracle = exact_oracle(spec_b)
    assert oracle["exact_value"] == pytest.approx(exact_mean(omega, rho), rel=1e-12)
    spec_a = ScenarioSpec(
        kind="A", n_sam=10, seed=0, rho=rho, observable=eigendecompose(omega)
    )
    assert exact_oracle(spec_a)["exact_value"] == pytest.approx(
        exact_mean(omega, rho), rel=1e-12
    )


# ------------------------------------------------------------- mu table

def _table_spec(kind, dim, n_probe, seed):
    """Off-grid random spectra; kinds A and B get a random V through the
    observable's eigenbasis, kind B a Hamiltonian that needs shifting."""
    rng = np.random.default_rng(seed)
    observable = eigendecompose(random_hermitian(rng, dim))
    if kind == "A":
        return ScenarioSpec(
            kind="A", n_sam=10, seed=0, n_probe=n_probe,
            observable=observable, rho=random_density(rng, dim),
        )
    h = random_hermitian(rng, dim)
    if kind == "B":
        return spec_b_fixture(n_sam=10, hamiltonian=h, observable=observable, n_probe=n_probe)
    g = FunctionSpec.weighted_exponential((0.5, 1.0), 0.0)
    return spec_c_fixture(g=g, n_sam=10, hamiltonian=h, n_probe=n_probe, beta=0.7)


TABLE_CASES = [
    (kind, dim, n_probe)
    for kind in KINDS
    for dim, n_probe in ((4, 3), (16, 4), (64, 5))
] + [("A", 4, 6), ("B", 16, 6), ("C", 64, 6)]


@pytest.mark.parametrize("kind,dim,n_probe", TABLE_CASES)
def test_circuit_mu_table_matches_statevector(kind, dim, n_probe):
    spec = _table_spec(kind, dim, n_probe, seed=1000 + dim + n_probe)
    target = resolve_target(spec)
    reference = [
        ancilla_zero_probability(run_tomography_circuit(target.a, target.v, x, target.circuit))
        / target.circuit.gamma
        for x in range(dim)
    ]
    table = mu_table(spec, "circuit-mu")
    assert np.abs(table - reference).max() <= 1e-12 * max(1.0, np.abs(reference).max())


@pytest.mark.parametrize("kind,dim,n_probe", TABLE_CASES)
def test_exact_mu_table_matches_spectral_sum(kind, dim, n_probe):
    spec = _table_spec(kind, dim, n_probe, seed=2000 + dim + n_probe)
    target = resolve_target(spec)
    reference = [exact_diag_element(target.a, target.v, target.f, x) for x in range(dim)]
    table = mu_table(spec, "exact-mu")
    assert np.abs(table - reference).max() <= 1e-12 * max(1.0, np.abs(reference).max())


@pytest.mark.parametrize("n_probe", [2, 4, 6])
def test_circuit_mu_table_keeps_exact_zero_on_grid(n_probe):
    # Auto dt puts 0..3 on grid slots when 3 divides 2^n_probe - 1. The
    # identity weight vanishes at 0, so state 0 carries no ancilla-zero
    # amplitude at all: both routes must give exactly 0, not rounding.
    spec = spec_c_fixture(
        g=FunctionSpec.identity(), hamiltonian=HermitianOperator(np.diag([0.0, 1.0, 2.0, 3.0])),
        n_probe=n_probe, n_sam=10,
    )
    target = resolve_target(spec)
    state = run_tomography_circuit(target.a, target.v, 0, target.circuit)
    table = mu_table(spec, "circuit-mu")
    assert ancilla_zero_probability(state) == 0.0
    assert table[0] == 0.0
    assert np.all(table[1:] > 0)
    np.testing.assert_allclose(table, mu_table(spec, "exact-mu"), atol=1e-12)


def test_mu_of_x_reads_the_table():
    spec = _table_spec("B", 4, 3, seed=7)
    with pytest.raises(DomainError, match="mode"):
        mu_table(spec, "bogus")


@pytest.fixture
def decomposition_count(monkeypatch):
    """Counts eigendecompose calls; any statevector simulation fails."""
    calls = []
    original = numerics.eigendecompose

    def counting(op):
        calls.append(op)
        return original(op)

    def no_circuit(*args):
        raise AssertionError("run_tomography_circuit was called")

    monkeypatch.setattr(numerics, "eigendecompose", counting)
    monkeypatch.setattr(circuit, "run_tomography_circuit", no_circuit)
    return calls


@pytest.mark.parametrize("kind", KINDS)
def test_one_decomposition_per_input_operator(kind, decomposition_count):
    spec = _table_spec(kind, 8, 4, seed=31)
    decomposition_count.clear()  # the observable was decomposed on input
    if kind == "C":
        for mode in MODES:
            estimate_partition(replace(spec, n_sam=200), mode)
        exact_oracle(spec)
    else:
        for mode in MODES:
            report = run_scenario_mean(replace(spec, n_sam=200), mode)
            exact_oracle(spec, report)
    operator = spec.rho if kind == "A" else spec.hamiltonian
    assert decomposition_count == [operator]


# ------------------------------------------------------------- diagonal

def _diag_case(dim, n_probe, f, seed):
    """A >= 0 with a random eigenbasis and off-grid spectrum, a random V,
    and a dt that puts no eigenvalue but zero on a probe slot."""
    rng = np.random.default_rng(seed)
    a, _ = shift_nonnegative(random_hermitian(rng, dim))
    dt = choose_dt(float(a.spectrum.eigenvalues[-1]), n_probe) * rng.uniform(0.5, 0.99)
    return a, random_unitary(rng, dim), circuit_config(a, f, n_probe, dt=dt)


@pytest.mark.parametrize("dim", [2, 4, 8, 16, 32, 64])
def test_estimate_diagonal_matches_statevector(dim):
    # A constant f puts gamma * f = 1 on every slot, so the ancilla-zero
    # probability is the probe mass, which can round above 1.
    clipped = 0
    for n_probe in range(1, 9):
        for f in (FunctionSpec.exponential(0.7), FunctionSpec.constant(0.6)):
            a, v, cfg = _diag_case(dim, n_probe, f, seed=100 * dim + n_probe)
            for x0 in sorted({0, dim // 3, dim - 1}):
                report = estimate_diagonal(a, v, x0, cfg, 100, seed=x0)
                state = run_tomography_circuit(a, v, x0, cfg)
                want = ancilla_zero_probability(state) / cfg.gamma
                assert abs(report["circuit_mu"] - want) <= 1e-12 * want
                assert report["exact_mu"] == exact_diag_element(a, v, f, x0)
                clipped += cfg.gamma * report["circuit_mu"] > 1
                for row in report["leakage"]:
                    k = row["eigenvalue"] * cfg.dt
                    amp = leakage_amplitude(k, row["nearest_slot"], cfg.n_slots)
                    assert abs(row["off_slot_mass"] - (1 - abs(amp) ** 2)) <= 1e-12
                    assert row["grid_position"] == k * cfg.n_slots / (2 * np.pi)
    assert clipped > 0


def test_diag_shot_counts_are_binomial_at_p0():
    a, v, cfg = _diag_case(8, 4, FunctionSpec.exponential(0.7), seed=77)
    n_sam = 400
    z = []
    for seed in range(200):
        report = estimate_diagonal(a, v, 3, cfg, n_sam, seed)
        p0 = cfg.gamma * report["circuit_mu"]
        freq = report["shots"]["ancilla_zero_frequency"]
        assert report["shots"]["mu_hat"] == freq / cfg.gamma
        z.append((freq - p0) / np.sqrt(p0 * (1 - p0) / n_sam))
    assert 0.1 < p0 < 0.9
    assert abs(np.mean(z)) <= 0.5
    assert 0.8 <= np.std(z, ddof=1) <= 1.25


def test_estimate_diagonal_validates_shot_arguments():
    a, v, cfg = _diag_case(2, 2, FunctionSpec.exponential(0.7), seed=1)
    with pytest.raises(DomainError):
        estimate_diagonal(a, v, 0, cfg, 0, 1)
    with pytest.raises(DomainError):
        estimate_diagonal(a, v, 0, cfg, 10, -1)


# ------------------------------------------------------- standard error

def test_mean_and_error_scaling_keeps_the_plain_bits():
    rng = np.random.default_rng(59)
    for _ in range(2000):
        n = int(rng.integers(1, 40))
        levels = rng.normal(size=4) * 10.0 ** rng.uniform(-100, 100)
        values = rng.choice(levels, size=n)
        se = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        assert scenarios._mean_and_error(values) == (float(values.mean()), se)


def test_mean_and_error_neither_overflows_nor_underflows():
    # Plain std squares the first array's values to infinity and the
    # second's to zero.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        point, se = scenarios._mean_and_error(np.array([1e300, -1e300, 1e300, 1.0]))
        assert np.isfinite(point) and np.isfinite(se) and se > 1e299
        point, se = scenarios._mean_and_error(np.array([1e-200, 3e-200]))
        assert point == pytest.approx(2e-200) and se == pytest.approx(1e-200)
