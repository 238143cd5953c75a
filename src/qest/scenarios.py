"""End-to-end estimators for observable means and weighted partition functions.

Three scenario kinds share one machinery. Kind A measures tr(Omega rho) for
an explicit density matrix by sampling the diagonal of rho in the eigenbasis
of Omega. Kind B does the same for the thermal state of a Hamiltonian, with
the Boltzmann factor supplied by the spectral function instead of a prepared
state. Kind C estimates weighted partition function sums Z_g and the ratio
Z_g / Z_1 = tr(g(H) rho_beta).

Each diagonal element mu(x) can come from the closed-form spectral sum
(exact-mu) or from the ancilla-zero probability of the tomography circuit
(circuit-mu); the Metropolis chain, the estimators, and the reports are
identical either way.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .circuit import (
    CircuitConfig,
    check_register_size,
    eigencomponent_zero_probability,
    probe_grid,
    probe_mass,
)
from .estimation import estimate_diag_element
from .numerics import (
    DomainError,
    FunctionSpec,
    HermitianOperator,
    SpectralDecomposition,
    UnitaryOperator,
    exact_mean,
    exact_partition,
    function_of_hermitian,
    spectral_values,
    validate_density,
)
from .sampler import (
    ChainConfig,
    build_metropolis_matrix,
    run_chain,
    spectral_gap,
)

KINDS = ("A", "B", "C")
MODES = ("exact-mu", "circuit-mu")

# Reports carry an exact-oracle block up to this dimension.
ORACLE_DIM_CAP = 2 ** 6


@dataclass(frozen=True, kw_only=True)
class ScenarioSpec:
    """Declarative description of one estimation run.

    kind A needs observable + rho; kind B needs observable + hamiltonian +
    beta; kind C needs hamiltonian + beta + g (a polynomial-type weight).
    dt and gamma may be the string "auto" to defer to choose_dt/choose_gamma.
    The field defaults are the defaults of the CLI's config keys.
    """

    kind: str
    n_sam: int = 10000
    seed: int
    n_probe: int = 4
    dt: object = "auto"
    gamma: object = "auto"
    beta: float = 0.0
    proposal: str = "single-bit-flip"
    burn_in: int = 1000
    thinning: int = 1
    observable: SpectralDecomposition | None = None
    rho: HermitianOperator | None = None
    hamiltonian: HermitianOperator | None = None
    g: FunctionSpec | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.n_sam < 1:
            raise DomainError(f"n_sam must be >= 1, got {self.n_sam}")
        if self.kind == "A":
            if self.observable is None or self.rho is None:
                raise DomainError("kind A needs an observable and a density matrix")
        elif self.kind == "B":
            if self.observable is None or self.hamiltonian is None:
                raise DomainError("kind B needs an observable and a Hamiltonian")
        else:
            if self.hamiltonian is None or self.g is None:
                raise DomainError("kind C needs a Hamiltonian and a weight g")
            _weight_coeffs(self.g)
        if self.kind in ("B", "C"):
            if not np.isfinite(self.beta) or self.beta < 0:
                raise DomainError(f"beta must be finite and >= 0, got {self.beta}")
        _check_auto_or_positive("dt", self.dt)
        _check_auto_or_positive("gamma", self.gamma)
        check_register_size(self.n_probe, self.dim)
        if self.dt != "auto":
            probe_grid(self.n_probe, self.dt)  # rejects a dt whose grid overflows
        self.chain_config()  # rejects a bad proposal, burn_in or thinning now

    @property
    def dim(self) -> int:
        if self.kind == "A":
            return self.rho.dim
        return self.hamiltonian.dim

    def chain_config(self) -> ChainConfig:
        return ChainConfig(
            n_steps=self.n_sam,
            seed=self.seed,
            proposal=self.proposal,
            burn_in=self.burn_in,
            thinning=self.thinning,
        )


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate with its naive standard error and run diagnostics."""

    point_estimate: float
    standard_error: float
    n_sam: int
    mode: str
    diagnostics: dict = field(default_factory=dict)


def choose_gamma(f: FunctionSpec, dt: float, n_probe: int) -> float:
    """Largest scale factor keeping gamma * f inside [0, 1] on the grid."""
    fmax = float(np.max(f.evaluate(probe_grid(n_probe, dt))))
    if fmax <= 0:
        raise DomainError("f vanishes on the whole probe grid; gamma undefined")
    return 1.0 / fmax


def choose_dt(a_max: float, n_probe: int) -> float:
    """Evolution step placing a_max on the last probe grid slot."""
    if not np.isfinite(a_max) or a_max <= 0:
        raise DomainError(f"a_max must be finite and > 0, got {a_max}")
    n = 2 ** n_probe
    return 2 * np.pi * (n - 1) / (n * a_max)


def shift_nonnegative(h: HermitianOperator):
    """Add a multiple of the identity so the spectrum starts at zero.

    Returns (shifted operator, shift); the shift is 0 when the spectrum is
    already nonnegative. The shifted operator keeps h's eigenvectors, so
    both share one decomposition.
    """
    dec = h.spectrum
    lam_min = float(dec.eigenvalues[0])
    if lam_min >= 0:
        return h, 0.0
    shift = -lam_min
    shifted = SpectralDecomposition(dec.eigenvalues + shift, dec.basis_changer)
    return HermitianOperator.from_spectrum(shifted), shift


def _weight_coeffs(g: FunctionSpec):
    """Polynomial coefficients of a weight usable inside exp(-beta xi) f."""
    if g.family == "identity":
        return (0.0, 1.0)
    if g.family == "weighted_exponential" and g.beta == 0.0:
        return g.g_coeffs
    raise DomainError(
        "scenario weights must be polynomial: use identity or "
        "weighted_exponential with beta = 0"
    )


@dataclass(frozen=True)
class _ResolvedTarget:
    """Concrete (V, A, f) triple plus circuit parameters for one scenario."""

    v: UnitaryOperator
    a: HermitianOperator
    f: FunctionSpec
    circuit: CircuitConfig


def resolve_target(spec: ScenarioSpec) -> _ResolvedTarget:
    """Turn a scenario spec into the operator triple the circuit consumes."""
    if spec.kind == "A":
        validate_density(spec.rho)
        v = spec.observable.basis_changer
        a = spec.rho
        f = FunctionSpec.identity()
    elif spec.kind == "B":
        a, _ = shift_nonnegative(spec.hamiltonian)
        v = spec.observable.basis_changer
        f = FunctionSpec.exponential(spec.beta)
    else:
        a, _ = shift_nonnegative(spec.hamiltonian)
        v = UnitaryOperator(np.eye(a.dim))
        f = FunctionSpec.weighted_exponential(_weight_coeffs(spec.g), spec.beta)

    circuit = circuit_config(a, f, spec.n_probe, spec.dt, spec.gamma)
    return _ResolvedTarget(v, a, f, circuit)


def circuit_config(
    a: HermitianOperator, f: FunctionSpec, n_probe: int, dt="auto", gamma="auto"
) -> CircuitConfig:
    """Circuit parameters for A and f; "auto" dt puts the top of A's spectrum
    on the last probe slot and "auto" gamma scales f into [0, 1] on the grid."""
    _check_auto_or_positive("dt", dt)
    _check_auto_or_positive("gamma", gamma)
    dt = choose_dt(_spectral_max(a), n_probe) if dt == "auto" else float(dt)
    gamma = choose_gamma(f, dt, n_probe) if gamma == "auto" else float(gamma)
    return CircuitConfig(n_probe=n_probe, dt=dt, gamma=gamma, f=f)


def _check_auto_or_positive(name: str, value) -> None:
    if value != "auto" and (
        not isinstance(value, (int, float)) or not np.isfinite(value) or value <= 0
    ):
        raise DomainError(f"{name} must be 'auto' or a positive number")


def _spectral_max(a: HermitianOperator) -> float:
    top = float(a.spectrum.eigenvalues[-1])
    # An all-zero spectrum sits on grid slot 0 for any dt; pick 1
    # arbitrarily. A negative spectrum is rejected later, by the circuit.
    return top if top > 0 else 1.0


def mu_table(spec: ScenarioSpec, mode: str = "exact-mu") -> np.ndarray:
    """mu(x) = <x| V^dag f(A) V |x> for every basis state x, in one product.

    mu = (|U^dag V|^2)^T r over the eigenbasis U of A, where r_k is
    f(lambda_k) in exact mode and, in circuit mode, the circuit's
    ancilla-zero probability for eigencomponent k over gamma. Circuit mode
    equals the statevector route (run_tomography_circuit, then
    ancilla_zero_probability / gamma) without simulating it.
    """
    if mode not in MODES:
        raise DomainError(f"mode must be one of {MODES}, got {mode!r}")
    target = resolve_target(spec)
    overlaps = _overlaps(target.a, target.v)
    if mode == "exact-mu":
        r = spectral_values(target.a, target.f)
    else:
        mass = probe_mass(target.a.spectrum.eigenvalues, target.circuit)
        r = eigencomponent_zero_probability(mass, target.circuit) / target.circuit.gamma
    return overlaps.T @ r


def _overlaps(a: HermitianOperator, v: UnitaryOperator, x0: int | None = None):
    """|<A_k|V|x>|^2 over the eigenbasis of A (rows) and the basis states x
    (columns), or over the eigenbasis alone for x = x0."""
    if a.dim != v.dim:
        raise DomainError(f"operator dim {a.dim} does not match unitary dim {v.dim}")
    if x0 is not None and not 0 <= x0 < a.dim:
        raise DomainError(f"x0={x0} out of range for dimension {a.dim}")
    columns = v.entries if x0 is None else v.entries[:, x0]
    return np.abs(a.spectrum.basis_changer.entries.conj().T @ columns) ** 2


def _chain_diagnostics(mu: np.ndarray, run, counts, spec: ScenarioSpec) -> dict:
    diag = {
        "acceptance_rate": run.acceptance_rate,
        "visitation_coverage": np.count_nonzero(counts) / mu.shape[0],
        "mu_zero_states": int(np.sum(mu == 0)),
    }
    try:
        diag["delta"] = spectral_gap(build_metropolis_matrix(mu, spec.proposal))
    except DomainError:
        pass  # diagnostics stay best-effort
    return diag


def run_scenario_mean(spec: ScenarioSpec, mode: str = "exact-mu") -> EstimateReport:
    """Estimate the observable mean for kind A or B.

    Samples the main-register distribution with Metropolis and averages the
    observable eigenvalues along the trajectory. The standard error is the
    naive sample-variance estimate over n_sam draws.
    """
    if spec.kind not in ("A", "B"):
        raise DomainError("run_scenario_mean handles kinds A and B only")
    mu = mu_table(spec, mode)
    run = run_chain(mu, spec.chain_config())
    omega_vals = np.asarray(spec.observable.eigenvalues)
    point, se = _mean_and_error(omega_vals[run.samples])
    counts = np.bincount(run.samples)
    diag = _chain_diagnostics(mu, run, counts, spec)
    return EstimateReport(point, se, spec.n_sam, mode, diag)


def run_scenario_partition(spec: ScenarioSpec, mode: str = "exact-mu") -> EstimateReport:
    """Estimate Z_g for kind C from one Metropolis trajectory.

    Follows the frequency-reweighting recipe literally: each sample
    contributes mu at that point divided by the empirical frequency of the
    point, and the estimate is the average contribution. States never
    visited contribute nothing, which is unbiased exactly when their mu
    vanishes and optimistic otherwise; visitation coverage is reported so
    that regime is visible. When the Hamiltonian needed shifting, Z_g refers
    to the shifted (nonnegative) spectrum.
    """
    if spec.kind != "C":
        raise DomainError("run_scenario_partition handles kind C only")
    mu = mu_table(spec, mode)
    run = run_chain(mu, spec.chain_config())
    counts = np.bincount(run.samples)
    freqs = counts / len(run.samples)
    point, se = _mean_and_error(mu[run.samples] / freqs[run.samples])
    diag = _chain_diagnostics(mu, run, counts, spec)
    return EstimateReport(point, se, spec.n_sam, mode, diag)


def _mean_and_error(values: np.ndarray):
    """Sample mean and naive standard error std(ddof=1) / sqrt(n), taken on
    the values scaled by a power of two into (-1, 1), where their squares
    cannot overflow. The scaling is exact: where the plain formula neither
    overflows nor underflows, the results are the same bits."""
    _, exponent = math.frexp(float(np.max(np.abs(values))))
    scaled = np.ldexp(values, -exponent)
    se = scaled.std(ddof=1) / np.sqrt(len(values)) if len(values) > 1 else 0.0
    return float(np.ldexp(scaled.mean(), exponent)), float(np.ldexp(se, exponent))


def trace_ratio(zg: EstimateReport, z1: EstimateReport) -> EstimateReport:
    """Z_g / Z_1 with first-order error propagation."""
    if z1.point_estimate <= 0:
        raise DomainError(
            f"Z_1 estimate must be positive, got {z1.point_estimate}"
        )
    ratio = zg.point_estimate / z1.point_estimate
    se = float(
        np.hypot(
            zg.standard_error / z1.point_estimate,
            zg.point_estimate * z1.standard_error / z1.point_estimate ** 2,
        )
    )
    diag = {"numerator": asdict(zg), "denominator": asdict(z1)}
    return EstimateReport(ratio, se, zg.n_sam, zg.mode, diag)


def split_signed_coeffs(coeffs):
    """Split a signed polynomial by coefficient sign into two weights.

    Both parts have nonnegative coefficients, hence nonnegative values on
    xi >= 0; their difference reproduces the signed polynomial.
    """
    coeffs = tuple(float(c) for c in coeffs)
    if not coeffs:
        raise DomainError("empty coefficient list")

    def trim(part):
        while len(part) > 1 and part[-1] == 0.0:
            part = part[:-1]
        return part

    plus = trim(tuple(c if c > 0 else 0.0 for c in coeffs))
    minus = trim(tuple(-c if c < 0 else 0.0 for c in coeffs))
    return (
        FunctionSpec.weighted_exponential(plus, 0.0),
        FunctionSpec.weighted_exponential(minus, 0.0),
    )


def signed_partition(
    spec: ScenarioSpec,
    g_plus: FunctionSpec,
    g_minus: FunctionSpec,
    mode: str = "exact-mu",
) -> EstimateReport:
    """Z_g for a signed weight g = g_plus - g_minus via two chains.

    The positive and negative parts get independent runs (the negative part
    reuses the seed shifted by one); errors add in quadrature. A vanishing
    negative part reduces to the plain estimator.
    """
    plus = run_scenario_partition(replace(spec, g=g_plus), mode)
    if all(c == 0 for c in g_minus.g_coeffs):
        return plus
    minus_spec = replace(spec, g=g_minus, seed=(spec.seed + 1) % 2 ** 64)
    minus = run_scenario_partition(minus_spec, mode)
    return EstimateReport(
        plus.point_estimate - minus.point_estimate,
        float(np.hypot(plus.standard_error, minus.standard_error)),
        spec.n_sam,
        mode,
        {"plus": asdict(plus), "minus": asdict(minus)},
    )


def estimate_partition(spec: ScenarioSpec, mode: str = "exact-mu"):
    """Z_g, Z_1 and Z_g / Z_1 for kind C, as three reports.

    Z_g goes through signed_partition (seeds seed and seed + 1), Z_1 is the
    plain estimator at seed + 2, so numerator and denominator come from
    independent chains.
    """
    if spec.kind != "C":
        raise DomainError("estimate_partition handles kind C only")
    g_plus, g_minus = split_signed_coeffs(_weight_coeffs(spec.g))
    zg = signed_partition(spec, g_plus, g_minus, mode)
    one_spec = replace(spec, g=FunctionSpec.constant(1.0), seed=(spec.seed + 2) % 2 ** 64)
    z1 = run_scenario_partition(one_spec, mode)
    return zg, z1, trace_ratio(zg, z1)


def exact_oracle(spec: ScenarioSpec, report: EstimateReport | None = None) -> dict:
    """Classical oracle block for a scenario, from the numerics oracles.

    Kinds A and B give the exact mean tr(Omega rho), plus the absolute error
    of a report's point estimate when one is passed; the thermal state is
    f(A) / tr f(A) on the shifted operator the estimator samples. Kind C
    gives the shift and the exact Z_g, Z_1 and Z_g / Z_1 of the shifted
    Hamiltonian.
    """
    if spec.kind == "C":
        shifted, shift = shift_nonnegative(spec.hamiltonian)
        zg = exact_partition(shifted, spec.beta, spec.g)
        z1 = exact_partition(shifted, spec.beta, FunctionSpec.constant(1.0))
        return {"shift": shift, "z_g": zg, "z_1": z1, "trace_ratio": zg / z1}
    if spec.kind == "A":
        rho = spec.rho
    else:
        target = resolve_target(spec)
        thermal = function_of_hermitian(target.a, target.f).entries
        rho = HermitianOperator(thermal / np.trace(thermal).real)
    exact = exact_mean(HermitianOperator.from_spectrum(spec.observable), rho)
    if report is None:
        return {"exact_value": exact}
    return {"exact_value": exact, "abs_error": abs(report.point_estimate - exact)}


def estimate_diagonal(
    a: HermitianOperator,
    v: UnitaryOperator,
    x0: int,
    circuit: CircuitConfig,
    n_sam: int,
    seed: int,
) -> dict:
    """<x0| V^dag f(A) V |x0> three ways, as a report block.

    exact_mu and circuit_mu are mu_table's closed form at x0. The shots
    block draws the ancilla-zero count of n_sam measurements from its exact
    law, binomial at p0 = gamma * circuit_mu. leakage gives, per eigenvalue,
    its probe grid position and the probe_mass off its nearest slot.
    """
    if n_sam < 1:
        raise DomainError(f"n_sam must be >= 1, got {n_sam}")
    if not 0 <= seed < 2 ** 64:
        raise DomainError("seed must fit in 64 bits")
    overlaps = _overlaps(a, v, x0)
    exact_mu = float(np.sum(spectral_values(a, circuit.f) * overlaps))
    eigenvalues = a.spectrum.eigenvalues
    mass = probe_mass(eigenvalues, circuit)
    r = eigencomponent_zero_probability(mass, circuit) / circuit.gamma
    circuit_mu = float(np.sum(r * overlaps))
    p0 = min(max(circuit.gamma * circuit_mu, 0.0), 1.0)
    freq = int(np.random.default_rng(seed).binomial(n_sam, p0)) / n_sam
    positions = eigenvalues * circuit.dt * circuit.n_slots / (2 * np.pi)
    nearest = [int(np.round(p)) % circuit.n_slots for p in positions]
    leakage = [
        {
            "eigenvalue": float(lam),
            "grid_position": float(p),
            "nearest_slot": j,
            "off_slot_mass": float(1 - mass[j, k]),
        }
        for k, (lam, p, j) in enumerate(zip(eigenvalues, positions, nearest))
    ]
    return {
        "exact_mu": exact_mu,
        "circuit_mu": circuit_mu,
        "shots": {
            "n_sam": n_sam,
            "ancilla_zero_frequency": freq,
            "mu_hat": estimate_diag_element(freq, circuit.gamma),
        },
        "leakage": leakage,
    }
