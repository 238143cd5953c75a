"""Workload inputs, tasks and oracle checks for the qest benchmark.

A workload turns a seed into a pool of README-format JSON configs. One task
is one or two in-process ``qest.cli.main`` calls on one pool entry, each
writing its report to ``--out``. Every report is checked afterwards against
the package's classical oracles, outside the timed region.

Workloads (full sizes; ``smoke`` shrinks every size for the self-test):

thermal_chain      ``mean`` (kind B, exact mu) and signed ``partition`` on one
                   fresh random Hamiltonian at N_S = 16, n_sam = 5e4. Almost
                   all the time is the Python Metropolis loop.
circuit_table      ``mean --mode shots`` (kind B, N_S = 64, n_probe = 6,
                   n_sam = 2000) and ``diag`` (N_S = 64, n_probe = 6, 1e5
                   shots). Dominated by the circuit-mode mu table and by
                   measurement sampling; the chain is short.
chain_diagnostics  ``walk-gap`` over 8 random reversible chains at N = 32 and
                   ``compile-mux`` of 2^8 angles with its unitary check. Dense
                   walk algebra and the gate compiler; no chain loop and no
                   statevector.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qest import circuit, cli, numerics, sampler, scenarios, synth
from qest.numerics import FunctionSpec, HermitianOperator, matrix_from_json, matrix_to_json

SIZES = {
    "full": {
        "thermal_chain": {"dim": 16, "n_sam": 50000},
        "circuit_table": {"dim": 64, "n_probe": 6, "mean_n_sam": 2000, "diag_n_sam": 100000},
        "chain_diagnostics": {"n_chains": 8, "chain_dim": 32, "n_angles": 2 ** 8},
    },
    "smoke": {
        "thermal_chain": {"dim": 4, "n_sam": 500},
        "circuit_table": {"dim": 4, "n_probe": 3, "mean_n_sam": 200, "diag_n_sam": 2000},
        "chain_diagnostics": {"n_chains": 2, "chain_dim": 4, "n_angles": 2 ** 3},
    },
}

BETA = 1.0
SIGNED_G = [1.0, -0.5, 0.25]
N_SIGMA = 5.0
DIAG_CLOSED_FORM_TOL = 1e-10
WALK_RATIO_TOL = 1e-9
MUX_DEVIATION_TOL = 1e-10


@dataclass(frozen=True)
class Call:
    """One CLI invocation: subcommand, generated config and extra flags."""

    command: str
    config: str
    flags: tuple = ()


@dataclass(frozen=True)
class CallResult:
    call: Call
    out: str
    exit_code: int
    stderr: str


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2 ** 32))


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, sort_keys=True))
    return str(path)


def _thermal_chain(rng, size, prefix: Path):
    h = matrix_to_json(synth.random_hermitian(rng, size["dim"]).entries)
    omega = matrix_to_json(synth.random_hermitian(rng, size["dim"]).entries)
    common = {"hamiltonian": h, "beta": BETA, "n_sam": size["n_sam"], "proposal": "single-bit-flip"}
    mean = dict(common, kind="B", observable=omega, seed=_seed(rng))
    part = dict(common, kind="C", g=SIGNED_G, seed=_seed(rng))
    return [
        Call("mean", _write(prefix.with_name(prefix.name + "-mean.json"), mean)),
        Call("partition", _write(prefix.with_name(prefix.name + "-partition.json"), part)),
    ]


def _circuit_table(rng, size, prefix: Path):
    dim = size["dim"]
    mean = {
        "kind": "B",
        "hamiltonian": matrix_to_json(synth.random_hermitian(rng, dim).entries),
        "observable": matrix_to_json(synth.random_hermitian(rng, dim).entries),
        "beta": BETA,
        "n_probe": size["n_probe"],
        "n_sam": size["mean_n_sam"],
        "seed": _seed(rng),
    }
    # diag does not shift negative spectra, so its operator is positive
    # semidefinite, as in the README example.
    a = dim * synth.random_density(rng, dim).entries
    diag = {
        "a": matrix_to_json((a + a.conj().T) / 2),
        "v": matrix_to_json(synth.random_unitary(rng, dim).entries),
        "f": {"family": "exponential", "beta": BETA},
        "x0": int(rng.integers(dim)),
        "n_probe": size["n_probe"],
        "n_sam": size["diag_n_sam"],
        "seed": _seed(rng),
    }
    return [
        Call("mean", _write(prefix.with_name(prefix.name + "-mean.json"), mean), ("--mode", "shots")),
        Call("diag", _write(prefix.with_name(prefix.name + "-diag.json"), diag)),
    ]


def _chain_diagnostics(rng, size, prefix: Path):
    walk = {"random": {"n_chains": size["n_chains"], "dim": size["chain_dim"], "seed": _seed(rng)}}
    mux = {"angles": rng.uniform(-np.pi, np.pi, size["n_angles"]).tolist()}
    return [
        Call("walk-gap", _write(prefix.with_name(prefix.name + "-walk.json"), walk)),
        Call("compile-mux", _write(prefix.with_name(prefix.name + "-mux.json"), mux)),
    ]


_GENERATORS = {
    "thermal_chain": _thermal_chain,
    "circuit_table": _circuit_table,
    "chain_diagnostics": _chain_diagnostics,
}


def generate(workload: str, seed: int, directory: Path, n_inputs: int, smoke: bool):
    """Write n_inputs task inputs for the workload, yielding each as it is
    written; same seed, same bytes."""
    size = SIZES["smoke" if smoke else "full"][workload]
    rng = np.random.default_rng(seed)
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(n_inputs):
        yield _GENERATORS[workload](rng, size, directory / f"{i:03d}")


def run_call(call: Call, out: Path) -> CallResult:
    """One in-process CLI call; its stderr is captured.

    An exception or exit the CLI does not turn into a return code counts as
    exit code 1 (or the exit's code), as it would for the CLI in a process
    of its own, so the task fails and the run goes on.
    """
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main([call.command, "--config", call.config, "--out", str(out), *call.flags])
        except SystemExit as exc:  # argparse has printed its message already
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return CallResult(call, str(out), code, err.getvalue())


# ---- oracle checks: each returns a list of problems, empty when the call passed


def check(result: CallResult) -> list:
    if result.exit_code != 0:
        return [f"{result.call.command} exited {result.exit_code}: {result.stderr.strip()}"]
    try:
        cfg = json.loads(Path(result.call.config).read_text())
        out = Path(result.out).read_text()
        return _CHECKS[result.call.command](cfg, out, result)
    except Exception as exc:
        return [f"{result.call.command} report could not be checked: {exc!r}"]


def _within(name, value, expected, tol) -> list:
    if abs(value - expected) <= tol:
        return []
    return [f"{name} {value!r} differs from oracle {expected!r} by more than {tol:.3e}"]


def _tau_bound(mu, proposal: str) -> float:
    """(1 + lambda_2) / (1 - lambda_2) of the exact Metropolis chain on mu."""
    lam2 = sampler.chain_eigenvalues(sampler.build_metropolis_matrix(mu, proposal))[1]
    return (1 + lam2) / (1 - lam2)


def _overlaps(a: HermitianOperator, v: np.ndarray):
    """Eigen-decomposition of a and |<a_k|V|x>|^2 indexed [k, x]."""
    dec = numerics.eigendecompose(a)
    return dec, np.abs(dec.basis_changer.entries.conj().T @ v) ** 2


def circuit_mu_closed_form(a, v, f, n_probe: int, dt: float, gamma: float) -> np.ndarray:
    """Ancilla-zero probability over gamma for every input state x.

    The main-register eigencomponents stay orthogonal through the probe
    stages, so P(ancilla 0 | x) = sum_k |<a_k|V|x>|^2 sum_j |L(lambda_k dt, j)|^2 c_j^2,
    with L the probe leakage amplitude and c_j the multiplexor cosines.
    """
    cfg = circuit.CircuitConfig(n_probe=n_probe, dt=dt, gamma=gamma, f=f)
    dec, weights = _overlaps(a, v)
    leak = np.array([
        [abs(circuit.leakage_amplitude(lam * dt, j, cfg.n_slots)) ** 2 for j in range(cfg.n_slots)]
        for lam in dec.eigenvalues
    ])
    return weights.T @ (leak @ cfg.rotation_cosines() ** 2) / gamma


def _check_mean(cfg, out, result) -> list:
    report = json.loads(out)["report"]
    h = HermitianOperator(matrix_from_json(cfg["hamiltonian"]))
    omega = HermitianOperator(matrix_from_json(cfg["observable"]))
    obs = numerics.eigendecompose(omega)
    v = obs.basis_changer.entries
    a, _ = scenarios.shift_nonnegative(h)
    f = FunctionSpec.exponential(cfg["beta"])
    if "shots" in result.call.flags:
        n_probe = cfg["n_probe"]
        top = float(np.linalg.eigvalsh(a.entries).max())
        dt = scenarios.choose_dt(top if top > 0 else 1.0, n_probe)
        gamma = scenarios.choose_gamma(f, dt, n_probe)
        mu = circuit_mu_closed_form(a, v, f, n_probe, dt, gamma)
        expected = float(obs.eigenvalues @ mu / mu.sum())
    else:
        dec, weights = _overlaps(a, v)
        boltz = f.evaluate(np.maximum(dec.eigenvalues, 0.0))
        mu = weights.T @ boltz
        u = dec.basis_changer.entries
        rho = (u * (boltz / boltz.sum())) @ u.conj().T
        expected = numerics.exact_mean(omega, HermitianOperator((rho + rho.conj().T) / 2))
    # The reported SE is the i.i.d. one; the exact chain spectrum bounds the
    # integrated autocorrelation time that it leaves out.
    tau = _tau_bound(mu, cfg.get("proposal", "single-bit-flip"))
    tol = N_SIGMA * report["standard_error"] * np.sqrt(tau)
    return _within("mean", report["point_estimate"], expected, tol)


def _check_partition(cfg, out, result) -> list:
    rep = json.loads(out)
    shifted, _ = scenarios.shift_nonnegative(HermitianOperator(matrix_from_json(cfg["hamiltonian"])))
    z_g = numerics.exact_partition(shifted, cfg["beta"], FunctionSpec.weighted_exponential(cfg["g"], 0.0))
    z_1 = numerics.exact_partition(shifted, cfg["beta"], FunctionSpec.constant(1.0))
    problems = []
    for key, expected in (("z_g", z_g), ("z_1", z_1), ("trace_ratio", z_g / z_1)):
        est = rep[key]
        tol = N_SIGMA * est["standard_error"] + 1e-9 * abs(expected)
        problems += _within(f"partition {key}", est["point_estimate"], expected, tol)
    return problems


def _check_diag(cfg, out, result) -> list:
    rep = json.loads(out)
    a = HermitianOperator(matrix_from_json(cfg["a"]))
    v = matrix_from_json(cfg["v"])
    f = FunctionSpec.from_json(cfg["f"])
    mu = float(circuit_mu_closed_form(a, v, f, rep["n_probe"], rep["dt"], rep["gamma"])[rep["x0"]])
    problems = _within("diag circuit_mu", rep["circuit_mu"], mu, DIAG_CLOSED_FORM_TOL)
    p = rep["gamma"] * mu
    sigma = np.sqrt(p * (1 - p) / rep["shots"]["n_sam"]) / rep["gamma"]
    return problems + _within("diag mu_hat", rep["shots"]["mu_hat"], mu, N_SIGMA * sigma)


def _check_walk_gap(cfg, out, result) -> list:
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    if lines[:1] != ["delta,phase_gap,ratio,status"]:
        return [f"walk-gap header is {lines[:1]!r}"]
    rows = [line.split(",") for line in lines[1:]]
    problems = []
    if len(rows) != cfg["random"]["n_chains"]:
        problems.append(f"walk-gap printed {len(rows)} rows for {cfg['random']['n_chains']} chains")
    for row in rows:
        if row[3] != "ok" or float(row[2]) < 1 - WALK_RATIO_TOL:
            problems.append(f"walk-gap row {','.join(row)} breaks phase_gap >= sqrt(2 delta)")
    return problems


def _check_compile_mux(cfg, out, result) -> list:
    match = re.search(r"verification: max unitary deviation (\S+)", result.stderr)
    if match is None:
        return [f"compile-mux printed no verification line: {result.stderr.strip()!r}"]
    problems = []
    if float(match.group(1)) > MUX_DEVIATION_TOL:
        problems.append(f"compile-mux unitary deviation {match.group(1)}")
    header = re.search(r"# qubits: (\d+) gates: (\d+)", out)
    seq = circuit.GateSequence.from_text(out)
    if header is None or int(header.group(2)) != len(seq):
        problems.append("compile-mux gate count header does not match the gate list")
    return problems


_CHECKS = {
    "mean": _check_mean,
    "partition": _check_partition,
    "diag": _check_diag,
    "walk-gap": _check_walk_gap,
    "compile-mux": _check_compile_mux,
}
