"""Command-line front end: seeded runs from JSON configs to JSON/CSV reports.

Subcommands
    diag         exact, circuit, and shot estimates of one diagonal element
    mean         scenario A or B observable-mean estimation
    partition    scenario C weighted partition functions and trace ratios
    walk-gap     chain sweeps relating spectral gaps to walk phase gaps
    compile-mux  multiplexor expansion into an RY/CNOT gate file

Exit codes: 0 success, 2 config error, 3 numerical or domain error,
4 sampler failure. Every output embeds the RunManifest of the run; for the
line-oriented formats (gate files, CSV) the manifest rides in leading
comment lines starting with '#'.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .circuit import (
    check_register_size,
    compose_gate_unitary,
    expand_multiplexor,
    multiplexor_block,
)
from .numerics import (
    DomainError,
    FunctionSpec,
    HermitianOperator,
    SpectralDecomposition,
    UnitaryOperator,
    matrix_from_json,
)
from .sampler import (
    MAX_CHAIN_STEPS,
    MarkovChain,
    SamplerError,
    check_walk_size,
    discriminant_phase_gap,
    spectral_gap,
)
from .scenarios import (
    ORACLE_DIM_CAP,
    ScenarioSpec,
    circuit_config,
    estimate_diagonal,
    estimate_partition,
    exact_oracle,
    run_scenario_mean,
)
from .synth import random_reversible_chain

VERIFY_ANGLE_CAP = 2 ** 10

# Most random chains one walk-gap config may ask for.
MAX_WALK_CHAINS = 2 ** 10


class ConfigError(ValueError):
    """The run configuration is missing, malformed, or inconsistent."""


@dataclasses.dataclass(frozen=True)
class RunManifest:
    """Provenance block embedded in every output."""

    command: str
    config_path: str
    seed: int
    output_path: str
    timestamp: str
    tool_version: str


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _load_config(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _seed(value, name: str = "seed") -> int:
    seed = _typed(value, int, name)
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"{name} must fit in 64 bits, got {seed}")
    return seed


def _manifest(args, command: str, seed: int) -> RunManifest:
    return RunManifest(command, args.config, seed, args.out or "-", _now(), __version__)


def _start(args, command: str):
    """Config object, its directory, the run seed and the manifest."""
    cfg = _load_config(args.config)
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object, got {type(cfg).__name__}")
    seed = _seed(args.seed if args.seed is not None else cfg.get("seed", 0))
    return cfg, Path(args.config).parent, seed, _manifest(args, command, seed)


def _typed(value, kind, name: str):
    """value as an int (kind int) or float (kind float); JSON booleans,
    strings and fractional ints are config errors."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or (kind is int and isinstance(value, float) and not value.is_integer())
    ):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return kind(value)


def _number(cfg: dict, key: str, kind, default=None):
    """Typed value of cfg[key]; without a default the key is required."""
    if default is None:
        _require(cfg, key)
    return _typed(cfg.get(key, default), kind, repr(key))


def _auto_or_number(cfg: dict, key: str):
    value = cfg.get(key, "auto")
    return value if value == "auto" else _typed(value, float, repr(key))


def _resolve_matrix(value, base: Path) -> np.ndarray:
    """Accept an inline matrix object or a path to a JSON file holding one."""
    if isinstance(value, str):
        try:
            with open(base / value) as fh:
                value = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError covers bad JSON
            raise ConfigError(f"cannot load matrix file {value}: {exc}") from exc
    if not isinstance(value, dict):
        raise ConfigError(f"expected a matrix object or path, got {type(value).__name__}")
    return matrix_from_json(value)


def _function_spec(value) -> FunctionSpec:
    try:
        if isinstance(value, dict):
            return FunctionSpec.from_json(value)
        if isinstance(value, (list, str)):
            return FunctionSpec.weighted_exponential(value, 0.0)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot interpret function spec {value!r}: {exc}") from exc
    raise ConfigError(f"cannot interpret function spec {value!r}")


def _observable(value, base: Path):
    """Spectral pair from either an explicit pair or a plain matrix."""
    if isinstance(value, dict) and "eigenvalues" in value:
        u = UnitaryOperator(_resolve_matrix(_require(value, "basis_changer"), base))
        try:
            vals = np.array(value["eigenvalues"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"observable eigenvalues are not numbers: {exc}") from exc
        if vals.shape != (u.dim,):
            raise ConfigError("observable eigenvalue count does not match basis")
        return SpectralDecomposition(vals, u)
    return HermitianOperator(_resolve_matrix(value, base)).spectrum


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    return cfg[key]


def _scenario_from_config(cfg: dict, base: Path, seed: int, n_sam) -> ScenarioSpec:
    kind = _require(cfg, "kind")
    kwargs = {
        "kind": kind,
        "n_sam": n_sam if n_sam is not None else _number(cfg, "n_sam", int, 10000),
        "seed": seed,
        "n_probe": _number(cfg, "n_probe", int, 4),
        "dt": _auto_or_number(cfg, "dt"),
        "gamma": _auto_or_number(cfg, "gamma"),
        "beta": _number(cfg, "beta", float, 0.0),
        "proposal": cfg.get("proposal", "single-bit-flip"),
        "burn_in": _number(cfg, "burn_in", int, 1000),
        "thinning": _number(cfg, "thinning", int, 1),
    }
    try:
        if kind == "A":
            kwargs["rho"] = HermitianOperator(_resolve_matrix(_require(cfg, "rho"), base))
            kwargs["observable"] = _observable(_require(cfg, "observable"), base)
        elif kind == "B":
            kwargs["hamiltonian"] = HermitianOperator(
                _resolve_matrix(_require(cfg, "hamiltonian"), base)
            )
            kwargs["observable"] = _observable(_require(cfg, "observable"), base)
        elif kind == "C":
            kwargs["hamiltonian"] = HermitianOperator(
                _resolve_matrix(_require(cfg, "hamiltonian"), base)
            )
            kwargs["g"] = _function_spec(_require(cfg, "g"))
        else:
            raise ConfigError(f"unknown scenario kind {kind!r}")
        return ScenarioSpec(**kwargs)
    except DomainError as exc:
        # Bad operator data inside a config file is a config problem.
        raise ConfigError(str(exc)) from exc


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj: dict, out_path: str | None) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", out_path)


def _scenario_mode(flag_mode: str) -> str:
    return "exact-mu" if flag_mode == "exact" else "circuit-mu"


def cmd_diag(args) -> int:
    cfg, base, seed, manifest = _start(args, "diag")
    try:
        a = HermitianOperator(_resolve_matrix(_require(cfg, "a"), base))
        if "v" in cfg:
            v = UnitaryOperator(_resolve_matrix(cfg["v"], base))
        else:
            v = UnitaryOperator(np.eye(a.dim))
        f = _function_spec(_require(cfg, "f"))
        x0 = _number(cfg, "x0", int)
        n_probe = _number(cfg, "n_probe", int, 4)
        check_register_size(n_probe, a.dim)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    n_sam = args.n_sam if args.n_sam is not None else _number(cfg, "n_sam", int, 10000)
    if not 1 <= n_sam <= MAX_CHAIN_STEPS:
        raise ConfigError(
            f"n_sam must be in 1 .. {MAX_CHAIN_STEPS} (the shot cap), got {n_sam}"
        )

    dt, gamma = _auto_or_number(cfg, "dt"), _auto_or_number(cfg, "gamma")
    circuit = circuit_config(a, f, n_probe, dt, gamma)
    report = {
        "manifest": dataclasses.asdict(manifest),
        "x0": x0,
        "dt": circuit.dt,
        "gamma": circuit.gamma,
        "n_probe": n_probe,
        **estimate_diagonal(a, v, x0, circuit, n_sam, seed),
    }
    _emit_json(report, args.out)
    return 0


def cmd_mean(args) -> int:
    cfg, base, seed, manifest = _start(args, "mean")
    spec = _scenario_from_config(cfg, base, seed, args.n_sam)
    if spec.kind not in ("A", "B"):
        raise ConfigError("the mean command needs a kind A or B config")
    report = run_scenario_mean(spec, _scenario_mode(args.mode))
    out = {"manifest": dataclasses.asdict(manifest), "report": dataclasses.asdict(report)}
    if spec.dim <= ORACLE_DIM_CAP:
        out["oracle"] = exact_oracle(spec, report)
    _emit_json(out, args.out)
    return 0


def cmd_partition(args) -> int:
    cfg, base, seed, manifest = _start(args, "partition")
    spec = _scenario_from_config(cfg, base, seed, args.n_sam)
    if spec.kind != "C":
        raise ConfigError("the partition command needs a kind C config")
    zg, z1, ratio = estimate_partition(spec, _scenario_mode(args.mode))
    out = {
        "manifest": dataclasses.asdict(manifest),
        "z_g": dataclasses.asdict(zg),
        "z_1": dataclasses.asdict(z1),
        "trace_ratio": dataclasses.asdict(ratio),
    }
    if spec.dim <= ORACLE_DIM_CAP:
        out["oracle"] = exact_oracle(spec)
    _emit_json(out, args.out)
    return 0


def _chains_from_config(cfg: dict, base: Path, seed: int):
    items = cfg.get("chains", [])
    if not isinstance(items, list):
        raise ConfigError("'chains' must be a list")
    chains = []
    for item in items:
        if isinstance(item, str):
            try:
                with open(base / item) as fh:
                    item = json.load(fh)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"cannot load chain file: {exc}") from exc
        if not isinstance(item, dict) or "transition" not in item:
            raise ConfigError("chain entries need a 'transition' matrix")
        try:
            chains.append(MarkovChain.from_json(item))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad chain entry: {exc}") from exc
    rand = cfg.get("random")
    n_chains, dims = 0, []
    if rand:
        if not isinstance(rand, dict):
            raise ConfigError("'random' must be an object")
        n_chains = _number(rand, "n_chains", int, 10)
        if not 0 <= n_chains <= MAX_WALK_CHAINS:
            raise ConfigError(f"n_chains must be in 0 .. {MAX_WALK_CHAINS}, got {n_chains}")
        dims = rand.get("dims")
        if dims is None:
            dims = [_number(rand, "dim", int, 4)]
        if not isinstance(dims, list) or not dims:
            raise ConfigError("'dims' must be a nonempty list of integers")
        dims = [_typed(d, int, "a 'dims' entry") for d in dims]
        proposal = rand.get("proposal", "uniform")
        rng = np.random.default_rng(_seed(rand.get("seed", seed), "random seed"))
    try:
        for n in [chain.dim for chain in chains] + dims:
            check_walk_size(n)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    for i in range(n_chains):
        chains.append(random_reversible_chain(rng, dims[i % len(dims)], proposal))
    if not chains:
        raise ConfigError("walk-gap config names no chains")
    return chains


def cmd_walk_gap(args) -> int:
    cfg, base, seed, manifest = _start(args, "walk-gap")
    chains = _chains_from_config(cfg, base, seed)

    lines = [f"# manifest: {json.dumps(dataclasses.asdict(manifest), sort_keys=True)}"]
    lines.append("delta,phase_gap,ratio,status")
    for chain in chains:
        try:
            delta = spectral_gap(chain)
        except DomainError:
            lines.append(",,,non-reversible")
            continue
        try:
            if delta <= 0:
                raise DomainError("zero spectral gap")
            gap = discriminant_phase_gap(chain)
        except DomainError:
            lines.append(",,,degenerate")
            continue
        ratio = float(gap / np.sqrt(2 * delta))
        lines.append(f"{delta!r},{gap!r},{ratio!r},ok")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _load_angles(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read angles file {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        try:
            return [float(tok) for tok in text.split()]
        except ValueError as exc:
            raise ConfigError(f"angles file is neither JSON nor numbers: {exc}") from exc
    if isinstance(obj, dict):
        obj = obj.get("angles")
    if not isinstance(obj, list) or not obj:
        raise ConfigError("angles file must hold a nonempty list of numbers")
    return [_typed(x, float, "an angle") for x in obj]


def cmd_compile_mux(args) -> int:
    angles = _load_angles(args.config)
    if len(angles) & (len(angles) - 1):
        raise ConfigError(f"angle count must be a power of two, got {len(angles)}")
    manifest = _manifest(args, "compile-mux", _seed(args.seed if args.seed is not None else 0))
    seq = expand_multiplexor(angles)
    header = f"# manifest: {json.dumps(dataclasses.asdict(manifest), sort_keys=True)}\n"
    header += f"# qubits: {seq.n_qubits} gates: {len(seq)}\n"
    _emit(header + seq.to_text(), args.out)
    if len(angles) <= VERIFY_ANGLE_CAP:
        deviation = float(
            np.abs(compose_gate_unitary(seq) - multiplexor_block(angles)).max()
        )
        sys.stderr.write(f"verification: max unitary deviation {deviation:.3e}\n")
    else:
        sys.stderr.write("verification: skipped (angle count above cap)\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qest",
        description="Seeded estimation runs for diagonal elements, observable "
        "means, partition functions, and walk gap diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in [
        ("diag", cmd_diag),
        ("mean", cmd_mean),
        ("partition", cmd_partition),
        ("walk-gap", cmd_walk_gap),
        ("compile-mux", cmd_compile_mux),
    ]:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the run config")
        p.add_argument("--seed", type=int, default=None, help="64-bit seed (default 0)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--mode", choices=("exact", "shots"), default="exact")
        p.add_argument("--n-sam", type=int, default=None, dest="n_sam")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return 3
    except SamplerError as exc:
        sys.stderr.write(f"sampler error: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
