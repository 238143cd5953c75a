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
from .circuit import check_register_size, expand_multiplexor, multiplexor_deviation
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
    PROPOSALS,
    MarkovChain,
    SamplerError,
    check_walk_size,
    discriminant_phase_gap,
    spectral_gap,
)
from .scenarios import (
    KINDS,
    ORACLE_DIM_CAP,
    ScenarioSpec,
    circuit_config,
    estimate_diagonal,
    estimate_partition,
    exact_oracle,
    run_scenario_mean,
)
from .synth import random_reversible_chain

# Most angles one compile-mux run may compile. Every accepted list is
# verified, in O(n) memory but O(n^2) time: 2n gates over 2n-entry columns,
# 0.2-0.3 s at this cap on 2 cores.
MAX_MUX_ANGLES = 2 ** 12

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


def _load(path, what: str, fallback=None):
    """The JSON document in a file, or fallback(text) for text that is not
    JSON when a fallback is given. A file that cannot be read, is not UTF-8
    or does not parse is a config error naming the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            if fallback is None:
                raise
            return fallback(text)
    # ValueError covers undecodable bytes, bad JSON and what fallback
    # rejects; RecursionError, JSON nested too deep.
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot load {what} {str(path)!r}: {exc}") from exc


def _seed(value, name: str = "seed") -> int:
    seed = _typed(value, int, name)
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"{name} must fit in 64 bits, got {seed}")
    return seed


def _manifest(args, command: str, seed: int) -> RunManifest:
    return RunManifest(command, args.config, seed, args.out or "-", _now(), __version__)


def _start(args, command: str, n_sam=None):
    """Config object with n_sam (the --n-sam flag) applied, its directory,
    the run seed and the manifest."""
    cfg = _load(args.config, "config")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object, got {type(cfg).__name__}")
    if n_sam is not None:
        cfg["n_sam"] = n_sam
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
    try:
        return kind(value)
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise ConfigError(f"{name} is out of range: {exc}") from exc


def _number(cfg: dict, key: str, kind, default=None):
    """Typed value of cfg[key]; without a default the key is required."""
    if default is None:
        _require(cfg, key)
    return _typed(cfg.get(key, default), kind, repr(key))


# The optional keys of scenario configs (diag reads n_probe, n_sam, dt and
# gamma of them) and their JSON types. A key a config leaves out takes
# ScenarioSpec's default. ChainConfig checks the proposal name.
SETTINGS = {"n_sam": int, "n_probe": int, "dt": float, "gamma": float, "beta": float,
            "proposal": None, "burn_in": int, "thinning": int}


def _settings(cfg: dict, keys) -> dict:
    """The typed values of those keys that cfg sets; dt and gamma may also
    be "auto"."""
    out = {}
    for key in keys:
        if key in cfg:
            value, kind = cfg[key], SETTINGS[key]
            auto = key in ("dt", "gamma") and value == "auto"
            out[key] = value if kind is None or auto else _typed(value, kind, repr(key))
    return out


def _resolve_matrix(value, base: Path) -> np.ndarray:
    """Accept an inline matrix object or a path to a JSON file holding one."""
    if isinstance(value, str):
        value = _load(base / value, "matrix file")
    if not isinstance(value, dict):
        raise ConfigError(f"expected a matrix object or path, got {type(value).__name__}")
    return matrix_from_json(value)


def _function_spec(value) -> FunctionSpec:
    try:
        if isinstance(value, dict):
            return FunctionSpec.from_json(value)
        if isinstance(value, (list, str)):
            return FunctionSpec.weighted_exponential(value, 0.0)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"cannot interpret function spec {value!r}: {exc}") from exc
    raise ConfigError(f"cannot interpret function spec {value!r}")


def _observable(value, base: Path):
    """Spectral pair from either an explicit pair or a plain matrix."""
    if isinstance(value, dict) and "eigenvalues" in value:
        u = UnitaryOperator(_resolve_matrix(_require(value, "basis_changer"), base))
        try:
            vals = np.array(value["eigenvalues"], dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"observable eigenvalues are not numbers: {exc}") from exc
        if vals.shape != (u.dim,):
            raise ConfigError("observable eigenvalue count does not match basis")
        return SpectralDecomposition(vals, u)
    return HermitianOperator(_resolve_matrix(value, base)).spectrum


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    return cfg[key]


def _scenario_from_config(cfg: dict, base: Path, seed: int) -> ScenarioSpec:
    kind = _require(cfg, "kind")
    kwargs = {"kind": kind, "seed": seed, **_settings(cfg, SETTINGS)}
    if kind not in KINDS:
        raise ConfigError(f"unknown scenario kind {kind!r}")
    operator = "rho" if kind == "A" else "hamiltonian"
    try:
        kwargs[operator] = HermitianOperator(_resolve_matrix(_require(cfg, operator), base))
        if kind == "C":
            kwargs["g"] = _function_spec(_require(cfg, "g"))
        else:
            kwargs["observable"] = _observable(_require(cfg, "observable"), base)
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
    cfg, base, seed, manifest = _start(args, "diag", args.n_sam)
    opts = _settings(cfg, ("n_probe", "n_sam", "dt", "gamma"))
    n_probe = opts.pop("n_probe", ScenarioSpec.n_probe)
    n_sam = opts.pop("n_sam", ScenarioSpec.n_sam)
    try:
        a = HermitianOperator(_resolve_matrix(_require(cfg, "a"), base))
        v = UnitaryOperator(_resolve_matrix(cfg["v"], base) if "v" in cfg else np.eye(a.dim))
        f = _function_spec(_require(cfg, "f"))
        x0 = _number(cfg, "x0", int)
        check_register_size(n_probe, a.dim)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    if not 1 <= n_sam <= MAX_CHAIN_STEPS:
        raise ConfigError(
            f"n_sam must be in 1 .. {MAX_CHAIN_STEPS} (the shot cap), got {n_sam}"
        )

    circuit = circuit_config(a, f, n_probe, **opts)
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
    cfg, base, seed, manifest = _start(args, "mean", args.n_sam)
    spec = _scenario_from_config(cfg, base, seed)
    if spec.kind not in ("A", "B"):
        raise ConfigError("the mean command needs a kind A or B config")
    report = run_scenario_mean(spec, _scenario_mode(args.mode))
    out = {"manifest": dataclasses.asdict(manifest), "report": dataclasses.asdict(report)}
    if spec.dim <= ORACLE_DIM_CAP:
        out["oracle"] = exact_oracle(spec, report)
    _emit_json(out, args.out)
    return 0


def cmd_partition(args) -> int:
    cfg, base, seed, manifest = _start(args, "partition", args.n_sam)
    spec = _scenario_from_config(cfg, base, seed)
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
            item = _load(base / item, "chain file")
        if not isinstance(item, dict) or "transition" not in item:
            raise ConfigError("chain entries need a 'transition' matrix")
        try:
            chains.append(MarkovChain.from_json(item))
        except (TypeError, ValueError, OverflowError) as exc:
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
        if proposal not in PROPOSALS:
            raise ConfigError(f"random proposal must be one of {PROPOSALS}, got {proposal!r}")
        bad = [d for d in dims if d & (d - 1)]
        if proposal == "single-bit-flip" and bad:
            raise ConfigError(f"single-bit-flip chains need power-of-two dims, got {bad[0]}")
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
    obj = _load(path, "angles file", lambda text: [float(tok) for tok in text.split()])
    if isinstance(obj, dict):
        obj = obj.get("angles")
    if not isinstance(obj, list) or not obj:
        raise ConfigError("angles file must hold a nonempty list of numbers")
    return [_typed(x, float, "an angle") for x in obj]


def cmd_compile_mux(args) -> int:
    angles = _load_angles(args.config)
    if len(angles) & (len(angles) - 1):
        raise ConfigError(f"angle count must be a power of two, got {len(angles)}")
    if len(angles) > MAX_MUX_ANGLES:
        raise ConfigError(f"{len(angles)} angles exceed the cap {MAX_MUX_ANGLES}")
    manifest = _manifest(args, "compile-mux", 0)  # the compiler draws nothing
    seq = expand_multiplexor(angles)
    header = f"# manifest: {json.dumps(dataclasses.asdict(manifest), sort_keys=True)}\n"
    header += f"# qubits: {seq.n_qubits} gates: {len(seq)}\n"
    _emit(header + seq.to_text(), args.out)
    deviation = multiplexor_deviation(seq, angles)
    sys.stderr.write(f"verification: max unitary deviation {deviation:.3e}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qest",
        description="Seeded estimation runs for diagonal elements, observable "
        "means, partition functions, and walk gap diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, flags in [
        ("diag", cmd_diag, ("--seed", "--n-sam")),
        ("mean", cmd_mean, ("--seed", "--mode", "--n-sam")),
        ("partition", cmd_partition, ("--seed", "--mode", "--n-sam")),
        ("walk-gap", cmd_walk_gap, ("--seed",)),
        ("compile-mux", cmd_compile_mux, ()),
    ]:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the run config")
        p.add_argument("--out", help="output path (default stdout)")
        if "--seed" in flags:
            p.add_argument("--seed", type=int, help="64-bit seed (default 0)")
        if "--mode" in flags:
            p.add_argument("--mode", choices=("exact", "shots"), default="exact")
        if "--n-sam" in flags:
            p.add_argument("--n-sam", type=int, dest="n_sam")
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
