"""Command-line front end: seeded runs from JSON configs to JSON/CSV reports.

Subcommands
    diag         exact, circuit, and shot estimates of one diagonal element
    mean         scenario A or B observable-mean estimation
    partition    scenario C weighted partition functions and trace ratios
    walk-gap     chain sweeps relating spectral gaps to walk phase gaps
    compile-mux  multiplexor expansion into an RY/CNOT gate file

Exit codes: 0 success, 2 config error, 3 numerical or domain error,
4 sampler failure. Every output embeds the run manifest; for the
line-oriented formats (gate files, CSV) the manifest rides in leading
comment lines starting with '#'.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import functools
import itertools
import json
import math
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
    json_array,
    json_number,
    json_vector,
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
# 0.12-0.17 s at this cap on 2 cores.
MAX_MUX_ANGLES = 2 ** 12

# Most random chains one walk-gap config may ask for.
MAX_WALK_CHAINS = 2 ** 10


class ConfigError(Exception):
    """The run configuration is missing, malformed, or inconsistent."""


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


def _seed(seed: int, name: str = "seed") -> int:
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"{name} must fit in 64 bits, got {seed}")
    return seed


def _manifest(args, command: str, seed: int) -> dict:
    """The provenance block embedded in every output."""
    now = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return {"command": command, "config_path": args.config, "seed": seed,
            "output_path": args.out or "-", "timestamp": now, "tool_version": __version__}


def _take(obj: dict, key: str, kind=None, default=...):
    """Remove key from a config object and return its value: a JSON number
    of kind int or float, JSON numbers in lists of equal length at each
    depth as a float array (kind np.ndarray; a null passes unchanged), or
    as given (kind None). An absent key gives default, and without one is a
    config error; a default of "auto" is also accepted as the value."""
    if key not in obj:
        if default is ...:
            raise ConfigError(f"config is missing required key {key!r}")
        return default
    value = obj.pop(key)
    if kind is None or value == default == "auto":
        return value
    if kind is np.ndarray:
        return None if value is None else json_array(value, repr(key))
    return json_number(value, kind, repr(key))


def _done(obj: dict, what: str) -> None:
    """Reject the keys that the reads left in a config object."""
    if obj:
        keys = ", ".join(map(repr, obj))
        raise ConfigError(f"unused key{'s' * (len(obj) > 1)} {keys} in {what}")


@contextlib.contextmanager
def _reading():
    """Whatever a check raises while a config is read is a config error.
    DomainError is a ValueError, and numpy and float() raise ValueError or
    TypeError on ill-shaped JSON."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _start(args, command: str, read):
    """What read(cfg, base, seed) makes of the config object, in which the
    --seed and --n-sam flags replace the keys they name, and the run
    manifest. A key a flag replaces must still hold an integer; any key the
    read leaves in the config is a config error."""
    _check_out(args.out)
    cfg = _load(args.config, "config")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object, got {type(cfg).__name__}")
    with _reading():
        for key in ("seed", "n_sam"):
            if getattr(args, key, None) is not None:
                _take(cfg, key, int, None)
                cfg[key] = getattr(args, key)
        seed = _seed(_take(cfg, "seed", int, 0))
        inputs = read(cfg, Path(args.config).parent, seed)
        _done(cfg, "the config")
    return inputs, _manifest(args, command, seed)


# The optional keys of scenario configs (diag reads n_probe, n_sam, dt and
# gamma of them) and their JSON types. A key a config leaves out takes its
# ScenarioSpec field default. ChainConfig checks the proposal name.
SETTINGS = {"n_sam": int, "n_probe": int, "dt": float, "gamma": float, "beta": float,
            "proposal": None, "burn_in": int, "thinning": int}


def _resolve_matrix(value, base: Path) -> np.ndarray:
    """Accept an inline matrix object or a path to a JSON file holding one."""
    if isinstance(value, str):
        value = _load(base / value, "matrix file")
    if not isinstance(value, dict):
        raise ConfigError(f"expected a matrix object or path, got {type(value).__name__}")
    parts = {key: _take(value, key) for key in ("dim", "re", "im")}
    _done(value, "a matrix object")
    return matrix_from_json(parts)


def _function_spec(value) -> FunctionSpec:
    if isinstance(value, dict):
        return FunctionSpec.from_json(value)
    if isinstance(value, list):
        return FunctionSpec.weighted_exponential(json_vector(value, "'g'"), 0.0)
    if isinstance(value, str):
        return FunctionSpec.weighted_exponential(value, 0.0)
    raise ConfigError(f"cannot interpret function spec {value!r}")


def _observable(value, base: Path) -> SpectralDecomposition:
    """Spectral pair from either an explicit pair or a plain matrix."""
    if isinstance(value, dict) and "eigenvalues" in value:
        vals = _take(value, "eigenvalues", np.ndarray)
        u = UnitaryOperator(_resolve_matrix(_take(value, "basis_changer"), base))
        _done(value, "an observable")
        return SpectralDecomposition(vals, u)
    return HermitianOperator(_resolve_matrix(value, base)).spectrum


def _scenario(cfg: dict, base: Path, seed: int) -> ScenarioSpec:
    kind = _take(cfg, "kind")
    # Kind A has a density matrix in place of a Hamiltonian, and no beta.
    spec = {key: _take(cfg, key, SETTINGS[key], getattr(ScenarioSpec, key))
            for key in SETTINGS if kind != "A" or key != "beta"}
    operator = "rho" if kind == "A" else "hamiltonian"
    spec[operator] = HermitianOperator(_resolve_matrix(_take(cfg, operator), base))
    if kind == "C":
        spec["g"] = _function_spec(_take(cfg, "g"))
    else:
        spec["observable"] = _observable(_take(cfg, "observable"), base)
    return ScenarioSpec(kind=kind, seed=seed, **spec)


def _check_out(out_path: str | None) -> None:
    """Reject, before the run does any work, an out_path that holds a NUL
    byte, is a directory or whose parent is not one; _emit reports what this
    cannot see, such as permissions."""
    if out_path and ("\0" in out_path or Path(out_path).is_dir()
                     or not Path(out_path).parent.is_dir()):
        raise ConfigError(f"cannot write output {out_path!r}: not a file in an existing directory")


def _emit(text: str, out_path: str | None) -> None:
    """Write text to out_path, or to stdout without one; an out_path that
    cannot be written is a config error naming it."""
    if out_path:
        try:
            Path(out_path).write_text(text)
        except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
            raise ConfigError(f"cannot write output {out_path!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_json(obj: dict, out_path: str | None) -> None:
    """Write obj as JSON; a value beyond the float range, which JSON cannot
    hold, is a domain error and nothing is written."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise DomainError("a report value is beyond the float range") from exc
    _emit(text + "\n", out_path)


def _scenario_mode(flag_mode: str) -> str:
    return "exact-mu" if flag_mode == "exact" else "circuit-mu"


def _diag_inputs(cfg: dict, base: Path, seed: int):
    opts = {key: _take(cfg, key, SETTINGS[key], getattr(ScenarioSpec, key))
            for key in ("n_probe", "n_sam", "dt", "gamma")}
    a = HermitianOperator(_resolve_matrix(_take(cfg, "a"), base))
    v = UnitaryOperator(_resolve_matrix(_take(cfg, "v"), base) if "v" in cfg else np.eye(a.dim))
    f = _function_spec(_take(cfg, "f"))
    x0 = _take(cfg, "x0", int)
    check_register_size(opts["n_probe"], a.dim)
    if not 0 <= x0 < a.dim:
        raise ConfigError(f"x0 must be in 0 .. {a.dim - 1}, got {x0}")
    if not 1 <= opts["n_sam"] <= MAX_CHAIN_STEPS:
        raise ConfigError(
            f"n_sam must be in 1 .. {MAX_CHAIN_STEPS} (the shot cap), got {opts['n_sam']}"
        )
    return a, v, f, x0, opts


def cmd_diag(args) -> int:
    (a, v, f, x0, opts), manifest = _start(args, "diag", _diag_inputs)
    n_probe, n_sam = opts.pop("n_probe"), opts.pop("n_sam")
    circuit = circuit_config(a, f, n_probe, **opts)
    report = {
        "manifest": manifest,
        "x0": x0,
        "dt": circuit.dt,
        "gamma": circuit.gamma,
        "n_probe": n_probe,
        **estimate_diagonal(a, v, x0, circuit, n_sam, manifest["seed"]),
    }
    _emit_json(report, args.out)
    return 0


def cmd_mean(args) -> int:
    spec, manifest = _start(args, "mean", _scenario)
    if spec.kind not in ("A", "B"):
        raise ConfigError("the mean command needs a kind A or B config")
    report = run_scenario_mean(spec, _scenario_mode(args.mode))
    out = {"manifest": manifest, "report": report}
    if spec.dim <= ORACLE_DIM_CAP:
        out["oracle"] = exact_oracle(spec, report)
    _emit_json(out, args.out)
    return 0


def cmd_partition(args) -> int:
    spec, manifest = _start(args, "partition", _scenario)
    if spec.kind != "C":
        raise ConfigError("the partition command needs a kind C config")
    zg, z1, ratio = estimate_partition(spec, _scenario_mode(args.mode))
    out = {"manifest": manifest, "z_g": zg, "z_1": z1, "trace_ratio": ratio}
    if spec.dim <= ORACLE_DIM_CAP:
        out["oracle"] = exact_oracle(spec)
    _emit_json(out, args.out)
    return 0


def _chain(item, base: Path) -> MarkovChain:
    """An inline chain entry or the one in the JSON file a path names; its
    optional dim must match its transition matrix."""
    if isinstance(item, str):
        item = _load(base / item, "chain file")
    if not isinstance(item, dict):
        raise ConfigError("chain entries need a 'transition' matrix")
    dim = _take(item, "dim", int, None)
    chain = MarkovChain(_take(item, "transition", np.ndarray),
                        _take(item, "stationary", np.ndarray, None))
    _done(item, "a chain entry")
    if dim not in (None, chain.dim):
        raise ConfigError(f"chain entry 'dim' {dim} does not match its {chain.dim} states")
    return chain


def _chains(cfg: dict, base: Path, seed: int):
    """The explicit chains, then the random ones, each built as the sweep reaches it."""
    items = _take(cfg, "chains", default=[])
    if not isinstance(items, list):
        raise ConfigError("'chains' must be a list")
    chains = [_chain(item, base) for item in items]
    rand = _take(cfg, "random", default=None)
    n_chains, dims = 0, []
    if rand is not None:
        if not isinstance(rand, dict):
            raise ConfigError("'random' must be an object")
        n_chains = _take(rand, "n_chains", int, 10)
        if not 0 <= n_chains <= MAX_WALK_CHAINS:
            raise ConfigError(f"n_chains must be in 0 .. {MAX_WALK_CHAINS}, got {n_chains}")
        dims = _take(rand, "dims", default=None)
        if dims is None:
            dims = [_take(rand, "dim", int, 4)]
        if not isinstance(dims, list) or not dims:
            raise ConfigError("'dims' must be a nonempty list of integers")
        dims = [json_number(d, int, "a 'dims' entry") for d in dims]
        proposal = _take(rand, "proposal", default="uniform")
        if proposal not in PROPOSALS:
            raise ConfigError(f"random proposal must be one of {PROPOSALS}, got {proposal!r}")
        bad = [d for d in dims if d & (d - 1)]
        if proposal == "single-bit-flip" and bad:
            raise ConfigError(f"single-bit-flip chains need power-of-two dims, got {bad[0]}")
        rng = np.random.default_rng(_seed(_take(rand, "seed", int, seed), "random seed"))
        _done(rand, "'random'")
    for n in [chain.dim for chain in chains] + dims:
        check_walk_size(n)
    if not chains and not n_chains:
        raise ConfigError("walk-gap config names no chains")
    sizes = itertools.islice(itertools.cycle(dims), n_chains)
    return itertools.chain(chains, (random_reversible_chain(rng, n, proposal) for n in sizes))


def cmd_walk_gap(args) -> int:
    chains, manifest = _start(args, "walk-gap", _chains)
    lines = [f"# manifest: {json.dumps(manifest, sort_keys=True)}"]
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


def _load_angles(path: str) -> list:
    """A nonempty power-of-two list of at most MAX_MUX_ANGLES angles: a bare
    list, an object's "angles" list or a whitespace-separated number file."""
    obj = _load(path, "angles file", lambda text: [float(tok) for tok in text.split()])
    if isinstance(obj, dict):
        angles = _take(obj, "angles")
        _done(obj, "the angles file")
        obj = angles
    if not isinstance(obj, list) or not obj:
        raise ConfigError("angles file must hold a nonempty list of numbers")
    if len(obj) & (len(obj) - 1):
        raise ConfigError(f"angle count must be a power of two, got {len(obj)}")
    if len(obj) > MAX_MUX_ANGLES:
        raise ConfigError(f"{len(obj)} angles exceed the cap {MAX_MUX_ANGLES}")
    angles = [json_number(x, float, "an angle") for x in obj]
    for i, angle in enumerate(angles):
        if not math.isfinite(angle):
            raise ConfigError(f"angle {i} must be finite, got {angle!r}")
    return angles


def cmd_compile_mux(args) -> int:
    _check_out(args.out)
    with _reading():
        angles = _load_angles(args.config)
    manifest = _manifest(args, "compile-mux", 0)  # the compiler draws nothing
    seq = expand_multiplexor(angles)
    header = f"# manifest: {json.dumps(manifest, sort_keys=True)}\n"
    header += f"# qubits: {seq.n_qubits} gates: {len(seq)}\n"
    _emit(header + seq.to_text(), args.out)
    deviation = multiplexor_deviation(seq, angles)
    sys.stderr.write(f"verification: max unitary deviation {deviation:.3e}\n")
    return 0


# Built on the first main call, not at import, and then shared by every
# call in the process: parse_args makes a fresh namespace each time.
@functools.cache
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
    args = build_parser().parse_args(argv)
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
