"""Command-line behavior: configs in, reports out, honest exit codes."""

import json

import numpy as np
import pytest

from qest import cli, sampler
from qest.circuit import MAX_STATE_DIM, GateSequence, compose_gate_unitary, multiplexor_block
from qest.cli import MAX_WALK_CHAINS, main
from qest.numerics import FunctionSpec, HermitianOperator, matrix_to_json
from qest.sampler import MAX_CHAIN_STEPS
from qest.scenarios import ScenarioSpec, estimate_partition, exact_oracle


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def diag_config(tmp_path, **overrides):
    cfg = {
        "a": matrix_to_json(np.diag([0.0, 1.0]).astype(complex)),
        "f": {"family": "exponential", "beta": 0.5},
        "x0": 0,
        "n_probe": 3,
        "n_sam": 4000,
    }
    cfg.update(overrides)
    return write_json(tmp_path / "diag.json", cfg)


def mean_config(tmp_path, **overrides):
    cfg = {
        "kind": "B",
        "hamiltonian": matrix_to_json(np.diag([0.0, 1.0]).astype(complex)),
        "observable": matrix_to_json(np.diag([0.0, 1.0]).astype(complex)),
        "beta": float(np.log(2.0)),
        "n_sam": 20000,
        "burn_in": 200,
    }
    cfg.update(overrides)
    return write_json(tmp_path / "mean.json", cfg)


def partition_config(tmp_path, **overrides):
    cfg = {
        "kind": "C",
        "hamiltonian": matrix_to_json(np.diag([0.0, 1.0]).astype(complex)),
        "g": [1.0],
        "beta": float(np.log(2.0)),
        "n_sam": 8000,
        "burn_in": 200,
    }
    cfg.update(overrides)
    return write_json(tmp_path / "part.json", cfg)


# -------------------------------------------------------------------- diag

def test_diag_three_estimates_agree(tmp_path, capsys):
    code, out, _ = run_cli(["diag", "--config", diag_config(tmp_path)], capsys)
    assert code == 0
    report = json.loads(out)
    # Auto dt puts diag(0,1) on the grid: circuit matches exact tightly.
    assert abs(report["circuit_mu"] - report["exact_mu"]) <= 1e-9
    sigma = 1 / (report["gamma"] * np.sqrt(report["shots"]["n_sam"]))
    assert abs(report["shots"]["mu_hat"] - report["exact_mu"]) <= 3 * sigma
    assert all(row["off_slot_mass"] <= 1e-12 for row in report["leakage"])
    assert report["manifest"]["command"] == "diag"


def test_diag_constant_function(tmp_path, capsys):
    rng = np.random.default_rng(163)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    herm = (m + m.conj().T) / 2
    herm = herm - np.linalg.eigvalsh(herm).min() * np.eye(2)  # nonneg spectrum
    path = diag_config(
        tmp_path,
        a=matrix_to_json(herm),
        f={"family": "weighted_exponential", "beta": 0.0, "g_coeffs": [0.7]},
    )
    code, out, _ = run_cli(["diag", "--config", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["circuit_mu"] == pytest.approx(0.7, abs=1e-10)


def test_diag_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["diag", "--config", str(bad)], capsys)
    assert code == 2
    assert "config" in err


def test_diag_missing_key(tmp_path, capsys):
    path = write_json(tmp_path / "d.json", {"f": {"family": "identity"}})
    code, _, err = run_cli(["diag", "--config", path], capsys)
    assert code == 2
    assert "missing" in err


def test_seed_flag_overrides_config(tmp_path, capsys):
    path = diag_config(tmp_path, seed=5)
    code, out, _ = run_cli(["diag", "--config", path, "--seed", "9"], capsys)
    assert code == 0
    assert json.loads(out)["manifest"]["seed"] == 9


# -------------------------------------------------------------- mean

def test_mean_fixture_with_oracle(tmp_path, capsys):
    code, out, _ = run_cli(["mean", "--config", mean_config(tmp_path)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["oracle"]["exact_value"] == pytest.approx(1 / 3, abs=1e-12)
    est = report["report"]["point_estimate"]
    se = report["report"]["standard_error"]
    assert abs(est - 1 / 3) <= 3 * se


def test_mean_rejects_kind_c_config(tmp_path, capsys):
    code, _, err = run_cli(
        ["mean", "--config", partition_config(tmp_path)], capsys
    )
    assert code == 2
    assert "kind" in err


def test_mean_shots_mode_runs(tmp_path, capsys):
    code, out, _ = run_cli(
        ["mean", "--config", mean_config(tmp_path, n_sam=4000), "--mode", "shots"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["report"]["mode"] == "circuit-mu"


# An observable whose dimension differs from the operator's: a 4-state
# operator with an 8- or 2-state observable basis.
DIM_MISMATCH = {
    "B-wider": ("hamiltonian", 4, 8),
    "B-narrower": ("hamiltonian", 4, 2),
    "A-wider": ("rho", 4, 8),
}


@pytest.mark.parametrize("mode", ["exact", "shots"])
@pytest.mark.parametrize("case", sorted(DIM_MISMATCH))
def test_mean_dimension_mismatch_is_domain_error(case, mode, tmp_path, capsys):
    key, n_op, n_obs = DIM_MISMATCH[case]
    op = np.diag(np.arange(n_op, dtype=float))
    if key == "rho":
        op = np.eye(n_op) / n_op
    path = mean_config(
        tmp_path,
        kind=case[0],
        **{key: matrix_to_json(op.astype(complex))},
        observable=matrix_to_json(np.diag(np.arange(n_obs, dtype=float)).astype(complex)),
        n_sam=100,
        burn_in=0,
    )
    code, out, err = run_cli(["mean", "--config", path, "--mode", mode], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("domain error:")
    assert f"operator dim {n_op} does not match" in err
    assert err.count("\n") == 1


def test_determinism_modulo_timestamp(tmp_path, capsys):
    path = mean_config(tmp_path)
    _, first, _ = run_cli(["mean", "--config", path, "--seed", "3"], capsys)
    _, again, _ = run_cli(["mean", "--config", path, "--seed", "3"], capsys)
    a, b = json.loads(first), json.loads(again)
    a["manifest"].pop("timestamp")
    b["manifest"].pop("timestamp")
    assert a == b


# ----------------------------------------------------------- partition

def test_partition_fixture_oracle_line(tmp_path, capsys):
    code, out, _ = run_cli(
        ["partition", "--config", partition_config(tmp_path)], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["oracle"]["z_1"] == pytest.approx(1.5, abs=1e-12)
    assert report["z_1"]["point_estimate"] == pytest.approx(1.5, abs=0.075)
    assert report["trace_ratio"]["point_estimate"] == pytest.approx(1.0, abs=0.1)


def test_partition_signed_weight(tmp_path, capsys):
    path = partition_config(tmp_path, g=[-1.0, 1.0], n_sam=5000)
    code, out, _ = run_cli(["partition", "--config", path], capsys)
    assert code == 0
    report = json.loads(out)
    # g = xi - 1 at H=diag(0,1), beta=ln2: Z_g = 0.5 - 1.5 = -1.
    assert report["oracle"]["z_g"] == pytest.approx(-1.0, abs=1e-12)
    assert report["z_g"]["point_estimate"] == pytest.approx(-1.0, abs=1e-10)


def test_partition_rejects_kind_b_config(tmp_path, capsys):
    code, _, _ = run_cli(
        ["partition", "--config", mean_config(tmp_path)], capsys
    )
    assert code == 2


def test_partition_all_zero_target_exit_code(tmp_path, capsys):
    path = partition_config(
        tmp_path,
        hamiltonian=matrix_to_json(np.zeros((2, 2), dtype=complex)),
        g="identity",
        n_sam=100,
        burn_in=0,
    )
    code, _, err = run_cli(["partition", "--config", path], capsys)
    assert code == 4
    assert "sampler" in err


def test_out_flag_writes_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["partition", "--config", partition_config(tmp_path), "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    assert out == ""
    report = json.loads(out_path.read_text())
    assert report["manifest"]["output_path"] == str(out_path)


# ------------------------------------------------------------- walk-gap

def test_walk_gap_random_sweep(tmp_path, capsys):
    path = write_json(
        tmp_path / "walk.json", {"random": {"n_chains": 5, "dim": 4, "seed": 3}}
    )
    code, out, _ = run_cli(["walk-gap", "--config", path], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# manifest:")
    assert lines[1] == "delta,phase_gap,ratio,status"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 5
    for row in rows:
        assert row[3] == "ok"
        assert float(row[2]) >= 1.0


def test_walk_gap_flags_non_reversible_row(tmp_path, capsys):
    cycle = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
    path = write_json(
        tmp_path / "walk.json",
        {"chains": [{"dim": 3, "transition": cycle}]},
    )
    code, out, _ = run_cli(["walk-gap", "--config", path], capsys)
    assert code == 0
    assert out.strip().splitlines()[-1] == ",,,non-reversible"


def test_walk_gap_does_not_build_the_dense_walk(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("walk-gap used the dense walk")

    monkeypatch.setattr(sampler, "szegedy_walk_operator", refuse)
    monkeypatch.setattr(sampler, "phase_gap", refuse)
    path = write_json(
        tmp_path / "walk.json", {"random": {"n_chains": 3, "dims": [4, 32, 256], "seed": 7}}
    )
    code, out, err = run_cli(["walk-gap", "--config", path], capsys)
    assert code == 0
    assert err == ""
    rows = [line.split(",") for line in out.strip().splitlines()[2:]]
    assert len(rows) == 3
    for row in rows:
        assert row[3] == "ok"
        assert float(row[2]) >= 1.0


def test_walk_gap_empty_config(tmp_path, capsys):
    path = write_json(tmp_path / "walk.json", {})
    code, _, _ = run_cli(["walk-gap", "--config", path], capsys)
    assert code == 2


# ---------------------------------------------------------- compile-mux

def test_compile_mux_round_trip(tmp_path, capsys):
    angles = [0.3, -1.1, 0.9, 2.2]
    path = tmp_path / "angles.json"
    path.write_text(json.dumps({"angles": angles}))
    out_path = tmp_path / "gates.txt"
    code, _, err = run_cli(
        ["compile-mux", "--config", str(path), "--out", str(out_path)], capsys
    )
    assert code == 0
    assert "max unitary deviation" in err
    text = out_path.read_text()
    assert text.startswith("# manifest:")
    seq = GateSequence.from_text(text)
    dev = np.abs(compose_gate_unitary(seq) - multiplexor_block(angles)).max()
    assert dev <= 1e-10


def test_compile_mux_plain_number_file(tmp_path, capsys):
    path = tmp_path / "angles.txt"
    path.write_text("0.25 0.5\n")
    code, out, _ = run_cli(["compile-mux", "--config", str(path)], capsys)
    assert code == 0
    assert "RY" in out


def test_compile_mux_bad_length(tmp_path, capsys):
    path = tmp_path / "angles.txt"
    path.write_text("0.25 0.5 0.75\n")
    code, _, err = run_cli(["compile-mux", "--config", str(path)], capsys)
    assert code == 2
    assert "power of two" in err


# ------------------------------------------------------ config validation

# Ill-typed or out-of-range config values: each is rejected at load with
# exit 2, rather than escaping as a traceback, passing silently, or failing
# later as a domain error.
ILL_TYPED = {
    "mean-n_probe-string": ("mean", mean_config, {"n_probe": "four"}),
    "diag-x0-string": ("diag", diag_config, {"x0": "zero"}),
    "mean-top-level-list": ("mean", mean_config, []),
    "diag-top-level-list": ("diag", diag_config, []),
    "walk-gap-top-level-list": ("walk-gap", None, []),
    "walk-gap-random-int": ("walk-gap", None, {"random": 5}),
    "walk-gap-chains-int": ("walk-gap", None, {"chains": 5}),
    "walk-gap-n_chains-string": ("walk-gap", None, {"random": {"n_chains": "x"}}),
    "mean-seed-string": ("mean", mean_config, {"seed": "abc"}),
    "mean-seed-above-64-bits": ("mean", mean_config, {"seed": 2 ** 70}),
    "mean-seed-negative": ("mean", mean_config, {"seed": -1}),
    "diag-seed-above-64-bits": ("diag", diag_config, {"seed": 2 ** 70}),
    "partition-n_probe-zero": ("partition", partition_config, {"n_probe": 0}),
    "mean-proposal-unknown": ("mean", mean_config, {"proposal": "bogus"}),
}


@pytest.mark.parametrize("case", sorted(ILL_TYPED))
def test_ill_typed_config_is_config_error(case, tmp_path, capsys):
    command, make, cfg = ILL_TYPED[case]
    if isinstance(cfg, list):
        path = write_json(tmp_path / "top.json", cfg)
    elif make is None:
        path = write_json(tmp_path / "walk.json", cfg)
    else:
        path = make(tmp_path, **cfg)
    code, _, err = run_cli([command, "--config", path], capsys)
    assert code == 2
    assert err.startswith("config error:")
    assert err.count("\n") == 1


def test_n_probe_above_size_cap_is_config_error(tmp_path, capsys):
    cap_qubits = MAX_STATE_DIM.bit_length() - 1
    # dim-2 main register plus the ancilla: one qubit over the cap.
    path = mean_config(tmp_path, n_probe=cap_qubits - 1)
    code, _, err = run_cli(["mean", "--config", path], capsys)
    assert code == 2
    assert "cap" in err


# Chain lengths and shot counts one over the cap, through a config key or
# the --n-sam flag, and no shots at all. Rejected at load, so nothing of
# that size is drawn.
OUT_OF_RANGE = {
    "mean-n_sam": ("mean", mean_config, {"n_sam": MAX_CHAIN_STEPS}, []),
    "mean-thinning": ("mean", mean_config, {"n_sam": MAX_CHAIN_STEPS // 4, "thinning": 5}, []),
    "partition-flag": ("partition", partition_config, {}, ["--n-sam", f"{MAX_CHAIN_STEPS}"]),
    "diag-n_sam": ("diag", diag_config, {"n_sam": MAX_CHAIN_STEPS + 1}, []),
    "diag-flag": ("diag", diag_config, {}, ["--n-sam", str(MAX_CHAIN_STEPS + 1)]),
    "diag-zero-shots": ("diag", diag_config, {"n_sam": 0}, []),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_chain_and_shot_limits_are_config_errors(case, tmp_path, capsys):
    command, make, cfg, flags = OUT_OF_RANGE[case]
    code, _, err = run_cli([command, "--config", make(tmp_path, **cfg), *flags], capsys)
    assert code == 2
    assert err.startswith("config error:")
    assert err.count("\n") == 1
    assert "cap" in err


def test_partition_non_polynomial_weight_is_config_error(tmp_path, capsys):
    path = partition_config(tmp_path, g={"family": "exponential"})
    code, _, err = run_cli(["partition", "--config", path], capsys)
    assert code == 2
    assert err.startswith("config error:")


def test_diag_all_zero_operator(tmp_path, capsys):
    path = diag_config(tmp_path, a=matrix_to_json(np.zeros((2, 2), dtype=complex)))
    code, out, _ = run_cli(["diag", "--config", path], capsys)
    assert code == 0
    report = json.loads(out)
    # f = exp(-0.5 xi) at the zero spectrum: f(0) = 1 on every path.
    assert report["exact_mu"] == 1.0
    assert report["circuit_mu"] == pytest.approx(1.0, abs=1e-12)


README_PARTITION = {
    "kind": "C",
    "hamiltonian": matrix_to_json(np.diag([0.0, 1.0]).astype(complex)),
    "g": [1.0, -1.0],
    "beta": 0.6931471805599453,
    "n_sam": 20000,
    "seed": 13,
}


def test_scenario_api_reproduces_partition_report(tmp_path, capsys):
    path = write_json(tmp_path / "part.json", README_PARTITION)
    code, out, _ = run_cli(["partition", "--config", path], capsys)
    assert code == 0
    report = json.loads(out)
    spec = ScenarioSpec(
        kind="C",
        n_sam=20000,
        seed=13,
        beta=0.6931471805599453,
        hamiltonian=HermitianOperator(np.diag([0.0, 1.0])),
        g=FunctionSpec.weighted_exponential((1.0, -1.0), 0.0),
    )
    zg, z1, ratio = estimate_partition(spec)
    assert zg.to_json() == report["z_g"]
    assert z1.to_json() == report["z_1"]
    assert ratio.to_json() == report["trace_ratio"]
    assert exact_oracle(spec) == report["oracle"]


# Walk-gap configs whose walk edge space (N^2 for an N-state chain) or
# random chain count is over its cap, or with a one-state chain. Rejected
# at load: no chain or walk operator is built.
WALK_BAD_SIZE = {
    "random-dim": {"random": {"n_chains": 1, "dim": 257}},
    "random-dims": {"random": {"n_chains": 2, "dims": [4, 257]}},
    "random-n_chains": {"random": {"n_chains": MAX_WALK_CHAINS + 1, "dim": 4}},
    "random-n_chains-negative": {"random": {"n_chains": -1, "dim": 4}},
    "explicit-chain": {"chains": [{"transition": np.eye(257).tolist()}]},
    "explicit-one-state": {"chains": [{"transition": [[1.0]]}]},
}


@pytest.mark.parametrize("case", sorted(WALK_BAD_SIZE))
def test_walk_gap_chain_sizes_are_config_errors(case, tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("built a chain or walk over the cap")

    monkeypatch.setattr(cli, "random_reversible_chain", refuse)
    monkeypatch.setattr(cli, "discriminant_phase_gap", refuse)
    path = write_json(tmp_path / "walk.json", WALK_BAD_SIZE[case])
    code, out, err = run_cli(["walk-gap", "--config", path], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("config error:")
    assert err.count("\n") == 1


# Walk-gap chains with a JSON null (nan) entry; the first used to end in a
# LinAlgError traceback and the second in an "ok" row.
WALK_NON_FINITE = {
    "transition": {"chains": [{"transition": [[0.5, None], [0.5, 0.5]]}]},
    "stationary": {
        "chains": [{"transition": [[0.75, 0.25], [0.5, 0.5]], "stationary": [None, 1.0]}]
    },
}


@pytest.mark.parametrize("case", sorted(WALK_NON_FINITE))
def test_walk_gap_non_finite_chain_is_config_error(case, tmp_path, capsys):
    path = write_json(tmp_path / "walk.json", WALK_NON_FINITE[case])
    code, out, err = run_cli(["walk-gap", "--config", path], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("config error:")
    assert "non-finite" in err
    assert err.count("\n") == 1
