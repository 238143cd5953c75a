"""Command-line behavior: configs in, reports out, honest exit codes."""

import json
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from qest import circuit, cli, sampler
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


@pytest.mark.parametrize(
    "key, value", [("dt", 0), ("dt", -1.0), ("dt", float("inf")), ("gamma", 0)]
)
def test_diag_bad_step_or_scale_is_one_line_domain_error(key, value, tmp_path, capsys):
    # dt = 0 used to reach the probe grid: a divide-by-zero RuntimeWarning
    # before the error line.
    path = diag_config(tmp_path, **{key: value})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["diag", "--config", path], capsys)
    assert code == 3
    assert out == ""
    assert err == f"domain error: {key} must be 'auto' or a positive number\n"


@pytest.mark.parametrize("x0", [2, -1])
def test_diag_x0_out_of_range_is_config_error(x0, tmp_path, capsys):
    # x0 is a config key; it used to reach the mu table and exit 3.
    code, out, err = run_cli(["diag", "--config", diag_config(tmp_path, x0=x0)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"config error: x0 must be in 0 .. 1, got {x0}\n"


def test_diag_simulates_no_circuit(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("diag simulated the circuit")

    for name in (
        "run_tomography_circuit",
        "prepare_initial_state",
        "apply_controlled_evolution",
        "apply_inverse_dft",
        "apply_tomography_multiplexor",
    ):
        monkeypatch.setattr(circuit, name, refuse)
    code, out, err = run_cli(["diag", "--config", diag_config(tmp_path)], capsys)
    assert code == 0
    assert err == ""
    assert json.loads(out)["shots"]["n_sam"] == 4000


@pytest.mark.parametrize(
    "command, mode, overrides, code",
    [
        ("diag", None, {}, 3),
        ("diag", None, {"gamma": 0.5}, 3),
        ("mean", "exact", {}, 2),
        ("mean", "shots", {}, 2),
    ],
)
def test_subnormal_dt_is_rejected_like_zero(command, mode, overrides, code, tmp_path, capsys):
    # 2 pi j / (dt 2^n_probe) overflows at a subnormal dt, so such a dt
    # must fail as cleanly as dt = 0, before anything reads the grid.
    make = diag_config if command == "diag" else mean_config
    argv = [command, "--config", make(tmp_path, dt=1e-320, **overrides)]
    if mode:
        argv += ["--mode", mode]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run_cli(argv, capsys)
        zero = run_cli(argv[:2] + [make(tmp_path, dt=0)] + argv[3:], capsys)[0]
    assert got == zero == code
    assert out == ""
    assert "probe grid overflows" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["diag", "mean"])
def test_overflowing_phase_is_one_line_domain_error(command, tmp_path, capsys):
    # An eigenvalue of 1e300 at dt = 1e10 puts lambda dt j beyond float
    # range; the probe phases used to become NaN (diag crashed in the shot
    # draw, mean printed an invalid-value warning before its error line).
    huge = matrix_to_json(np.diag([0.0, 1e300]).astype(complex))
    if command == "diag":
        argv = ["diag", "--config", diag_config(tmp_path, a=huge, dt=1e10)]
    else:
        config = mean_config(tmp_path, hamiltonian=huge, dt=1e10)
        argv = ["mean", "--config", config, "--mode", "shots"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(argv, capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("domain error:") and "overflows the phases" in err
    assert err.count("\n") == 1


def test_overflowing_grid_position_is_one_line_domain_error(tmp_path, capsys):
    # lambda dt = 1.5e308 fits a float and so do the n_probe = 1 phases, but
    # the grid position lambda dt 2 / (2 pi) overflows before it is divided;
    # rounding it used to raise OverflowError.
    huge = matrix_to_json(np.diag([0.0, 1e300]).astype(complex))
    path = diag_config(tmp_path, a=huge, n_probe=1, dt=1.5e8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["diag", "--config", path], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("domain error:") and "grid positions" in err
    assert err.count("\n") == 1


def test_seed_flag_overrides_config(tmp_path, capsys):
    path = diag_config(tmp_path, seed=5)
    code, out, _ = run_cli(["diag", "--config", path, "--seed", "9"], capsys)
    assert code == 0
    assert json.loads(out)["manifest"]["seed"] == 9


@pytest.mark.parametrize("key, flag", [("seed", "--seed"), ("n_sam", "--n-sam")])
def test_flag_replaces_only_a_valid_key(key, flag, tmp_path, capsys):
    path = mean_config(tmp_path, **{key: "abc"})
    code, out, err = run_cli(["mean", "--config", path, flag, "100"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("config error:") and repr(key) in err
    assert err.count("\n") == 1


# -------------------------------------------------------------- mean

def test_mean_fixture_with_oracle(tmp_path, capsys):
    code, out, _ = run_cli(["mean", "--config", mean_config(tmp_path)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["oracle"]["exact_value"] == pytest.approx(1 / 3, abs=1e-12)
    est = report["report"]["point_estimate"]
    se = report["report"]["standard_error"]
    assert abs(est - 1 / 3) <= 3 * se


def test_mean_subnormal_weight_needs_no_warning(tmp_path, capsys):
    # mu = (1, 2^-1025) at beta = ln 2: mu_0 / mu_1 overflows in the
    # Metropolis matrix behind the delta diagnostic, where min(1, inf) = 1
    # is the right acceptance.
    h = matrix_to_json(np.diag([0.0, 1025.0]))
    path = mean_config(tmp_path, hamiltonian=h, n_sam=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["mean", "--config", path], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["report"]["diagnostics"]["delta"] == 1.0


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("mean", {"observable": matrix_to_json(np.diag([0.0, 1e300]))}),
        ("partition", {"g": [1e300, -1.0]}),
    ],
    ids=["mean-observable", "partition-weight"],
)
def test_standard_error_of_huge_values_is_finite(command, overrides, tmp_path, capsys):
    # Squaring these values inside std overflows unless they are scaled.
    make = mean_config if command == "mean" else partition_config
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli([command, "--config", make(tmp_path, **overrides)], capsys)
    assert (code, err) == (0, "")
    report = json.loads(out)
    blocks = [report["report"]] if command == "mean" else [report["z_g"], report["trace_ratio"]]
    for block in blocks:
        assert np.isfinite(block["standard_error"]) and block["standard_error"] > 1e290


def test_partition_beyond_the_float_range_is_domain_error(tmp_path, capsys):
    # Z_g = 2 * 1.7e308 for H = diag(0, 1) at beta = 0: no float holds it.
    path = partition_config(tmp_path, g=[1.7e308], beta=0.0, n_sam=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["partition", "--config", path], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("domain error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["diag", "partition"])
def test_overflowing_weight_polynomial_is_one_line_domain_error(command, tmp_path, capsys):
    # 1e308 (1 + x) overflows at x = 10; np.polyval used to print numpy
    # overflow warnings before the error line.
    d10 = matrix_to_json(np.diag([0.0, 10.0]))
    if command == "diag":
        f = {"family": "weighted_exponential", "beta": 0.0, "g_coeffs": [1e308, 1e308]}
        path = diag_config(tmp_path, a=d10, f=f)
    else:
        path = partition_config(tmp_path, hamiltonian=d10, g=[1e308, 1e308], beta=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli([command, "--config", path], capsys)
    assert (code, out) == (3, "")
    assert err == "domain error: function evaluation produced a non-finite value\n"


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
def test_report_value_beyond_the_float_range_is_domain_error(to_file, tmp_path, capsys):
    # One sample at the +1.7e308 eigenvalue against an exact mean of about
    # -7.3e307: abs_error overflows, and JSON has no Infinity.
    cfg = {
        "observable": {"eigenvalues": [-1.7e308, 1.7e308],
                       "basis_changer": matrix_to_json(np.eye(2))},
        "beta": 0.916290731874155, "n_sam": 1, "burn_in": 0, "seed": 2,
    }
    out_path = tmp_path / "report.json"
    argv = ["mean", "--config", mean_config(tmp_path, **cfg)]
    argv += ["--out", str(out_path)] if to_file else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(argv, capsys)
    assert (code, out) == (3, "")
    assert err == "domain error: a report value is beyond the float range\n"
    assert not out_path.exists()


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
    if key == "rho":
        # Kind A has no Hamiltonian and no beta.
        cfg = json.loads((tmp_path / "mean.json").read_text())
        del cfg["hamiltonian"], cfg["beta"]
        path = write_json(tmp_path / "mean.json", cfg)
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


@pytest.mark.parametrize("g, z_g", [([-1.0], -1.5), ([0.0, -1.0], -0.5)])
def test_partition_weight_without_positive_coefficient(g, z_g, tmp_path, capsys):
    # The positive part of g vanishes: Z_g is minus the negative part's
    # estimate. Its all-zero chain used to exit 3 ("f vanishes").
    path = partition_config(tmp_path, g=g)
    code, out, _ = run_cli(["partition", "--config", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["oracle"]["z_g"] == pytest.approx(z_g, abs=1e-12)
    se = report["z_g"]["standard_error"]
    assert abs(report["z_g"]["point_estimate"] - z_g) <= max(5 * se, 1e-10)


def test_partition_all_zero_weight_is_config_error(tmp_path, capsys):
    code, out, err = run_cli(["partition", "--config", partition_config(tmp_path, g=[0.0])], capsys)
    assert code == 2
    assert out == ""
    assert err == "config error: weight g has no nonzero coefficient\n"


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


def split_support_config(tmp_path, proposal, rho_diagonal):
    """Kind A with rho = diag(rho_diagonal) and Omega = diag(1, 2, 3, 4), so
    mu = rho_diagonal."""
    return write_json(tmp_path / f"split_{proposal}.json", {
        "kind": "A",
        "rho": matrix_to_json(np.diag(rho_diagonal).astype(complex)),
        "observable": matrix_to_json(np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)),
        "n_sam": 20000,
        "proposal": proposal,
    })


# mu = (1/2, 0, 0, 1/2): the positive states are two bit flips apart
# across zero weights, and the chain cannot leave state 0 (it used to
# report 1.0 +- 0.0). mu = (0, 1/2, 1/2, 0): the chain leaves the
# zero-weight state 0 for state 1 or 2 and stays there, as every exit from
# either is a zero weight (it would report 2.0 or 3.0 +- 0.0).
SPLIT_SUPPORTS = [[0.5, 0.0, 0.0, 0.5], [0.0, 0.5, 0.5, 0.0]]


@pytest.mark.parametrize("rho_diagonal", SPLIT_SUPPORTS)
def test_mean_split_support_is_a_sampler_error_under_bit_flips(
    rho_diagonal, tmp_path, capsys
):
    path = split_support_config(tmp_path, "single-bit-flip", rho_diagonal)
    code, out, err = run_cli(["mean", "--config", path], capsys)
    assert code == 4
    assert out == ""
    assert err == (
        "sampler error: the chain cannot reach 1 of the 2 positive-weight "
        "states from state 0\n"
    )


@pytest.mark.parametrize("rho_diagonal", SPLIT_SUPPORTS)
def test_mean_split_support_under_uniform_proposals(rho_diagonal, tmp_path, capsys):
    path = split_support_config(tmp_path, "uniform", rho_diagonal)
    code, out, _ = run_cli(["mean", "--config", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["oracle"]["exact_value"] == pytest.approx(2.5, abs=1e-12)
    point, se = report["report"]["point_estimate"], report["report"]["standard_error"]
    assert abs(point - 2.5) <= 5 * se


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


def _unwritable_out(target, tmp_path):
    return str({
        "directory": tmp_path,
        "missing-parent": tmp_path / "missing" / "x.txt",
        "nul-byte": tmp_path / "a\x00b.txt",
    }[target])


# An --out path that cannot be written used to end in a traceback (exit 1).
@pytest.mark.parametrize("target", ["directory", "missing-parent", "nul-byte"])
@pytest.mark.parametrize("command", ["mean", "compile-mux"])
def test_unwritable_out_is_config_error(command, target, tmp_path, capsys):
    config = {
        "mean": lambda: mean_config(tmp_path, n_sam=200),
        "compile-mux": lambda: write_json(tmp_path / "angles.json", [0.1, 0.2]),
    }[command]()
    out_path = _unwritable_out(target, tmp_path)
    code, out, err = run_cli([command, "--config", config, "--out", out_path], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: cannot write output {out_path!r}: ")
    assert err.count("\n") == 1


# An --out that cannot be written fails before the work, not after it.
@pytest.mark.parametrize("target", ["directory", "missing-parent", "nul-byte"])
@pytest.mark.parametrize("command, work", [("mean", "run_scenario_mean"),
                                           ("compile-mux", "expand_multiplexor")])
def test_unwritable_out_fails_before_the_run(command, work, target, tmp_path, capsys,
                                             monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{work} ran before --out was checked")

    monkeypatch.setattr(cli, work, refuse)
    config = {
        "mean": lambda: mean_config(tmp_path, n_sam=200),
        "compile-mux": lambda: write_json(tmp_path / "angles.json", [0.1, 0.2]),
    }[command]()
    out_path = _unwritable_out(target, tmp_path)
    code, out, err = run_cli([command, "--config", config, "--out", out_path], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: cannot write output {out_path!r}: ")


def test_emit_reports_a_nul_byte_path_as_config_error(tmp_path):
    # open() raises ValueError, not OSError, for such a path.
    out_path = str(tmp_path / "a\x00b.txt")
    with pytest.raises(cli.ConfigError, match="cannot write output .*: embedded null byte"):
        cli._emit("{}\n", out_path)


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


def test_walk_gap_reads_a_transient_cycle_as_reversible(tmp_path, capsys):
    # A transient 3-cycle feeding an absorbing state: detailed balance holds
    # for its solved pi = e_0, and P's complex pair -0.45 +- 0.78i has the
    # magnitude 0.9 that delta reads.
    p = [[1.0, 0.0, 0.0, 0.0], [0.1, 0.0, 0.9, 0.0], [0.1, 0.0, 0.0, 0.9], [0.1, 0.9, 0.0, 0.0]]
    path = write_json(tmp_path / "walk.json", {"chains": [{"transition": p}]})
    code, out, _ = run_cli(["walk-gap", "--config", path], capsys)
    assert code == 0
    delta, gap, ratio, status = out.strip().splitlines()[-1].split(",")
    assert status == "ok"
    assert float(delta) == pytest.approx(0.1, abs=1e-12)
    assert float(gap) == pytest.approx(np.pi / 2, abs=1e-12)
    chain = sampler.MarkovChain(np.array(p))
    oracle = sampler.phase_gap(sampler.szegedy_walk_operator(chain), chain)
    assert float(gap) == pytest.approx(oracle, abs=1e-12)
    assert float(ratio) == float(gap) / np.sqrt(2 * float(delta))


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


def test_walk_gap_empty_random_object_takes_the_defaults(tmp_path, capsys):
    code, out, _ = run_cli(["walk-gap", "--config", walk_config(tmp_path, random={})], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[2:]]
    assert len(rows) == 10
    assert all(row[3] == "ok" for row in rows)


# A falsy 'random' used to be ignored next to explicit chains (exit 0).
@pytest.mark.parametrize("rand", [False, [], 0], ids=["false", "empty-list", "zero"])
def test_walk_gap_random_must_be_an_object(rand, tmp_path, capsys):
    chains = [{"transition": [[0.75, 0.25], [0.5, 0.5]]}]
    path = walk_config(tmp_path, chains=chains, random=rand)
    code, out, err = run_cli(["walk-gap", "--config", path], capsys)
    assert (code, out, err) == (2, "", "config error: 'random' must be an object\n")


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


def test_compile_mux_verifies_at_the_angle_cap(tmp_path, capsys):
    angles = np.random.default_rng(233).uniform(-np.pi, np.pi, cli.MAX_MUX_ANGLES)
    path = write_json(tmp_path / "angles.json", angles.tolist())
    code, out, err = run_cli(["compile-mux", "--config", path], capsys)
    assert code == 0
    assert "skipped" not in err
    prefix = "verification: max unitary deviation "
    assert err.startswith(prefix) and err.count("\n") == 1
    assert float(err[len(prefix):]) <= 1e-10
    assert f"# qubits: {len(angles).bit_length()} " in out


@pytest.mark.parametrize("n_angles, budget_mb", [(2 ** 10, 4), (cli.MAX_MUX_ANGLES, 16)])
def test_compile_mux_memory_is_linear(n_angles, budget_mb, tmp_path, capsys):
    angles = np.random.default_rng(239).uniform(-np.pi, np.pi, n_angles)
    path = write_json(tmp_path / "angles.json", angles.tolist())
    tracemalloc.start()
    try:
        code = main(["compile-mux", "--config", path, "--out", os.devnull])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert "max unitary deviation" in capsys.readouterr().err
    assert peak <= budget_mb * 2 ** 20


@pytest.mark.parametrize(
    "angles", [[1e308, 1e308], [1.7e308, -1.7e308, 1.7e308, -1.7e308]], ids=["pair", "alternating"]
)
def test_compile_mux_near_overflow_angles(angles, tmp_path, capsys):
    # Slot angles are partial sums of angles / n, so none overflows.
    path = write_json(tmp_path / "angles.json", angles)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["compile-mux", "--config", path], capsys)
    assert code == 0
    seq = GateSequence.from_text(out)
    assert all(np.isfinite(g.angle) for g in seq.gates)
    prefix = "verification: max unitary deviation "
    assert err.startswith(prefix)
    assert np.isfinite(float(err[len(prefix):]))


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


# Non-finite angles used to exit 3 (domain error) without naming the angle.
@pytest.mark.parametrize("text, index, bad", [
    ("[0.1, NaN]", 1, "nan"),
    ('{"angles": [Infinity, 0.1]}', 0, "inf"),
    ("[0.1, 0.2, 0.3, -Infinity]", 3, "-inf"),
    ("[0.1, 1e400]", 1, "inf"),
    ("0.1 nan", 1, "nan"),
    ("inf 0.1", 0, "inf"),
    ("0.1 1e400", 1, "inf"),
], ids=["json-nan", "json-inf", "json-minus-inf", "json-huge", "text-nan", "text-inf", "text-huge"])
def test_compile_mux_non_finite_angle_is_config_error(text, index, bad, tmp_path, capsys):
    path = tmp_path / "angles.txt"
    path.write_text(text)
    code, out, err = run_cli(["compile-mux", "--config", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"config error: angle {index} must be finite, got {bad}\n"


class Compiled(Exception):
    """Raised by a stand-in compiler: the angle count got past the checks."""


@pytest.mark.parametrize("factor", [1, 2])
def test_compile_mux_angle_count_cap(factor, tmp_path, capsys, monkeypatch):
    # Verification takes O(n^2) time, so n over the cap is refused at load,
    # before anything is compiled; n at the cap is compiled.
    def compiled(angles):
        raise Compiled

    monkeypatch.setattr(cli, "expand_multiplexor", compiled)
    path = write_json(tmp_path / "angles.json", [0.1] * (factor * cli.MAX_MUX_ANGLES))
    if factor == 1:
        with pytest.raises(Compiled):
            main(["compile-mux", "--config", path])
        return
    code, out, err = run_cli(["compile-mux", "--config", path], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("config error:")
    assert err.count("\n") == 1


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
    assert zg == report["z_g"]
    assert z1 == report["z_1"]
    assert ratio == report["trace_ratio"]
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


# Random walk-gap chains whose proposal is not a name, or is single-bit-flip
# over a dimension that is not a power of two. These used to exit 3 from the
# first chain built; now they are rejected before any chain is built.
WALK_BAD_PROPOSAL = {
    "unknown-name": {"random": {"n_chains": 2, "dim": 6, "proposal": "bogus"}},
    "not-a-string": {"random": {"n_chains": 2, "dim": 6, "proposal": ["x"]}},
    "bit-flip-dim-6": {"random": {"n_chains": 2, "dim": 6, "proposal": "single-bit-flip"}},
}


@pytest.mark.parametrize("case", sorted(WALK_BAD_PROPOSAL))
def test_walk_gap_random_proposal_is_a_config_key(case, tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("built a chain for a bad proposal")

    monkeypatch.setattr(cli, "random_reversible_chain", refuse)
    path = write_json(tmp_path / "walk.json", WALK_BAD_PROPOSAL[case])
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


# ------------------------------------------------------- flags and files

# Flags that a subcommand used to accept and ignore.
REMOVED_FLAGS = {
    "diag-mode": ("diag", ["--mode", "exact"]),
    "walk-gap-mode": ("walk-gap", ["--mode", "shots"]),
    "walk-gap-n-sam": ("walk-gap", ["--n-sam", "100"]),
    "compile-mux-mode": ("compile-mux", ["--mode", "exact"]),
    "compile-mux-n-sam": ("compile-mux", ["--n-sam", "100"]),
    "compile-mux-seed": ("compile-mux", ["--seed", "3"]),
}


@pytest.mark.parametrize("case", sorted(REMOVED_FLAGS))
def test_flags_a_command_does_not_read_are_usage_errors(case, tmp_path, capsys):
    command, flag = REMOVED_FLAGS[case]
    path = {
        "diag": lambda: diag_config(tmp_path),
        "walk-gap": lambda: write_json(tmp_path / "walk.json", {"random": {"n_chains": 1}}),
        "compile-mux": lambda: write_json(tmp_path / "angles.json", [0.1, 0.2]),
    }[command]()
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--config", path, *flag])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_left_out_keys_take_the_scenario_spec_defaults(tmp_path, capsys):
    path = write_json(
        tmp_path / "diag.json",
        {"a": matrix_to_json(np.diag([0.0, 1.0])), "f": {"family": "identity"}, "x0": 1},
    )
    code, out, _ = run_cli(["diag", "--config", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert (report["n_probe"], report["shots"]["n_sam"]) == (4, 10000)
    cfg = {"kind": "B", "hamiltonian": matrix_to_json(np.diag([0.0, 1.0]))}
    cfg["observable"] = cfg["hamiltonian"]
    code, out, _ = run_cli(["mean", "--config", write_json(tmp_path / "m.json", cfg)], capsys)
    assert code == 0
    assert json.loads(out)["report"]["n_sam"] == 10000


# For each kind of file, a command line that loads tmp_path/bad.json as
# that kind.
LOADED_FILES = {
    "config": lambda tmp: ["mean", "--config", str(tmp / "bad.json")],
    "matrix": lambda tmp: ["mean", "--config", mean_config(tmp, hamiltonian="bad.json")],
    "chain": lambda tmp: [
        "walk-gap", "--config", write_json(tmp / "walk.json", {"chains": ["bad.json"]})
    ],
    "angles": lambda tmp: ["compile-mux", "--config", str(tmp / "bad.json")],
}
FILE_FAULTS = {
    "missing": None,
    "not-utf8": b"\xff\xfe{}",
    "not-json": b"{not json",
    "nested-too-deep": b"[" * 100000,
}


@pytest.mark.parametrize("fault", sorted(FILE_FAULTS))
@pytest.mark.parametrize("kind", sorted(LOADED_FILES))
def test_unloadable_files_are_one_line_config_errors(kind, fault, tmp_path, capsys):
    # A config or angles file that was not UTF-8 used to end in a
    # UnicodeDecodeError traceback, and JSON nested too deep in a
    # RecursionError one.
    if FILE_FAULTS[fault] is not None:
        (tmp_path / "bad.json").write_bytes(FILE_FAULTS[fault])
    code, out, err = run_cli(LOADED_FILES[kind](tmp_path), capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"config error: cannot load {kind}")
    assert "bad.json" in err
    assert err.count("\n") == 1


# Unitaries whose Gram product overflows: to nan, which used to pass the
# check, and to inf, which numpy used to warn about first.
OVERFLOWING_V = {
    "complex": {"dim": 2, "re": [[1e300, 0.0], [0.0, 1.0]], "im": [[1e300, 0.0], [0.0, 0.0]]},
    "real": {"dim": 2, "re": [[1e300, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
}


@pytest.mark.parametrize("case", sorted(OVERFLOWING_V))
def test_diag_overflowing_unitary_is_config_error(case, tmp_path, capsys):
    path = diag_config(tmp_path, v=OVERFLOWING_V[case], x0=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["diag", "--config", path], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("config error: matrix is not unitary")
    assert err.count("\n") == 1


# Every operator key with a matrix "dim" of +-Infinity, which used to
# escape from matrix_from_json as an OverflowError.
OPERATOR_KEYS = {
    "diag-a": ("diag", diag_config, "a"),
    "diag-v": ("diag", diag_config, "v"),
    "mean-hamiltonian": ("mean", mean_config, "hamiltonian"),
    "mean-observable": ("mean", mean_config, "observable"),
    "partition-hamiltonian": ("partition", partition_config, "hamiltonian"),
}


@pytest.mark.parametrize("dim", [float("inf"), float("-inf")])
@pytest.mark.parametrize("case", sorted(OPERATOR_KEYS))
def test_infinite_matrix_dim_is_config_error(case, dim, tmp_path, capsys):
    command, make, key = OPERATOR_KEYS[case]
    matrix = dict(matrix_to_json(np.eye(2)), dim=dim)
    code, _, err = run_cli([command, "--config", make(tmp_path, **{key: matrix})], capsys)
    assert code == 2
    assert err.startswith("config error: malformed matrix object")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "eigenvalue", [float("inf"), float("nan"), 10 ** 400], ids=["inf", "nan", "huge-int"]
)
def test_mean_unusable_observable_eigenvalue_is_config_error(eigenvalue, tmp_path, capsys):
    # Infinity and NaN used to give an inf or nan mean (exit 0, with numpy
    # warnings), and an integer beyond the float range an OverflowError.
    observable = {"eigenvalues": [0.0, eigenvalue], "basis_changer": matrix_to_json(np.eye(2))}
    path = mean_config(tmp_path, observable=observable, n_sam=100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["mean", "--config", path], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("config error:")
    assert err.count("\n") == 1


def test_partition_infinite_weight_coefficient_is_config_error(tmp_path, capsys):
    # Used to reach numpy: a RuntimeWarning, then exit 3.
    path = partition_config(tmp_path, g=[1.0, float("inf")])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(["partition", "--config", path], capsys)
    assert code == 2
    assert err.startswith("config error:")
    assert "finite" in err
    assert err.count("\n") == 1


# A number nested in a config object (a matrix, a function spec, a bare g
# list, an observable's eigenvalues, a walk-gap chain) must be a JSON number,
# as a top-level key must. A string or boolean that float() or numpy read,
# and a fractional dim that int() truncated, used to pass with exit 0.
D01 = matrix_to_json(np.diag([0.0, 1.0]).astype(complex))
I2 = matrix_to_json(np.eye(2, dtype=complex))
# With n_probe 1 and dt = pi the probe grid is {0, 1}, so a tabulated f on
# that grid serves diag(0, 1).
TABULATED = {"n_probe": 1, "dt": float(np.pi)}


def table(grid, values):
    return dict(TABULATED, f={"family": "tabulated", "grid": grid, "values": values})


def walk_config(tmp_path, **cfg):
    return write_json(tmp_path / "walk.json", cfg)


NESTED_NON_NUMBERS = {
    "dim-string": ("diag", diag_config, {"a": dict(D01, dim="2")}, "2"),
    "dim-bool": ("diag", diag_config, {"a": {"dim": True, "re": [[1.0]], "im": [[0.0]]}}, True),
    "dim-fractional": ("diag", diag_config, {"a": dict(D01, dim=2.5)}, 2.5),
    "re-string": ("diag", diag_config, {"a": dict(D01, re=[["0", 0.0], [0.0, 1.0]])}, "0"),
    "re-bool": ("diag", diag_config, {"a": dict(D01, re=[[0.0, False], [0.0, 1.0]])}, False),
    "im-string": ("mean", mean_config, {"hamiltonian": dict(D01, im=[[0.0, "0"], [0.0, 0.0]])},
                  "0"),
    "im-bool": ("mean", mean_config, {"observable": dict(D01, im=[[False, 0.0], [0.0, 0.0]])},
                False),
    "beta-string": ("diag", diag_config, {"f": {"family": "exponential", "beta": "0.5"}}, "0.5"),
    "beta-bool": ("diag", diag_config, {"f": {"family": "exponential", "beta": True}}, True),
    "g_coeffs-string": (
        "diag", diag_config, {"f": {"family": "weighted_exponential", "g_coeffs": ["1"]}}, "1"
    ),
    "g_coeffs-bool": (
        "diag", diag_config, {"f": {"family": "weighted_exponential", "g_coeffs": [True]}}, True
    ),
    "grid-string": ("diag", diag_config, table([0.0, "1.0"], [1.0, 0.5]), "1.0"),
    "grid-bool": ("diag", diag_config, table([False, True], [1.0, 0.5]), True),
    "values-string": ("diag", diag_config, table([0.0, 1.0], ["1.0", 0.5]), "1.0"),
    "values-bool": ("diag", diag_config, table([0.0, 1.0], [True, 0.5]), True),
    "g-string": ("partition", partition_config, {"g": ["1.0", 0.5]}, "1.0"),
    "g-bool": ("partition", partition_config, {"g": [True]}, True),
    "eigenvalues-string": (
        "mean", mean_config, {"observable": {"eigenvalues": [0.0, "1"], "basis_changer": I2}}, "1"
    ),
    "eigenvalues-bool": (
        "mean", mean_config, {"observable": {"eigenvalues": [False, 1.0], "basis_changer": I2}},
        False,
    ),
    "transition-string": (
        "walk-gap", walk_config, {"chains": [{"transition": [["0.75", 0.25], [0.5, 0.5]]}]},
        "0.75",
    ),
    "transition-bool": (
        "walk-gap", walk_config, {"chains": [{"transition": [[0.0, True], [1.0, 0.0]]}]}, True
    ),
    "stationary-string": (
        "walk-gap", walk_config,
        {"chains": [{"transition": [[0.5, 0.5], [0.5, 0.5]], "stationary": ["0.5", 0.5]}]}, "0.5",
    ),
    "stationary-bool": (
        "walk-gap", walk_config,
        {"chains": [{"transition": [[1.0, 0.0], [0.5, 0.5]], "stationary": [True, 0.0]}]}, True,
    ),
}


@pytest.mark.parametrize("case", sorted(NESTED_NON_NUMBERS))
def test_nested_non_number_is_config_error(case, tmp_path, capsys):
    command, make, cfg, bad = NESTED_NON_NUMBERS[case]
    code, out, err = run_cli([command, "--config", make(tmp_path, **cfg)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("config error:")
    assert f"got {bad!r}" in err
    assert err.count("\n") == 1


# ---------------------------------------------------------- unused keys

H2 = 0.7071067811865476
HADAMARD = {"dim": 2, "re": [[H2, H2], [H2, -H2]], "im": [[0.0, 0.0], [0.0, 0.0]]}
README_CONFIGS = {
    "diag": {
        "a": D01, "v": HADAMARD, "f": {"family": "exponential", "beta": 0.5},
        "x0": 0, "n_probe": 4, "n_sam": 200, "seed": 7,
    },
    "mean": {
        "kind": "B", "hamiltonian": D01, "observable": D01,
        "beta": 0.6931471805599453, "n_sam": 200, "seed": 11,
    },
    "partition": dict(README_PARTITION, n_sam=200),
    "walk-gap": {"random": {"n_chains": 5, "dim": 6, "seed": 5}},
    "compile-mux": {"angles": [0.475, -0.525, 0.3, 0.1]},
}
# Each README config, some with one value swapped for another form the
# README allows, and the path of the object that gets a stray key.
STRAY_KEY_SITES = {
    "diag-top-level": ("diag", {}, ()),
    "diag-matrix": ("diag", {}, ("a",)),
    "diag-unitary": ("diag", {}, ("v",)),
    "diag-function-spec": ("diag", {}, ("f",)),
    "mean-top-level": ("mean", {}, ()),
    "mean-matrix": ("mean", {}, ("hamiltonian",)),
    "mean-observable-matrix": ("mean", {}, ("observable",)),
    "mean-spectral-pair": (
        "mean", {"observable": {"eigenvalues": [0.0, 1.0], "basis_changer": HADAMARD}},
        ("observable",),
    ),
    "mean-spectral-pair-basis": (
        "mean", {"observable": {"eigenvalues": [0.0, 1.0], "basis_changer": HADAMARD}},
        ("observable", "basis_changer"),
    ),
    "partition-top-level": ("partition", {}, ()),
    "partition-matrix": ("partition", {}, ("hamiltonian",)),
    "partition-weight-spec": (
        "partition", {"g": {"family": "weighted_exponential", "g_coeffs": [1.0, -1.0]}}, ("g",)
    ),
    "walk-gap-top-level": ("walk-gap", {}, ()),
    "walk-gap-random": ("walk-gap", {}, ("random",)),
    "walk-gap-chain-entry": (
        "walk-gap", {"chains": [{"dim": 2, "transition": [[0.75, 0.25], [0.5, 0.5]]}]},
        ("chains", 0),
    ),
    "compile-mux-angles-object": ("compile-mux", {}, ()),
}


# Lists of the wrong shape: the message names the key.
WRONG_SHAPE = {
    "g_coeffs-scalar": (
        "diag", diag_config, {"f": {"family": "weighted_exponential", "g_coeffs": 5.0}}, "g_coeffs"
    ),
    "grid-scalar": ("diag", diag_config, table(0.0, [1.0]), "grid"),
    "g-nested": ("partition", partition_config, {"g": [[1.0]]}, "g"),
    "eigenvalues-ragged": (
        "mean", mean_config, {"observable": {"eigenvalues": [[0.0], [1.0, 2.0]], "basis_changer": I2}},
        "eigenvalues",
    ),
    "transition-ragged": (
        "walk-gap", walk_config, {"chains": [{"transition": [[1.0], [0.5, 0.5]]}]}, "transition"
    ),
}


@pytest.mark.parametrize("case", sorted(WRONG_SHAPE))
def test_wrong_shape_is_config_error_naming_its_key(case, tmp_path, capsys):
    command, make, cfg, key = WRONG_SHAPE[case]
    code, out, err = run_cli([command, "--config", make(tmp_path, **cfg)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("config error:") and repr(key) in err
    assert err.count("\n") == 1


def stray_key_config(tmp_path, case, stray):
    command, overrides, site = STRAY_KEY_SITES[case]
    cfg = json.loads(json.dumps(dict(README_CONFIGS[command], **overrides)))
    if stray:
        obj = cfg
        for step in site:
            obj = obj[step]
        obj["n_smaples"] = 100
    return command, write_json(tmp_path / "config.json", cfg)


@pytest.mark.parametrize("case", sorted(STRAY_KEY_SITES))
def test_stray_key_is_config_error(case, tmp_path, capsys):
    # A key that nothing reads used to be ignored, so a misspelled one ran
    # with the default: "n_smaples" ran 10000 samples. Without it the
    # config runs.
    command, path = stray_key_config(tmp_path, case, stray=False)
    assert run_cli([command, "--config", path, "--out", str(tmp_path / "out")], capsys)[0] == 0
    command, path = stray_key_config(tmp_path, case, stray=True)
    code, out, err = run_cli([command, "--config", path], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("config error:")
    assert "'n_smaples'" in err
    assert err.count("\n") == 1


# Keys another config kind or function family reads, which used to run as if
# they were absent.
MISPLACED_KEYS = {
    "exponential-g_coeffs": (
        "diag", {"f": {"family": "exponential", "beta": 0.5, "g_coeffs": [5.0]}}, "'g_coeffs'"
    ),
    "identity-beta": ("diag", {"f": {"family": "identity", "beta": 3.0}}, "'beta'"),
    "diag-burn_in": ("diag", {"burn_in": 10}, "'burn_in'"),
    "kind-A-hamiltonian": (
        "mean", {"kind": "A", "rho": matrix_to_json(np.eye(2) / 2), "beta": None}, "'hamiltonian'"
    ),
    "kind-A-beta": (
        "mean", {"kind": "A", "rho": matrix_to_json(np.eye(2) / 2), "hamiltonian": None}, "'beta'"
    ),
    "partition-observable": ("partition", {"observable": D01}, "'observable'"),
    "walk-gap-dims-and-dim": ("walk-gap", {"random": {"n_chains": 2, "dims": [4], "dim": 4}}, "'dim'"),
}


@pytest.mark.parametrize("case", sorted(MISPLACED_KEYS))
def test_misplaced_key_is_config_error(case, tmp_path, capsys):
    command, overrides, named = MISPLACED_KEYS[case]
    cfg = dict(README_CONFIGS[command], **overrides)
    cfg = {key: value for key, value in cfg.items() if value is not None}
    code, out, err = run_cli([command, "--config", write_json(tmp_path / "c.json", cfg)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("config error:")
    assert named in err
    assert err.count("\n") == 1


def test_chain_entry_dim_must_match_its_transition(tmp_path, capsys):
    cfg = {"chains": [{"dim": 3, "transition": [[0.75, 0.25], [0.5, 0.5]]}]}
    code, out, err = run_cli(["walk-gap", "--config", walk_config(tmp_path, **cfg)], capsys)
    assert (code, out) == (2, "")
    assert err == "config error: chain entry 'dim' 3 does not match its 2 states\n"


# diag(1 + 5e-11, 1): eigendecompose orders the two as one eigenvalue, by
# eigenvector position, so its spectrum descends by 5e-11. Both runs used to
# exit 3 with "eigenvalues are not in ascending order".
NEAR_DEGENERATE = matrix_to_json(np.diag([1.0 + 5e-11, 1.0]).astype(complex))


@pytest.mark.parametrize("mode", ["exact", "shots"])
def test_mean_near_degenerate_hamiltonian(mode, tmp_path, capsys):
    path = mean_config(tmp_path, hamiltonian=NEAR_DEGENERATE, n_sam=2000)
    code, out, err = run_cli(["mean", "--config", path, "--mode", mode], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["oracle"]["exact_value"] == pytest.approx(0.5)


def test_diag_near_degenerate_operator(tmp_path, capsys):
    code, out, err = run_cli(["diag", "--config", diag_config(tmp_path, a=NEAR_DEGENERATE)], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["exact_mu"] == pytest.approx(np.exp(-0.5 * (1 + 5e-11)), rel=1e-15)


# --------------------------------------------------------- the cached parser

def _call_without_timestamp(argv, capsys):
    """Exit code, stdout and stderr of one main call, the manifest timestamp
    removed; an argparse error counts as its exit code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, re.sub(r'"timestamp": "[^"]*"', "", out), err


def test_the_cached_parser_carries_nothing_from_one_call_to_the_next(tmp_path, capsys):
    mean = mean_config(tmp_path, n_sam=2000)
    calls = [
        ["mean", "--config", mean, "--seed", "3", "--n-sam", "100", "--mode", "shots"],
        ["mean", "--config", mean],
        ["mean", "--config", mean, "--no-such-flag"],
        ["partition", "--config", partition_config(tmp_path)],
        ["compile-mux", "--config", write_json(tmp_path / "angles.json", [0.475, -0.525, 0.3, 0.1])],
    ]
    cli.build_parser.cache_clear()
    in_sequence = [_call_without_timestamp(argv, capsys) for argv in calls]
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(calls) - 1)
    assert [code for code, _, _ in in_sequence] == [0, 0, 2, 0, 0]
    assert "unrecognized arguments: --no-such-flag" in in_sequence[2][2]
    for argv, got in zip(calls, in_sequence):
        cli.build_parser.cache_clear()
        assert _call_without_timestamp(argv, capsys) == got, argv


# A ragged 're' or 'im' used to report numpy's "setting an array element
# with a sequence" message, which names neither the part nor the key.
@pytest.mark.parametrize("part", ["re", "im"])
def test_ragged_matrix_part_is_config_error_naming_it(part, tmp_path, capsys):
    a = matrix_to_json(np.diag([0.0, 1.0]).astype(complex))
    a[part] = [[0.0], [0.0, 1.0]]
    code, out, err = run_cli(["diag", "--config", diag_config(tmp_path, a=a)], capsys)
    assert (code, out) == (2, "")
    assert err == f"config error: malformed matrix object: {part!r} must be a rectangular array of numbers\n"
