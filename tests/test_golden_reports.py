"""`mean` and `partition` reports pinned to stored bytes.

tests/data/golden_reports.json holds each run's config and its report minus
the manifest. The fields read off the trajectory alone (acceptance rate,
visitation coverage, zero-weight state count, n_sam) must match exactly;
every other float, which passes through an eigensolve, within a relative
1e-12, so another LAPACK's last-bit rounding does not trip the test.

Regenerate, only when a report is meant to change, with
    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from qest.cli import main
from qest.numerics import matrix_to_json
from qest.synth import random_hermitian

GOLDEN = Path(__file__).parent / "data" / "golden_reports.json"
EXACT_KEYS = {"acceptance_rate", "visitation_coverage", "mu_zero_states", "n_sam"}
REL_TOL = 1e-12

DIAG_01 = {"dim": 2, "re": [[0.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}


def _configs() -> dict:
    """The README N_S = 2 fixtures, and seeded N_S = 8 configs whose runs of
    517 + 3 * 2000 steps cross a kernel block boundary."""
    rng = np.random.default_rng(1913)
    h = matrix_to_json(random_hermitian(rng, 8).entries)
    omega = matrix_to_json(random_hermitian(rng, 8).entries)
    schedule = {"n_sam": 2000, "burn_in": 517, "thinning": 3}
    return {
        "mean-readme": {
            "kind": "B", "hamiltonian": DIAG_01, "observable": DIAG_01,
            "beta": 0.6931471805599453, "n_sam": 20000, "seed": 11,
        },
        "partition-readme": {
            "kind": "C", "hamiltonian": DIAG_01, "g": [1.0, -1.0],
            "beta": 0.6931471805599453, "n_sam": 20000, "seed": 13,
        },
        "mean-n8": {
            "kind": "B", "hamiltonian": h, "observable": omega, "beta": 1.0,
            "seed": 8, **schedule,
        },
        "partition-n8": {
            "kind": "C", "hamiltonian": h, "g": [1.0, -0.5, 0.25], "beta": 1.0,
            "seed": 9, **schedule,
        },
    }


def _cases(configs: dict):
    """(name, command, mode, config) for both modes and both proposals."""
    for base, cfg in configs.items():
        for proposal in ("single-bit-flip", "uniform"):
            for mode in ("exact", "shots"):
                name = f"{base}-{proposal}-{mode}"
                yield name, base.split("-")[0], mode, {**cfg, "proposal": proposal}


def _report(tmp_dir: Path, name: str, command: str, mode: str, cfg: dict) -> dict:
    path = tmp_dir / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_dir / f"{name}.out.json"
    code = main([command, "--config", str(path), "--mode", mode, "--out", str(out)])
    assert code == 0, name
    report = json.loads(out.read_text())
    del report["manifest"]
    return report


def _mismatches(got, want, path=()):
    """Paths at which got differs from want under the comparison above."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [path]
        return [m for k in want for m in _mismatches(got[k], want[k], path + (k,))]
    if isinstance(want, float) and path[-1] not in EXACT_KEYS:
        if isinstance(got, float) and math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0):
            return []
        return [path]
    return [] if type(got) is type(want) and got == want else [path]


GOLDEN_CASES = json.loads(GOLDEN.read_text())["cases"] if GOLDEN.exists() else {}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_report_matches_golden(name, tmp_path):
    case = GOLDEN_CASES[name]
    got = _report(tmp_path, name, case["command"], case["mode"], case["config"])
    assert _mismatches(got, case["report"]) == [], name


def test_golden_file_covers_every_case():
    assert sorted(GOLDEN_CASES) == sorted(name for name, *_ in _cases(_configs()))


if __name__ == "__main__":
    import tempfile

    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, command, mode, cfg in _cases(_configs()):
            report = _report(Path(tmp), name, command, mode, cfg)
            cases[name] = {"command": command, "mode": mode, "config": cfg, "report": report}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"cases": cases}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}")
