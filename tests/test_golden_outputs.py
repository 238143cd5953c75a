"""`compile-mux` gate files and `walk-gap` CSVs pinned to stored outputs.

tests/data/golden_outputs.json holds each run's config and its output minus
the manifest line, and for compile-mux also its stderr verification line.
Gate text must match byte for byte: the slot angles come from sums,
differences and a power-of-two division alone, so no library rounding enters
them. The verification line must match byte for byte too: the deviation is
read from the composed blocks, whose bits are pinned by the bitwise composer
tests in test_circuit.py. A walk-gap row's status must match exactly, and its
floats, which pass through an eigensolve, within a relative 1e-12, the rule
of test_golden_reports.py.

Regenerate, only when an output is meant to change, with
    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qest.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_outputs.json"
REL_TOL = 1e-12

# The README's transient-cycle chain, the identity chain (its second
# eigenvalue is 1: degenerate), a 3-cycle, which fails detailed balance for
# its uniform pi, and a reversible two-state chain.
EXPLICIT_CHAINS = [
    [[1, 0, 0, 0], [0.1, 0, 0.9, 0], [0.1, 0, 0, 0.9], [0.1, 0.9, 0, 0]],
    [[1.0, 0.0], [0.0, 1.0]],
    [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
    [[0.5, 0.5], [0.25, 0.75]],
]


def _configs() -> dict:
    """(command, config) per case: compile-mux on seeded uniform(-pi, pi)
    lists of 2^0 .. 2^8 angles and on the README list; walk-gap on a seeded
    random sweep at N = 32 and on explicit chains of each status."""
    rng = np.random.default_rng(1919)
    cases = {
        f"compile-mux-2^{k}": ("compile-mux", {"angles": rng.uniform(-np.pi, np.pi, 2 ** k).tolist()})
        for k in range(9)
    }
    cases["compile-mux-readme"] = ("compile-mux", {"angles": [0.475, -0.525, 0.3, 0.1]})
    cases["walk-gap-random-n32"] = ("walk-gap", {"random": {"n_chains": 8, "dim": 32, "seed": 32}})
    cases["walk-gap-explicit"] = (
        "walk-gap", {"chains": [{"transition": p} for p in EXPLICIT_CHAINS]}
    )
    return cases


def _output(tmp_dir: Path, name: str, command: str, cfg: dict) -> tuple:
    """The run's output file without its leading manifest line, and its
    stderr."""
    path = tmp_dir / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_dir / f"{name}.out"
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        assert main([command, "--config", str(path), "--out", str(out)]) == 0, name
    manifest, rest = out.read_text().split("\n", 1)
    assert manifest.startswith("# manifest: "), name
    return rest, stderr.getvalue()


def _csv_mismatches(got: str, want: str) -> list:
    """Line numbers at which two walk-gap CSVs differ under the rule above."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines) or got_lines[0] != want_lines[0]:
        return ["shape or header"]
    bad = []
    for i, (g, w) in enumerate(zip(got_lines[1:], want_lines[1:]), start=1):
        *g_nums, g_status = g.split(",")
        *w_nums, w_status = w.split(",")
        close = all(
            a == b == "" or (a != "" != b and math.isclose(float(a), float(b), rel_tol=REL_TOL))
            for a, b in zip(g_nums, w_nums)
        )
        if g_status != w_status or len(g_nums) != len(w_nums) or not close:
            bad.append(i)
    return bad


GOLDEN_CASES = json.loads(GOLDEN.read_text())["cases"] if GOLDEN.exists() else {}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_output_matches_golden(name, tmp_path):
    case = GOLDEN_CASES[name]
    got, stderr = _output(tmp_path, name, case["command"], case["config"])
    if case["command"] == "compile-mux":
        assert got == case["output"], name
        assert stderr == case["stderr"], name
    else:
        assert _csv_mismatches(got, case["output"]) == [], name


def test_golden_file_covers_every_case():
    stored = {name: (case["command"], case["config"]) for name, case in GOLDEN_CASES.items()}
    assert stored == _configs()


def test_golden_walk_gap_rows_cover_every_status():
    statuses = {
        line.rsplit(",", 1)[1]
        for name, case in GOLDEN_CASES.items() if case["command"] == "walk-gap"
        for line in case["output"].splitlines()[1:]
    }
    assert statuses == {"ok", "degenerate", "non-reversible"}


if __name__ == "__main__":
    import tempfile

    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (command, cfg) in _configs().items():
            output, stderr = _output(Path(tmp), name, command, cfg)
            cases[name] = {"command": command, "config": cfg, "output": output}
            if command == "compile-mux":
                cases[name]["stderr"] = stderr
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"cases": cases}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}")
