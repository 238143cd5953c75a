"""Import paths: the package root loads nothing, importing the CLI builds no
argument parser, and no subcommand loads the measurement-sampling oracle
(qest.estimation)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import qest

D01 = {"dim": 2, "re": [[0.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
H = 0.7071067811865476

# The README examples, one per subcommand.
README_CONFIGS = {
    "diag": {
        "a": D01,
        "v": {"dim": 2, "re": [[H, H], [H, -H]], "im": [[0.0, 0.0], [0.0, 0.0]]},
        "f": {"family": "exponential", "beta": 0.5},
        "x0": 0,
        "n_probe": 4,
        "n_sam": 20000,
        "seed": 7,
    },
    "mean": {
        "kind": "B",
        "hamiltonian": D01,
        "observable": D01,
        "beta": 0.6931471805599453,
        "n_sam": 20000,
        "seed": 11,
    },
    "partition": {
        "kind": "C",
        "hamiltonian": D01,
        "g": [1.0, -1.0],
        "beta": 0.6931471805599453,
        "n_sam": 20000,
        "seed": 13,
    },
    "walk-gap": {"random": {"n_chains": 5, "dim": 6, "seed": 5}},
    "compile-mux": {"angles": [0.475, -0.525, 0.3, 0.1]},
}

SCRIPT = """
import sys
import qest
loaded = sorted(m for m in sys.modules if m.startswith("qest."))
assert not loaded, f"import qest loaded {loaded}"
from qest.cli import build_parser, main
assert build_parser.cache_info().currsize == 0, "importing qest.cli built the parser"
for argv in ARGVS:
    assert main(argv) == 0, argv
assert build_parser.cache_info().misses == 1, "main built the parser more than once"
assert "qest.estimation" not in sys.modules, "a subcommand loaded qest.estimation"
"""


def test_subcommands_load_no_measurement_oracle(tmp_path):
    argvs = []
    for command, cfg in README_CONFIGS.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(cfg))
        out = str(tmp_path / f"{command}.out")
        modes = [["--mode", "exact"], ["--mode", "shots"]] if command == "mean" else [[]]
        argvs += [[command, "--config", str(path), "--out", out, *mode] for mode in modes]
    src = str(Path(qest.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    result = subprocess.run(
        [sys.executable, "-c", f"ARGVS = {argvs!r}\n{SCRIPT}"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert result.returncode == 0, result.stderr
