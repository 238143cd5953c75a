"""Exit-code contract under mutations of the README config fixtures.

A type mutation drops one key, replaces one value (at any depth) with a
value of another JSON type, or replaces the whole config. A value mutation
replaces one value, at any depth, with a boundary value. No size is ever
set to a large valid value: a size goes one over its cap at most, which is
rejected before anything of that size exists, so every run stays about as
small as its fixture. Whatever the input, the CLI must answer with 0, 2, 3
or 4, with no warning, and, on failure, one line of stderr.
"""

import contextlib
import io
import json
import math
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qest.circuit import MAX_STATE_DIM  # noqa: E402
from qest.cli import MAX_WALK_CHAINS, main  # noqa: E402
from qest.sampler import MAX_CHAIN_STEPS, MAX_WALK_DIM  # noqa: E402

DIAG_01 = {"dim": 2, "re": [[0.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
H = 0.7071067811865476
HADAMARD = {"dim": 2, "re": [[H, H], [H, -H]], "im": [[0.0, 0.0], [0.0, 0.0]]}

DIAG = {
    "a": DIAG_01,
    "v": HADAMARD,
    "f": {"family": "exponential", "beta": 0.5},
    "x0": 0,
    "n_probe": 4,
    "n_sam": 200,
    "seed": 7,
}
MEAN = {
    "kind": "B",
    "hamiltonian": DIAG_01,
    "observable": DIAG_01,
    "beta": 0.6931471805599453,
    "n_sam": 200,
    "seed": 11,
}

# Each fixture's name, and the command that runs it. The explicit-dt diag
# puts lambda dt on one probe slot of two; the spectral-pair mean reads its
# observable as eigenvalues and a basis changer.
FIXTURES = {
    "diag": ("diag", DIAG),
    "diag-explicit-dt": ("diag", {**DIAG, "n_probe": 1, "dt": 1.0}),
    "mean": ("mean", MEAN),
    "mean-spectral-pair": (
        "mean", {**MEAN, "observable": {"eigenvalues": [-1.0, 2.0], "basis_changer": HADAMARD}},
    ),
    "partition": (
        "partition",
        {
            "kind": "C",
            "hamiltonian": DIAG_01,
            "g": [1.0, -1.0],
            "beta": 0.6931471805599453,
            "n_sam": 200,
            "seed": 13,
        },
    ),
    "walk-gap": ("walk-gap", {"random": {"n_chains": 5, "dim": 6, "seed": 5, "proposal": "uniform"}}),
}

_leaf = st.one_of(st.none(), st.booleans(), st.text(max_size=4))
OTHER_TYPE = st.one_of(
    _leaf,
    st.lists(_leaf, max_size=3),
    st.dictionaries(st.text(max_size=4), _leaf, max_size=2),
)

ERROR_PREFIXES = ("config error:", "domain error:", "sampler error:")

# Zero, negative, non-finite, huge, subnormal and empty values, an integer
# beyond the float range, and one over each size cap.
BOUNDARY_VALUES = [
    0,
    -1,
    math.inf,
    -math.inf,
    math.nan,
    1e300,
    1.7e308,
    1e-320,
    [],
    10 ** 400,
    MAX_CHAIN_STEPS + 1,  # chain steps and diag shots
    MAX_WALK_CHAINS + 1,  # random walk-gap chains
    math.isqrt(MAX_WALK_DIM) + 1,  # walk-gap chain states
    2 ** 64,  # seeds
    # n_probe at the fixtures' N_S = 2, where the main qubit and the
    # ancilla take two of the register's qubits.
    MAX_STATE_DIM.bit_length() - 2,
]


def _paths(value, prefix=()):
    """Key paths to every value nested in a JSON object, and whether each
    ends at an object key (which may be dropped)."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield prefix + (key,), isinstance(value, dict)
        yield from _paths(child, prefix + (key,))


def _mutated(cfg, path, drop, replacement):
    # A JSON round trip, not deepcopy: a deep copy keeps two keys that share
    # one object (mean's hamiltonian and observable) shared, so a mutation
    # of one would rewrite both.
    cfg = json.loads(json.dumps(cfg))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if drop:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return cfg


@st.composite
def mutations(draw, fixture):
    action = draw(st.sampled_from(["drop", "replace", "top-level"]))
    if action == "top-level":
        return draw(OTHER_TYPE)
    paths = [p for p, droppable in _paths(fixture) if droppable or action == "replace"]
    path = draw(st.sampled_from(paths))
    replacement = None if action == "drop" else draw(OTHER_TYPE)
    return _mutated(fixture, path, action == "drop", replacement)


def _violation(command, cfg, directory):
    """How a run on cfg breaks the exit-code contract, or None. A numpy
    warning would print lines of its own on stderr."""
    path = directory / "config.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main([command, "--config", str(path), "--out", str(directory / "out")])
        except Exception as exc:  # the console script would exit 1 with a traceback
            return f"raised {exc!r}"
    message = err.getvalue()
    if code not in (0, 2, 3, 4):
        return f"exit {code}: {message!r}"
    if caught or (
        code != 0 and (not message.startswith(ERROR_PREFIXES) or message.count("\n") != 1)
    ):
        return f"exit {code}: {message!r}, warnings {[str(w.message) for w in caught]}"
    return None


@pytest.mark.parametrize("name", sorted(FIXTURES))
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_exit_code_contract_under_type_mutations(name, data, tmp_path_factory):
    command, fixture = FIXTURES[name]
    cfg = data.draw(mutations(fixture))
    assert _violation(command, cfg, tmp_path_factory.mktemp("fuzz")) is None


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_exit_code_contract_under_value_mutations(name, tmp_path):
    # Every boundary value at every path: up to about 500 small runs per
    # fixture, a few seconds in all.
    command, fixture = FIXTURES[name]
    violations = []
    for path, _ in _paths(fixture):
        for value in BOUNDARY_VALUES:
            found = _violation(command, _mutated(fixture, path, False, value), tmp_path)
            if found:
                violations.append(f"{path} = {value!r:.20}: {found}")
    assert not violations, "\n".join(violations)
