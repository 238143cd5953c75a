"""Exit-code contract under type mutations of the README config fixtures.

Each example drops one key, replaces one value (at any depth) with a value
of another JSON type, or replaces the whole config. Sizes are never mutated,
so every run stays as small as its fixture. Whatever the input, the CLI
must answer with 0, 2, 3 or 4 and, on failure, one line of stderr.
"""

import contextlib
import copy
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qest.cli import main  # noqa: E402

DIAG_01 = {"dim": 2, "re": [[0.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}
H = 0.7071067811865476

FIXTURES = {
    "diag": {
        "a": DIAG_01,
        "v": {"dim": 2, "re": [[H, H], [H, -H]], "im": [[0.0, 0.0], [0.0, 0.0]]},
        "f": {"family": "exponential", "beta": 0.5},
        "x0": 0,
        "n_probe": 4,
        "n_sam": 200,
        "seed": 7,
    },
    "mean": {
        "kind": "B",
        "hamiltonian": DIAG_01,
        "observable": DIAG_01,
        "beta": 0.6931471805599453,
        "n_sam": 200,
        "seed": 11,
    },
    "partition": {
        "kind": "C",
        "hamiltonian": DIAG_01,
        "g": [1.0, -1.0],
        "beta": 0.6931471805599453,
        "n_sam": 200,
        "seed": 13,
    },
    "walk-gap": {"random": {"n_chains": 5, "dim": 6, "seed": 5}},
}

_leaf = st.one_of(st.none(), st.booleans(), st.text(max_size=4))
OTHER_TYPE = st.one_of(
    _leaf,
    st.lists(_leaf, max_size=3),
    st.dictionaries(st.text(max_size=4), _leaf, max_size=2),
)

ERROR_PREFIXES = ("config error:", "domain error:", "sampler error:")


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
    cfg = copy.deepcopy(cfg)
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


@pytest.mark.parametrize("command", sorted(FIXTURES))
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_exit_code_contract_under_type_mutations(command, data, tmp_path_factory):
    cfg = data.draw(mutations(FIXTURES[command]))
    directory = tmp_path_factory.mktemp("fuzz")
    path = directory / "config.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", str(path), "--out", str(directory / "out")])
    assert code in (0, 2, 3, 4)
    if code != 0:
        message = err.getvalue()
        assert message.startswith(ERROR_PREFIXES), message
        assert message.count("\n") == 1, message
