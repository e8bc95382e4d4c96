"""A property test of the command-line boundary: a config document with
one mutation, run through ``cli.main`` in-process, exits 0, 1 or 2, raises
nothing, lets no warning escape (the suite makes a warning an error), and
on exit 2 writes exactly one line to stderr: an ``error: `` in the
program's words, not the text of a Python ``TypeError`` that escaped a
validator.

The documents are the example config and the built-ins ``hopf-holonomy``
and ``cp2-zero``; a mutation drops a key or a list entry, swaps a value's
type, sets a number to 0, +-1e-300 or +-1e300, shortens or lengthens a
list, or scales every number of a list (a matrix or a row) by 1e+-300. A
step below 1e-3 is never drawn: it integrates for long and tests nothing
the others do not.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import jacobisplit as js

_BUILTINS = json.loads(Path(js.cli.__file__).with_name("builtins.json").read_text())
DOCS = {doc["name"]: doc for doc in _BUILTINS if doc["name"] in ("hopf-holonomy", "cp2-zero")}
DOCS["example"] = json.loads(
    (Path(__file__).resolve().parents[1] / "configs" / "example_scenario.json").read_text()
)
OTHER_TYPES = ("0.5", True, None, [], {}, 0.5, 1)
MAGNITUDES = (0, 1e-300, -1e-300, 1e300, -1e300)
# what Python says of an operation on a value of the wrong type
TYPE_ERRORS = (
    "unhashable type",
    "is not subscriptable",
    "is not iterable",
    "has no attribute",
    "unsupported operand",
    "not supported between instances",
)


def _places(node, path=()):
    """The path to every value inside a document, in document order."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _places(value, path + (key,))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers_only(value) -> bool:
    if isinstance(value, list):
        return bool(value) and all(_numbers_only(v) for v in value)
    return _is_number(value)


def _scaled(value, factor):
    return [_scaled(v, factor) for v in value] if isinstance(value, list) else value * factor


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(DOCS[draw(st.sampled_from(sorted(DOCS)))])
    *parent_path, key = draw(st.sampled_from(list(_places(doc))))
    parent = doc
    for step in parent_path:
        parent = parent[step]
    value = parent[key]
    mutations = ["drop", "type"]
    mutations += ["magnitude"] if _is_number(value) else []
    mutations += ["length"] if isinstance(value, list) and value else []
    mutations += ["scale"] if isinstance(value, list) and _numbers_only(value) else []
    mutation = draw(st.sampled_from(mutations))
    if mutation == "drop":
        del parent[key]
    elif mutation == "type":
        parent[key] = draw(st.sampled_from([v for v in OTHER_TYPES if type(v) is not type(value)]))
    elif mutation == "magnitude":
        parent[key] = draw(st.sampled_from(MAGNITUDES))
    elif mutation == "length":
        parent[key] = value[:-1] if draw(st.booleans()) else value + [copy.deepcopy(value[-1])]
    else:
        parent[key] = _scaled(value, draw(st.sampled_from((1e300, 1e-300))))
    step = doc.get("step")
    assume(not (_is_number(step) and 0 < step < 1e-3))
    return doc


def _edited(name, edit):
    doc = copy.deepcopy(DOCS[name])
    edit(doc)
    return doc


def _run(doc) -> tuple[int, str]:
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "doc.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = js.main(["run", "--config", str(path), "--out", out])
    return code, err.getvalue()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(mutated_documents())
# a psi row near the float range: its norm once overflowed with a warning
@example(_edited("hopf-holonomy", lambda doc: doc["checks"][2]["params"].update(psi=[[1e300, 0]])))
# a check kind that is a list or an object once read "unhashable type"
@example(_edited("example", lambda doc: doc["checks"][0].update(kind=["splitting"])))
@example(_edited("example", lambda doc: doc["checks"][0].update(kind={"splitting": 1})))
def test_the_command_line_boundary_holds(doc):
    code, err = _run(doc)
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert not any(text in lines[0] for text in TYPE_ERRORS), lines
