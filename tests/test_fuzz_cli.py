"""Fuzz of ``cli.main`` over mutations of a fixture scenario.

Malformed or partial input must exit 3 with a message that names the file;
it never escapes as a traceback. Each example deletes or replaces a few
values of ``example1.json`` (type swaps, NaN and infinities, huge integers,
lone surrogates, deep nesting, small random JSON) and runs ``analyze`` on
the file and ``evaluate`` over a benchmark of that one file.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from tracefault.cli import main

EXAMPLE = json.loads((FIXTURES / "example1.json").read_text())

DELETE = object()

# Written into the JSON text as is, in place of the quoted placeholder:
# ``json.dumps`` cannot write either value.
RAW = {
    "@deep@": "[" * 100_000,
    "@huge@": "9" * 5000,  # past the interpreter's 4300-digit int limit
}


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield from _paths(item, path + (key,))


PATHS = list(_paths(EXAMPLE))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3)
    ),
    max_leaves=6,
)
replacements = st.sampled_from(
    [DELETE, None, True, False, 0, -1, 10**30, 1.5, math.nan, math.inf, -math.inf]
    + ["", "\ud800", "ok \udfff", [], {}, *RAW]
) | json_values
mutations = st.lists(st.tuples(st.sampled_from(PATHS), replacements), min_size=1, max_size=3)


def _apply(doc, path, value):
    if not path:
        return {} if value is DELETE else value
    parent = doc
    try:
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    except (KeyError, IndexError, TypeError):
        pass  # an earlier mutation removed or replaced a parent of ``path``
    return doc


def mutated(changes) -> bytes:
    doc = copy.deepcopy(EXAMPLE)
    for path, value in changes:
        doc = _apply(doc, path, value)
    text = json.dumps(doc)
    for placeholder, raw in RAW.items():
        text = text.replace(json.dumps(placeholder), raw)
    return text.encode()


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(changes=mutations)
@example(changes=[((), "@deep@")])
@example(changes=[(("domain",), "\ud800")])
@example(changes=[(("steps", 0, "step_id"), "@huge@")])
def test_cli_exits_0_or_3_naming_the_file(changes):
    with tempfile.TemporaryDirectory() as tmp:
        bench = Path(tmp)
        path = bench / "scenarios" / "fuzzed.json"
        path.parent.mkdir()
        path.write_bytes(mutated(changes))
        for argv in (
            ["analyze", str(path), "--out", str(bench / "analysis.json")],
            ["evaluate", str(bench), "--bootstrap-b", "10", "--out-dir", str(bench / "out")],
        ):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            message = err.getvalue()
            assert code in (0, 3), (argv[0], message)
            if code == 3:
                assert message.startswith("error:"), (argv[0], message)
                assert str(path) in message, (argv[0], message)
