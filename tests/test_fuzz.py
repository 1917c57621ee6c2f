"""Exit-code contract under mutated workspace documents and argv.

Built eq 2x2 ex1 and ex2 workspaces get one mutation each: a key or list
entry is deleted, or a value (possibly a new ``target`` beside an
enriched entry's carrier and enrichment) is replaced by a JSON value of
the wrong kind.  Every command must then exit 0, 1 or 2 without a
traceback, and exit 1 only with a rendered report.

The same contract holds for command-line values: ``sieve --tuples`` and
``delta-system --sets`` with any small JSON value, ``delta-system`` with
each integer flag left out or set to a small value, negatives and zero
included, and ``probe-instability --chain`` with small integer lists on a
4-element linear order.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repsieve.cli import run_command

from conftest import save_lin4

VALUES = [True, -1, "x", [], {}]
COMMANDS = ["check-representation", "check-fact14", "sieve"]


def paths(node, prefix=()):
    """Every key and list position inside ``node``, as a path from its root."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    theories = root / "theories.json"
    theories.write_text(json.dumps({
        "version": 1,
        "theories": {"eq2x2": {"tag": "eq_rel", "params": {"classes": 2, "size": 2}}},
    }))
    docs = {}
    for kind in ("ex1", "ex2"):
        out = root / f"{kind}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_command([f"build-{kind}", str(theories), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        (name,) = doc["representations"]
        docs[kind] = (doc, [*paths(doc), ("representations", name, "target")])
    return root, docs


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_mutated_workspaces_keep_the_exit_code_contract(built, data):
    root, docs = built
    doc, where = docs[data.draw(st.sampled_from(sorted(docs)))]
    path = data.draw(st.sampled_from(where))
    value = data.draw(st.sampled_from(["delete"] + VALUES))
    mutated = json.loads(json.dumps(doc))
    node = mutated
    for key in path[:-1]:
        node = node[key]
    if value != "delete":
        node[path[-1]] = value
    elif isinstance(node, dict):
        node.pop(path[-1], None)  # the added target path is not in the document
    else:
        node.pop(path[-1])
    ws, report = root / "mutated.json", root / "report.json"
    ws.write_text(json.dumps(mutated))
    report.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command([data.draw(st.sampled_from(COMMANDS)), str(ws), "--out", str(report)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert out.getvalue().strip()
        assert "kind" in json.loads(report.read_text())


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert "error:" in err.getvalue()
    else:
        assert out.getvalue().strip()


JSON_SCALARS = st.none() | st.booleans() | st.integers(-2, 5) | st.floats(-1, 5) | st.text(max_size=2)
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=3), max_leaves=8)
TUPLE_LISTS = st.lists(st.lists(st.integers(-2, 5) | JSON_VALUES, max_size=3), max_size=4)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(tuples=TUPLE_LISTS | JSON_VALUES, target=st.integers(-1, 4))
def test_sieve_tuples_keep_the_exit_code_contract(built, tuples, target):
    root, _ = built
    run_quietly(["sieve", str(root / "ex2.json"), "--tuples", json.dumps(tuples),
                 "--target", str(target)])


DELTA_FLAGS = {
    "--random": st.integers(-3, 3),
    "--target": st.integers(-2, 5),
}


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_delta_system_flags_keep_the_exit_code_contract(data):
    argv = ["delta-system", "--seed", "7"]
    for flag, values in DELTA_FLAGS.items():
        value = data.draw(st.none() | values, label=flag)
        if value is not None:
            argv += [flag, str(value)]
    run_quietly(argv)


JSON_OBJECTS = st.recursive(
    JSON_SCALARS,
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2)
    ),
    max_leaves=6,
)
SET_LISTS = st.lists(st.lists(st.integers(-2, 5) | JSON_OBJECTS, max_size=4), max_size=5)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(sets=SET_LISTS | JSON_OBJECTS, target=st.integers(-1, 4))
def test_delta_system_sets_keep_the_exit_code_contract(sets, target):
    run_quietly(["delta-system", "--sets", json.dumps(sets), "--target", str(target)])


@pytest.fixture(scope="module")
def lin4(tmp_path_factory):
    return save_lin4(tmp_path_factory.mktemp("fuzz") / "lin4.json")


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(chain=st.lists(st.integers(-2, 6), max_size=5))
def test_probe_chain_keeps_the_exit_code_contract(lin4, chain):
    run_quietly(["probe-instability", lin4, "--phi", "lt",
                 "--chain=" + ",".join(map(str, chain))])
