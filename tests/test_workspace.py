"""Workspace document schema: round-trips and diagnostics."""

import json

import pytest

from repsieve import (
    FiniteStructure,
    TheorySpec,
    Workspace,
    WorkspaceError,
    build_layer_representation,
    build_sid,
    build_term_representation,
    desk_model,
    parse_workspace,
    render_workspace,
    singleton_prefix,
    theory_oracle,
)


def eq3x3_reps():
    spec = TheorySpec.make("eq_rel", classes=3, size=3)
    m = desk_model(spec)
    o = theory_oracle(spec, m)
    d = build_sid(o, m)
    ex2 = build_term_representation(o, m, d)
    ex1 = build_layer_representation(o, m, singleton_prefix(d))
    return spec, ex2, ex1


def full_workspace():
    spec, ex2, ex1 = eq3x3_reps()
    ws = Workspace()
    ws.theories["eq3x3"] = spec
    ws.theories["nested"] = TheorySpec.make("nested_eq_rel", sizes=(2, 2, 2))
    ws.add_representation("ex2", ex2)
    ws.add_representation("ex1", ex1)
    return ws


class TestRoundTrip:
    def test_empty(self):
        ws = Workspace()
        assert parse_workspace(render_workspace(ws)) == ws

    def test_full(self):
        ws = full_workspace()
        text = render_workspace(ws)
        ws2 = parse_workspace(text)
        assert ws2 == ws
        assert render_workspace(ws2) == text

    def test_resolution_matches_originals(self):
        spec, ex2, ex1 = eq3x3_reps()
        ws = Workspace()
        ws.add_representation("ex2", ex2)
        ws.add_representation("ex1", ex1)
        ws2 = parse_workspace(render_workspace(ws))
        assert ws2.representation("ex2") == ex2
        assert ws2.representation("ex1") == ex1
        assert ws2.representation("ex2").carrier == ex2.carrier

    def test_theory_params_refreeze(self):
        ws = Workspace()
        ws.theories["n"] = TheorySpec.make("nested_eq_rel", sizes=(2, 3))
        ws2 = parse_workspace(render_workspace(ws))
        assert ws2.theories["n"].param("sizes") == (2, 3)

    def test_render_deterministic(self):
        a, b = render_workspace(full_workspace()), render_workspace(full_workspace())
        assert a == b


def parse_err(text, needle):
    with pytest.raises(WorkspaceError) as exc:
        parse_workspace(text)
    assert needle in str(exc.value), str(exc.value)


def doc(**overrides):
    base = {"version": 1}
    base.update(overrides)
    return json.dumps(base)


class TestDiagnostics:
    def test_bad_json(self):
        parse_err("{nope", "line 1")

    def test_version(self):
        parse_err(doc(version=7), "version")
        parse_err(json.dumps({}), "version")

    def test_unknown_section(self):
        parse_err(doc(decompositions={}), "unknown field")

    def test_structure_fields(self):
        parse_err(doc(structures={"s": {}}), "structures.s: missing field 'universe'")
        parse_err(
            doc(structures={"s": {"universe": 2, "relations": [{"name": "E"}]}}),
            "structures.s.relations[0]",
        )
        parse_err(
            doc(structures={"s": {"universe": 2, "relations": [
                {"name": "E", "arity": 2, "tuples": [[0, 5]]}]}}),
            "outside universe",
        )

    def test_function_graph_rows(self):
        parse_err(
            doc(structures={"s": {"universe": 2, "functions": [
                {"name": "g", "arity": 1, "graph": [[0, 1, 1]]}]}}),
            "does not fit arity",
        )

    def test_enrichment_partition(self):
        parse_err(
            doc(enrichments={"e": {"carrier": 3, "levels": [[0, 1]], "unary_fns": []}}),
            "partition",
        )

    def test_representation_references(self):
        parse_err(
            doc(representations={"r": {"source": "a", "target": "b", "map": []}}),
            "unresolved reference",
        )
        parse_err(
            doc(
                structures={"s": {"universe": 2}},
                representations={"r": {"source": "s", "target": "s", "map": [0]}},
            ),
            "map has 1 entries",
        )
        parse_err(
            doc(
                structures={"s": {"universe": 2}},
                representations={"r": {"source": "s", "target": "s", "map": [0, 9]}},
            ),
            "outside the target universe",
        )
        parse_err(
            doc(
                structures={"s": {"universe": 2}},
                representations={"r": {"source": "s", "target": "s", "map": 2}},
            ),
            "representations.r: map is not a list",
        )
        parse_err(
            doc(
                structures={"s": {"universe": 1}},
                representations={"r": {"source": "s", "target": "s", "map": [0],
                                       "carrier": "missing"}},
            ),
            "unresolved signature",
        )

    def test_theory_tag(self):
        parse_err(doc(theories={"t": {"tag": "dense", "params": {}}}), "theories.t")
        parse_err(doc(theories={"t": {"tag": "eq_rel", "params": [3, 3]}}), "theories.t.params")

    def test_resolution_of_unknown_entry(self):
        ws = parse_workspace(doc())
        with pytest.raises(WorkspaceError):
            ws.representation("ghost")
