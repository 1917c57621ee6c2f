"""Workspace document schema: round-trips and diagnostics."""

import json

import pytest

from repsieve import (
    FiniteStructure,
    RepresentationMap,
    TheorySpec,
    Workspace,
    WorkspaceError,
    build_layer_representation,
    build_sid,
    build_term_representation,
    parse_workspace,
    render_workspace,
    singleton_prefix,
    theory_oracle,
    trivial_enrichment,
)

from conftest import linear


def built_reps(tag, **params):
    spec = TheorySpec.make(tag, **params)
    d = build_sid(theory_oracle(spec))
    ex2 = build_term_representation(d)
    ex1 = build_layer_representation(singleton_prefix(d))
    return spec, ex2, ex1


def eq3x3_reps():
    return built_reps("eq_rel", classes=3, size=3)


def linear_identity(n):
    """The bench's probe shape: an identity map into a bare universe with
    the trivial enrichment."""
    bare = FiniteStructure.make(n)
    enr = trivial_enrichment(bare)
    return RepresentationMap.make(linear(n), enr.apply(bare), list(range(n)), enrichment=enr)


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
        # targets are rebuilt on load: for the builders' maps, and for the
        # identity into a bare universe that the benchmark's probe uses
        models = [
            ("eq_rel", {"classes": 3, "size": 3}),
            ("nested_eq_rel", {"sizes": (2, 2, 2)}),
            ("pure_set", {"n": 6}),
        ]
        for tag, params in models:
            _, ex2, ex1 = built_reps(tag, **params)
            ws = Workspace()
            ws.add_representation("ex2", ex2)
            ws.add_representation("ex1", ex1)
            ws.add_representation("id", linear_identity(4))
            text = render_workspace(ws)
            assert sorted(json.loads(text)["structures"]) == ["ex1.source", "ex2.source", "id.source"]
            ws2 = parse_workspace(text)
            assert render_workspace(ws2) == text
            assert ws2.representations["ex2"] == ex2
            assert ws2.representations["ex1"] == ex1
            assert ws2.representations["id"] == linear_identity(4)
            assert ws2.representations["ex2"].carrier == ex2.carrier

    def test_named_target_round_trips(self):
        r = linear_identity(3)
        r = RepresentationMap.make(r.source, r.target, r.f)
        ws = Workspace()
        ws.add_representation("id", r)
        text = render_workspace(ws)
        assert json.loads(text)["representations"]["id"]["target"] == "id.target"
        assert parse_workspace(text).representations["id"] == r

    def test_entries_share_a_source(self):
        text = doc(
            structures={"s": {"universe": 2}, "t": {"universe": 3}},
            representations={
                "a": {"source": "s", "target": "t", "map": [0, 1]},
                "b": {"source": "s", "target": "t", "map": [2, 2]},
            },
        )
        ws = parse_workspace(text)
        a, b = ws.representations["a"], ws.representations["b"]
        assert a.source == b.source == FiniteStructure.make(2)
        assert (a.f, b.f) == ((0, 1), (2, 2))
        # re-saving names each map's parts after the map
        assert sorted(json.loads(render_workspace(ws))["structures"]) == [
            "a.source", "a.target", "b.source", "b.target"
        ]

    def test_underived_target_not_stored(self):
        r = linear_identity(4)
        r = RepresentationMap.make(r.source, r.source, r.f, enrichment=r.enrichment)
        ws = Workspace()
        with pytest.raises(ValueError, match="representations.id: the target is not"):
            ws.add_representation("id", r)
        assert ws == Workspace()

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
        parse_err(doc(version=True), "version: expected an integer")
        parse_err(json.dumps({}), "version")

    def test_unknown_section(self):
        parse_err(doc(decompositions={}), "unknown field")
        parse_err(doc(structures=[]), "structures: expected an object")

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
        parse_err(
            doc(structures={"s": {"universe": 10**12}}),
            "structures.s.universe: 1000000000000 elements, more than the bound of 100000",
        )

    def test_function_graph_rows(self):
        parse_err(
            doc(structures={"s": {"universe": 2, "functions": [
                {"name": "g", "arity": 1, "graph": [[0, 1, 1]]}]}}),
            "does not fit arity",
        )

    @pytest.mark.parametrize(
        "overrides, needle",
        [
            (
                {"structures": {"s": {"universe": 2, "relations": [
                    {"name": "R", "arity": 1, "tuples": [[0]]},
                    {"name": "R", "arity": 1, "tuples": [[1]]}]}}},
                "structures.s.relations[1].name: duplicate name 'R'",
            ),
            (
                {"structures": {"s": {"universe": 2, "functions": [
                    {"name": "g", "arity": 1, "graph": [[0, 1]]},
                    {"name": "g", "arity": 1, "graph": [[1, 0]]}]}}},
                "structures.s.functions[1].name: duplicate name 'g'",
            ),
            (
                {"structures": {"t": {"universe": 2, "functions": [
                    {"name": "g", "arity": 1, "graph": [[0, 1], [0, 0]]}]}}},
                "structures.t.functions[0].graph[1]: arguments [0] already map to 1",
            ),
            (
                {"signatures": {"c": {"symbols": [
                    {"name": "F", "arity": 1}, {"name": "F", "arity": 2}], "base": 1, "depth": 1}}},
                "signatures.c.symbols[1].name: duplicate name 'F'",
            ),
            (
                {"enrichments": {"e": {"levels": [[0], [1]], "unary_fns": [
                    {"name": "d", "graph": [[1, 0]]}, {"name": "d", "graph": []}]}}},
                "enrichments.e.unary_fns[1].name: duplicate name 'd'",
            ),
            (
                {"enrichments": {"e": {"levels": [[0, 1], [2]], "unary_fns": [
                    {"name": "d", "graph": [[2, 0], [2, 1]]}]}}},
                "enrichments.e.unary_fns[0].graph[1]: arguments [2] already map to 0",
            ),
        ],
        ids=[
            "relation-name", "function-name", "function-row",
            "symbol-name", "enrichment-function-name", "enrichment-row",
        ],
    )
    def test_duplicates_rejected(self, overrides, needle):
        parse_err(doc(**overrides), needle)

    def test_repeated_identical_rows_accepted(self):
        ws = parse_workspace(doc(
            structures={"s": {"universe": 2, "functions": [
                {"name": "g", "arity": 1, "graph": [[0, 1], [0, 1]]}]}},
            enrichments={"e": {"levels": [[0], [1]], "unary_fns": [
                {"name": "d", "graph": [[1, 0], [1, 0]]}]}},
        ))
        assert ws == Workspace()

    def test_enrichment_partition(self):
        parse_err(
            doc(enrichments={"e": {"levels": [[0, 2]], "unary_fns": []}}),
            "partition",
        )
        parse_err(
            doc(enrichments={"e": {"carrier": 2, "levels": [[0, 1]], "unary_fns": []}}),
            "enrichments.e: unknown field 'carrier'",
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
                representations={"r": {"source": "s", "map": [0], "carrier": "missing"}},
            ),
            "unresolved signature",
        )
        parse_err(
            doc(
                structures={"s": {"universe": 1}},
                representations={"r": {"source": "s", "map": [0], "enrichment": "missing"}},
            ),
            "unresolved enrichment",
        )
        parse_err(
            doc(
                structures={"s": {"universe": 1}},
                representations={"r": {"source": "s", "map": [0]}},
            ),
            "representations.r.target: missing",
        )
        parse_err(
            doc(
                structures={"s": {"universe": 1}},
                enrichments={"e": {"levels": [[0]], "unary_fns": []}},
                representations={"r": {"source": "s", "target": "s", "map": [0],
                                       "enrichment": "e"}},
            ),
            "representations.r.target: not allowed beside",
        )
        parse_err(
            doc(
                structures={"s": {"universe": 1}},
                representations={"r": {"source": ["s"], "target": "s", "map": [0]}},
            ),
            "representations.r.source: expected a string",
        )

    def test_theory_tag(self):
        parse_err(doc(theories={"t": {"tag": "dense", "params": {}}}), "theories.t")
        parse_err(doc(theories={"t": {"tag": "eq_rel", "params": [3, 3]}}), "theories.t.params")
