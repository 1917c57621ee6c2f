import pytest
from hypothesis import given, settings, strategies as st

from conftest import eq3x3
from repsieve import Enrichment, FiniteStructure, trivial_enrichment, validate_enrichment
from repsieve.finstruct import qf_closure


def two_level():
    # 0,1,2 at the bottom; the rest point somewhere below
    return Enrichment.make(
        levels=[{0, 1, 2}, {3, 4, 5, 6, 7, 8}],
        functions={"down": {a: a % 3 for a in range(3, 9)}},
    )


class TestValidate:
    def test_valid_enrichment(self):
        assert validate_enrichment(eq3x3(), two_level()) == []

    def test_trivial_is_valid(self):
        s = eq3x3()
        enr = trivial_enrichment(s)
        assert validate_enrichment(s, enr) == []
        assert enr.levels == (frozenset(range(9)),)

    def test_missing_elements_reported(self):
        enr = Enrichment.make(levels=[{0, 1}], functions={})
        assert any("without a level" in p for p in validate_enrichment(eq3x3(), enr))

    def test_overlap_reported(self):
        enr = Enrichment.make(levels=[set(range(9)), {4}])
        assert any("assigned to levels" in p for p in validate_enrichment(eq3x3(), enr))

    def test_non_regressive_reported(self):
        enr = Enrichment.make(
            levels=[{0, 1, 2}, set(range(3, 9))],
            functions={"up": {0: 3}},
        )
        assert any("not regressive" in p for p in validate_enrichment(eq3x3(), enr))

    def test_level_to_itself_not_regressive(self):
        enr = Enrichment.make(levels=[set(range(9))], functions={"f": {4: 3}})
        assert any("not regressive" in p for p in validate_enrichment(eq3x3(), enr))

    def test_name_clash_reported(self):
        s = FiniteStructure.make(4, functions={"down": (1, {})})
        enr = Enrichment.make(levels=[{0, 1}, {2, 3}], functions={"down": {2: 0}})
        assert any("already used" in p for p in validate_enrichment(s, enr))


class TestApply:
    def test_level_relations_and_functions_added(self):
        s = eq3x3()
        enriched = two_level().apply(s)
        assert enriched.relation("level:0").tuples == frozenset({(0,), (1,), (2,)})
        assert enriched.relation("level:1").tuples == frozenset((e,) for e in range(3, 9))
        assert {f.name: f for f in enriched.functions}["down"].as_dict[(5,)] == 2
        assert enriched.relation("E") == s.relation("E")

    def test_closure_follows_regressive_chain(self):
        s = eq3x3()
        enriched = two_level().apply(s)
        assert qf_closure(enriched, [7]) == [7, 1]

    def test_invalid_enrichment_refused(self):
        with pytest.raises(ValueError, match="invalid enrichment"):
            Enrichment.make(levels=[{0}]).apply(eq3x3())


@given(st.integers(1, 7), st.data())
@settings(max_examples=50, deadline=None)
def test_random_regressive_enrichments_validate_and_apply(n, data):
    s = FiniteStructure.make(n)
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=3))) if n > 1 else []
    bounds = [0] + cuts + [n]
    levels = [set(range(bounds[i], bounds[i + 1])) for i in range(len(bounds) - 1)]
    level_of = {e: i for i, lv in enumerate(levels) for e in lv}
    graph = {}
    for e in range(n):
        if level_of[e] > 0:
            lower = [v for v in range(n) if level_of[v] < level_of[e]]
            graph[e] = data.draw(st.sampled_from(lower))
    enr = Enrichment.make(levels=levels, functions={"f": graph})
    assert validate_enrichment(s, enr) == []
    enriched = enr.apply(s)
    for e in range(n):
        cl = qf_closure(enriched, [e])
        assert len(cl) <= len(levels)
