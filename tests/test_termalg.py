import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repsieve import AlgebraSignature, Term, TermAlgebra, build_terms, termalg
from repsieve.finstruct import qf_closure


def sig(**arities):
    return AlgebraSignature.make(arities)


class TestTerm:
    def test_nullary_application_has_depth_zero(self):
        c = Term.app("c")
        assert c.depth == 0
        assert Term.app("F", (c,)).depth == 1

    def test_base_depth_zero(self):
        assert Term.of_base(0).depth == 0

    def test_depth_takes_max_over_children(self):
        x, c = Term.of_base(0), Term.app("c")
        g = Term.app("g", (Term.app("F", (x,)), c))
        assert g.depth == 2

    def test_render(self):
        x = Term.of_base(1)
        assert x.render() == "x1"
        assert Term.app("c").render() == "c"
        assert Term.app("g", (x, Term.app("c"))).render() == "g(x1, c)"

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            Term(sym=None, base=None)
        with pytest.raises(ValueError):
            Term(sym="f", base=0)

class TestBuildTerms:
    def test_single_nullary_no_base(self):
        assert build_terms(sig(c=0), 0, 0) == [Term.app("c")]

    def test_unary_tower(self):
        ts = build_terms(sig(F=1, c=0), 0, 2)
        c = Term.app("c")
        assert ts == [c, Term.app("F", (c,)), Term.app("F", (Term.app("F", (c,)),))]

    def test_unary_over_base_counts(self):
        assert len(build_terms(sig(F=1), 2, 1)) == 4
        assert len(build_terms(sig(F=1), 2, 2)) == 6

    def test_binary_counts(self):
        assert len(build_terms(sig(g=2), 2, 1)) == 6
        assert len(build_terms(sig(g=2), 2, 2)) == 38

    def test_deterministic_and_duplicate_free(self):
        a = build_terms(sig(g=2, F=1, c=0), 2, 2)
        b = build_terms(sig(g=2, F=1, c=0), 2, 2)
        assert a == b
        assert len(set(a)) == len(a)

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(termalg, "MAX_TERMS", 100)
        with pytest.raises(ValueError, match="exceeds 100 entries"):
            build_terms(sig(g=2), 3, 2)

    def test_cap_checked_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds 100000 entries at depth 0"):
                build_terms(sig(F=1, c=0), 500_000, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000, peak

    def test_stabilizes_without_generators(self):
        # no non-nullary symbols: depth bound is irrelevant
        assert len(build_terms(sig(c=0), 3, 5)) == 4


class TestTermAlgebra:
    def test_id_roundtrip(self):
        ta = TermAlgebra.build(sig(F=1, c=0), 2, 2)
        for i, t in enumerate(ta.terms):
            assert ta.term_id(t) == i
            assert ta.term(i) == t

    def test_structure_encodes_graph_as_relation(self):
        ta = TermAlgebra.build(sig(F=1), 1, 1)
        s = ta.as_structure
        assert s.size == 2
        x0, fx0 = Term.of_base(0), Term.app("F", (Term.of_base(0),))
        assert s.relation("app:F").tuples == frozenset({(ta.term_id(x0), ta.term_id(fx0))})
        (sub,) = s.functions
        assert sub.name == "sub:F:0"
        assert sub.as_dict == {(ta.term_id(fx0),): ta.term_id(x0)}

    def test_closure_is_subterm_closure_only(self):
        ta = TermAlgebra.build(sig(F=1), 1, 2)
        s = ta.as_structure
        x0 = ta.term_id(Term.of_base(0))
        # closing a base element must not invent applications
        assert qf_closure(s, [x0]) == [x0]
        ffx0 = ta.term_id(Term.app("F", (Term.app("F", (Term.of_base(0),)),)))
        assert set(qf_closure(s, [ffx0])) == {
            ffx0,
            ta.term_id(Term.app("F", (Term.of_base(0),))),
            x0,
        }

    def test_nullary_symbol_becomes_unary_relation(self):
        ta = TermAlgebra.build(sig(c=0), 0, 0)
        s = ta.as_structure
        assert s.relation("app:c").arity == 1
        assert s.relation("app:c").tuples == frozenset({(0,)})


@st.composite
def signatures(draw):
    n_syms = draw(st.integers(1, 3))
    names = [f"s{i}" for i in range(n_syms)]
    return AlgebraSignature.make({n: draw(st.integers(0, 2)) for n in names})


@given(signatures(), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=50, deadline=None)
def test_term_tables_are_closed_and_bounded(signature, base_size, max_depth):
    try:
        with mock.patch.object(termalg, "MAX_TERMS", 3000):
            ts = build_terms(signature, base_size, max_depth)
    except ValueError:
        return
    assert len(set(ts)) == len(ts)
    table = set(ts)
    for t in ts:
        assert t.depth <= max_depth
        stack = [t]  # preorder walk over every subterm
        while stack:
            sub = stack.pop()
            assert sub in table
            stack.extend(reversed(sub.args))


@given(signatures(), st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_structure_universe_matches_table(signature, base_size):
    try:
        with mock.patch.object(termalg, "MAX_TERMS", 2000):
            ta = TermAlgebra.build(signature, base_size, 1)
    except ValueError:
        return
    s = ta.as_structure
    assert s.size == len(ta)
    # every application row names a term in the table
    for name, k in signature:
        for row in s.relation(f"app:{name}").tuples:
            assert ta.term(row[-1]).sym == name
