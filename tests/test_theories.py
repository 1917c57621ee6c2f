"""Catalog models, independence oracles, layered decompositions, and the
two representation builders."""

import itertools
import math
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repsieve.enrich import validate_enrichment
from repsieve.finstruct import (
    FiniteStructure,
    automorphism_extending,
    verify_indiscernible,
)
from repsieve.represent import CheckerPolicy, check_representation
from repsieve import termalg
from repsieve.termalg import Term
from repsieve.theories import (
    Decomposition,
    IndependenceOracle,
    TheorySpec,
    _levels,
    _max_indiscernible,
    build_layer_representation,
    build_sid,
    build_term_representation,
    check_strongly_independent,
    desk_model,
    singleton_prefix,
    theory_oracle,
    verify_decomposition,
)

from reference import (
    all_extensions,
    exchange_law,
    max_indiscernible_by_representatives,
    transitivity_law,
)
from test_orbits import SEEDS, random_structure

LEN3 = CheckerPolicy(max_tuple_len=3)


_CATALOG_CACHE = {}


def catalog(tag, **params):
    # shared immutable models keep the per-structure type memos warm
    key = (tag, tuple(sorted(params.items())))
    if key not in _CATALOG_CACHE:
        spec = TheorySpec.make(tag, **params)
        o = theory_oracle(spec)
        _CATALOG_CACHE[key] = (o.model, o)
    return _CATALOG_CACHE[key]


def eq3x3():
    return catalog("eq_rel", classes=3, size=3)


def nested222():
    return catalog("nested_eq_rel", sizes=(2, 2, 2))


def pure5():
    return catalog("pure_set", n=5)


def eq2x3():
    return catalog("eq_rel", classes=2, size=3)


def same_type_over(m, a, b, pinned):
    pins = tuple(sorted(pinned))
    return automorphism_extending(m, pins + (a,), pins + (b,)) is not None


class TestCatalogModels:
    def test_eq_rel_shape(self):
        m, _ = eq3x3()
        assert m.size == 9
        rel = m.relation("E")
        assert rel.arity == 2 and len(rel.tuples) == 27
        assert (0, 2) in rel.tuples and (2, 3) not in rel.tuples

    def test_nested_blocks(self):
        m, _ = nested222()
        assert m.size == 8
        coarse, fine = m.relation("E0"), m.relation("E1")
        assert len(coarse.tuples) == 32 and len(fine.tuples) == 16
        assert (0, 3) in coarse.tuples and (0, 3) not in fine.tuples
        assert (6, 7) in fine.tuples

    def test_pure_set_and_linear(self):
        m = desk_model(TheorySpec.make("pure_set", n=5))
        assert m.size == 5 and not m.relations
        lin = desk_model(TheorySpec.make("linear_order", n=4))
        assert (1, 3) in lin.relation("lt").tuples
        assert (3, 1) not in lin.relation("lt").tuples

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TheorySpec.make("dense_order", n=3)
        with pytest.raises(ValueError):
            desk_model(TheorySpec.make("nested_eq_rel", sizes=(4,)))
        spec = TheorySpec.make("eq_rel", classes=2, size=3)
        assert spec.param("classes") == 2
        # an entry built around make's check still names the tag
        stray = TheorySpec("dense_order", ())
        with pytest.raises(ValueError, match="unknown catalog tag 'dense_order'"):
            desk_model(stray)
        with pytest.raises(ValueError, match="unknown catalog tag 'dense_order'"):
            theory_oracle(stray)

    def test_list_params_normalise_to_tuples(self):
        listed = TheorySpec.make("nested_eq_rel", sizes=[2, 2, 2])
        spec = TheorySpec.make("nested_eq_rel", sizes=(2, 2, 2))
        assert listed == spec and hash(listed) == hash(spec)
        assert listed.param("sizes") == (2, 2, 2)

    @pytest.mark.parametrize("levels", [65, 200_000])
    def test_level_bound_checked_before_building(self, levels):
        sizes = [1] * levels
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(
                ValueError, match=f"^params.sizes: {levels} levels, more than the bound of 64$"
            ):
                TheorySpec.make("nested_eq_rel", sizes=sizes)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.5, elapsed
        assert peak < 1_000_000, peak

    def test_level_bound_admits_the_largest_chain_under_it(self):
        m = desk_model(TheorySpec.make("nested_eq_rel", sizes=[1] * 64))
        assert m.size == 1 and len(m.relations) == 63

    def test_catalog_columns_agree(self):
        # every spec of at most 16 elements: the size make bounds is the desk
        # model's, and a stable entry's oracle levels are the model's
        # relations, finest first
        specs = [TheorySpec.make(tag, n=n) for tag in ("pure_set", "linear_order")
                 for n in range(1, 17)]
        specs += [TheorySpec.make("eq_rel", classes=c, size=s)
                  for c in range(1, 17) for s in range(1, 17 // c + 1)]
        specs += [TheorySpec.make("nested_eq_rel", sizes=sizes)
                  for k in (2, 3, 4) for sizes in itertools.product(range(1, 17), repeat=k)
                  if math.prod(sizes) <= 16]
        for spec in specs:
            m = desk_model(spec)
            assert math.prod(_levels(spec)[1]) == m.size, spec
            if spec.tag == "linear_order":
                with pytest.raises(NotImplementedError):
                    theory_oracle(spec)
                continue
            o = theory_oracle(spec)
            assert o.model == m
            assert sorted(o.level_names) == sorted(r.name for r in m.relations), spec
            pairs = [len(m.relation(name).tuples) for name in o.level_names]
            assert pairs == sorted(pairs), spec
        assert len(specs) == 447


class TestOracle:
    def test_forks_pins_an_element(self):
        m, o = eq3x3()
        assert o.forks(0, {0, 3}, {3})
        assert not o.forks(0, {0, 3}, {0, 3})

    def test_forks_pins_a_class(self):
        m, o = eq3x3()
        # 1's class meets {0} but not the base
        assert o.forks(1, {0, 3}, {3})
        assert not o.forks(1, {0, 3}, {0, 3})
        assert not o.forks(1, {3, 6}, set())

    def test_nested_levels_fork_independently(self):
        m, o = nested222()
        # 1 shares the fine class with 0 and the coarse class with 2
        assert o.forks(1, {0}, set()) and o.forks(1, {2}, set())
        assert o.forks(1, {0, 2}, {2})  # fine class still unpinned
        assert not o.forks(1, {0, 2}, {0})  # fine pin anchors both levels

    def test_base_prefers_finest_anchor(self):
        m, o = nested222()
        assert o.base(1, {0, 2, 4}) == (0,)
        assert o.base(1, {2, 4}) == (2,)
        assert o.base(1, {4}) == ()
        assert o.base(1, {1, 0}) == (1,)

    def test_canonical_params(self):
        m, o = eq3x3()
        assert o.canonical_params("E", 4, [0, 1, 2, 3, 6]) == (3, 3)
        assert o.canonical_params("E", 3, [0, 1, 2]) == (0, 1)
        with pytest.raises(ValueError):
            o.canonical_params("E", 4, [0])
        with pytest.raises(ValueError):
            o.canonical_params("lt", 4, [0, 1])

    def test_unstable_entry_refuses(self):
        spec = TheorySpec.make("linear_order", n=4)
        with pytest.raises(NotImplementedError, match="unstable catalog entry"):
            theory_oracle(spec)

    def test_level_names_finest_first(self):
        _, o = nested222()
        assert o.level_names == ("E1", "E0")

    def test_oracle_requires_binary_levels(self):
        m = FiniteStructure.make(3, relations={"P": (1, {(0,)})})
        with pytest.raises(ValueError):
            IndependenceOracle(m, ("P",))

    @pytest.mark.parametrize(
        "pairs",
        [
            {(0, 0), (1, 1)},  # not reflexive on 2
            {(0, 0), (1, 1), (2, 2), (0, 1)},  # not symmetric
            {(x, x) for x in range(3)} | {(0, 1), (1, 0), (1, 2), (2, 1)},  # not transitive
        ],
        ids=["reflexive", "symmetric", "transitive"],
    )
    def test_oracle_requires_equivalence_relations(self, pairs):
        m = FiniteStructure.make(3, relations={"E": (2, pairs)})
        with pytest.raises(ValueError, match="^E is not an equivalence relation$"):
            IndependenceOracle(m, ("E",))

    def test_oracle_requires_each_level_to_refine_the_next(self):
        # with crossing levels, omega-stable build_sid finds no element to
        # start a layer, and generic mode's layers pass verify_decomposition
        def classes(*blocks):
            return (2, {(x, y) for b in blocks for x in b for y in b})

        m = FiniteStructure.make(
            4, relations={"E0": classes({0, 1}, {2, 3}), "E1": classes({0, 2}, {1, 3})}
        )
        with pytest.raises(ValueError, match="^E0 does not refine E1$"):
            IndependenceOracle(m, ("E0", "E1"))
        _, o = nested222()
        with pytest.raises(ValueError, match="^E0 does not refine E1$"):
            IndependenceOracle(o.model, ("E0", "E1"))  # coarsest first


class TestStrongIndependence:
    def test_generic_pair_over_first_class(self):
        m, o = eq3x3()
        assert check_strongly_independent(o, {3, 6}, {0, 1, 2})

    def test_classmates_fail_without_anchor(self):
        m, o = eq3x3()
        assert not check_strongly_independent(o, {3, 4}, {0, 1, 2})

    def test_empty_set_is_independent(self):
        m, o = eq3x3()
        assert check_strongly_independent(o, set(), {0, 1})

    def test_overlap_rejected(self):
        m, o = eq3x3()
        with pytest.raises(ValueError):
            check_strongly_independent(o, {0, 3}, {0})

    def test_anchored_classmates_pass(self):
        m, o = eq3x3()
        assert check_strongly_independent(o, {4, 5}, {0, 1, 2, 3, 6})


class TestUniquenessCrossCheck:
    """The oracle equates uniqueness with not-forking; this checks that
    against a direct search for rival extensions realised in the model."""

    def honest(self, o, m, a, big, small):
        if o.forks(a, big, small):
            return False
        for b in range(m.size):
            if b == a:
                continue
            if not same_type_over(m, a, b, small):
                continue
            if same_type_over(m, a, b, big):
                continue
            if not o.forks(b, big, small):
                return False
        return True

    @pytest.mark.parametrize("make", [eq3x3, nested222, pure5, eq2x3])
    def test_exhaustive_small_bases(self, make):
        m, o = make()
        elems = range(m.size)
        sets = [
            frozenset(c)
            for k in range(3)
            for c in itertools.combinations(elems, k)
        ]
        for a in elems:
            for big in sets:
                for k in range(len(big) + 1):
                    for small in itertools.combinations(sorted(big), k):
                        small = frozenset(small)
                        assert (not o.forks(a, big, small)) == self.honest(
                            o, m, a, set(big), set(small)
                        ), (a, sorted(big), sorted(small))


class TestAutomorphismInvariance:
    def test_boolean_answers_invariant(self):
        m, o = eq3x3()
        autos = list(itertools.islice(all_extensions(m, tuple(range(9))), 60))
        cases = [
            (4, {0, 3, 6}, {3}),
            (4, {0, 3}, set()),
            (0, {0, 1}, {1}),
            (7, {3, 4, 6}, {6}),
            (2, {0, 1}, {0, 1}),
        ]
        for h in autos:
            for a, big, small in cases:
                ha, hbig, hsmall = h[a], {h[x] for x in big}, {h[x] for x in small}
                assert o.forks(a, big, small) == o.forks(ha, hbig, hsmall)

    def test_base_property_invariant(self):
        # the chosen base element can move, but the image of a valid base
        # stays a valid base of the moved question
        m, o = eq3x3()
        autos = list(itertools.islice(all_extensions(m, tuple(range(9))), 40))
        for h in autos:
            for a in range(9):
                for big in [{0, 3, 6}, {1, 2}, {5, 7}, set()]:
                    b = o.base(a, big)
                    hb = tuple(sorted(h[x] for x in b))
                    ha, hbig = h[a], {h[x] for x in big}
                    assert len(o.base(ha, hbig)) == len(b)
                    if b:
                        assert not o.forks(ha, hbig, set(hb))


class TestSymmetry:
    """Two laws of forking, checked exhaustively on small bases: exchange
    symmetry and transitivity (see ``reference.exchange_law`` and
    ``reference.transitivity_law``)."""

    EXCHANGE_CASES = {"eq3x3": 2088, "nested222": 1232}
    TRANSITIVITY_CASES = {"eq3x3": 23_580, "nested222": 14_312}

    @pytest.mark.parametrize("make", [eq3x3, nested222])
    def test_exhaustive_pairs(self, make):
        _, o = make()
        cases, failures = exchange_law(o)
        assert cases == self.EXCHANGE_CASES[make.__name__]
        assert failures == []

    @pytest.mark.parametrize("make", [eq3x3, nested222])
    def test_exhaustive_transitivity(self, make):
        _, o = make()
        cases, failures = transitivity_law(o)
        assert cases == self.TRANSITIVITY_CASES[make.__name__]
        assert failures == []


class TestBuildSid:
    def test_eq3x3_layers(self):
        m, o = eq3x3()
        d = build_sid(o, "omega_stable")
        assert d.layers == ((0, 1, 2), (3, 6), (4, 5, 7, 8))
        assert d.records[3].base == () and d.records[4].base == (3,)
        assert d.records[7].base == (6,)
        assert [d.records[a].copy_index for a in (4, 5, 7, 8)] == [0, 1, 0, 1]

    def test_eq3x3_generic_layers(self):
        m, o = eq3x3()
        d = build_sid(o, "generic")
        assert d.layers == ((0, 3, 6), (1, 2, 4, 5, 7, 8))
        assert d.mode == "generic"

    def test_nested_layers(self):
        m, o = nested222()
        d = build_sid(o, "omega_stable")
        assert d.layers == ((0, 1), (2, 4), (3, 5, 6), (7,))
        assert d.records[2].base == (0,)
        assert d.records[4].base == ()
        assert d.records[7].base == (6,)

    def test_small_eq_layers(self):
        shapes = {
            (2, 2): ((0, 1), (2,), (3,)),
            (2, 3): ((0, 1, 2), (3,), (4, 5)),
            (3, 2): ((0, 2, 4), (1, 3, 5)),
        }
        for (classes, size), want in shapes.items():
            m, o = catalog("eq_rel", classes=classes, size=size)
            assert build_sid(o).layers == want

    def test_pure_set_single_layer(self):
        m, o = catalog("pure_set", n=6)
        d = build_sid(o)
        assert d.layers == ((0, 1, 2, 3, 4, 5),)
        assert all(d.records[a].base == () for a in range(6))

    def test_singleton_model(self):
        m, o = catalog("pure_set", n=1)
        assert build_sid(o).layers == ((0,),)

    def test_partner_classes(self):
        m, o = catalog("eq_rel", classes=9, size=2)
        d = build_sid(o)
        assert d.layers == (tuple(range(0, 18, 2)), tuple(range(1, 18, 2)))
        assert d.records[1].base == (0,) and d.records[17].base == (16,)

    def test_layers_partition_and_verify(self):
        for tag, kw in [
            ("eq_rel", dict(classes=3, size=3)),
            ("eq_rel", dict(classes=2, size=3)),
            ("nested_eq_rel", dict(sizes=(2, 2, 2))),
            ("pure_set", dict(n=6)),
        ]:
            m, o = catalog(tag, **kw)
            for mode in ("generic", "omega_stable"):
                d = build_sid(o, mode)
                flat = sorted(x for layer in d.layers for x in layer)
                assert flat == list(range(m.size))
                assert verify_decomposition(d) == []

    def test_first_layer_indiscernible(self):
        for tag, kw in [
            ("eq_rel", dict(classes=3, size=3)),
            ("nested_eq_rel", dict(sizes=(2, 2, 2))),
            ("pure_set", dict(n=6)),
        ]:
            m, o = catalog(tag, **kw)
            first = build_sid(o).layers[0]
            singles = [(e,) for e in first]
            assert verify_indiscernible(m, singles, range(len(first)))

    def test_deterministic(self):
        m, o = eq3x3()
        d1, d2 = build_sid(o), build_sid(o)
        assert d1.layers == d2.layers and d1.records == d2.records

    def test_bad_mode(self):
        m, o = eq3x3()
        with pytest.raises(ValueError):
            build_sid(o, "superstable")


class TestRefine:
    def test_singleton_prefix_shapes(self):
        m, o = eq3x3()
        d = singleton_prefix(build_sid(o))
        assert d.layers == ((0,), (1,), (2,), (3, 6), (4, 5, 7, 8))
        assert singleton_prefix(d).layers == d.layers
        m6, o6 = catalog("pure_set", n=6)
        assert singleton_prefix(build_sid(o6)).layers == ((0,), (1,), (2, 3, 4, 5))

    def test_records_follow_new_boundaries(self):
        m, o = eq3x3()
        d = build_sid(o)
        assert d.records[2].base == ()
        d2 = singleton_prefix(d)
        # 2 now sits above {0, 1}, so its class is anchored below
        assert d2.records[2].base == (0,)
        assert d2.records[2].layer == 2

    def test_singleton_prefix_needs_two_elements(self):
        m, o = catalog("pure_set", n=1)
        with pytest.raises(ValueError):
            singleton_prefix(build_sid(o))


def term_c(tag, k=None):
    name = f"c[{tag}]" if k is None else f"c[{tag},{k}]"
    return Term.app(name, ())


def term_f(tag, k, *args):
    name = f"F[{tag}]" if k is None else f"F[{tag},{k}]"
    return Term.app(name, tuple(args))


class TestTermRepresentation:
    def test_eq3x3_assignments(self):
        m, o = eq3x3()
        d = build_sid(o)
        r = build_term_representation(d)
        ta = r.carrier
        want = {
            0: Term.of_base(0),
            1: Term.of_base(1),
            2: Term.of_base(2),
            3: term_c("t0", 0),
            6: term_c("t0", 1),
            4: term_f("t1", 0, term_c("t0", 0)),
            5: term_f("t1", 1, term_c("t0", 0)),
            7: term_f("t1", 0, term_c("t0", 1)),
            8: term_f("t1", 1, term_c("t0", 1)),
        }
        for a, t in want.items():
            assert r.f[a] == ta.term_id(t), a

    def test_eq3x3_checks_clean(self):
        m, o = eq3x3()
        r = build_term_representation(build_sid(o))
        report = check_representation(r, LEN3)
        assert report.empty and report.checked > 300

    def test_literal_mode_collapses_siblings(self):
        m, o = eq3x3()
        r = build_term_representation(build_sid(o), "literal")
        assert r.f[4] == r.f[5]
        report = check_representation(r, LEN3)
        assert not report.empty
        assert ((4, 5), (4, 4)) in report.entries

    def test_nested_assignments(self):
        m, o = nested222()
        r = build_term_representation(build_sid(o))
        ta = r.carrier
        x0, x1 = Term.of_base(0), Term.of_base(1)
        f2 = term_f("t1", 0, x0)
        f4 = term_c("t0", 0)
        want = {
            0: x0,
            1: x1,
            2: f2,
            3: term_f("t2", 0, f2),
            4: f4,
            5: term_f("t2", 0, f4),
            6: term_f("t1", 0, f4),
            7: term_f("t2", 0, term_f("t1", 0, f4)),
        }
        for a, t in want.items():
            assert r.f[a] == ta.term_id(t), a
        assert len(ta) == 21
        assert check_representation(r, LEN3).empty

    def test_partner_symbol_shared(self):
        m, o = catalog("eq_rel", classes=9, size=2)
        r = build_term_representation(build_sid(o))
        ta = r.carrier
        syms = {ta.term(r.f[a]).sym for a in range(1, 18, 2)}
        assert syms == {"F[t1,0]"}

    def test_pure_set_is_a_bijection(self):
        m, o = catalog("pure_set", n=6)
        r = build_term_representation(build_sid(o))
        assert sorted(r.f) == list(range(6))
        assert not dict(r.carrier.signature.symbols)

    def test_generic_mode_rejected(self):
        m, o = eq3x3()
        d = build_sid(o, "generic")
        with pytest.raises(ValueError):
            build_term_representation(d)

    def test_term_table_overflow(self, monkeypatch):
        m, o = eq3x3()
        d = build_sid(o)
        monkeypatch.setattr(termalg, "MAX_TERMS", 5)
        with pytest.raises(ValueError, match="exceeds 5 entries"):
            build_term_representation(d)

    def test_deterministic(self):
        m, o = nested222()
        d = build_sid(o)
        r1 = build_term_representation(d)
        r2 = build_term_representation(d)
        assert r1.f == r2.f
        assert r1.carrier.terms == r2.carrier.terms


class TestLayerRepresentation:
    def test_eq3x3_functions(self):
        m, o = eq3x3()
        d = singleton_prefix(build_sid(o))
        r = build_layer_representation(d)
        fns = {f.name: {a: v for (a,), v in f.as_dict.items()} for f in r.enrichment.functions}
        assert fns["F[E,0]"] == {2: 0, 3: 0, 4: 3, 5: 3, 6: 0, 7: 6, 8: 6}
        assert fns["F[E,1]"] == {2: 0, 3: 1, 4: 3, 5: 3, 6: 1, 7: 6, 8: 6}
        assert fns["F*0"] == {2: 0, 4: 3, 5: 3, 7: 6, 8: 6}
        assert list(r.f) == list(range(9))
        assert [set(level) for level in r.enrichment.levels] == [
            set(layer) for layer in d.layers
        ]

    def test_eq3x3_checks_clean(self):
        m, o = eq3x3()
        r = build_layer_representation(singleton_prefix(build_sid(o)))
        assert validate_enrichment(FiniteStructure.make(9), r.enrichment) == []
        report = check_representation(r, LEN3)
        assert report.empty and report.checked > 400

    def test_nested_checks_clean(self):
        m, o = nested222()
        r = build_layer_representation(singleton_prefix(build_sid(o)))
        assert check_representation(r, LEN3).empty

    def test_pure_set_has_no_functions(self):
        m, o = catalog("pure_set", n=6)
        r = build_layer_representation(singleton_prefix(build_sid(o)))
        assert r.enrichment.functions == ()
        assert check_representation(r, LEN3).empty

    def test_requires_singleton_prefix(self):
        m, o = eq3x3()
        d = build_sid(o)
        with pytest.raises(ValueError):
            build_layer_representation(d)


SMALL_SPECS = [
    ("eq_rel", dict(classes=2, size=2)),
    ("eq_rel", dict(classes=2, size=3)),
    ("eq_rel", dict(classes=3, size=2)),
    ("eq_rel", dict(classes=3, size=3)),
    ("eq_rel", dict(classes=4, size=2)),
    ("nested_eq_rel", dict(sizes=(2, 2))),
    ("nested_eq_rel", dict(sizes=(2, 3))),
    ("nested_eq_rel", dict(sizes=(3, 2))),
    ("nested_eq_rel", dict(sizes=(2, 2, 2))),
    ("pure_set", dict(n=1)),
    ("pure_set", dict(n=4)),
    ("pure_set", dict(n=8)),
]


@settings(deadline=None, max_examples=24)
@given(pick=st.sampled_from(SMALL_SPECS), mode=st.sampled_from(["generic", "omega_stable"]))
def test_decompositions_are_sound(pick, mode):
    tag, kw = pick
    m, o = catalog(tag, **kw)
    d = build_sid(o, mode)
    assert sorted(x for layer in d.layers for x in layer) == list(range(m.size))
    assert verify_decomposition(d) == []
    for idx, layer in enumerate(d.layers):
        for a in layer:
            assert set(d.records[a].base) <= set(d.below(idx))


@settings(deadline=None, max_examples=16)
@given(pick=st.sampled_from(SMALL_SPECS))
def test_term_builds_represent(pick):
    tag, kw = pick
    m, o = catalog(tag, **kw)
    r = build_term_representation(build_sid(o))
    assert check_representation(r, CheckerPolicy(max_tuple_len=2)).empty


@settings(deadline=None, max_examples=16)
@given(pick=st.sampled_from([p for p in SMALL_SPECS if p[1] != dict(n=1)]))
def test_layer_builds_represent(pick):
    tag, kw = pick
    m, o = catalog(tag, **kw)
    r = build_layer_representation(singleton_prefix(build_sid(o)))
    assert check_representation(r, CheckerPolicy(max_tuple_len=2)).empty


@pytest.mark.parametrize(
    "tag, kw",
    SMALL_SPECS + [
        ("eq_rel", dict(classes=5, size=4)),
        ("nested_eq_rel", dict(sizes=(2, 3, 2))),
        ("nested_eq_rel", dict(sizes=(3, 3, 3))),
        ("pure_set", dict(n=12)),
        ("linear_order", dict(n=6)),
    ],
)
def test_first_layer_matches_the_representative_loop_on_the_catalog(tag, kw):
    # two models, so that the loop's queries search instead of reading the table
    spec = TheorySpec.make(tag, **kw)
    assert _max_indiscernible(desk_model(spec)) == max_indiscernible_by_representatives(desk_model(spec))


@pytest.mark.parametrize("seed", SEEDS)
def test_first_layer_matches_the_representative_loop_on_seeded_structures(seed):
    assert _max_indiscernible(random_structure(seed)) == max_indiscernible_by_representatives(
        random_structure(seed)
    )
