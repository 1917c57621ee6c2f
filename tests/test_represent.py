import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import eq3x3, linear
from repsieve import (
    AlgebraSignature,
    CheckerPolicy,
    FiniteStructure,
    RepresentationMap,
    Term,
    TermAlgebra,
    check_by_partial_automorphisms,
    check_representation,
    qf_type,
    trivial_enrichment,
    type_equal,
)


def pure_target(n):
    base = FiniteStructure.make(n)
    return trivial_enrichment(base).apply(base)


def term_target(signature, base_size, depth):
    ta = TermAlgebra.build(signature, base_size, depth)
    target = trivial_enrichment(ta.as_structure).apply(ta.as_structure)
    return ta, target


def one_per_class_rep(split_siblings):
    """EQ3x3 into a depth-1 term table: class representatives 0,3,6 become
    base elements, the other two members of each class become applications.
    With split_siblings the two siblings get distinct symbols; without, they
    collapse onto the same term."""
    src = eq3x3()
    if split_siblings:
        signature = AlgebraSignature.make({"F0": 1, "F1": 1})
        syms = ["F0", "F1"]
    else:
        signature = AlgebraSignature.make({"F": 1})
        syms = ["F", "F"]
    ta, target = term_target(signature, 3, 1)
    x = [Term.of_base(i) for i in range(3)]
    f = {}
    for cls in range(3):
        rep, m1, m2 = 3 * cls, 3 * cls + 1, 3 * cls + 2
        f[rep] = ta.term_id(x[cls])
        f[m1] = ta.term_id(Term.app(syms[0], (x[cls],)))
        f[m2] = ta.term_id(Term.app(syms[1], (x[cls],)))
    return RepresentationMap.make(src, target, f, carrier=ta)


class TestRepresentationMap:
    def test_valid_map_passes(self):
        assert one_per_class_rep(True).validate() == []

    def test_unclosed_range_detected(self):
        ta, target = term_target(AlgebraSignature.make({"F": 1}), 1, 1)
        fx = ta.term_id(Term.app("F", (Term.of_base(0),)))
        r = RepresentationMap.make(FiniteStructure.make(1), target, {0: fx}, carrier=ta)
        assert any("not closed" in p for p in r.validate())
        with pytest.raises(ValueError, match="not closed"):
            check_representation(r)

    @pytest.mark.parametrize("image", [5, -1], ids=["past-the-universe", "negative"])
    def test_image_outside_the_target_reported(self, image):
        r = RepresentationMap.make(FiniteStructure.make(2), FiniteStructure.make(2), [0, image])
        problem = f"f(1) = {image} outside target universe"
        assert r.validate() == [problem]
        for checker in (check_representation, check_by_partial_automorphisms):
            with pytest.raises(ValueError, match=rf"^invalid representation map: f\(1\) = {image} "):
                checker(r)

    @pytest.mark.parametrize("image", [None, True, 1.0, "1"], ids=["none", "bool", "float", "str"])
    def test_image_that_is_not_an_int_is_outside_the_target(self, image):
        # True and 1.0 compare equal to 1, but no universe element is a bool or a float
        r = RepresentationMap.make(FiniteStructure.make(2), FiniteStructure.make(2), [0, image])
        assert r.validate() == [f"f(1) = {image!r} outside target universe"]
        for checker in (check_representation, check_by_partial_automorphisms):
            with pytest.raises(ValueError, match=r"^invalid representation map: f\(1\) = "):
                checker(r)

    def test_fibers(self):
        r = one_per_class_rep(False)
        assert r.fibers[r.f[1]] == (1, 2)


class TestCheckRepresentation:
    def test_pure_set_identity_is_empty(self):
        src = FiniteStructure.make(6)
        r = RepresentationMap.make(src, pure_target(6), list(range(6)))
        report = check_representation(r, CheckerPolicy(max_tuple_len=2))
        assert report.empty
        assert report.checked > 0

    def test_split_siblings_pass_at_len_3(self):
        r = one_per_class_rep(True)
        report = check_representation(r, CheckerPolicy(max_tuple_len=3))
        assert report.empty

    def test_collapsed_siblings_caught_with_expected_first_pair(self):
        r = one_per_class_rep(False)
        report = check_representation(r, CheckerPolicy(max_tuple_len=2))
        assert not report.empty
        assert report.entries[0] == ((1, 2), (1, 1))

    def test_deterministic(self):
        r = one_per_class_rep(False)
        p = CheckerPolicy(max_tuple_len=2)
        assert check_representation(r, p) == check_representation(r, p)

    def test_entries_revalidate_and_are_symmetric(self):
        r = one_per_class_rep(False)
        report = check_representation(r, CheckerPolicy(max_tuple_len=2))
        for a, b in report.entries:
            assert qf_type(r.target, r.image(a)) == qf_type(r.target, r.image(b))
            assert not type_equal(r.source, a, b)
            assert not type_equal(r.source, b, a)

    def test_ef_depth_zero_is_atomic_equivalence_in_both_checkers(self):
        # the game at depth 0 compares the tuples' atoms, which the relations see
        policy = CheckerPolicy(delta=("ef", 0), max_tuple_len=2)
        split, collapsed = one_per_class_rep(True), one_per_class_rep(False)
        assert check_representation(split, policy).empty
        assert check_by_partial_automorphisms(split, policy).empty
        assert len(check_representation(collapsed, policy).entries) == 6
        assert len(check_by_partial_automorphisms(collapsed, policy).entries) == 72

    def test_ef_depth_zero_fine_without_relations(self):
        src = FiniteStructure.make(4)
        r = RepresentationMap.make(src, pure_target(4), list(range(4)))
        report = check_representation(r, CheckerPolicy(delta=("ef", 0), max_tuple_len=2))
        assert report.empty

    @pytest.mark.parametrize("checker", [check_representation, check_by_partial_automorphisms])
    @pytest.mark.parametrize(
        "n, length", [(6, 99), (6, 8), (1000, 3), (1, 2449), (1, 10**12)],
        ids=["pure6-99", "pure6-8", "pure1000-3", "one-2449", "one-huge"],
    )
    def test_tuple_bound_checked_before_allocating(self, checker, n, length):
        r = RepresentationMap.make(FiniteStructure.make(n), pure_target(n), list(range(n)))
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(ValueError, match=f"max_tuple_len {length} walks source tuples"):
                checker(r, CheckerPolicy(max_tuple_len=length))
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.5, elapsed
        assert peak < 1_000_000, peak

    def test_tuple_bound_admits_the_largest_walk_under_it(self):
        # a one-element source at length 2448 holds 2448 * 2449 / 2 = 2,997,576
        # positions, and one more length passes 3,000,000
        r = RepresentationMap.make(FiniteStructure.make(1), pure_target(1), [0])
        for checker in (check_representation, check_by_partial_automorphisms):
            assert checker(r, CheckerPolicy(max_tuple_len=2448)).empty

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            CheckerPolicy(max_tuple_len=0)
        with pytest.raises(ValueError):
            CheckerPolicy(delta="everything")


@pytest.mark.parametrize(
    "delta",
    [("ef", 1.5), ("ef", True), ["ef", 1], ("ef", 2, 3)],
    ids=["float", "bool", "list", "three"],
)
def test_malformed_delta_rejected_by_both_callers(delta):
    message = r"delta must be 'orbit' or \('ef', d\), got"
    with pytest.raises(ValueError, match=message):
        type_equal(FiniteStructure.make(3), (0,), (1,), delta)
    with pytest.raises(ValueError, match=message):
        CheckerPolicy(delta=delta)


class TestCheckByPartialAutomorphisms:
    def test_linear_order_into_pure_set_refuted(self):
        src = linear(4)
        r = RepresentationMap.make(src, pure_target(4), list(range(4)))
        report = check_by_partial_automorphisms(r, CheckerPolicy(max_tuple_len=2))
        assert not report.empty
        assert ((0, 1), (1, 0)) in report.entries
        direct = check_representation(r, CheckerPolicy(max_tuple_len=2))
        assert not direct.empty

    def test_valid_rep_empty_both_ways(self):
        r = one_per_class_rep(True)
        p = CheckerPolicy(max_tuple_len=2)
        assert check_by_partial_automorphisms(r, p).empty
        assert check_representation(r, p).empty

    def test_collapsed_rep_nonempty_both_ways(self):
        r = one_per_class_rep(False)
        p = CheckerPolicy(max_tuple_len=2)
        assert not check_by_partial_automorphisms(r, p).empty
        assert not check_representation(r, p).empty


@given(st.integers(2, 5), st.data())
@settings(max_examples=50, deadline=None)
def test_pure_set_maps_valid_iff_injective(n, data):
    src = FiniteStructure.make(n)
    m = data.draw(st.integers(n, n + 2))
    f = [data.draw(st.integers(0, m - 1)) for _ in range(n)]
    r = RepresentationMap.make(src, pure_target(m), f)
    p = CheckerPolicy(max_tuple_len=2)
    direct = check_representation(r, p)
    via_pa = check_by_partial_automorphisms(r, p)
    injective = len(set(f)) == n
    assert direct.empty == injective
    assert via_pa.empty == injective
