import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repsieve import (
    AlgebraSignature,
    CheckerPolicy,
    Enrichment,
    FiniteStructure,
    ProbeReport,
    RepresentationMap,
    SieveBottleneck,
    SieveTrace,
    Term,
    TermAlgebra,
    TheorySpec,
    build_layer_representation,
    build_sid,
    build_term_representation,
    check_representation,
    instability_probe,
    qf_type,
    sieve,
    singleton_prefix,
    theory_oracle,
    trivial_enrichment,
    type_equal,
    verify_indiscernible,
    witness_automorphism,
)
from repsieve.finstruct import automorphism_extending

from conftest import eq3x3, eq_structure, linear
from reference import (
    indiscernible_by_walk,
    lift_to_terms,
    probe_by_sieve_pair,
    reference_stages,
    shape_vector,
    validate_trace,
)
from test_finstruct import branching_structure, brute_qf_key
from test_orbits import random_structure


def flat_rep(src, levels=None, functions=None):
    """Identity representation of ``src`` onto a term table with no symbols;
    base term ids coincide with the source elements."""
    ta = TermAlgebra.build(AlgebraSignature.make({}), src.size, 0)
    base = ta.as_structure
    if levels is None:
        enr = trivial_enrichment(base)
    else:
        enr = Enrichment.make(levels, functions)
    target = enr.apply(base)
    f = {e: e for e in range(src.size)}
    return RepresentationMap.make(src, target, f, carrier=ta, enrichment=enr)


def eq_partner_rep(k):
    """k two-element classes {2i, 2i+1}; the even member becomes a base term,
    the odd one a unary application on it."""
    src = eq_structure([{2 * i, 2 * i + 1} for i in range(k)])
    ta = TermAlgebra.build(AlgebraSignature.make({"F": 1}), k, 1)
    base = ta.as_structure
    enr = trivial_enrichment(base)
    target = enr.apply(base)
    f = {}
    for i in range(k):
        f[2 * i] = ta.term_id(Term.of_base(i))
        f[2 * i + 1] = ta.term_id(Term.app("F", (Term.of_base(i),)))
    return RepresentationMap.make(src, target, f, carrier=ta, enrichment=enr)


class TestSieve:
    def test_partner_singletons_all_survive(self):
        r = eq_partner_rep(9)
        tuples = [(2 * i + 1,) for i in range(9)]
        trace = sieve(r, tuples)
        assert trace.s3 == tuple(range(9))
        assert trace.xi == 2
        assert trace.certificate.root == frozenset()
        assert trace.certificate.agree_idx == frozenset()
        assert validate_trace(trace) == []

    def test_padding_appends_subterm(self):
        r = eq_partner_rep(3)
        trace = sieve(r, [(1,), (3,)])
        x0 = r.carrier.term_id(Term.of_base(0))
        f_x0 = r.carrier.term_id(Term.app("F", (Term.of_base(0),)))
        assert trace.padded[0] == (f_x0, x0)

    def test_padding_keeps_repetitions(self):
        r = flat_rep(FiniteStructure.make(3))
        trace = sieve(r, [(1, 1, 0), (2, 2, 0)])
        assert trace.padded[0] == (1, 1, 0)
        assert shape_vector(r.carrier, trace.padded[0]) == (("v", 0), ("v", 0), ("v", 1))

    def test_survivor_counts_shape(self):
        r = eq_partner_rep(4)
        trace = sieve(r, [(1,), (3,), (5,), (7,)])
        assert trace.survivor_counts() == {
            "input": 4,
            "stage0": 4,
            "stage1": 4,
            "stage2": 4,
            "stage3": 4,
        }

    def test_distinct_shapes_bottleneck_stage0(self):
        # one base image, one application image: nothing to pair up
        r = eq_partner_rep(3)
        with pytest.raises(SieveBottleneck) as exc:
            sieve(r, [(0,), (1,)])
        assert exc.value.stage == "stage0"
        assert exc.value.largest == 1
        assert not exc.value.inconclusive

    def test_level_split_bottleneck_stage1(self):
        src = FiniteStructure.make(2)
        r = flat_rep(src, levels=[{0}, {1}])
        with pytest.raises(SieveBottleneck) as exc:
            sieve(r, [(0,), (1,)])
        assert exc.value.stage == "stage1"

    def test_function_split_bottleneck_stage2(self):
        src = FiniteStructure.make(4)
        r = flat_rep(src, levels=[{0, 1}, {2, 3}], functions={"d": {2: 0}})
        with pytest.raises(SieveBottleneck) as exc:
            sieve(r, [(2, 0), (3, 1)])
        assert exc.value.stage == "stage2"

    def test_misaligned_values_bottleneck_stage3(self):
        src = FiniteStructure.make(3)
        r = flat_rep(src)
        with pytest.raises(SieveBottleneck) as exc:
            sieve(r, [(1, 2), (2, 1)])
        assert exc.value.stage == "stage3"
        assert not exc.value.inconclusive

    def test_identical_tuples_full_root(self):
        r = flat_rep(FiniteStructure.make(3))
        trace = sieve(r, [(0, 2), (0, 2), (0, 2)])
        assert trace.s3 == (0, 1, 2)
        assert trace.certificate.root == frozenset({0, 2})
        assert trace.certificate.agree_idx == frozenset({0, 1})

    def test_carrierless_target_with_a_function_pads_its_value(self):
        # g(1) = 0 joins the padded row of 1, so the rows differ in length
        target = FiniteStructure.make(2, functions={"g": (1, {(1,): 0})})
        r = RepresentationMap.make(linear(2), target, {0: 0, 1: 1})
        with pytest.raises(SieveBottleneck) as exc:
            sieve(r, [(0,), (1,)])
        assert exc.value.stage == "stage0"
        assert exc.value.largest == 1
        trace = sieve(r, [(1,), (1,)])
        assert trace.padded == ((1, 0), (1, 0))
        assert validate_trace(trace) == []

    def test_unread_relation_splits_stage2(self):
        # stage 2 reads the target's relations: 0 is in P and 1 is not
        target = FiniteStructure.make(2, relations={"P": (1, {(0,)})})
        r = RepresentationMap.make(FiniteStructure.make(2), target, {0: 0, 1: 1})
        with pytest.raises(SieveBottleneck) as exc:
            sieve(r, [(0,), (1,)])
        assert exc.value.stage == "stage2"
        assert exc.value.largest == 1

    def test_carrierless_relational_target_sieved(self):
        # no carrier: every element is a base leaf and the image is its own padding
        r = RepresentationMap.make(eq3x3(), eq3x3(), {e: e for e in range(9)})
        trace = sieve(r, [(a,) for a in range(9)])
        assert trace.padded == tuple((a,) for a in range(9))
        assert trace.s3 == tuple(range(9))
        assert validate_trace(trace) == []

    def test_rejects_empty_and_small_target(self):
        r = flat_rep(FiniteStructure.make(2))
        with pytest.raises(ValueError):
            sieve(r, [])
        with pytest.raises(ValueError):
            sieve(r, [(0,)], target=1)

    def test_determinism(self):
        r = eq_partner_rep(5)
        tuples = [(9,), (1,), (5,), (3,), (7,)]
        t1 = sieve(r, tuples)
        t2 = sieve(r, tuples)
        assert t1 == t2


class TestWitness:
    def test_partner_witness_maps_positionwise(self):
        r = eq_partner_rep(3)
        trace = sieve(r, [(1,), (3,), (5,)])
        h = witness_automorphism(trace, (0,), (1,))
        # sends the second padded tuple onto the first
        expect = dict(zip(trace.padded[1], trace.padded[0]))
        assert h.as_dict == expect
        assert h.violations(r.target) == []

    def test_identity_witness(self):
        r = eq_partner_rep(3)
        trace = sieve(r, [(1,), (3,), (5,)])
        h = witness_automorphism(trace, (0, 1), (0, 1))
        assert all(x == y for x, y in h.as_dict.items())

    def test_all_pair_witnesses_validate(self):
        r = eq_partner_rep(4)
        trace = sieve(r, [(1,), (3,), (5,), (7,)])
        for i, j in itertools.permutations(trace.s3, 2):
            h = witness_automorphism(trace, (i,), (j,))
            assert h.violations(r.target) == []

    def test_composition_law(self):
        r = eq_partner_rep(6)
        trace = sieve(r, [(2 * i + 1,) for i in range(6)])
        h_uv = witness_automorphism(trace, (0, 1), (2, 3))
        h_vw = witness_automorphism(trace, (2, 3), (4, 5))
        h_uw = witness_automorphism(trace, (0, 1), (4, 5))
        composed = {x: h_uv.as_dict[y] for x, y in h_vw.as_dict.items()}
        assert composed == h_uw.as_dict

    def test_rejects_bad_index_sequences(self):
        r = eq_partner_rep(3)
        trace = sieve(r, [(1,), (3,), (5,)])
        with pytest.raises(ValueError, match="equal length"):
            witness_automorphism(trace, (0, 1), (2,))
        with pytest.raises(ValueError, match="repetition-free"):
            witness_automorphism(trace, (0, 0), (1, 2))
        with pytest.raises(ValueError, match="not a survivor"):
            witness_automorphism(trace, (0,), (7,))


class TestTraceValidation:
    def test_tampered_padding_detected(self):
        r = eq_partner_rep(3)
        trace = sieve(r, [(1,), (3,), (5,)])
        swapped = (trace.padded[1], trace.padded[0]) + trace.padded[2:]
        bad = SieveTrace(**{**vars(trace), "padded": swapped})
        assert any("padded" in p for p in validate_trace(bad))

    def test_tampered_groups_detected(self):
        r = eq_partner_rep(3)
        trace = sieve(r, [(1,), (3,), (5,)])
        bad = SieveTrace(**{**vars(trace), "stage1": ((0, 1),)})
        assert any("partition" in p for p in validate_trace(bad))

    def test_tampered_stage2_detected(self):
        # 0 is in P and 1, 2 are not: stage 2 keeps 0 apart
        target = FiniteStructure.make(3, relations={"P": (1, {(0,)})})
        r = RepresentationMap.make(FiniteStructure.make(3), target, [0, 1, 2])
        trace = sieve(r, [(0,), (1,), (2,)])
        assert trace.stage2 == ((1, 2), (0,))
        assert validate_trace(trace) == []
        bad = SieveTrace(**{**vars(trace), "stage2": ((0, 1, 2),)})
        assert any(p.startswith("stage2 group (0, 1, 2): member 1: relation P") for p in validate_trace(bad))


class TestVerifyIndiscernible:
    def test_class_members_indiscernible(self):
        m = eq3x3()
        singles = [(i,) for i in range(9)]
        assert verify_indiscernible(m, singles, {0, 1, 2})

    def test_mixed_class_members_not_indiscernible(self):
        m = eq3x3()
        singles = [(i,) for i in range(9)]
        assert not verify_indiscernible(m, singles, {0, 1, 3})

    def test_singleton_index_set_vacuous(self):
        m = eq3x3()
        assert verify_indiscernible(m, [(0,)], {0})
        assert verify_indiscernible(m, [(0,)], set())

    def test_blocks_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            verify_indiscernible(eq3x3(), [(0,), (1, 2)], {0, 1})

    def test_order_matters_on_linear_source(self):
        m = linear(4)
        singles = [(i,) for i in range(4)]
        # the order is atomic, so no two elements are indiscernible
        assert not verify_indiscernible(m, singles, {0, 1})
        assert not verify_indiscernible(m, singles, {1, 2})


def test_swap_test_matches_the_sequence_walk():
    verdicts = set()
    for seed in range(60):
        s = random_structure(seed)
        rng = random.Random(f"indiscernible/{seed}")
        k = rng.randint(1, 2)
        tuples = [tuple(rng.randrange(s.size) for _ in range(k)) for _ in range(rng.randint(1, 4))]
        idx = rng.sample(range(len(tuples)), rng.randint(0, len(tuples)))
        fast = verify_indiscernible(s, tuples, idx)
        assert fast == indiscernible_by_walk(s, tuples, idx, len(idx)), (seed, tuples, idx)
        verdicts.add(fast)
    assert verdicts == {True, False}


class TestProbe:
    def test_qf_types_of_the_orderings_differ(self):
        # the identity of a linear order into itself: the singletons share a
        # qf type, the two orderings of no pair do
        r = RepresentationMap.make(linear(3), linear(3), {i: i for i in range(3)})
        report = instability_probe(r, "lt", [(0,), (1,), (2,)])
        assert report == ProbeReport(
            "inconclusive",
            detail="no two chain tuples have orderings whose images share a qf type",
        )

    def test_a_later_pair_refutes_when_the_first_does_not(self):
        # only S(0, 1) holds in the target: it tells apart the images of the
        # orderings of (0, 1), and those of (0, 2) share a qf type
        target = FiniteStructure.make(4, relations={"S": (2, {(0, 1)})})
        r = RepresentationMap.make(linear(4), target, list(range(4)))
        chain = [(i,) for i in range(4)]
        report = instability_probe(r, "lt", chain)
        assert report.status == "representation_refuted"
        assert (report.pair, report.forward, report.backward) == ((0, 2), (0, 2), (2, 0))
        # the sieve's pair alone is (0, 1), which misses the refutation
        assert probe_by_sieve_pair(r, "lt", chain) is None
        assert len(check_representation(r, CheckerPolicy(max_tuple_len=2)).entries) == 15

    def test_linear_order_refutes_identity(self):
        src = linear(4)
        r = flat_rep(src)
        report = instability_probe(r, "lt", [(i,) for i in range(4)])
        assert report.status == "representation_refuted"
        assert report.refuted
        assert report.pair == (0, 1)
        assert report.forward == (0, 1)
        assert report.backward == (1, 0)

    def test_longer_chain_same_front_pair(self):
        src = linear(5)
        r = flat_rep(src)
        report = instability_probe(r, "lt", [(i,) for i in range(5)])
        assert report.status == "representation_refuted"
        assert report.forward == (0, 1)

    def test_symmetric_relation_fails_precondition(self):
        src = eq3x3()
        r = flat_rep(src)
        with pytest.raises(ValueError, match="chain precondition"):
            instability_probe(r, "E", [(0,), (3,), (6,)])

    def test_short_chain_inconclusive(self):
        src = linear(4)
        r = flat_rep(src)
        report = instability_probe(r, "lt", [(2,)])
        assert report.status == "inconclusive"
        assert not report.refuted

    def test_unknown_relation_rejected(self):
        r = flat_rep(linear(3))
        with pytest.raises(ValueError, match="unknown relation"):
            instability_probe(r, "missing", [(0,), (1,)])

    def test_arity_mismatch_rejected(self):
        r = flat_rep(linear(4))
        with pytest.raises(ValueError, match="arity"):
            instability_probe(r, "lt", [(0, 1), (2, 3)])

    def test_bad_phi_type_rejected(self):
        r = flat_rep(linear(3))
        with pytest.raises(ValueError, match="unknown relation"):
            instability_probe(r, 7, [(0,), (1,)])

    def test_empty_chain_rejected(self):
        r = flat_rep(linear(3))
        with pytest.raises(ValueError, match="empty chain"):
            instability_probe(r, "lt", [])

    def test_carrierless_target_with_a_function_inconclusive(self):
        src = linear(2)
        target = FiniteStructure.make(2, functions={"g": (1, {(1,): 0})})
        r = RepresentationMap.make(src, target, {0: 0, 1: 1})
        report = instability_probe(r, "lt", [(0,), (1,)])
        assert report.status == "inconclusive"
        assert (report.pair, report.forward, report.backward) == (None, None, None)
        assert report.detail == "no two chain tuples have orderings whose images share a qf type"


def test_the_two_orderings_of_an_ordered_pair_never_share_a_type():
    # the probe refutes on qf types alone because of this: an automorphism
    # keeps R, so it cannot swap a pair that R orders one way only
    checked = 0
    for seed in range(200):
        rng = random.Random(f"ordered-pair/{seed}")
        n = rng.randint(2, 6)
        rel = {(a, b) for a in range(n) for b in range(n) if rng.random() < 0.2}
        if seed % 2:
            # close R under a random permutation, so that many of these
            # structures have nontrivial automorphisms
            g = rng.sample(range(n), n)
            for _ in range(n):
                rel |= {(g[a], g[b]) for a, b in rel}
        s = FiniteStructure.make(n, relations={"R": (2, rel)})
        pairs = set()
        for k in (2, 3):
            for chain in itertools.permutations(range(n), k):
                if all(
                    ((chain[i], chain[j]) in rel) == (i < j)
                    for i, j in itertools.product(range(k), repeat=2)
                ):
                    pairs.update((chain[i], chain[j]) for i, j in itertools.combinations(range(k), 2))
        for a, b in sorted(pairs):
            assert not type_equal(s, (a, b), (b, a), "orbit"), (seed, a, b)
            assert automorphism_extending(s, (a, b), (b, a)) is None, (seed, a, b)
        checked += len(pairs)
    assert checked > 200


def ordered_map(seed):
    """A seeded map out of a linear order into a carrier-less target with
    random relations and, on odd seeds, random functions; every third seed
    adds levels and a regressive function.  Function values stay in the
    range, so the range is closed."""
    rng = random.Random(f"ordered-map/{seed}")
    n = rng.randint(2, 6)
    size = rng.randint(1, n + 1)
    f = [rng.randrange(size) for _ in range(n)] if seed % 4 else rng.sample(range(size + n), n)
    size = max(size, max(f) + 1)
    values = sorted(set(f))
    relations = {
        "P": (1, {(e,) for e in range(size) if rng.random() < 0.3}),
        "S": (2, {(a, b) for a in range(size) for b in range(size) if rng.random() < 0.3}),
    }
    functions = {}
    if seed % 2:
        functions["g"] = (1, {(a,): rng.choice(values) for a in range(size) if rng.random() < 0.5})
        functions["m"] = (
            2,
            {(a, b): rng.choice(values) for a in range(size) for b in range(size) if rng.random() < 0.2},
        )
    base = FiniteStructure.make(size, relations=relations, functions=functions)
    if seed % 3:
        return RepresentationMap.make(linear(n), base, f)
    level_of = [rng.randrange(2) for _ in range(size)]
    levels = [{e for e in range(size) if level_of[e] == i} for i in range(2)]
    d = {}
    for a in range(size):
        lower = [v for v in values if level_of[v] < level_of[a]]
        if lower and rng.random() < 0.6:
            d[a] = rng.choice(lower)
    enr = Enrichment.make(levels, {"d": d})
    return RepresentationMap.make(linear(n), enr.apply(base), f, enrichment=enr)


def test_probe_refutes_at_the_first_pair_with_qf_equal_orderings():
    outcomes = {"refuted": 0, "refuted_beyond_the_sieve_pair": 0, "inconclusive": 0}
    for seed in range(240):
        r = ordered_map(seed)
        rng = random.Random(f"ordered-chain/{seed}")
        n = r.source.size
        chain = [(a,) for a in sorted(rng.sample(range(n), rng.randint(1, n)))]
        report = instability_probe(r, "lt", chain)
        reference = probe_by_sieve_pair(r, "lt", chain)
        # (i) every refutation by the sieve's pair is still found
        if reference is not None:
            assert report.refuted and report.pair <= reference, seed
        pairs = list(itertools.combinations(range(len(chain)), 2))
        equal = [
            brute_qf_key(r.target, r.image(chain[i] + chain[j]))
            == brute_qf_key(r.target, r.image(chain[j] + chain[i]))
            for i, j in pairs
        ]
        if report.refuted:
            # (ii) the first qf-equal pair, whose orderings the source separates
            i, j = report.pair
            assert (report.forward, report.backward) == (chain[i] + chain[j], chain[j] + chain[i])
            assert equal.index(True) == pairs.index((i, j)), seed
            assert not type_equal(r.source, report.forward, report.backward), seed
            assert not check_representation(r, CheckerPolicy(max_tuple_len=2)).empty, seed
            outcomes["refuted"] += 1
            outcomes["refuted_beyond_the_sieve_pair"] += reference is None
        else:
            # (iii) no pair has qf-equal orderings
            assert report.status == "inconclusive" and report.pair is None, seed
            assert not any(equal), seed
            outcomes["inconclusive"] += 1
    assert min(outcomes.values()) >= 5, outcomes


def carrierless_map(seed):
    """A seeded function-free map with no carrier: a linear order or a pure
    set into a bare target, with no enrichment or a trivial one."""
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    src = linear(n) if seed % 2 else FiniteStructure.make(n)
    bare = FiniteStructure.make(rng.randint(1, n))
    f = [rng.randrange(bare.size) for _ in range(n)]
    if seed % 4 < 2:
        return RepresentationMap.make(src, bare, f)
    enr = trivial_enrichment(bare)
    return RepresentationMap.make(src, enr.apply(bare), f, enrichment=enr)


def sieve_outcome(r, tuples):
    try:
        trace = sieve(r, tuples)
    except SieveBottleneck as exc:
        return exc.stage, exc.largest, exc.inconclusive
    stages = (trace.stage0, trace.stage1, trace.stage2)
    return stages, trace.padded, trace.certificate, trace.s3


@pytest.mark.parametrize("seed", range(24))
def test_carrierless_map_sieves_and_probes_as_its_lift(seed):
    r = carrierless_map(seed)
    lifted = lift_to_terms(r)
    rng = random.Random(seed)
    n = r.source.size
    for _ in range(6):
        k = rng.randint(1, 2)
        tuples = [tuple(rng.randrange(n) for _ in range(k)) for _ in range(rng.randint(1, 6))]
        assert sieve_outcome(r, tuples) == sieve_outcome(lifted, tuples), tuples

    if seed % 2:
        # the odd seeds' sources are linear orders, which ``lt`` orders
        chain = [(a,) for a in range(n)]
        assert instability_probe(r, "lt", chain) == instability_probe(lifted, "lt", chain)


def catalog_maps():
    """ex2 builds in both modes and ex1 builds of two catalog theories."""
    maps = []
    for spec in (
        TheorySpec.make("eq_rel", classes=3, size=3),
        TheorySpec.make("nested_eq_rel", sizes=(2, 2, 2)),
    ):
        d = build_sid(theory_oracle(spec), mode="omega_stable")
        maps.append(build_term_representation(d, mode="copy_index"))
        maps.append(build_term_representation(d, mode="literal"))
        maps.append(build_layer_representation(singleton_prefix(d)))
    return maps


def leveled_map(seed):
    """A seeded carrier-less map into a bare target with random unary and
    binary relations, random levels and, on odd seeds, regressive
    functions."""
    rng = random.Random(f"leveled/{seed}")
    n = rng.randint(2, 7)
    size = rng.randint(2, 7)
    relations = {
        "P": (1, {(e,) for e in range(size) if rng.random() < 0.4}),
        "R": (2, {(a, b) for a in range(size) for b in range(size) if rng.random() < 0.2}),
    }
    base = FiniteStructure.make(size, relations=relations)
    level_of = [rng.randrange(3) for _ in range(size)]
    levels = [{e for e in range(size) if level_of[e] == i} for i in range(max(level_of) + 1)]
    functions = {}
    if seed % 2:
        for name in ("d", "e"):
            graph = {}
            for a in range(size):
                lower = [v for v in range(size) if level_of[v] < level_of[a]]
                if lower and rng.random() < 0.6:
                    graph[a] = rng.choice(lower)
            functions[name] = graph
    enr = Enrichment.make(levels, functions)
    f = [rng.randrange(size) for _ in range(n)]
    return RepresentationMap.make(FiniteStructure.make(n), enr.apply(base), f, enrichment=enr)


def test_stage_groups_equal_the_reference_keys():
    """Stages 0 and 1 are the groups of the hand-built term-shape and level
    keys, both ways: each group is uniform and no two groups share a key."""
    maps = catalog_maps() + [leveled_map(seed) for seed in range(30)]
    outcomes = set()
    for k, r in enumerate(maps):
        rng = random.Random(f"stages/{k}")
        n = r.source.size
        for _ in range(15):
            length = rng.randint(1, 3)
            tuples = [tuple(rng.randrange(n) for _ in range(length)) for _ in range(rng.randint(2, 8))]
            # a repeated tuple keeps stages 0 to 2 above the target of 2
            tuples.append(rng.choice(tuples))
            try:
                trace = sieve(r, tuples)
            except SieveBottleneck as exc:
                outcomes.add(exc.stage)
                assert exc.stage == "stage3", (k, tuples)
                continue
            outcomes.add("survived")
            padded = trace.padded
            assert (trace.stage0, trace.stage1) == reference_stages(r, padded), (k, tuples)
    assert outcomes == {"survived", "stage3"}


def branching_map(seed):
    """A seeded carrier-less map onto a target with binary functions and
    constants; its range is the whole target, so it is closed."""
    target = branching_structure(seed)
    rng = random.Random(f"branching-map/{seed}")
    f = list(range(target.size)) + [rng.randrange(target.size) for _ in range(rng.randint(0, 3))]
    rng.shuffle(f)
    return RepresentationMap.make(FiniteStructure.make(len(f)), target, f)


def stage2_maps():
    maps = []
    for spec in (
        TheorySpec.make("eq_rel", classes=3, size=3),
        TheorySpec.make("eq_rel", classes=6, size=3),
        TheorySpec.make("nested_eq_rel", sizes=(2, 2, 2)),
        TheorySpec.make("nested_eq_rel", sizes=(3, 3, 3)),
    ):
        d = build_sid(theory_oracle(spec), mode="omega_stable")
        maps.append(build_term_representation(d))
        maps.append(build_layer_representation(singleton_prefix(d)))
    return maps + [branching_map(seed) for seed in range(40)]


def test_stage2_groups_are_the_image_qf_types():
    """Rows are padded in the target's label order, so stage 2 groups the
    tuples exactly by the qf type of their images."""
    for k, r in enumerate(stage2_maps()):
        n = r.source.size
        for length in (1, 2):
            # a repeated tuple keeps stages 0 to 2 above the target of 2
            tuples = list(itertools.product(range(n), repeat=length)) + [(0,) * length]
            trace = sieve(r, tuples)
            expected: dict = {}
            for i, t in enumerate(tuples):
                expected.setdefault(qf_type(r.target, r.image(t)), []).append(i)
            assert sorted(trace.stage2) == sorted(map(tuple, expected.values())), (k, length)


@given(
    n=st.integers(min_value=1, max_value=4),
    copies=st.integers(min_value=2, max_value=5),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_identical_tuples_always_survive(n, copies, data):
    t = tuple(
        data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3).map(tuple))
    )
    r = flat_rep(FiniteStructure.make(n))
    trace = sieve(r, [t] * copies)
    assert len(trace.s3) == copies
    assert validate_trace(trace) == []
    h = witness_automorphism(trace, (0,), (1,))
    assert all(x == y for x, y in h.as_dict.items())


@given(k=st.integers(min_value=2, max_value=6), data=st.data())
@settings(max_examples=30, deadline=None)
def test_partner_witnesses_respect_source_types(k, data):
    r = eq_partner_rep(k)
    tuples = [(2 * i + 1,) for i in range(k)]
    trace = sieve(r, tuples)
    assert len(trace.s3) == k
    i = data.draw(st.integers(0, k - 1))
    j = data.draw(st.integers(0, k - 1).filter(lambda x: x != i))
    h = witness_automorphism(trace, (i,), (j,))
    assert h.violations(r.target) == []
    assert type_equal(r.source, tuples[i], tuples[j], "orbit")
