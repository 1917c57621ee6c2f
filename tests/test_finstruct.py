import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from conftest import eq3x3, eq_structure, linear
from repsieve import (
    FiniteStructure,
    PartialAutomorphism,
    qf_closure,
    qf_type,
    type_equal,
)
from repsieve.finstruct import _ef_equal, automorphism_extending
from reference import all_extensions, closure_by_rounds, ef_game_with_repeats
from test_orbits import SEEDS, random_structure


def pointed() -> FiniteStructure:
    # one marked point, two others collapsing onto it under F
    return FiniteStructure.make(
        3,
        relations={"P0": (1, {(0,)}), "P1": (1, {(1,), (2,)})},
        functions={"F": (1, {(1,): 0, (2,): 0})},
    )


class TestQfType:
    def test_collapsing_points_same_type(self):
        s = pointed()
        assert qf_type(s, (1,)) == qf_type(s, (2,))
        assert qf_type(s, (1, 0)) == qf_type(s, (2, 0))

    def test_marked_point_differs(self):
        s = pointed()
        assert qf_type(s, (0,)) != qf_type(s, (1,))

    def test_repetition_pattern_matters(self):
        s = eq3x3()
        assert qf_type(s, (1, 1)) != qf_type(s, (1, 2))
        assert qf_type(s, (1, 1)) == qf_type(s, (4, 4))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            qf_type(eq3x3(), (9,))

    def test_long_unary_chains(self):
        # two disjoint chains 0 -> ... -> 9 and 10 -> ... -> 19: a head's
        # closure has nine non-generator elements
        succ = {(i,): i + 1 for i in range(20) if i not in (9, 19)}
        s = FiniteStructure.make(20, functions={"F": (1, succ)})
        head = qf_type(s, (0,))
        assert head == qf_type(s, (10,))
        assert head != qf_type(s, (1,))
        assert qf_type(s, (0, 5)) == qf_type(s, (10, 15))
        assert qf_type(s, (0, 5)) != qf_type(s, (10, 16))


def brute_qf_key(s, t):
    """Least serialisation of ``t``'s closure over every labelling of its
    non-generator elements: the reference for ``qf_type`` equality."""
    closure = qf_closure(s, t)
    inside = set(closure)
    gen_label = {}
    for x in t:
        gen_label.setdefault(x, len(gen_label))
    free = [x for x in closure if x not in gen_label]
    rel_atoms = [
        (r.name, [tup for tup in r.tuples if all(e in inside for e in tup)]) for r in s.relations
    ]
    fn_atoms = [
        (f.name, [(a, v) for a, v in f.graph if v in inside and all(x in inside for x in a)])
        for f in s.functions
    ]
    best = None
    for perm in itertools.permutations(free):
        label = dict(gen_label)
        label.update((x, len(gen_label) + i) for i, x in enumerate(perm))
        rels = tuple(
            (name, tuple(sorted(tuple(label[e] for e in tup) for tup in atoms)))
            for name, atoms in rel_atoms
        )
        fns = tuple(
            (name, tuple(sorted((tuple(label[a] for a in args), label[v]) for args, v in atoms)))
            for name, atoms in fn_atoms
        )
        ser = (rels, fns)
        if best is None or ser < best:
            best = ser
    return tuple(gen_label[x] for x in t), len(closure), best


def partition(keys):
    classes: dict = {}
    for t, key in keys:
        classes.setdefault(key, set()).add(t)
    return sorted(sorted(c) for c in classes.values())


def trie_ids(s, length):
    """Each tuple of this length with its ``s.qf_types`` id, walked as the
    tuple-comparison checker walks them."""
    trie = s.qf_types
    elems = range(s.size)
    for prefix in itertools.product(elems, repeat=length - 1):
        yield from zip((prefix + (x,) for x in elems), trie.extension_ids(prefix, elems))


def shuffled_types(s, tuples, seed):
    """Each tuple with its ``qf_type`` in ``s``, queried in a seeded
    shuffled order, so that the trie's memo grows out of walk order."""
    tuples = random.Random(f"shuffle/{seed}").sample(tuples, len(tuples))
    return [(t, qf_type(s, t)) for t in tuples]


def generation_order_key(s, t):
    """The qf key the prefix trie replaced: the closure labelled in
    generation order (generators by first occurrence, then per round and
    function each new value by its argument labels), with every atom inside
    it relabelled and sorted."""
    label = {}
    for x in t:
        label.setdefault(x, len(label))
    changed = True
    while changed:
        changed = False
        for f in s.functions:
            found = sorted(
                (tuple(label[a] for a in args), v)
                for args, v in f.graph
                if v not in label and all(a in label for a in args)
            )
            for _, v in found:
                if v not in label:
                    label[v] = len(label)
                    changed = True
    atoms = [(r.name, tup) for r in s.relations for tup in r.tuples]
    atoms += [(f.name, args + (v,)) for f in s.functions for args, v in f.graph]
    key = sorted(
        (name, tuple(label[e] for e in elems))
        for name, elems in atoms
        if elems and all(e in label for e in elems)
    )
    return tuple(label[x] for x in t), len(label), tuple(key)


@pytest.mark.parametrize("seed", SEEDS)
def test_qf_type_matches_brute_force_classes(seed):
    s = random_structure(seed)
    for length in range(1, 5):
        tuples = list(itertools.product(range(s.size), repeat=length))
        expected = partition((t, brute_qf_key(s, t)) for t in tuples)
        assert partition((t, qf_type(s, t)) for t in tuples) == expected
        assert partition(trie_ids(s, length)) == expected
        assert partition(shuffled_types(random_structure(seed), tuples, seed)) == expected


def partition_structure(seed):
    """A random structure of up to eight points with constants and unary and
    binary partial functions, so that closures grow over several rounds."""
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    relations = {
        f"R{k}": (arity, {tuple(rng.randrange(n) for _ in range(arity)) for _ in range(rng.randint(0, 2 * n))})
        for k, arity in enumerate(rng.choices((1, 2, 3), k=rng.randint(0, 2)))
    }
    functions = {}
    for k, arity in enumerate(rng.choices((0, 1, 1, 2), k=rng.randint(1, 3))):
        arg_tuples = list(itertools.product(range(n), repeat=arity))
        chosen = rng.sample(arg_tuples, rng.randint(0, min(len(arg_tuples), n)))
        functions[f"F{k}"] = (arity, {args: rng.randrange(n) for args in chosen})
    return FiniteStructure.make(n, relations=relations, functions=functions)


@pytest.mark.parametrize("seed", range(60))
def test_qf_partition_matches_generation_order_key(seed):
    s = partition_structure(seed)
    for length in range(1, 5):
        tuples = list(itertools.product(range(s.size), repeat=length))
        expected = partition((t, generation_order_key(s, t)) for t in tuples)
        assert partition((t, qf_type(s, t)) for t in tuples) == expected
        assert partition(trie_ids(s, length)) == expected
        assert partition(shuffled_types(partition_structure(seed), tuples, seed)) == expected


class TestQfClosure:
    def test_contains_seed_and_is_closed(self):
        s = pointed()
        cl = qf_closure(s, [1])
        assert cl == [1, 0]
        assert qf_closure(s, cl) == cl

    def test_deduplicates_preserving_order(self):
        s = pointed()
        assert qf_closure(s, [2, 1, 2]) == [2, 1, 0]


def branching_structure(seed):
    """Seeded partial functions on at most seven points: two binary ones, a
    unary one and up to two constants, so that closures branch."""
    rng = random.Random(f"branching/{seed}")
    n = rng.randint(1, 7)

    def graph(arity, p):
        return {a: rng.randrange(n) for a in itertools.product(range(n), repeat=arity) if rng.random() < p}

    functions = {"m": (2, graph(2, 0.3)), "p": (2, graph(2, 0.15)), "s": (1, graph(1, 0.4))}
    for k in range(rng.randint(0, 2)):
        functions[f"c{k}"] = (0, {(): rng.randrange(n)})
    return FiniteStructure.make(n, functions=functions)


@pytest.mark.parametrize("seed", range(40))
def test_closure_matches_the_round_scan(seed):
    s = branching_structure(seed)
    rng = random.Random(seed)
    for _ in range(10):
        elems = [rng.randrange(s.size) for _ in range(rng.randint(0, 3))]
        inputs = list(dict.fromkeys(elems))
        got = qf_closure(s, elems)
        assert len(set(got)) == len(got)
        assert set(got) == set(closure_by_rounds(s, elems))
        assert got[:len(inputs)] == inputs
        # each gained value follows the arguments of some entry giving it
        at = {x: i for i, x in enumerate(got)}
        for x in got[len(inputs):]:
            assert any(
                val == x and all(at.get(a, at[x]) < at[x] for a in args)
                for f in s.functions
                for args, val in f.graph
            ), (elems, x)


def test_long_tuples_type_without_recursion():
    s = FiniteStructure.make(3)
    t = tuple(i % 3 for i in range(5000))
    assert qf_type(s, t) == qf_type(s, tuple((i + 1) % 3 for i in range(5000)))
    assert qf_type(s, t) != qf_type(s, t[:-1] + (t[-2],))
    assert qf_type(s, [0] * 5000) == qf_type(s, [2] * 5000)


def test_typing_one_long_tuple_holds_linear_memory():
    # a trie node keeps only the labels it adds, so typing one tuple of n
    # distinct elements holds O(n) labels, not one label dict per prefix
    s = FiniteStructure.make(2000)
    tracemalloc.start()
    try:
        qf_type(s, range(2000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000, peak


class TestTypeEqual:
    def test_same_class_pairs_equal(self):
        s = eq3x3()
        assert type_equal(s, (1, 2), (4, 5))

    def test_cross_class_pair_differs(self):
        s = eq3x3()
        assert not type_equal(s, (1, 2), (1, 4))

    def test_ef_boundary_on_linear_order(self):
        s = linear(6)
        # elements 1 and 2 survive one round but not two
        assert type_equal(s, (1,), (2,), ("ef", 1))
        assert not type_equal(s, (1,), (2,), ("ef", 2))
        assert not type_equal(s, (1,), (2,), "orbit")

    def test_ef_zero_is_atomic_equivalence(self):
        s = eq3x3()
        assert type_equal(s, (1, 2), (1, 4), ("ef", 0)) is False  # 1E2 but not 1E4
        assert type_equal(s, (1, 2), (4, 5), ("ef", 0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            type_equal(eq3x3(), (1,), (1, 2))

    @pytest.mark.parametrize("policy", ["orbit", ("ef", 1)])
    def test_outside_universe_rejected_under_every_policy(self, policy):
        s = FiniteStructure.make(3)
        with pytest.raises(ValueError, match="element 3 outside universe of size 3"):
            type_equal(s, (3,), (0,), policy)

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            type_equal(eq3x3(), (1,), (2,), ("ef", -1))

    def test_automorphism_witness_roundtrip(self):
        s = eq3x3()
        auto = automorphism_extending(s, (1, 2), (4, 5))
        assert auto is not None
        assert auto[1] == 4 and auto[2] == 5
        pa = PartialAutomorphism.from_dict(auto)
        assert pa.violations(s) == []
        assert sorted(auto.values()) == list(range(9))


def partial_automorphisms(s, max_domain):
    """Every partial automorphism with at most ``max_domain`` points, domains
    by (size, lex) and maps by lex order of images."""
    for k in range(max_domain + 1):
        for dom in itertools.combinations(range(s.size), k):
            for fwd in all_extensions(s, dom):
                yield PartialAutomorphism.from_dict(fwd)


class TestPartialAutomorphisms:
    def test_two_points_no_relations(self):
        s = FiniteStructure.make(2)
        pas = list(partial_automorphisms(s, 1))
        maps = [pa.as_dict for pa in pas]
        assert maps == [{}, {0: 0}, {0: 1}, {1: 0}, {1: 1}]

    def test_class_structure_respected(self):
        s = eq3x3()
        maps = {pa.pairs for pa in partial_automorphisms(s, 2)}
        assert ((0, 3), (1, 4)) in maps
        assert ((0, 3), (1, 5)) in maps
        assert ((0, 3), (1, 6)) not in maps  # 0E1 would need 3E6

    def test_brute_force_agreement(self):
        s = pointed()
        got = [pa.pairs for pa in partial_automorphisms(s, 3)]
        assert len(got) == len(set(got))
        expected = []
        for k in range(4):
            for dom in itertools.combinations(range(3), k):
                for img in itertools.permutations(range(3), k):
                    pa = PartialAutomorphism(tuple(zip(dom, img)))
                    if not pa.violations(s):
                        expected.append(pa.pairs)
        assert set(got) == set(expected)
        assert got == sorted(got, key=lambda p: (len(p), tuple(a for a, _ in p), tuple(b for _, b in p)))


# ---------------------------------------------------------------------------
# Property tests


@st.composite
def structures(draw, max_size=5):
    n = draw(st.integers(1, max_size))
    elem = st.integers(0, n - 1)
    p = draw(st.frozensets(st.tuples(elem), max_size=n))
    e = draw(st.frozensets(st.tuples(elem, elem), max_size=8))
    f = draw(st.dictionaries(st.tuples(elem), elem, max_size=n))
    return FiniteStructure.make(n, relations={"P": (1, p), "E": (2, e)}, functions={"F": (1, f)})


@st.composite
def structure_and_tuples(draw, max_size=5, max_len=2):
    s = draw(structures(max_size=max_size))
    elem = st.integers(0, s.size - 1)
    k = draw(st.integers(1, max_len))
    t1 = tuple(draw(st.lists(elem, min_size=k, max_size=k)))
    t2 = tuple(draw(st.lists(elem, min_size=k, max_size=k)))
    return s, t1, t2


@given(structures(), st.data())
@settings(max_examples=60, deadline=None)
def test_qf_type_is_relabeling_invariant(s, data):
    # ids compare only within one structure, so compare the classes they cut
    perm = data.draw(st.permutations(list(range(s.size))))
    relabeled = FiniteStructure.make(
        s.size,
        relations={
            r.name: (r.arity, {tuple(perm[e] for e in t) for t in r.tuples}) for r in s.relations
        },
        functions={
            f.name: (f.arity, {tuple(perm[a] for a in args): perm[v] for args, v in f.graph})
            for f in s.functions
        },
    )
    tuples = [t for k in range(3) for t in itertools.product(range(s.size), repeat=k)]
    moved = partition((tuple(perm[x] for x in t), qf_type(s, t)) for t in tuples)
    assert moved == partition((t, qf_type(relabeled, t)) for t in tuples)


@given(structure_and_tuples(max_size=4))
@settings(max_examples=60, deadline=None)
def test_orbit_matches_ef_at_full_depth(st_pair):
    s, t1, t2 = st_pair
    assert type_equal(s, t1, t2, "orbit") == _ef_equal(s, t1, t2, s.size)


@given(structure_and_tuples(max_size=4), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_ef_is_antitone_in_depth(st_pair, d):
    s, t1, t2 = st_pair
    if type_equal(s, t1, t2, ("ef", d + 1)):
        assert type_equal(s, t1, t2, ("ef", d))


@given(structure_and_tuples(max_size=4))
@settings(max_examples=60, deadline=None)
def test_orbit_equal_implies_qf_equal(st_pair):
    s, t1, t2 = st_pair
    if type_equal(s, t1, t2, "orbit"):
        assert qf_type(s, t1) == qf_type(s, t2)


@given(structures(max_size=4))
@settings(max_examples=40, deadline=None)
def test_enumerated_partial_automorphisms_validate(s):
    for pa in partial_automorphisms(s, 2):
        assert pa.violations(s) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_ef_verdicts_match_the_game_alone(seed):
    # type_equal answers ("ef", d) from the orbit oracle when it can
    s = random_structure(seed)
    for length in (1, 2):
        tuples = list(itertools.product(range(s.size), repeat=length))
        for t1, t2 in itertools.product(tuples, repeat=2):
            for d in range(4):
                assert type_equal(s, t1, t2, ("ef", d)) == _ef_equal(s, t1, t2, d), (t1, t2, d)


SMALL_SEEDS = [seed for seed in SEEDS if random_structure(seed).size <= 4]


@pytest.mark.parametrize("seed", SMALL_SEEDS)
def test_ef_game_matches_the_game_with_repeat_moves(seed):
    # a repeated element spends a round and changes nothing, so the game
    # without that move must give the same verdict at every depth
    s = random_structure(seed)
    with_repeats = ef_game_with_repeats(s)
    for length in (1, 2):
        tuples = list(itertools.product(range(s.size), repeat=length))
        for t1, t2 in itertools.product(tuples, repeat=2):
            for d in range(4):
                assert _ef_equal(s, t1, t2, d) == with_repeats(t1, t2, d), (t1, t2, d)


def test_ef_depth_beyond_the_recursion_limit():
    s = linear(6)
    assert _ef_equal(s, (2,), (2,), 5000)
    assert not _ef_equal(s, (2,), (3,), 5000)
    assert not _ef_equal(s, (0, 1), (1, 0), 5000)
