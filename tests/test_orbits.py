"""The orbit engine against two independent references on seeded random
structures: the plain backtracking search ``automorphism_extending`` and a
brute force over every permutation of the universe."""

import itertools
import random

import pytest

from repsieve import FiniteStructure, PartialAutomorphism, type_equal
from repsieve.finstruct import automorphism_extending

SEEDS = range(40)


def _group(gens, n):
    """All elements of the permutation group generated by ``gens``."""
    identity = tuple(range(n))
    elems = {identity}
    frontier = [identity]
    while frontier:
        g = frontier.pop()
        for h in gens:
            gh = tuple(h[g[x]] for x in range(n))
            if gh not in elems:
                elems.add(gh)
                frontier.append(gh)
    return sorted(elems)


def random_structure(seed):
    """Relations of arity <= 3 and partial unary/binary functions on at most
    six points.  Odd seeds close everything under a random permutation
    group, so that most of these structures have nontrivial automorphisms."""
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    if seed % 2:
        gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 2))]
    else:
        gens = []
    group = _group(gens, n)
    relations = {}
    for k in range(rng.randint(1, 3)):
        arity = rng.randint(1, 3)
        tuples = set()
        for _ in range(rng.randint(0, 2 * n)):
            t = tuple(rng.randrange(n) for _ in range(arity))
            tuples.update(tuple(g[x] for x in t) for g in group)
        relations[f"R{k}"] = (arity, tuples)
    functions = {}
    for k in range(rng.randint(0, 2)):
        arity = rng.randint(1, 2)
        graph = {}
        for _ in range(rng.randint(0, n)):
            args = tuple(rng.randrange(n) for _ in range(arity))
            val = rng.randrange(n)
            orbit = {(tuple(g[a] for a in args), g[val]) for g in group}
            if all(graph.get(a, v) == v for a, v in orbit) and len(dict(orbit)) == len(orbit):
                graph.update(orbit)
        functions[f"F{k}"] = (arity, graph)
    return FiniteStructure.make(n, relations=relations, functions=functions)


def brute_automorphisms(s):
    out = []
    for perm in itertools.permutations(range(s.size)):
        pa = PartialAutomorphism.from_dict(dict(enumerate(perm)))
        if not pa.violations(s):
            out.append(perm)
    return out


def brute_equal(auts, t1, t2):
    return any(all(p[a] == b for a, b in zip(t1, t2)) for p in auts)


def query_pairs(s, auts, rng, length, count):
    """Random tuple pairs, about half of them in one orbit."""
    pairs = []
    for _ in range(count):
        t1 = tuple(rng.randrange(s.size) for _ in range(length))
        if rng.random() < 0.5:
            p = rng.choice(auts)
            t2 = tuple(p[x] for x in t1)
        else:
            t2 = tuple(rng.randrange(s.size) for _ in range(length))
        pairs.append((t1, t2))
    return pairs


def table_partition(s, length):
    table = s.orbits._tables[length]
    return list(table.root)


def generated_partition(n, length, perms):
    """Least tuple index of each tuple's orbit under the group ``perms``
    generate, found by a search over tuples rather than a union-find."""
    tuples = list(itertools.product(range(n), repeat=length))
    index = {t: i for i, t in enumerate(tuples)}
    out = [None] * len(tuples)
    for i, t in enumerate(tuples):
        if out[i] is not None:
            continue
        orbit = {t}
        frontier = [t]
        while frontier:
            u = frontier.pop()
            for p in perms:
                v = tuple(p[x] for x in u)
                if v not in orbit:
                    orbit.add(v)
                    frontier.append(v)
        least = min(index[u] for u in orbit)
        for u in orbit:
            out[index[u]] = least
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_verdicts_match_both_references(seed):
    rng = random.Random(1000 + seed)
    one_off = random_structure(seed)
    tabled = random_structure(seed)
    for length in range(1, 4):
        tabled.orbits.build_table(length)
    auts = brute_automorphisms(one_off)
    for length in range(1, 4):
        for t1, t2 in query_pairs(one_off, auts, rng, length, 12):
            expected = brute_equal(auts, t1, t2)
            assert (automorphism_extending(one_off, t1, t2) is not None) == expected
            assert type_equal(one_off, t1, t2) == expected, (t1, t2)
            assert type_equal(tabled, t1, t2) == expected, (t1, t2)
            assert type_equal(tabled, t2, t1) == expected, (t2, t1)


@pytest.mark.parametrize("seed", SEEDS)
def test_harvested_automorphisms_are_valid(seed):
    # the generating set is computed on first access, without any query
    s = random_structure(seed)
    for perm in s.orbits.automorphisms:
        assert sorted(perm) == list(range(s.size))
        assert PartialAutomorphism.from_dict(dict(enumerate(perm))).violations(s) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_tables_built_before_and_after_harvest_agree(seed):
    # build_table only registers a length, so queries of other lengths
    # build nothing for it: each table is built when its roots are read
    rng = random.Random(3000 + seed)
    early = random_structure(seed)
    late = random_structure(seed)
    early.orbits.build_table(2)
    auts = brute_automorphisms(early)
    pairs = [p for length in (1, 3) for p in query_pairs(early, auts, rng, length, 12)]
    for t1, t2 in pairs:
        assert type_equal(early, t1, t2) == type_equal(late, t1, t2)
    late.orbits.build_table(2)
    n = early.size
    assert table_partition(early, 2) == generated_partition(n, 2, early.orbits.automorphisms)
    assert table_partition(late, 2) == generated_partition(n, 2, late.orbits.automorphisms)


@pytest.mark.parametrize("seed", SEEDS)
def test_table_reaches_the_orbit_partition(seed):
    s = random_structure(seed)
    s.orbits.build_table(2)
    auts = brute_automorphisms(s)
    truth = generated_partition(s.size, 2, auts)
    tuples = list(itertools.product(range(s.size), repeat=2))
    for i, t in enumerate(tuples):
        assert type_equal(s, t, tuples[truth[i]])
    assert table_partition(s, 2) == truth


@pytest.mark.parametrize("seed", SEEDS)
def test_tables_of_lengths_one_and_three_are_the_orbit_partitions(seed):
    # each tuple's prefix orbit and its last element's orbit under the
    # prefix's stabiliser, at the shortest and the longest length checked
    s = random_structure(seed)
    auts = brute_automorphisms(s)
    for length in (1, 3):
        assert s.orbits.build_table(length).root == generated_partition(s.size, length, auts)


def triangles_and_hexagon():
    """Two triangles beside a hexagon: every element has two neighbours,
    so colour refinement leaves one cell, while the triangles' elements
    and the hexagon's form two orbits."""
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    edges += [(6 + i, 6 + (i + 1) % 6) for i in range(6)]
    return FiniteStructure.make(12, relations={"E": (2, {e for a, b in edges for e in ((a, b), (b, a))})})


@pytest.mark.parametrize("length", [1, 2, 3])
def test_table_is_exact_where_refinement_is_not(length):
    # each tuple lies in its root's orbit, and distinct roots in distinct orbits
    s = triangles_and_hexagon()
    tuples = list(itertools.product(range(s.size), repeat=length))
    root = s.orbits.build_table(length).root
    for i, t in enumerate(tuples):
        assert automorphism_extending(s, tuples[root[i]], t) is not None
    for a, b in itertools.combinations(sorted(set(root)), 2):
        assert automorphism_extending(s, tuples[a], tuples[b]) is None
    if length == 1:
        assert root == [0] * 6 + [6] * 6


def test_searches_without_a_table_are_exact_where_refinement_is_not():
    tabled = triangles_and_hexagon()
    one_off = triangles_and_hexagon()
    tuples = list(itertools.product(range(12), repeat=2))
    root = tabled.orbits.build_table(2).root
    for i, t in enumerate(tuples):
        for r in sorted(set(root)):
            assert type_equal(one_off, t, tuples[r]) == (root[i] == r)


def test_table_stays_flat_when_a_cycle_attaches_a_root_late():
    # a directed 4-cycle 0 -> 3 -> 1 -> 2 -> 0: its group is generated by
    # the perm (3, 2, 0, 1), and every element's root is 0, the least of
    # its one orbit, however late the walk reaches it
    perm = (3, 2, 0, 1)
    s = FiniteStructure.make(4, relations={"E": (2, {(x, perm[x]) for x in range(4)})})
    assert s.orbits.build_table(1).root == [0, 0, 0, 0]
    # on pairs: four orbits of four, led by (0, 0), (0, 1), (0, 2), (0, 3)
    root = s.orbits.build_table(2).root
    assert root == generated_partition(4, 2, [perm])
    assert sorted(set(root)) == [0, 1, 2, 3]


def pure_set(n):
    return FiniteStructure.make(n)


@pytest.mark.parametrize("build_table", [False, True])
def test_repeated_elements(build_table):
    s = pure_set(4)
    if build_table:
        s.orbits.build_table(3)
    assert type_equal(s, (0, 0, 1), (2, 2, 3))
    assert not type_equal(s, (0, 0, 1), (2, 3, 3))
    assert not type_equal(s, (0, 1, 0), (2, 2, 3))
    assert type_equal(s, (0, 1, 0), (3, 2, 3))
    assert not type_equal(s, (1, 1, 1), (1, 1, 2))


def test_repeated_elements_inside_relations():
    # E: two classes {0, 1} and {2, 3, 4}
    pairs = {(a, b) for c in ({0, 1}, {2, 3, 4}) for a in c for b in c}
    s = FiniteStructure.make(5, relations={"E": (2, pairs)})
    assert type_equal(s, (0, 0, 2), (1, 1, 4))
    assert not type_equal(s, (0, 0, 2), (2, 2, 0))
    assert not type_equal(s, (2, 3, 3), (0, 1, 1))
    assert type_equal(s, (2, 3, 3), (4, 2, 2))


def test_elements_outside_universe_rejected():
    s = pure_set(3)
    with pytest.raises(ValueError, match="outside universe"):
        type_equal(s, (0, 3), (1, 2))
    s.orbits.build_table(2)
    with pytest.raises(ValueError, match="outside universe"):
        type_equal(s, (0, 1), (-1, 2))
