"""The orbit engine against two independent references on seeded random
structures: the plain backtracking search ``automorphism_extending`` and a
brute force over every permutation of the universe."""

import itertools
import random

import pytest

from repsieve import FiniteStructure, PartialAutomorphism, type_equal
from repsieve.finstruct import _OrbitTable, automorphism_extending

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
    for table in tabled.orbits._tables.values():
        # negative verdicts stay keyed by current roots as classes merge
        for a, b in table.apart:
            assert a < b and table.root[a] == a and table.root[b] == b


@pytest.mark.parametrize("seed", SEEDS)
def test_harvested_automorphisms_are_valid(seed):
    rng = random.Random(2000 + seed)
    s = random_structure(seed)
    auts = brute_automorphisms(s)
    for length in range(1, 4):
        for t1, t2 in query_pairs(s, auts, rng, length, 12):
            type_equal(s, t1, t2)
    for perm in s.orbits.automorphisms:
        assert sorted(perm) == list(range(s.size))
        assert PartialAutomorphism.from_dict(dict(enumerate(perm))).violations(s) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_tables_built_before_and_after_harvest_agree(seed):
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


def test_table_stays_flat_when_a_cycle_attaches_a_root_late():
    # 0 -> 3, 1 -> 2, 2 -> 0: index 2 is attached to 1 before 1 is attached to 0
    table = _OrbitTable(4, 1)
    table.close((3, 2, 0, 1))
    assert table.root == [0, 0, 0, 0]


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
