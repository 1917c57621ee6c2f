"""The orbit engine against networkx's VF2 matcher.

Each structure becomes a coloured incidence graph: one node per element,
one per atom (relation tuple or function entry) coloured by its symbol,
and an edge from each atom to each of its elements, labelled by the
positions that element fills.  Automorphisms of that graph are exactly
the automorphisms of the structure, so VF2 lists the group without any
repsieve code."""

import itertools

import pytest

from repsieve import type_equal

from test_orbits import SEEDS, random_structure

nx = pytest.importorskip("networkx")
from networkx.algorithms.isomorphism import GraphMatcher  # noqa: E402


def incidence_graph(s):
    g = nx.Graph()
    g.add_nodes_from((x, {"colour": "elem"}) for x in range(s.size))
    atoms = [(r.name, t) for r in s.relations for t in r.tuples]
    atoms += [(f.name, args + (v,)) for f in s.functions for args, v in f.graph]
    for name, elems in atoms:
        g.add_node((name, elems), colour=name)
        for x in set(elems):
            positions = tuple(i for i, e in enumerate(elems) if e == x)
            g.add_edge((name, elems), x, positions=positions)
    return g


def vf2_automorphisms(s):
    g = incidence_graph(s)
    matcher = GraphMatcher(
        g,
        g,
        node_match=lambda a, b: a["colour"] == b["colour"],
        edge_match=lambda a, b: a["positions"] == b["positions"],
    )
    return [tuple(iso[x] for x in range(s.size)) for iso in matcher.isomorphisms_iter()]


def partition(tuples, same):
    """Classes of ``tuples`` under the equivalence ``same``, each class in
    input order."""
    classes = []
    for t in tuples:
        for cls in classes:
            if same(cls[0], t):
                cls.append(t)
                break
        else:
            classes.append([t])
    return sorted(classes)


def atom_count(s):
    return sum(len(r.tuples) for r in s.relations) + sum(len(f.graph) for f in s.functions)


# VF2 has no refinement: it backtracks over interchangeable atom nodes and
# takes seconds to minutes on the denser closed-under-a-group structures.
# Those are left to the all-permutations brute force in test_orbits.py.
@pytest.mark.parametrize("seed", [seed for seed in SEEDS if atom_count(random_structure(seed)) <= 40])
def test_orbit_partitions_match_vf2(seed):
    s = random_structure(seed)
    auts = vf2_automorphisms(s)
    for length in (1, 2):
        tuples = list(itertools.product(range(s.size), repeat=length))
        orbit = {t: frozenset(tuple(p[x] for x in t) for p in auts) for t in tuples}
        expected = partition(tuples, lambda a, b: b in orbit[a])
        assert partition(tuples, lambda a, b: type_equal(s, a, b)) == expected
