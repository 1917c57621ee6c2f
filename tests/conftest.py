"""Shared builders for test structures."""

import itertools

from repsieve import (
    FiniteStructure,
    RepresentationMap,
    Workspace,
    save_workspace,
    trivial_enrichment,
)


def eq_structure(classes, size=None):
    """Structure with one binary relation E: the equivalence relation whose
    classes are given (reflexive pairs included)."""
    elems = [x for c in classes for x in c]
    assert len(set(elems)) == len(elems), "classes must be disjoint"
    if size is None:
        size = max(elems) + 1 if elems else 0
    pairs = set()
    for c in classes:
        pairs.update(itertools.product(c, repeat=2))
    return FiniteStructure.make(size, relations={"E": (2, pairs)})


def eq3x3():
    return eq_structure([{0, 1, 2}, {3, 4, 5}, {6, 7, 8}])


def linear(n):
    """Strict linear order 0 < 1 < ... < n-1 as a binary relation."""
    lt = {(i, j) for i in range(n) for j in range(n) if i < j}
    return FiniteStructure.make(n, relations={"lt": (2, lt)})


def save_lin4(path):
    """Write a workspace holding the identity map of ``linear(4)`` into a
    bare 4-element target, as ``lin4.id``."""
    bare = FiniteStructure.make(4)
    enr = trivial_enrichment(bare)
    r = RepresentationMap.make(linear(4), enr.apply(bare), list(range(4)), enrichment=enr)
    ws = Workspace()
    ws.add_representation("lin4.id", r)
    save_workspace(ws, path)
    return str(path)
