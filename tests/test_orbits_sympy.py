"""The orbit engine's generating set against sympy's permutation groups:
the group it generates has the order of the brute-force automorphism
group on the seeded structures, and the closed-form order on catalog
models."""

import math

import pytest

from repsieve import TheorySpec, desk_model

from test_orbits import SEEDS, brute_automorphisms, random_structure, triangles_and_hexagon

combinatorics = pytest.importorskip("sympy.combinatorics")


def group_order(s):
    """The order of the group the engine's generators generate, as the
    product of the basic orbit lengths of a base and strong generating
    set from sympy's deterministic Schreier-Sims.  Seeding it with the
    base 0, 1, ..., n-1 took about 1.5 s on the symmetric group of 64
    points, against about 13 s for ``order()`` (2-vCPU VM)."""
    gens = [combinatorics.Permutation(list(g), size=s.size) for g in s.orbits.automorphisms]
    if not gens:
        return 1
    group = combinatorics.PermutationGroup(gens)
    base, strong = group.schreier_sims_incremental(base=list(range(s.size)))
    order = 1
    for i, b in enumerate(base):
        level = [g for g in strong if all(g.array_form[x] == x for x in base[:i])]
        if level:
            order *= len(combinatorics.PermutationGroup(level).orbit(b))
    return order


@pytest.mark.parametrize("seed", SEEDS)
def test_generators_give_the_whole_group(seed):
    s = random_structure(seed)
    assert group_order(s) == len(brute_automorphisms(s))


f = math.factorial


@pytest.mark.parametrize(
    "tag, kw, order",
    [
        ("pure_set", dict(n=12), f(12)),
        ("pure_set", dict(n=64), f(64)),
        ("eq_rel", dict(classes=3, size=3), f(3) ** 3 * f(3)),
        ("eq_rel", dict(classes=6, size=3), f(3) ** 6 * f(6)),
        ("eq_rel", dict(classes=8, size=8), f(8) ** 8 * f(8)),
        # a nested model's group is an iterated wreath product of symmetric groups
        ("nested_eq_rel", dict(sizes=(3, 3, 3)), 6**13),
        ("nested_eq_rel", dict(sizes=(4, 4, 4)), 24**21),
    ],
    ids=["pure12", "pure64", "eq3x3", "eq6x3", "eq8x8", "nested333", "nested444"],
)
def test_generators_give_the_closed_form_order(tag, kw, order):
    assert group_order(desk_model(TheorySpec.make(tag, **kw))) == order


def test_generators_give_the_whole_group_where_refinement_is_not_exact():
    # each triangle's 3! and the hexagon's 12, times the swap of the triangles
    assert group_order(triangles_and_hexagon()) == f(3) ** 2 * 2 * 12
