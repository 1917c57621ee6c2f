"""The partial-automorphism checker against its plain reference.

``check_by_partial_automorphisms`` chooses images for generators only and
compares each source tuple at the domain its image generates.  The
reference below is the direct search it replaced: every map of
``reference.all_extensions`` on every closed domain, filtered to closed ranges,
every source tuple inside the domain, duplicates dropped by a seen set."""

import itertools
import random

import pytest

from repsieve import CheckerPolicy, RepresentationMap, check_by_partial_automorphisms
from repsieve.finstruct import _generated_maps, qf_closure, type_equal
from repsieve.represent import ViolationReport

from reference import all_extensions
from test_orbits import random_structure

# The reference compares every pair of source tuples a map matches up, up
# to 4 ** 6 pairs per length-3 domain here; a six-point source takes seconds
# per representation under the game oracle, so sources have at most four.
SEEDS = [seed for seed in range(400) if random_structure(seed).size <= 4][:200]
POLICIES = ["orbit", ("ef", 2)]
LENGTH = 3


def reference_check_by_partial_automorphisms(r, policy):
    rng = sorted(set(r.f))
    domains = {}
    for k in range(1, policy.max_tuple_len + 1):
        for combo in itertools.combinations(rng, k):
            domains[tuple(sorted(qf_closure(r.target, combo)))] = None
    images = [
        (t, r.image(t), frozenset(r.image(t)))
        for length in range(1, policy.max_tuple_len + 1)
        for t in itertools.product(range(r.source.size), repeat=length)
    ]
    entries = []
    checked = 0
    seen_pairs = set()
    for u in sorted(domains, key=lambda d: (len(d), d)):
        relevant = [(t, img) for t, img, imgset in images if imgset <= set(u)]
        for fwd in all_extensions(r.target, u):
            img_range = set(fwd.values())
            if set(qf_closure(r.target, sorted(img_range))) != img_range:
                continue
            for t, img in relevant:
                mapped = tuple(fwd[y] for y in img)
                fiber_sets = [r.fibers.get(y) for y in mapped]
                if any(fs is None for fs in fiber_sets):
                    continue
                for b in itertools.product(*fiber_sets):
                    checked += 1
                    if not type_equal(r.source, t, b, policy.delta) and (t, b) not in seen_pairs:
                        seen_pairs.add((t, b))
                        entries.append((t, b))
    entries.sort(key=lambda e: (len(e[0]), e))
    return ViolationReport("reference", policy.delta, policy.max_tuple_len, tuple(entries), checked)


def random_representation(seed):
    """A map from one random structure onto a closed set of another's
    elements, not injective unless that set is as large as the source."""
    rng = random.Random(f"rep/{seed}")
    source = random_structure(seed)
    while True:
        target = random_structure(rng.randrange(10_000))
        k = rng.randint(1, max(1, min(source.size - 1, target.size)))
        closed = qf_closure(target, rng.sample(range(target.size), k))
        if len(closed) <= source.size:
            break
    f = closed + [rng.choice(closed) for _ in range(source.size - len(closed))]
    rng.shuffle(f)
    return RepresentationMap.make(source, target, f)


def summary(report):
    return report.checked, report.entries


@pytest.mark.parametrize("seed", SEEDS)
def test_checker_matches_reference(seed):
    r = random_representation(seed)
    for delta in POLICIES:
        policy = CheckerPolicy(delta=delta, max_tuple_len=LENGTH)
        got = check_by_partial_automorphisms(r, policy)
        assert summary(got) == summary(reference_check_by_partial_automorphisms(r, policy))


@pytest.mark.parametrize("seed", SEEDS[:100])
def test_generated_maps_are_the_closed_extensions(seed):
    # every element of the target is a generator: deeper trees than the
    # ranges above give
    s = random_representation(seed).target
    pool = range(s.size)
    combos = []
    for combo, domain, maps in _generated_maps(s, pool, LENGTH):
        combos.append(combo)
        assert sorted(domain) == sorted(qf_closure(s, combo))
        expected = {
            tuple(sorted(fwd.items()))
            for fwd in all_extensions(s, tuple(sorted(domain)))
            if set(qf_closure(s, fwd.values())) == set(fwd.values())
        }
        got = [tuple(sorted(fwd.items())) for fwd in maps]
        assert len(got) == len(set(got))
        assert set(got) == expected
    for k in range(1, LENGTH + 1):
        assert [c for c in combos if len(c) == k] == list(itertools.combinations(pool, k))
