"""Representation checkers.

A representation map sends a source structure into an enriched carrier.
It is *good* when quantifier-free type equality of image tuples forces
full type equality of the preimage tuples.  Two checkers test this on
all tuples up to a length bound:

``check_representation``
    groups tuples by the qf type of their images and compares each group
    member against the group's first representative on the source side.

``check_by_partial_automorphisms``
    enumerates function-closed subsets of the range together with the
    partial automorphisms of the carrier defined on them (domain and
    range both closed), and checks every pair of source tuples such a
    map matches up.  The two checkers accept exactly the same maps.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from functools import cached_property

from repsieve._record import record
from repsieve.enrich import Enrichment
from repsieve.finstruct import (
    FiniteStructure,
    _check_delta,
    _generated_maps,
    qf_closure,
    type_equal,
)
from repsieve.termalg import TermAlgebra

__all__ = [
    "RepresentationMap",
    "CheckerPolicy",
    "ViolationReport",
    "check_representation",
    "check_by_partial_automorphisms",
]

# The most tuple positions, k per source tuple of length k, that either
# checker builds over all lengths up to the bound.  The largest catalog run
# documented, nested (3,3,3) at length 4, builds 2,186,298.
MAX_TUPLE_POSITIONS = 3_000_000


@record
class RepresentationMap:
    """Total map from the source universe into the target structure.

    ``target`` is the fully enriched carrier; when it came from a term
    table, ``carrier`` keeps the table for rendering and for the sieve,
    and ``enrichment`` keeps the level data.  The range must be closed
    under the target's partial functions; ``validate`` checks that.
    """

    source: FiniteStructure
    target: FiniteStructure
    f: tuple
    carrier: TermAlgebra | None = None
    enrichment: Enrichment | None = None

    @classmethod
    def make(cls, source, target, mapping, carrier=None, enrichment=None):
        if isinstance(mapping, dict):
            mapping = [mapping[i] for i in range(source.size)]
        return cls(source, target, tuple(mapping), carrier, enrichment)

    def image(self, t: Sequence[int]) -> tuple:
        return tuple(self.f[x] for x in t)

    @cached_property
    def fibers(self) -> dict:
        out: dict = {}
        for x, y in enumerate(self.f):
            out.setdefault(y, []).append(x)
        return {y: tuple(xs) for y, xs in out.items()}

    def validate(self) -> list:
        out = []
        if len(self.f) != self.source.size:
            out.append(f"map covers {len(self.f)} elements, source has {self.source.size}")
        outside = [(x, y) for x, y in enumerate(self.f) if not 0 <= y < self.target.size]
        out += [f"f({x}) = {y} outside target universe" for x, y in outside]
        if outside:
            return out  # the closure would look the outside images up in the target
        rng = sorted(set(self.f))
        closed = set(qf_closure(self.target, rng))
        extra = closed - set(rng)
        if extra:
            out.append(f"range not closed under target functions; missing {sorted(extra)}")
        return out


@record
class CheckerPolicy:
    """Source-side type oracle and tuple length bound.  Image types are
    always quantifier-free."""

    delta: object = "orbit"  # "orbit" | ("ef", d)
    max_tuple_len: int = 2

    def __post_init__(self):
        if self.max_tuple_len < 1:
            raise ValueError("max_tuple_len must be >= 1")
        _check_delta(self.delta)


@record
class ViolationReport:
    """``entries`` are the violating pairs ``(a, b)`` of source tuples:
    their images share a qf type (``check_representation``) or are matched
    by a partial automorphism (``check_by_partial_automorphisms``), and
    their source types differ."""

    checker: str
    delta: object
    max_tuple_len: int
    entries: tuple = ()
    checked: int = 0

    @property
    def empty(self) -> bool:
        return not self.entries


def _check_tuple_count(n: int, policy: CheckerPolicy) -> None:
    """Refuse, before anything is built, a walk whose source tuples of each
    length k up to the bound L hold more than ``MAX_TUPLE_POSITIONS``
    positions: ``1*n + 2*n**2 + ... + L*n**L``.  Counting positions, not
    tuples, also bounds a one-element source, whose L tuples hold L*(L+1)/2.
    From n = 2 on, the terms up to the bound's bit length already pass it,
    so no longer sum is formed."""
    length = policy.max_tuple_len
    if n < 2:
        total = n * length * (length + 1) // 2
    else:
        total = sum(k * n**k for k in range(1, min(length, MAX_TUPLE_POSITIONS.bit_length()) + 1))
    if total > MAX_TUPLE_POSITIONS:
        raise ValueError(
            f"max_tuple_len {length} walks source tuples with more than "
            f"{MAX_TUPLE_POSITIONS} positions over a universe of {n}"
        )


def _validated(r: RepresentationMap):
    problems = r.validate()
    if problems:
        raise ValueError("invalid representation map: " + "; ".join(problems))


def check_representation(
    r: RepresentationMap, policy: CheckerPolicy = CheckerPolicy()
) -> ViolationReport:
    """Exhaustive tuple-comparison checker.

    Walks all source tuples of each length up to the bound in lexicographic
    order; within each class of qf-equal images, compares every member to
    the first-seen representative with the source-side oracle.  Emptiness
    of the report is equivalent to the representation property at this
    length bound, by transitivity of both equivalences.

    Image types are interned ids from the target's ``qf_types`` trie,
    which types each image prefix once.  Source verdicts come from one
    orbit table per length, whatever the policy.
    """
    _check_tuple_count(r.source.size, policy)
    _validated(r)
    entries = []
    checked = 0
    trie = r.target.qf_types
    for length in range(1, policy.max_tuple_len + 1):
        r.source.orbits.build_table(length)
        reps: dict = {}
        for prefix in itertools.product(range(r.source.size), repeat=length - 1):
            for a, qf_id in enumerate(trie.extension_ids(r.image(prefix), r.f)):
                t = prefix + (a,)
                rep = reps.setdefault(qf_id, t)
                if rep is t:
                    continue
                checked += 1
                if not type_equal(r.source, t, rep, policy.delta):
                    entries.append((t, rep))
    return ViolationReport(
        checker="tuple-comparison",
        delta=policy.delta,
        max_tuple_len=policy.max_tuple_len,
        entries=tuple(entries),
        checked=checked,
    )


def check_by_partial_automorphisms(
    r: RepresentationMap,
    policy: CheckerPolicy = CheckerPolicy(),
) -> ViolationReport:
    """Partial-automorphism checker.

    Enumerates every function-closed set U obtained by closing the image
    set of a tuple (length <= the bound), then every partial automorphism
    of the target with domain U and function-closed range.  Whenever such
    a map sends the image of one source tuple onto the image of another,
    the two source tuples must be type-equal; otherwise the pair is
    reported.

    U is generated by those image elements, so a map on U is fixed by
    their images: ``_generated_maps`` chooses images for generators only
    and derives the rest.  A map on a larger domain that matches two
    tuples restricts to one on the closure of the first tuple's image
    set, so each source tuple is compared only there, against each map
    once.  ``checked`` still counts, over every distinct U and map, each
    source tuple inside U times each preimage of its mapped image: with
    ``w`` the sum over U of ``|fiber(y)| * |fiber(map(y))|``, that is
    ``w + w**2 + ... + w**L`` at length bound L.
    """
    _check_tuple_count(r.source.size, policy)
    _validated(r)
    rng = sorted(set(r.f))
    # each source tuple, grouped by the sorted set of its image's elements
    by_generators: dict = {}
    for length in range(1, policy.max_tuple_len + 1):
        for t in itertools.product(range(r.source.size), repeat=length):
            img = r.image(t)
            by_generators.setdefault(tuple(sorted(set(img))), []).append((t, img))
        r.source.orbits.build_table(length)
    fiber_size = [len(r.fibers.get(y, ())) for y in range(r.target.size)]

    entries = []
    checked = 0
    counted = set()
    for combo, u, maps in _generated_maps(r.target, rng, policy.max_tuple_len):
        key = frozenset(u)
        if key not in counted:
            counted.add(key)
            for fwd in maps:
                w = sum(fiber_size[y] * fiber_size[fwd[y]] for y in u)
                checked += sum(w**length for length in range(1, policy.max_tuple_len + 1))
        for t, img in by_generators.get(combo, ()):
            for fwd in maps:
                mapped = tuple(fwd[y] for y in img)
                fiber_sets = [r.fibers.get(y) for y in mapped]
                if any(fs is None for fs in fiber_sets):
                    continue
                for b in itertools.product(*fiber_sets):
                    if not type_equal(r.source, t, b, policy.delta):
                        entries.append((t, b))
    entries.sort(key=lambda e: (len(e[0]), e))
    return ViolationReport(
        checker="partial-automorphism",
        delta=policy.delta,
        max_tuple_len=policy.max_tuple_len,
        entries=tuple(entries),
        checked=checked,
    )
