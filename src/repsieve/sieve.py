"""Staged extraction of witness-related tuple families from a represented
sequence, and the probe that turns an ordered chain into a refutation.

The sieve takes source tuples through four pigeonhole stages over their
*padded images*: each image followed by the rest of its closure under the
target's functions, in the order of the labels the target's qf trie
gives that closure.  Those labels depend only on the labelled structure,
so images of one qf type give rows that match position by position, and
stage 2 groups the tuples exactly by the qf type of their images.
Stages 0 to 2 group the padded rows by qf type, each in one reduct of
the target:

- stage 0 reads the term structure: the carrier's, or a bare universe of
  the target's size when there is no carrier.  Two rows are qf-equal
  there exactly when they have the same term shapes over a renaming of
  base elements, which the witness map construction needs.
- stage 1 reads that structure plus the enrichment's level relations,
  which adds the level of each position.
- stage 2 reads the target itself, with every function and relation.
- stage 3 runs the delta-system search on the largest stage-2 group.

A padded row is its own closure in every reduct, so two rows are
qf-equal in a reduct exactly when the position-wise map between them
preserves that reduct's atoms both ways.  The target expands the level
reduct, which expands the term reduct, so each stage refines the last.

The position-wise map between any two survivors is a partial automorphism
of the target.  The probe does not sieve: it scans the pairs of a
relation-ordered chain and refutes the representation at the first whose
two orderings have images of one qf type, as the orderings never do.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from repsieve._record import record
from repsieve.enrich import Enrichment
from repsieve.finstruct import (
    FiniteStructure,
    PartialAutomorphism,
    qf_type,
)
from repsieve.represent import RepresentationMap
from repsieve.sunflower import (
    DeltaSystemFailure,
    SunflowerCertificate,
    delta_system,
)

__all__ = [
    "SieveBottleneck",
    "SieveTrace",
    "ProbeReport",
    "sieve",
    "witness_automorphism",
    "instability_probe",
]


class SieveBottleneck(Exception):
    """Raised when the first stage whose largest group is too small blocks
    the requested survivor count."""

    def __init__(self, stage: str, largest: int, target: int, inconclusive: bool = False):
        self.stage = stage
        self.largest = largest
        self.target = target
        self.inconclusive = inconclusive
        flavor = " (inconclusive: the packing search was not complete)" if inconclusive else ""
        super().__init__(
            f"{stage}: largest compatible group has {largest} members, "
            f"target is {target}{flavor}"
        )


@record
class SieveTrace:
    r: RepresentationMap
    tuples: tuple  # source tuples, as given
    padded: tuple  # per input: image tuple followed by the rest of its closure, target elements
    stage0: tuple  # groups of input indices, largest first
    stage1: tuple
    stage2: tuple
    certificate: SunflowerCertificate  # over the chosen group's padded tuples

    @property
    def chosen(self) -> tuple:
        """The stage2 group handed to the delta-system search."""
        return self.stage2[0]

    @property
    def xi(self) -> int:
        """Padded length of the chosen group."""
        return len(self.padded[self.chosen[0]])

    @property
    def s3(self) -> tuple:
        """Surviving input indices."""
        return tuple(self.chosen[k] for k in self.certificate.selected)

    def survivor_counts(self) -> dict:
        return {
            "input": len(self.tuples),
            "stage0": len(self.stage0[0]),
            "stage1": len(self.stage1[0]),
            "stage2": len(self.stage2[0]),
            "stage3": len(self.s3),
        }


def _check_in_universe(tuples, n: int, name: str) -> None:
    for i, t in enumerate(tuples):
        for j, a in enumerate(t):
            # bool is a subclass of int, and a negative int would index a map from its end
            if isinstance(a, bool) or not isinstance(a, int) or not 0 <= a < n:
                raise ValueError(
                    f"{name}[{i}][{j}]: expected an element of the source universe "
                    f"0..{n - 1}, got {a!r}"
                )


def _padded_image(r: RepresentationMap, t) -> tuple:
    image = r.image(t)
    label = r.target.qf_types._node(image)[1]
    return image + tuple(sorted(set(label).difference(image), key=label.__getitem__))


def _group(keys) -> tuple:
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return tuple(sorted(map(tuple, groups.values()), key=lambda g: (-len(g), g[0])))


def sieve(r: RepresentationMap, tuples: Sequence[Sequence[int]], target: int = 2) -> SieveTrace:
    """Run the four-stage extraction; raises :class:`SieveBottleneck` naming
    the first stage whose largest group cannot reach ``target``."""
    tuples = tuple(tuple(t) for t in tuples)
    if not tuples:
        raise ValueError("need at least one tuple")
    _check_in_universe(tuples, r.source.size, "tuples")
    if target < 2:
        raise ValueError("target must be >= 2")
    padded = tuple(_padded_image(r, t) for t in tuples)
    terms = r.carrier.as_structure if r.carrier is not None else FiniteStructure(r.target.size)
    levels = terms if r.enrichment is None else Enrichment(r.enrichment.levels).apply(terms)
    stages = []
    for stage, reduct in (("stage0", terms), ("stage1", levels), ("stage2", r.target)):
        groups = _group([qf_type(reduct, row) for row in padded])
        if len(groups[0]) < target:
            raise SieveBottleneck(stage, len(groups[0]), target)
        stages.append(groups)
    chosen = stages[2][0]
    outcome = delta_system([padded[i] for i in chosen], target)
    if isinstance(outcome, DeltaSystemFailure):
        raise SieveBottleneck("stage3", len(chosen), target, outcome.inconclusive)
    return SieveTrace(r, tuples, padded, *stages, outcome)


def witness_automorphism(trace: SieveTrace, u: Sequence[int], v: Sequence[int]) -> PartialAutomorphism:
    """The position-wise map sending the padded images of the ``v`` survivors
    onto those of the ``u`` survivors.  Stage 2 makes it a partial
    automorphism for single survivors; longer sequences also need the
    target's atoms across tuples to agree.  Both are rechecked here."""
    u, v = tuple(u), tuple(v)
    if len(u) != len(v):
        raise ValueError("index sequences must have equal length")
    if len(set(u)) != len(u) or len(set(v)) != len(v):
        raise ValueError("index sequences must be repetition-free")
    s3 = set(trace.s3)
    for k in itertools.chain(u, v):
        if k not in s3:
            raise ValueError(f"index {k} is not a survivor")
    mapping: dict = {}
    for uk, vk in zip(u, v):
        for x, y in zip(trace.padded[vk], trace.padded[uk]):
            if mapping.setdefault(x, y) != y:
                raise ValueError(
                    f"witness is not well-defined: {x} would map to both "
                    f"{mapping[x]} and {y}"
                )
    pa = PartialAutomorphism.from_dict(mapping)
    problems = pa.violations(trace.r.target)
    if problems:
        raise ValueError("witness fails to be a partial automorphism: " + "; ".join(problems))
    return pa


@record
class ProbeReport:
    status: str  # "representation_refuted" | "inconclusive"
    pair: tuple | None = None  # the first chain indices i < j whose orderings' images are qf-equal
    forward: tuple | None = None  # source tuple ordered i before j
    backward: tuple | None = None  # source tuple ordered j before i
    detail: str = ""

    @property
    def refuted(self) -> bool:
        return self.status == "representation_refuted"


def instability_probe(
    r: RepresentationMap,
    phi: str,
    chain: Sequence[Sequence[int]],
) -> ProbeReport:
    """Refute a representation from a chain of source tuples that the source
    relation ``phi``, of the concatenated arity, orders: ``chain[i] +
    chain[j]`` is in ``phi`` exactly when ``i < j``.  That is checked first
    and rejected outright when it fails.

    For ``i < j`` an automorphism of the source maps ``chain[i] +
    chain[j]``, which is in ``phi``, to a tuple in ``phi``; ``chain[j] +
    chain[i]`` is not in ``phi``, so the two orderings are never
    type-equal.  When their images share a qf type, a good representation
    would make them type-equal, so the representation is refuted at the
    first such pair ``i < j`` in lexicographic order.
    """
    chain = tuple(tuple(t) for t in chain)
    if not chain:
        raise ValueError("chain precondition failure: empty chain")
    _check_in_universe(chain, r.source.size, "chain")
    if phi not in (rel.name for rel in r.source.relations):
        raise ValueError(f"chain precondition failure: unknown relation {phi!r}")
    rel = r.source.relation(phi)
    for i, j in itertools.product(range(len(chain)), repeat=2):
        cat = chain[i] + chain[j]
        if len(cat) != rel.arity:
            raise ValueError(
                f"chain precondition failure: relation {phi} has arity "
                f"{rel.arity}, tuples concatenate to {len(cat)}"
            )
        if (cat in rel.tuples) != (i < j):
            raise ValueError(
                f"chain precondition failure: phi(chain[{i}], chain[{j}]) "
                f"should be {i < j}"
            )
    for i, j in itertools.combinations(range(len(chain)), 2):
        forward, backward = chain[i] + chain[j], chain[j] + chain[i]
        if qf_type(r.target, r.image(forward)) == qf_type(r.target, r.image(backward)):
            detail = (
                "images of the two orderings share a qf type, so a good "
                "representation would force the orderings to be type-equal; "
                "phi separates them"
            )
            return ProbeReport("representation_refuted", (i, j), forward, backward, detail)
    detail = "no two chain tuples have orderings whose images share a qf type"
    return ProbeReport("inconclusive", detail=detail)
