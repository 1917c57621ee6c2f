"""Delta-system (sunflower) certificates over families of value sequences.

A certificate names a subfamily whose members pairwise intersect, as
value sets, in exactly one common root; additionally the root values
occupy the same positions with the same arrangement in every selected
sequence, every selected sequence has the same internal repetition
pattern, and all of this is rechecked by an independent validator.

Positions matter: two sequences that share values at different positions
cannot be selected together.  This positional strengthening is what
downstream well-definedness arguments (mapping one selected tuple onto
another position-wise) rely on.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

from repsieve._record import record

__all__ = [
    "SunflowerCertificate",
    "DeltaSystemFailure",
    "delta_system",
    "validate_sunflower",
]


# largest group packed exhaustively; a larger one is packed greedily
EXHAUSTIVE_THRESHOLD = 200
# search nodes that the exact packing may visit in one delta_system call;
# past them every group left unpacked makes a failure inconclusive
EXACT_PACK_NODES = 1_000_000


@record
class SunflowerCertificate:
    selected: tuple  # family indices, ascending
    root: frozenset  # common pairwise value-set intersection
    common_length: int
    agree_idx: frozenset  # positions where all selected sequences agree
    rep_equiv: tuple  # partition of positions by within-sequence value equality
    mode: str  # "exhaustive" | "greedy"


@record
class DeltaSystemFailure:
    target: int
    reason: str
    # true when some group was packed only greedily, or its exact packing
    # ran out of EXACT_PACK_NODES
    inconclusive: bool


def _equiv_partition(seq: Sequence) -> tuple:
    by_value: dict = {}
    for i, v in enumerate(seq):
        by_value.setdefault(v, []).append(i)
    return tuple(sorted(tuple(ps) for ps in by_value.values()))


def _greedy_pack(candidates, petals):
    chosen = []
    used: set = set()
    for idx in candidates:
        if petals[idx] & used:
            continue
        chosen.append(idx)
        used |= petals[idx]
    return chosen


def _exact_pack(candidates, petals, target, budget):
    """Some pairwise petal-disjoint subset of size >= target, or None.
    Explores all subsets, pruned by remaining count, while ``budget[0]``,
    the search nodes left, lasts; a search cut short leaves it negative."""

    n = len(candidates)
    chosen: list = []

    def rec(start, used):
        if len(chosen) >= target:
            return True
        budget[0] -= 1
        if budget[0] < 0 or len(chosen) + (n - start) < target:
            return False
        for k in range(start, n):
            idx = candidates[k]
            if petals[idx] & used:
                continue
            chosen.append(idx)
            if rec(k + 1, used | petals[idx]):
                return True
            chosen.pop()
        return False

    if rec(0, frozenset()):
        return chosen
    return None


def delta_system(family: Sequence[Sequence], target: int):
    """Find a sunflower certificate with at least ``target`` selected members.

    Search is layered pigeonhole: group by sequence length, then by the
    repetition partition; within a group, candidate roots are the pairwise
    value-set intersections; sequences containing a candidate root are
    refined by where the root values sit; finally petal-disjoint packing,
    exhaustive up to ``EXHAUSTIVE_THRESHOLD`` members and greedy above it.
    The exhaustive searches of one call share ``EXACT_PACK_NODES`` search
    nodes; once they are spent, groups are packed greedily.
    Returns a :class:`SunflowerCertificate` or a :class:`DeltaSystemFailure`
    (the latter flagged inconclusive when some group was packed only
    greedily, or its exhaustive search was cut short).
    """
    if not family:
        raise ValueError("family must be nonempty")
    if target < 2:
        raise ValueError("target must be >= 2")
    seqs = [tuple(s) for s in family]
    groups: dict = {}
    for idx, s in enumerate(seqs):
        groups.setdefault((len(s), _equiv_partition(s)), []).append(idx)
    inconclusive = False
    budget = [EXACT_PACK_NODES]
    best_blocker = None
    for (length, equiv), members in sorted(
        groups.items(), key=lambda kv: (-len(kv[1]), kv[1][0])
    ):
        if len(members) < target:
            if best_blocker is None:
                best_blocker = (
                    f"largest repetition-pattern group has {len(members)} members, "
                    f"target is {target}"
                )
            continue
        exhaustive = len(members) <= EXHAUSTIVE_THRESHOLD
        value_sets = {i: frozenset(seqs[i]) for i in members}
        roots = sorted(
            {
                value_sets[a] & value_sets[b]
                for a, b in itertools.combinations(members, 2)
            },
            key=lambda s: (len(s), sorted(s)),
        )
        for root in roots:
            containing = [i for i in members if root <= value_sets[i]]
            arrangements: dict = {}
            for i in containing:
                positions = tuple(p for p, v in enumerate(seqs[i]) if v in root)
                values = tuple(seqs[i][p] for p in positions)
                arrangements.setdefault((positions, values), []).append(i)
            for key in sorted(arrangements):
                cands = arrangements[key]
                if len(cands) < target:
                    continue
                petals = {i: value_sets[i] - root for i in cands}
                chosen = _greedy_pack(cands, petals)
                if len(chosen) < target and exhaustive and budget[0] >= 0:
                    chosen = _exact_pack(cands, petals, target, budget) or []
                if len(chosen) < target:
                    if not exhaustive or budget[0] < 0:
                        inconclusive = True
                    continue
                # the selected sequences hold the root's values at the key's
                # positions, and disjoint petals everywhere else
                return SunflowerCertificate(
                    selected=tuple(sorted(chosen)),
                    root=root,
                    common_length=length,
                    agree_idx=frozenset(key[0]),
                    rep_equiv=equiv,
                    mode="exhaustive" if exhaustive else "greedy",
                )
        if best_blocker is None:
            best_blocker = (
                f"no petal-disjoint aligned subfamily of size {target} in the "
                f"largest group ({len(members)} members)"
            )
    return DeltaSystemFailure(
        target=target,
        reason=best_blocker or f"no group offers {target} members",
        inconclusive=inconclusive,
    )


def validate_sunflower(family: Sequence[Sequence], cert: SunflowerCertificate) -> list:
    """Independent recheck of every certificate invariant against the raw
    family.  Empty list means the certificate is valid."""
    out = []
    seqs = [tuple(s) for s in family]
    for i in cert.selected:
        if not (0 <= i < len(seqs)):
            return [f"selected index {i} outside the family"]
    sel = [seqs[i] for i in cert.selected]
    for i, s in zip(cert.selected, sel):
        if len(s) != cert.common_length:
            out.append(f"sequence {i} has length {len(s)}, certificate says {cert.common_length}")
    if out:
        return out
    value_sets = [frozenset(s) for s in sel]
    for (i, s), (j, t) in itertools.combinations(zip(cert.selected, value_sets), 2):
        inter = s & t
        if inter != cert.root:
            out.append(f"value sets of {i} and {j} intersect in {sorted(inter)}, not the root")
    true_agree = {
        p for p in range(cert.common_length) if len({s[p] for s in sel}) == 1
    }
    if true_agree != set(cert.agree_idx):
        out.append(
            f"agreement positions are {sorted(true_agree)}, certificate says {sorted(cert.agree_idx)}"
        )
    for i, s in zip(cert.selected, sel):
        at_agree = {s[p] for p in cert.agree_idx}
        if at_agree != set(cert.root):
            out.append(f"values of {i} at the agreement positions are {sorted(at_agree)}, not the root")
    all_positions = [p for cls in cert.rep_equiv for p in cls]
    if sorted(all_positions) != list(range(cert.common_length)):
        out.append("repetition partition does not cover the positions exactly")
        return out
    # the partition covers the positions exactly, so a sequence matches it
    # when each of its value classes is one of its classes
    classes = {tuple(sorted(cls)) for cls in cert.rep_equiv}
    for i, s in zip(cert.selected, sel):
        by_value: dict = {}
        for p, v in enumerate(s):
            by_value.setdefault(v, []).append(p)
        for v, ps in by_value.items():
            if tuple(ps) not in classes:
                out.append(
                    f"sequence {i}: the positions holding {v!r} are not a class "
                    "of the repetition partition"
                )
                return out
    return out
