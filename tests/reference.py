"""Reference code the runtime is checked against, kept out of the runtime
because only tests call it."""

import itertools

from repsieve import (
    AlgebraSignature,
    FiniteStructure,
    PartialAutomorphism,
    RepresentationMap,
    TermAlgebra,
    qf_type,
    trivial_enrichment,
    type_equal,
)
from repsieve.finstruct import _admit_pairs, _delta_consistent
from repsieve.sieve import SieveBottleneck, _padded_image, sieve
from repsieve.sunflower import validate_sunflower


def all_extensions(s, domain: tuple):
    """All injective atom-preserving maps of ``s`` with exactly this domain,
    as dicts, in lex order of the image tuple."""

    def rec(i, fwd, bwd):
        if i == len(domain):
            yield dict(fwd)
            return
        x = domain[i]
        for c in range(s.size):
            if c in bwd or not _delta_consistent(s, fwd, bwd, x, c):
                continue
            fwd[x] = c
            bwd[c] = x
            yield from rec(i + 1, fwd, bwd)
            del fwd[x]
            del bwd[c]

    yield from rec(0, {}, {})


def closure_by_rounds(s, elems) -> list:
    """Closure of ``elems`` under the partial functions by rescanning every
    function graph, in structure order, in rounds until one adds nothing:
    the reference for ``qf_closure``.  Inputs first, then discovery order."""
    order = list(dict.fromkeys(elems))
    closed = set(order)
    changed = True
    while changed:
        changed = False
        for fn in s.functions:
            for args, val in fn.graph:
                if val not in closed and all(a in closed for a in args):
                    closed.add(val)
                    order.append(val)
                    changed = True
    return order


def ef_game_with_repeats(s):
    """``equal(t1, t2, depth)`` for the EF game on ``s`` in which the
    spoiler may also repeat a placed element, spending a round and leaving
    the position as it is.  Its memo is its own, not the structure's."""
    memo: dict = {}

    def wins(pos, depth):
        if depth == 0:
            return True
        key = (pos, depth)
        if key in memo:
            return memo[key]
        fwd = dict(pos)
        bwd = {b: a for a, b in pos}
        result = True
        for side in (0, 1):
            dom = fwd if side == 0 else bwd
            for x in range(s.size):
                if x in dom:
                    ok = wins(pos, depth - 1)
                else:
                    ok = False
                    for c in range(s.size):
                        a, b = (x, c) if side == 0 else (c, x)
                        if a in fwd or b in bwd or not _delta_consistent(s, fwd, bwd, a, b):
                            continue
                        if wins(pos | {(a, b)}, depth - 1):
                            ok = True
                            break
                if not ok:
                    result = False
                    break
            if not result:
                break
        memo[key] = result
        return result

    def equal(t1, t2, depth):
        start = _admit_pairs(s, zip(t1, t2))
        return start is not None and wins(frozenset(start[0].items()), depth)

    return equal


def max_indiscernible_by_representatives(m) -> tuple:
    """The first layer of ``build_sid`` from pair classes found by
    comparing each ordered pair with one representative per class found
    so far: largest set whose ordered pairs all share one orbit type,
    grown greedily from every symmetric seed pair, ties to the smallest
    set."""
    best = (0,) if m.size else ()
    reps: list = []
    cls: dict = {}
    for p in itertools.permutations(range(m.size), 2):
        for rid, rep in enumerate(reps):
            if type_equal(m, p, rep, "orbit"):
                cls[p] = rid
                break
        else:
            cls[p] = len(reps)
            reps.append(p)
    for i, j in itertools.combinations(range(m.size), 2):
        ref = cls[(i, j)]
        if cls[(j, i)] != ref:
            continue
        group = [i, j]
        for c in range(m.size):
            if c not in group and all(cls[(x, c)] == ref and cls[(c, x)] == ref for x in group):
                group.append(c)
        cand = tuple(sorted(group))
        if (-len(cand), cand) < (-len(best), best):
            best = cand
    return best


def lift_to_terms(r):
    """View a function-free target as a term carrier with no symbols and a
    trivial enrichment, keeping the target's relations: the reference for
    the carrier-less sieve.  A function-free map with no enrichment or a
    trivial one must sieve and probe the same as its lift."""
    if r.target.functions:
        raise ValueError("can only lift a function-free target to a term carrier")
    ta = TermAlgebra.build(AlgebraSignature.make({}), r.target.size, 0)
    base = ta.as_structure
    relations = {rel.name: (rel.arity, rel.tuples) for rel in r.target.relations}
    relations.update({rel.name: (rel.arity, rel.tuples) for rel in base.relations})
    target = FiniteStructure.make(base.size, relations=relations)
    enr = trivial_enrichment(target)
    return RepresentationMap(r.source, enr.apply(target), r.f, carrier=ta, enrichment=enr)


def probe_by_sieve_pair(r, phi, chain):
    """The probe as it once was, for a chain ``phi`` orders: sieve the
    chain to two survivors and compare the qf types of the images of the
    two orderings of the first two, and of no other pair.  Returns that
    pair when the images agree, else None."""
    chain = [tuple(t) for t in chain]
    try:
        i, j = sorted(sieve(r, chain).s3)[:2]
    except SieveBottleneck:
        return None
    forward, backward = chain[i] + chain[j], chain[j] + chain[i]
    if qf_type(r.target, r.image(forward)) == qf_type(r.target, r.image(backward)):
        return (i, j)
    return None


def indiscernible_by_walk(m, tuples, idx, length) -> bool:
    """Set-indiscernibility by brute force: all repetition-free index
    sequences of each length up to ``length`` must give type-equal
    concatenations.  Transitivity lets every sequence be compared to the
    first one only."""
    idx = sorted(idx)
    if length > len(idx):
        raise ValueError("length exceeds the number of indices")
    tuples = [tuple(t) for t in tuples]
    for ell in range(1, length + 1):
        seqs = list(itertools.permutations(idx, ell))
        first = seqs[0]
        ref = tuple(x for k in first for x in tuples[k])
        for s in seqs[1:]:
            cat = tuple(x for k in s for x in tuples[k])
            if not type_equal(m, ref, cat):
                return False
    return True


def shape_vector(ta, padded) -> tuple:
    """Term shapes of a padded tuple, base leaves numbered on first
    occurrence; with no carrier every element is a base leaf."""
    varmap: dict = {}

    def shape(tid):
        t = ta.term(tid) if ta is not None else None
        if t is None or t.is_base:
            return ("v", varmap.setdefault(tid, len(varmap)))
        return ("a", t.sym) + tuple(shape(ta.term_id(c)) for c in t.args)

    return tuple(shape(i) for i in padded)


def reference_stages(r, padded) -> tuple:
    """Stages 0 and 1 of the sieve from hand-built keys: the groups of
    equal term-shape vectors, then of equal shapes and level patterns
    (every position on level 0 without an enrichment), each ordered
    largest first, then by first member."""
    level_of = {}
    for i, level in enumerate(r.enrichment.levels if r.enrichment is not None else ()):
        level_of.update(dict.fromkeys(level, i))
    shapes = [shape_vector(r.carrier, row) for row in padded]
    levels = [frozenset((pos, level_of.get(e, 0)) for pos, e in enumerate(row)) for row in padded]

    def groups(keys):
        out: dict = {}
        for i, key in enumerate(keys):
            out.setdefault(key, []).append(i)
        return tuple(sorted(map(tuple, out.values()), key=lambda g: (-len(g), g[0])))

    return groups(shapes), groups(list(zip(shapes, levels)))


def validate_trace(trace) -> list:
    """Re-derive every trace invariant from the raw inputs; empty = valid."""
    out = []
    r = trace.r
    n = len(trace.tuples)
    for i in range(n):
        if trace.padded[i] != _padded_image(r, trace.tuples[i]):
            out.append(f"padded tuple {i} does not match recomputation")
    for stage_name, groups in (("stage0", trace.stage0), ("stage1", trace.stage1), ("stage2", trace.stage2)):
        flat = sorted(i for g in groups for i in g)
        if flat != list(range(n)):
            out.append(f"{stage_name} groups do not partition the inputs")
    if (trace.stage0, trace.stage1) != reference_stages(r, trace.padded):
        out.append("stage0 or stage1 groups differ from the term-shape and level keys")
    # qf-equal padded rows are exactly those whose position-wise map is a
    # partial automorphism; this oracle does not go through the qf trie
    for g in trace.stage2:
        for i in g[1:]:
            mapping: dict = {}
            for x, y in zip(trace.padded[i], trace.padded[g[0]]):
                if mapping.setdefault(x, y) != y:
                    out.append(f"stage2 group {g}: member {i} maps {x} to two elements")
                    break
            else:
                for problem in PartialAutomorphism.from_dict(mapping).violations(r.target):
                    out.append(f"stage2 group {g}: member {i}: {problem}")
    family = [trace.padded[i] for i in trace.chosen]
    out.extend(validate_sunflower(family, trace.certificate))
    # cross-tuple equalities may only happen at agreement positions
    u = trace.certificate.agree_idx
    for a, b in itertools.combinations(trace.s3, 2):
        for i, x in enumerate(trace.padded[a]):
            for j, y in enumerate(trace.padded[b]):
                if x == y and not (i in u and j in u):
                    out.append(
                        f"tuples {a} and {b} share a value at positions {i},{j} outside {sorted(u)}"
                    )
    return out
