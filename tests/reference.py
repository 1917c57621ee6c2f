"""Reference code the runtime is checked against, kept out of the runtime
because only tests call it."""

import itertools

from repsieve.finstruct import _delta_consistent
from repsieve.sieve import _padded_image, _shape_vector
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


def validate_trace(trace) -> list:
    """Re-derive every trace invariant from the raw inputs; empty = valid."""
    out = []
    r = trace.r
    if r.carrier is None:
        return ["trace has no term carrier"]
    n = len(trace.tuples)
    for i in range(n):
        if trace.padded[i] != _padded_image(r, trace.tuples[i]):
            out.append(f"padded tuple {i} does not match recomputation")
    for stage_name, groups in (("stage0", trace.stage0), ("stage1", trace.stage1), ("stage2", trace.stage2)):
        flat = sorted(i for g in groups for i in g)
        if flat != list(range(n)):
            out.append(f"{stage_name} groups do not partition the inputs")
    shapes = {i: _shape_vector(r.carrier, trace.padded[i]) for i in range(n)}
    for g in trace.stage0:
        if len({shapes[i] for i in g}) != 1:
            out.append(f"stage0 group {g} has mixed shapes")
    level_of = (
        r.enrichment.level_of
        if r.enrichment is not None
        else {e: 0 for e in range(r.target.size)}
    )
    for g in trace.stage1:
        pats = {
            frozenset((pos, level_of[tid]) for pos, tid in enumerate(trace.padded[i]))
            for i in g
        }
        if len(pats) != 1:
            out.append(f"stage1 group {g} has mixed level patterns")
    for g in trace.stage2:
        pats = set()
        for i in g:
            row = trace.padded[i]
            pat = set()
            for f in r.target.functions:
                for z0, tid in enumerate(row):
                    val = f.as_dict.get((tid,))
                    if val is not None:
                        pat.update(
                            (f.name, z0, z1) for z1, other in enumerate(row) if other == val
                        )
            pats.add(frozenset(pat))
        if len(pats) != 1:
            out.append(f"stage2 group {g} has mixed function patterns")
    family = [trace.padded[i] for i in trace.chosen]
    out.extend(validate_sunflower(family, trace.certificate))
    expect_s3 = tuple(trace.chosen[k] for k in trace.certificate.selected)
    if trace.s3 != expect_s3:
        out.append("survivor list does not match the certificate's selection")
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
