"""Layered enrichments of a finite structure.

An enrichment assigns every universe element to one of finitely many
levels and adds named unary partial functions that are *regressive*:
each maps its argument to an element of a strictly lower level.  Applied
to a base structure it contributes one unary relation ``level:<i>`` per
level plus the functions themselves.  Regressivity is what keeps every
closure under the added functions finite and shallow.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repsieve._record import record
from repsieve.finstruct import FiniteStructure, PartialFn

__all__ = ["Enrichment", "trivial_enrichment", "validate_enrichment"]


@record
class Enrichment:
    levels: tuple  # levels[i] = frozenset of elements at level i
    functions: tuple = ()  # unary PartialFn, regressive across levels

    @classmethod
    def make(cls, levels: Iterable[Iterable[int]], functions: Mapping[str, Mapping] = None):
        lv = tuple(frozenset(level) for level in levels)
        fns = tuple(
            PartialFn(name, 1, tuple(sorted(((a,) if not isinstance(a, tuple) else a, v) for a, v in graph.items())))
            for name, graph in (functions or {}).items()
        )
        return cls(lv, fns)

    def apply(self, base: FiniteStructure) -> FiniteStructure:
        """Base structure plus level relations plus the regressive functions."""
        problems = validate_enrichment(base, self)
        if problems:
            raise ValueError("invalid enrichment: " + "; ".join(problems))
        relations = {r.name: (r.arity, r.tuples) for r in base.relations}
        for i, level in enumerate(self.levels):
            relations[f"level:{i}"] = (1, {(e,) for e in level})
        functions = {f.name: (f.arity, f.as_dict) for f in base.functions}
        for f in self.functions:
            functions[f.name] = (1, f.as_dict)
        return FiniteStructure.make(base.size, relations=relations, functions=functions)


def trivial_enrichment(base: FiniteStructure) -> Enrichment:
    """Everything on level 0, no functions."""
    return Enrichment(levels=(frozenset(range(base.size)),))


def validate_enrichment(base: FiniteStructure, enr: Enrichment) -> list:
    """All ways ``enr`` fails to be a layered enrichment of ``base``; empty
    means valid."""
    out = []
    seen = {}
    for i, level in enumerate(enr.levels):
        for e in level:
            if not (0 <= e < base.size):
                out.append(f"level {i}: element {e} outside universe")
            elif e in seen:
                out.append(f"element {e} assigned to levels {seen[e]} and {i}")
            else:
                seen[e] = i
    missing = [e for e in range(base.size) if e not in seen]
    if missing:
        out.append(f"elements without a level: {missing}")
    taken = {r.name for r in base.relations} | {f.name for f in base.functions}
    taken |= {f"level:{i}" for i in range(len(enr.levels))}
    for f in enr.functions:
        if f.arity != 1:
            out.append(f"function {f.name}: must be unary")
            continue
        if f.name in taken:
            out.append(f"function {f.name}: name already used")
        for (a,), v in f.graph:
            if not (0 <= a < base.size and 0 <= v < base.size):
                out.append(f"function {f.name}: entry {((a,), v)} outside universe")
            elif a in seen and v in seen and seen[v] >= seen[a]:
                out.append(
                    f"function {f.name}: {a} (level {seen[a]}) maps to {v} "
                    f"(level {seen[v]}), not regressive"
                )
    names = [f.name for f in enr.functions]
    if len(set(names)) != len(names):
        out.append("enrichment function names must be distinct")
    return out
