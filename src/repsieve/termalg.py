"""Depth-bounded term algebras over a finite base, viewed as structures.

The key encoding choice: when a term table is turned into a
:class:`~repsieve.finstruct.FiniteStructure`, each application symbol
becomes a *relation* on its graph (arity k+1) while only the child
projections become partial functions.  Closing a set of terms under the
structure's functions therefore yields the subterm closure and never
invents new applications, which keeps every closure finite and small.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from functools import cached_property

from repsieve._record import record
from repsieve.finstruct import FiniteStructure

__all__ = [
    "AlgebraSignature",
    "Term",
    "TermAlgebra",
    "build_terms",
]

# The most terms one table may hold; ``build_terms`` raises as soon as it
# would pass this, and before it makes any term when the depth-0 terms do.
MAX_TERMS = 100_000


@record
class Term:
    """Either a base element (``sym is None``) or an application."""

    sym: str | None
    args: tuple = ()
    base: int | None = None

    def __post_init__(self):
        if (self.sym is None) == (self.base is None):
            raise ValueError("term is either a base element or an application, not both")
        if self.base is not None and self.args:
            raise ValueError("base terms take no arguments")

    @classmethod
    def of_base(cls, i: int) -> "Term":
        return cls(sym=None, base=i)

    @classmethod
    def app(cls, sym: str, args: Sequence["Term"] = ()) -> "Term":
        return cls(sym=sym, args=tuple(args))

    @property
    def is_base(self) -> bool:
        return self.sym is None

    @cached_property
    def depth(self) -> int:
        # nullary applications sit at depth 0, like base elements
        if not self.args:
            return 0
        return 1 + max(a.depth for a in self.args)

    def render(self) -> str:
        if self.is_base:
            return f"x{self.base}"
        if not self.args:
            return self.sym
        return f"{self.sym}({', '.join(a.render() for a in self.args)})"

    def __repr__(self):
        return f"Term[{self.render()}]"


@record
class AlgebraSignature:
    """Function symbols with arities, in a fixed order."""

    symbols: tuple  # of (name, arity)

    def __post_init__(self):
        names = [n for n, _ in self.symbols]
        if len(set(names)) != len(names):
            raise ValueError("symbol names must be distinct")
        for n, k in self.symbols:
            if k < 0:
                raise ValueError(f"symbol {n}: arity must be >= 0")

    @classmethod
    def make(cls, arities: Mapping[str, int]) -> "AlgebraSignature":
        return cls(tuple(sorted(arities.items())))

    def __iter__(self):
        return iter(self.symbols)


def build_terms(signature: AlgebraSignature, base_size: int, max_depth: int) -> list:
    """All terms of depth <= ``max_depth``, deduplicated, in deterministic
    order: by depth stage, base elements before applications, then signature
    order, then child ids lexicographically.  Raises ``ValueError`` once more
    than ``MAX_TERMS`` terms would be produced."""
    if base_size < 0 or max_depth < 0:
        raise ValueError("base_size and max_depth must be >= 0")
    constants = [n for n, k in signature if k == 0]
    # checked before any term is made: a huge base must not fill memory first
    if base_size + len(constants) > MAX_TERMS:
        raise ValueError(f"term table exceeds {MAX_TERMS} entries at depth 0")
    terms: list = [Term.of_base(i) for i in range(base_size)]
    terms += [Term.app(n) for n in constants]
    prev_len = 0  # terms with depth < current stage start before this index
    for _depth in range(1, max_depth + 1):
        stage_start = len(terms)
        for name, k in signature:
            if k == 0:
                continue
            for child_ids in itertools.product(range(stage_start), repeat=k):
                if all(i < prev_len for i in child_ids):
                    continue  # already produced at an earlier stage
                terms.append(Term.app(name, tuple(terms[i] for i in child_ids)))
                if len(terms) > MAX_TERMS:
                    raise ValueError(
                        f"term table exceeds {MAX_TERMS} entries at depth {_depth}"
                    )
        prev_len = stage_start
        if stage_start == len(terms):
            break  # nothing new can appear at greater depths either
    return terms


@record
class TermAlgebra:
    """A deduplicated depth-bounded term table with a relational view."""

    signature: AlgebraSignature
    base_size: int
    terms: tuple

    @classmethod
    def build(cls, signature: AlgebraSignature, base_size: int, max_depth: int) -> "TermAlgebra":
        return cls(signature, base_size, tuple(build_terms(signature, base_size, max_depth)))

    @cached_property
    def _ids(self) -> dict:
        return {t: i for i, t in enumerate(self.terms)}

    def __len__(self) -> int:
        return len(self.terms)

    def term_id(self, t: Term) -> int:
        return self._ids[t]

    def term(self, i: int) -> Term:
        return self.terms[i]

    @cached_property
    def as_structure(self) -> FiniteStructure:
        """Universe = term ids.  Application graphs become relations
        ``app:<sym>`` of arity k+1 (k = symbol arity); child projections
        become partial functions ``sub:<sym>:<j>``."""
        relations = {}
        functions = {}
        for name, k in self.signature:
            graph_rows = set()
            projections = [dict() for _ in range(k)]
            for i, t in enumerate(self.terms):
                if t.sym == name:
                    child_ids = tuple(self._ids[a] for a in t.args)
                    graph_rows.add(child_ids + (i,))
                    for j, c in enumerate(child_ids):
                        projections[j][(i,)] = c
            relations[f"app:{name}"] = (k + 1, graph_rows)
            for j in range(k):
                functions[f"sub:{name}:{j}"] = (1, projections[j])
        return FiniteStructure.make(len(self.terms), relations=relations, functions=functions)
