"""Theory catalog with independence oracles, layered decompositions, and
the two representation builders.

The catalog covers pure sets, single equivalence relations, nested chains
of equivalence relations (all desk-scale and homogeneous: every class at a
level has the same size), and finite linear orders as a negative control.
For the stable entries, independence has an explicit combinatorial
reading, and an ``IndependenceOracle`` answers three questions about its
model: does a type fork (a type over A forks over B exactly when A pins
something, the element itself or a class at some level, that B does not),
over which small base does it not fork, and which canonical parameters
recover a level's pattern.  Types over sets are stationary here: a type
that stays unpinned is completely determined by the pins it inherits from
the base, so its nonforking extension is unique, and "the unique
nonforking extension" of the layer conditions is simply "does not fork".
The test suite cross-checks that against a direct rival search over the
model's automorphisms.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from functools import cached_property

from repsieve._record import record
from repsieve.enrich import Enrichment, trivial_enrichment
from repsieve.finstruct import FiniteStructure, qf_type, verify_indiscernible
from repsieve.represent import RepresentationMap
from repsieve.termalg import AlgebraSignature, Term, TermAlgebra

__all__ = [
    "TheorySpec",
    "IndependenceOracle",
    "ElementRecord",
    "Decomposition",
    "desk_model",
    "theory_oracle",
    "check_strongly_independent",
    "build_sid",
    "verify_decomposition",
    "singleton_prefix",
    "build_term_representation",
    "build_layer_representation",
]

@record
class TheorySpec:
    """Catalog entry: a tag plus its desk-model parameters."""

    tag: str
    params: tuple

    # Desk models are built by exhaustive search.  At the bound, build-ex2
    # takes 0.4 s on eq_rel 8x8 and 0.7 s on pure_set 64, whole command
    # (2-vCPU VM, Python 3.11); the README's Workspaces section has the table.
    MAX_UNIVERSE = 64

    @classmethod
    def make(cls, tag: str, **params) -> "TheorySpec":
        """Validated entry with normalised parameters; an error message
        starts with the offending field, ``tag`` or ``params.<key>``."""
        if not isinstance(tag, str) or tag not in _CATALOG:
            raise ValueError(f"tag: unknown catalog tag {tag!r}")
        row = _CATALOG[tag]
        stray = sorted(params.keys() - row.params.keys())
        if stray:
            raise ValueError(f"params.{stray[0]}: not a parameter of {tag}")
        for key, check in row.params.items():
            if key not in params:
                raise ValueError(f"params.{key}: missing")
            params[key] = check(key, params[key])
        size = math.prod(row.levels(**params)[0])
        if size > cls.MAX_UNIVERSE:
            raise ValueError(
                f"params: the desk model would have {size} elements, "
                f"more than the bound of {cls.MAX_UNIVERSE}"
            )
        return cls(tag, tuple(sorted(params.items())))

    def param(self, key):
        return dict(self.params)[key]


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


def _positive(key, v) -> int:
    if not _is_count(v):
        raise ValueError(f"params.{key}: expected a positive integer, got {v!r}")
    return v


def _level_sizes(key, v) -> tuple:
    listed, bound = isinstance(v, (list, tuple)), TheorySpec.MAX_UNIVERSE
    if listed and len(v) > bound:
        raise ValueError(f"params.{key}: {len(v)} levels, more than the bound of {bound}")
    if listed and len(v) >= 2 and all(map(_is_count, v)):
        return tuple(v)
    raise ValueError(f"params.{key}: expected a list of at least two positive integers, got {v!r}")


def _blocks(sizes, names) -> FiniteStructure:
    """Nested blocks: level j splits each block of the level above into
    ``sizes[j]`` parts, and relation ``names[j]`` holds within a part."""
    n = block = math.prod(sizes)
    relations = {}
    for parts, name in zip(sizes, names):
        block //= parts
        classes = (range(start, start + block) for start in range(0, n, block))
        relations[name] = (2, {p for c in classes for p in itertools.product(c, repeat=2)})
    return FiniteStructure.make(n, relations=relations)


def _linear_order(sizes, names) -> FiniteStructure:
    lt = set(itertools.combinations(range(sizes[0]), 2))
    return FiniteStructure.make(sizes[0], relations={"lt": (2, lt)})


@record
class _Entry:
    params: dict  # key -> check(key, value), which returns the value normalised
    levels: object  # **params -> (part counts coarsest first, one name per level but the last)
    build: object  # (part counts, names) -> desk model; its size is the counts' product
    stable: bool  # has an independence oracle


_CATALOG = {
    "pure_set": _Entry({"n": _positive}, lambda n: ((n,), ()), _blocks, True),
    "eq_rel": _Entry(
        {"classes": _positive, "size": _positive}, lambda classes, size: ((classes, size), ("E",)),
        _blocks, True,
    ),
    "nested_eq_rel": _Entry(
        {"sizes": _level_sizes}, lambda sizes: (sizes, tuple(f"E{j}" for j in range(len(sizes) - 1))),
        _blocks, True,
    ),
    "linear_order": _Entry({"n": _positive}, lambda n: ((n,), ()), _linear_order, False),
}


def _levels(spec: TheorySpec) -> tuple:
    """The spec's catalog row, its part counts and its relation names."""
    row = _CATALOG.get(spec.tag)
    if row is None:
        raise ValueError(f"unknown catalog tag {spec.tag!r}")
    return (row, *row.levels(**dict(spec.params)))


def desk_model(spec: TheorySpec) -> FiniteStructure:
    """The concrete finite structure for a catalog entry.  Homogeneous by
    construction: classes at each level share a size, so orbit types agree
    with the intended theory on the tuple lengths the checkers look at."""
    row, sizes, names = _levels(spec)
    return row.build(sizes, names)


class IndependenceOracle:
    """Independence in one model carrying zero or more equivalence
    relations, listed finest first; each must refine the next.

    forks(a, A, B): does the type of a over A fork over B (B ⊆ A expected).
    base(a, A): a small B ⊆ A over which the type of a over A does not
    fork, as a sorted tuple.
    canonical_params(phi, a, below): length-2 parameter tuple from which
    the phi-pattern of a over the (sorted) below set is recoverable.
    """

    def __init__(self, model: FiniteStructure, level_names: Sequence[str]):
        self.model = model
        self.level_names = tuple(level_names)
        self._mates = {}  # level -> element -> its class at that level
        universe = range(model.size)
        for finer, name in zip((None,) + self.level_names, self.level_names):
            rel = model.relation(name)
            if rel.arity != 2:
                raise ValueError(f"{name} is not binary")
            table = {}
            for x, y in rel.tuples:
                table.setdefault(x, set()).add(y)
            mates = {x: frozenset(v) for x, v in table.items()}
            # reflexive, and every mate of x has the mates of x
            if any(
                x not in mates.get(x, ()) or any(mates.get(y) != mates[x] for y in mates[x])
                for x in universe
            ):
                raise ValueError(f"{name} is not an equivalence relation")
            if finer is not None and any(not self._mates[finer][x] <= mates[x] for x in universe):
                raise ValueError(f"{finer} does not refine {name}")
            self._mates[name] = mates

    def forks(self, a, big, small) -> bool:
        big, small = set(big), set(small)
        if a in big and a not in small:
            return True
        for name in self.level_names:
            cls = self._mates[name][a]
            if cls & big and not cls & small:
                return True
        return False

    def base(self, a, avail) -> tuple:
        avail = set(avail)
        if a in avail:
            return (a,)
        for name in self.level_names:
            anchored = self._mates[name][a] & avail
            if anchored:
                return (min(anchored),)
        return ()

    def canonical_params(self, phi, a, below) -> tuple:
        below = sorted(below)
        if len(below) < 2:
            raise ValueError("canonical parameters need at least two earlier elements")
        if phi not in self._mates:
            raise ValueError(f"unknown level relation {phi!r}")
        anchored = self._mates[phi][a] & set(below)
        if anchored:
            return (min(anchored),) * 2
        return (below[0], below[1])


def theory_oracle(spec: TheorySpec) -> IndependenceOracle:
    row, sizes, names = _levels(spec)
    if not row.stable:
        raise NotImplementedError("no independence oracle for an unstable catalog entry")
    return IndependenceOracle(row.build(sizes, names), names[::-1])


def check_strongly_independent(o: IndependenceOracle, elems, over) -> bool:
    """True iff every element's type over everything else (the other
    elements plus the over-set) is the unique nonforking extension of its
    type over the over-set alone."""
    elems, over = set(elems), set(over)
    if elems & over:
        raise ValueError("element set and base set must be disjoint")
    return not any(o.forks(a, over | (elems - {a}), over) for a in sorted(elems))


@record
class ElementRecord:
    element: int
    layer: int
    base: tuple  # sorted enumeration of the element's base set
    # qf type of the element joined to its base enumeration, as "t0", "t1",
    # ... in first-encounter order over (layer, element)
    type_tag: str
    copy_index: int  # rank among same-layer elements sharing (base, type)


@record
class Decomposition:
    layers: tuple  # tuple of ascending element tuples
    mode: str  # "generic" | "omega_stable"
    oracle: IndependenceOracle

    @cached_property
    def records(self) -> tuple:
        """ElementRecord per element, sorted by element; the layers
        partition 0..n-1, so ``records[a]`` is element a's record."""
        o, m = self.oracle, self.oracle.model
        records = {}
        tags: dict = {}  # qf type id -> tag
        earlier: list = []
        for idx, layer in enumerate(self.layers):
            seen: dict = {}
            for a in layer:
                b = tuple(sorted(o.base(a, earlier)))
                tag = tags.setdefault(qf_type(m, (a,) + b), f"t{len(tags)}")
                k = seen.get((b, tag), 0)
                seen[(b, tag)] = k + 1
                records[a] = ElementRecord(a, idx, b, tag, k)
            earlier.extend(layer)
            earlier.sort()
        return tuple(records[a] for a in sorted(records))

    def below(self, layer_index: int) -> tuple:
        return tuple(sorted(x for layer in self.layers[:layer_index] for x in layer))


def _max_indiscernible(m: FiniteStructure) -> tuple:
    """Largest set whose ordered pairs all share one orbit (a root of the
    model's length-2 orbit table), grown greedily from every symmetric
    seed pair; ties favor the smallest set."""
    n = m.size
    best = (0,) if n else ()
    cls = m.orbits.build_table(2).root
    for i, j in itertools.combinations(range(n), 2):
        ref = cls[i * n + j]
        if cls[j * n + i] != ref:
            continue
        group = [i, j]
        for c in range(n):
            if c not in group and all(cls[x * n + c] == ref == cls[c * n + x] for x in group):
                group.append(c)
        cand = tuple(sorted(group))
        if (-len(cand), cand) < (-len(best), best):
            best = cand
    return best


def build_sid(o: IndependenceOracle, mode: str = "omega_stable") -> Decomposition:
    """Greedy layered decomposition in ascending element order.

    generic: each layer is a maximal strongly-independent set over the
    earlier layers.  omega_stable: the first layer is a maximal
    indiscernible set over the empty set; each later layer admits an
    element when every member (including it) keeps the unique-nonforking
    property over its own small base drawn from the earlier layers.  A
    layer's first element never forks over its own base, so every layer is
    nonempty.
    """
    if mode not in ("generic", "omega_stable"):
        raise ValueError(f"unknown mode {mode!r}")
    m = o.model
    remaining = set(range(m.size))
    layers: list = []
    below: list = []
    if mode == "omega_stable" and m.size:
        first = _max_indiscernible(m)
        layers.append(first)
        remaining -= set(first)
        below = sorted(first)
    while remaining:
        layer: list = []
        for a in sorted(remaining):
            trial = layer + [a]
            if mode == "generic":
                ok = check_strongly_independent(o, trial, below)
            else:
                ok = not any(
                    o.forks(x, set(below) | (set(trial) - {x}), o.base(x, below))
                    for x in trial
                )
            if ok:
                layer.append(a)
        layers.append(tuple(layer))
        remaining -= set(layer)
        below = sorted(set(below) | set(layer))
    return Decomposition(layers=tuple(layers), mode=mode, oracle=o)


def verify_decomposition(d: Decomposition) -> list:
    """All ways the layers fail their mode's defining conditions; empty
    means sound.

    generic: every layer is strongly independent over its predecessors.
    omega_stable: the first layer is an indiscernible set (the builder
    additionally picks a maximal one, which is not re-checked here); every
    later element's type over everything before and beside it is the
    unique nonforking extension of its type over its recorded base, which
    must sit inside the earlier layers.
    """
    o, m = d.oracle, d.oracle.model
    if sorted(x for layer in d.layers for x in layer) != list(range(m.size)):
        return ["layers do not partition the universe"]
    out = []
    if d.mode == "generic":
        for idx, layer in enumerate(d.layers):
            if not check_strongly_independent(o, set(layer), set(d.below(idx))):
                out.append(f"layer {idx} is not strongly independent over its predecessors")
        return out
    first = d.layers[0] if d.layers else ()
    if not verify_indiscernible(m, [(e,) for e in first], range(len(first))):
        out.append("first layer is not an indiscernible set")
    for idx, layer in enumerate(d.layers[1:], start=1):
        below = set(d.below(idx))
        for a in layer:
            base = set(d.records[a].base)
            if not base <= below:
                out.append(f"base of {a} leaves the earlier layers")
            elif o.forks(a, below | (set(layer) - {a}), base):
                out.append(f"{a} has no unique nonforking type over its base")
    return out


def singleton_prefix(d: Decomposition) -> Decomposition:
    """The minimal order-preserving refinement whose first two layers are
    singletons, as the layer builder requires.  Records are rebuilt against
    the new layer boundaries, which must still meet the layer conditions."""
    layers = d.layers
    if len(layers) >= 2 and len(layers[0]) == 1 and len(layers[1]) == 1:
        return d
    if sum(map(len, layers)) < 2:
        raise ValueError("need at least two elements for two singleton layers")
    new_layers: list = []
    for layer in layers:
        if len(new_layers) >= 2:
            new_layers.append(layer)
            continue
        need = 2 - len(new_layers)
        cut = min(need, len(layer))
        for x in layer[:cut]:
            new_layers.append((x,))
        rest = layer[cut:]
        if rest:
            new_layers.append(rest)
    refined = Decomposition(tuple(new_layers), d.mode, d.oracle)
    problems = verify_decomposition(refined)
    if problems:
        raise ValueError("refinement breaks the layer conditions: " + "; ".join(problems))
    return refined


def build_term_representation(d: Decomposition, mode: str = "copy_index") -> RepresentationMap:
    """Map the first layer onto fresh base elements and every later element
    onto a function symbol applied to the images of its base enumeration.
    The symbol is chosen by the element's type (and copy index, unless the
    literal mode is asked for, which reuses one symbol per type and lets
    same-type siblings collapse onto a single term)."""
    if mode not in ("copy_index", "literal"):
        raise ValueError(f"unknown mode {mode!r}")
    if d.mode != "omega_stable":
        raise ValueError("needs a decomposition built in omega_stable mode")
    if not d.layers:
        raise ValueError("empty decomposition")
    term_of: dict = {}
    symbols: dict = {}
    first = d.layers[0]
    for rank, a in enumerate(first):
        term_of[a] = Term.of_base(rank)
    for layer in d.layers[1:]:
        for a in layer:
            rec = d.records[a]
            arity = len(rec.base)
            head = "c" if arity == 0 else "F"
            copy = f",{rec.copy_index}" if mode == "copy_index" else ""
            name = f"{head}[{rec.type_tag}{copy}]"
            prior = symbols.setdefault(name, arity)
            if prior != arity:
                raise RuntimeError(f"symbol {name} used at arities {prior} and {arity}")
            term_of[a] = Term.app(name, tuple(term_of[c] for c in rec.base))
    depth = max((t.depth for t in term_of.values()), default=0)
    ta = TermAlgebra.build(AlgebraSignature.make(symbols), len(first), depth)
    base = ta.as_structure
    enr = trivial_enrichment(base)
    f = {a: ta.term_id(t) for a, t in term_of.items()}
    return RepresentationMap.make(d.oracle.model, enr.apply(base), f, carrier=ta, enrichment=enr)


def build_layer_representation(d: Decomposition) -> RepresentationMap:
    """Identity map into a bare copy of the universe enriched with the
    layers as levels, two parameter functions per level relation, and one
    function enumerating each element's base."""
    if len(d.layers) < 2 or len(d.layers[0]) != 1 or len(d.layers[1]) != 1:
        raise ValueError("first two layers must be singletons; refine the decomposition first")
    o, m = d.oracle, d.oracle.model
    functions: dict = {}
    star: dict = {}
    for idx, layer in enumerate(d.layers[2:], start=2):
        below = d.below(idx)
        below_set = set(below)
        for a in layer:
            for phi in o.level_names:
                params = o.canonical_params(phi, a, below)
                for j, value in enumerate(params):
                    if value not in below_set:
                        raise ValueError(
                            f"canonical parameter {value} for {a} lies outside "
                            "the earlier layers"
                        )
                    functions.setdefault(f"F[{phi},{j}]", {})[a] = value
            for i, value in enumerate(d.records[a].base):
                if value not in below_set:
                    raise ValueError(
                        f"base element {value} for {a} lies outside the earlier layers"
                    )
                star.setdefault(f"F*{i}", {})[a] = value
    functions.update(star)
    enr = Enrichment.make([set(layer) for layer in d.layers], functions)
    target = enr.apply(FiniteStructure.make(m.size))
    f = {a: a for a in range(m.size)}
    return RepresentationMap.make(m, target, f, enrichment=enr)
