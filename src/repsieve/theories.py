"""Theory catalog with independence oracles, layered decompositions, and
the two representation builders.

The catalog covers pure sets, single equivalence relations, nested chains
of equivalence relations (all desk-scale and homogeneous: every class at a
level has the same size), and finite linear orders as a negative control.
For these, independence has an explicit combinatorial reading: a type over
A forks over B exactly when A pins something (the element itself, or a
class at some level) that B does not.  Nonforking extensions are unique
here, because a type that stays unpinned is completely determined by the
pins it inherits from the base; unique_nonforking therefore coincides with
not-forking, and the test suite cross-checks that against a direct rival
search over the model's automorphisms.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Sequence
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
    "nested_class_oracle",
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

    # tag -> its parameters: ``sizes`` lists the level sizes, every other
    # parameter is one positive integer
    KNOWN = {
        "pure_set": ("n",),
        "eq_rel": ("classes", "size"),
        "nested_eq_rel": ("sizes",),
        "linear_order": ("n",),
    }
    # Desk models are built by exhaustive search.  At the bound, build-ex2
    # takes 0.4 s on eq_rel 8x8 and 0.7 s on pure_set 64, whole command
    # (2-vCPU VM, Python 3.11); the README's Workspaces section has the table.
    MAX_UNIVERSE = 64

    @classmethod
    def make(cls, tag: str, **params) -> "TheorySpec":
        """Validated entry; an error message starts with the offending
        field, ``tag`` or ``params.<key>``."""
        if not isinstance(tag, str) or tag not in cls.KNOWN:
            raise ValueError(f"tag: unknown catalog tag {tag!r}")
        stray = sorted(params.keys() - set(cls.KNOWN[tag]))
        if stray:
            raise ValueError(f"params.{stray[0]}: not a parameter of {tag}")

        def positive(v):
            return isinstance(v, int) and not isinstance(v, bool) and v >= 1

        for key in cls.KNOWN[tag]:
            if key not in params:
                raise ValueError(f"params.{key}: missing")
            v = params[key]
            if key == "sizes":
                if not (isinstance(v, (list, tuple)) and len(v) >= 2 and all(map(positive, v))):
                    raise ValueError(
                        f"params.{key}: expected a list of at least two positive "
                        f"integers, got {v!r}"
                    )
            elif not positive(v):
                raise ValueError(f"params.{key}: expected a positive integer, got {v!r}")
        # every catalog model's universe size is the product of its parameters
        size = math.prod(
            x for key in cls.KNOWN[tag] for x in (params[key] if key == "sizes" else (params[key],))
        )
        if size > cls.MAX_UNIVERSE:
            raise ValueError(
                f"params: the desk model would have {size} elements, "
                f"more than the bound of {cls.MAX_UNIVERSE}"
            )
        return cls(tag, tuple(sorted(params.items())))

    def param(self, key):
        return dict(self.params)[key]


def _blocks(spec: TheorySpec) -> tuple:
    """A class-based catalog entry as nested blocks: how many parts each
    level splits a block of the level above into, coarsest first, and one
    relation name per level but the last, whose classes are its blocks."""
    if spec.tag == "pure_set":
        return (spec.param("n"),), ()
    if spec.tag == "eq_rel":
        return (spec.param("classes"), spec.param("size")), ("E",)
    if spec.tag == "nested_eq_rel":
        sizes = tuple(spec.param("sizes"))
        return sizes, tuple(f"E{j}" for j in range(len(sizes) - 1))
    raise ValueError(f"unknown catalog tag {spec.tag!r}")


def desk_model(spec: TheorySpec) -> FiniteStructure:
    """The concrete finite structure for a catalog entry.  Homogeneous by
    construction: classes at each level share a size, so orbit types agree
    with the intended theory on the tuple lengths the checkers look at."""
    if spec.tag == "linear_order":
        n = spec.param("n")
        lt = {(i, j) for i in range(n) for j in range(n) if i < j}
        return FiniteStructure.make(n, relations={"lt": (2, lt)})
    sizes, names = _blocks(spec)
    n = block = math.prod(sizes)
    relations = {}
    for parts, name in zip(sizes, names):
        block //= parts
        classes = (range(start, start + block) for start in range(0, n, block))
        relations[name] = (2, {p for c in classes for p in itertools.product(c, repeat=2)})
    return FiniteStructure.make(n, relations=relations)


@record
class IndependenceOracle:
    """Callback bundle answering independence questions for one desk model.

    forks(a, A, B): does the type of a over A fork over B (B ⊆ A expected).
    unique_nonforking(a, A, B): is the type of a over A the unique
    nonforking extension of its type over B.
    base(a, A): a small B ⊆ A over which the type of a over A does not
    fork, as a sorted tuple.
    canonical_params(phi, a, below): length-2 parameter tuple from which
    the phi-pattern of a over the (sorted) below set is recoverable.
    level_names: the model's equivalence relations, finest first.
    """

    forks: Callable
    unique_nonforking: Callable
    base: Callable
    canonical_params: Callable
    level_names: tuple = ()


def nested_class_oracle(m: FiniteStructure, level_names: Sequence[str]) -> IndependenceOracle:
    """Oracle for a model carrying zero or more equivalence relations,
    listed finest first (each must refine the next)."""
    level_names = tuple(level_names)
    mates = {}
    for name in level_names:
        rel = m.relation(name)
        if rel.arity != 2:
            raise ValueError(f"{name} is not binary")
        table = {}
        for x, y in rel.tuples:
            table.setdefault(x, set()).add(y)
        mates[name] = {x: frozenset(v) for x, v in table.items()}

    def forks(a, big, small):
        big, small = set(big), set(small)
        if a in big and a not in small:
            return True
        for name in level_names:
            cls = mates[name].get(a, frozenset())
            if cls & big and not cls & small:
                return True
        return False

    def unique_nonforking(a, big, small):
        # nonforking extensions are unique in this catalog (see module
        # docstring), so uniqueness reduces to not forking
        return not forks(a, big, small)

    def base(a, avail):
        avail = set(avail)
        if a in avail:
            return (a,)
        for name in level_names:
            anchored = mates[name].get(a, frozenset()) & avail
            if anchored:
                return (min(anchored),)
        return ()

    def canonical_params(phi, a, below):
        below = sorted(below)
        if len(below) < 2:
            raise ValueError("canonical parameters need at least two earlier elements")
        if phi not in mates:
            raise ValueError(f"unknown level relation {phi!r}")
        anchored = mates[phi].get(a, frozenset()) & set(below)
        if anchored:
            c = min(anchored)
            return (c, c)
        return (below[0], below[1])

    return IndependenceOracle(
        forks=forks,
        unique_nonforking=unique_nonforking,
        base=base,
        canonical_params=canonical_params,
        level_names=level_names,
    )


def theory_oracle(spec: TheorySpec, m: FiniteStructure) -> IndependenceOracle:
    if spec.tag == "linear_order":
        raise NotImplementedError("no independence oracle for an unstable catalog entry")
    return nested_class_oracle(m, _blocks(spec)[1][::-1])


def check_strongly_independent(o: IndependenceOracle, elems, over) -> bool:
    """True iff every element's type over everything else (the other
    elements plus the over-set) is the unique nonforking extension of its
    type over the over-set alone."""
    elems, over = set(elems), set(over)
    if elems & over:
        raise ValueError("element set and base set must be disjoint")
    return all(
        o.unique_nonforking(a, over | (elems - {a}), over) for a in sorted(elems)
    )


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
    model: FiniteStructure
    oracle: IndependenceOracle

    @cached_property
    def records(self) -> tuple:
        """ElementRecord per element, sorted by element."""
        o, m = self.oracle, self.model
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

    @cached_property
    def _by_element(self) -> dict:
        return {rec.element: rec for rec in self.records}

    def record(self, a: int) -> ElementRecord:
        return self._by_element[a]

    def below(self, layer_index: int) -> tuple:
        return tuple(
            sorted(x for layer in self.layers[:layer_index] for x in layer)
        )


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


def build_sid(o: IndependenceOracle, m: FiniteStructure, mode: str = "omega_stable") -> Decomposition:
    """Greedy layered decomposition in ascending element order.

    generic: each layer is a maximal strongly-independent set over the
    earlier layers.  omega_stable: the first layer is a maximal
    indiscernible set over the empty set; each later layer admits an
    element when every member (including it) keeps the unique-nonforking
    property over its own small base drawn from the earlier layers.
    """
    if mode not in ("generic", "omega_stable"):
        raise ValueError(f"unknown mode {mode!r}")
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
                ok = all(
                    o.unique_nonforking(
                        x,
                        set(below) | (set(trial) - {x}),
                        o.base(x, below),
                    )
                    for x in trial
                )
            if ok:
                layer.append(a)
        if not layer:
            raise RuntimeError(
                "no element can start a new layer; the oracle does not fit the model"
            )
        layers.append(tuple(layer))
        remaining -= set(layer)
        below = sorted(set(below) | set(layer))
    return Decomposition(layers=tuple(layers), mode=mode, model=m, oracle=o)


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
    o, m = d.oracle, d.model
    out = []
    flat = sorted(x for layer in d.layers for x in layer)
    if flat != list(range(m.size)):
        out.append("layers do not partition the universe")
        return out
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
            base = set(d.record(a).base)
            if not base <= below:
                out.append(f"base of {a} leaves the earlier layers")
            elif not o.unique_nonforking(a, below | (set(layer) - {a}), base):
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
    refined = Decomposition(tuple(new_layers), d.mode, d.model, d.oracle)
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
            rec = d.record(a)
            arity = len(rec.base)
            head = "c" if arity == 0 else "F"
            if mode == "copy_index":
                name = f"{head}[{rec.type_tag},{rec.copy_index}]"
            else:
                name = f"{head}[{rec.type_tag}]"
            prior = symbols.setdefault(name, arity)
            if prior != arity:
                raise RuntimeError(f"symbol {name} used at arities {prior} and {arity}")
            term_of[a] = Term.app(name, tuple(term_of[c] for c in rec.base))
    depth = max((t.depth for t in term_of.values()), default=0)
    ta = TermAlgebra.build(AlgebraSignature.make(symbols), len(first), depth)
    base = ta.as_structure
    enr = trivial_enrichment(base)
    f = {a: ta.term_id(t) for a, t in term_of.items()}
    return RepresentationMap.make(d.model, enr.apply(base), f, carrier=ta, enrichment=enr)


def build_layer_representation(d: Decomposition) -> RepresentationMap:
    """Identity map into a bare copy of the universe enriched with the
    layers as levels, two parameter functions per level relation, and one
    function enumerating each element's base."""
    if len(d.layers) < 2 or len(d.layers[0]) != 1 or len(d.layers[1]) != 1:
        raise ValueError(
            "first two layers must be singletons; refine the decomposition first"
        )
    o, m = d.oracle, d.model
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
            for i, value in enumerate(d.record(a).base):
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
