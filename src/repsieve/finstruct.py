"""Finite relational structures with partial functions and type oracles.

A structure carries named relations and named partial functions over a
universe ``{0, ..., size-1}``.  Two oracles matter downstream:

``qf_type``
    quantifier-free type of a tuple: the isomorphism type of the tuple's
    closure under the partial functions, with the tuple positions marked
    as generators.  It is an int id from the structure's prefix trie
    ``s.qf_types``, so it compares only with ids of the same structure.

``type_equal``
    full-type equality of two tuples in the same structure, either exact
    (``"orbit"``: some automorphism maps one tuple to the other pointwise,
    answered by the structure's ``OrbitEngine``) or approximate
    (``("ef", d)``: the duplicator survives ``d`` rounds of the
    back-and-forth game).  The approximation has one-sided error: it
    may conflate tuples that lie in different orbits, never the converse,
    and it coincides with the orbit oracle at depth ``size``.  So the game
    is played only for tuples the orbit oracle puts in different orbits.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import cached_property

from repsieve._record import record

__all__ = [
    "Relation",
    "PartialFn",
    "FiniteStructure",
    "PartialAutomorphism",
    "qf_closure",
    "qf_type",
    "type_equal",
    "verify_indiscernible",
    "OrbitEngine",
    "automorphism_extending",
]


@record
class Relation:
    name: str
    arity: int
    tuples: frozenset

    def __post_init__(self):
        for t in self.tuples:
            if len(t) != self.arity:
                raise ValueError(f"relation {self.name}: tuple {t} has arity != {self.arity}")


@record
class PartialFn:
    """Partial function given by its graph, stored as sorted (args, value) pairs."""

    name: str
    arity: int
    graph: tuple

    def __post_init__(self):
        seen = {}
        for args, val in self.graph:
            if len(args) != self.arity:
                raise ValueError(f"function {self.name}: args {args} have arity != {self.arity}")
            if seen.setdefault(args, val) != val:
                raise ValueError(f"function {self.name}: graph is not single-valued at {args}")

    @cached_property
    def as_dict(self) -> dict:
        return dict(self.graph)


@record
class FiniteStructure:
    size: int
    relations: tuple = ()
    functions: tuple = ()

    def __post_init__(self):
        if self.size < 0:
            raise ValueError("universe size must be >= 0")
        names = [r.name for r in self.relations] + [f.name for f in self.functions]
        if len(set(names)) != len(names):
            raise ValueError("relation/function names must be distinct")
        for r in self.relations:
            for t in r.tuples:
                if any(not (0 <= e < self.size) for e in t):
                    raise ValueError(f"relation {r.name}: tuple {t} outside universe")
        for f in self.functions:
            for args, val in f.graph:
                if any(not (0 <= e < self.size) for e in args) or not (0 <= val < self.size):
                    raise ValueError(f"function {f.name}: entry {(args, val)} outside universe")

    @classmethod
    def make(cls, size, relations=None, functions=None):
        """Build from friendlier inputs.

        ``relations``: mapping name -> (arity, iterable of tuples).
        ``functions``: mapping name -> (arity, mapping args-tuple -> value).
        """
        rels = tuple(
            Relation(name, arity, frozenset(tuple(t) for t in tuples))
            for name, (arity, tuples) in (relations or {}).items()
        )
        fns = tuple(
            PartialFn(name, arity, tuple(sorted((tuple(a), v) for a, v in graph.items())))
            for name, (arity, graph) in (functions or {}).items()
        )
        return cls(size, rels, fns)

    def relation(self, name) -> Relation:
        return self._rel_index[name]

    @cached_property
    def _rel_index(self) -> dict:
        return {r.name: r for r in self.relations}

    @cached_property
    def _atom_index(self) -> tuple:
        """Every relation tuple and function entry as ``(symbol name,
        elements)``, a function entry reading as ``args + (value,)``: the set
        of all atoms; per element the atoms that mention it, each once; and
        per element the function entries ``(name, args, value)`` it is an
        argument of, each once, with the constants filed under ``None``."""
        atoms = [(r.name, tup) for r in self.relations for tup in r.tuples]
        entries = {e: [] for e in (None, *range(self.size))}
        for f in self.functions:
            for args, val in f.graph:
                atoms.append((f.name, args + (val,)))
                for a in dict.fromkeys(args or (None,)):
                    entries[a].append((f.name, args, val))
        incidence = [[] for _ in range(self.size)]
        for atom in atoms:
            for e in dict.fromkeys(atom[1]):
                incidence[e].append(atom)
        return frozenset(atoms), incidence, entries

    # game positions of the ("ef", d) oracle, keyed per structure instance
    @cached_property
    def _ef_memo(self) -> dict:
        return {}

    @cached_property
    def orbits(self) -> "OrbitEngine":
        return OrbitEngine(self)

    @cached_property
    def qf_types(self) -> "_QfTrie":
        return _QfTrie(self)


def _closure_steps(s: FiniteStructure, closed: set, fresh) -> Iterator[tuple]:
    """Close ``closed`` in place under the structure's partial functions and
    yield each element it gains as ``(value, name, args)``, after all of its
    arguments.  ``closed`` minus its elements in ``fresh`` must be empty or
    closed: a worklist reads the constants, then the function entries of
    each fresh or gained element, each once, and no graph is rescanned."""
    entries = s._atom_index[2]
    work = [None, *fresh]
    for e in work:  # grows while it is walked
        for name, args, val in entries[e]:
            if val not in closed and all(a in closed for a in args):
                closed.add(val)
                work.append(val)
                yield val, name, args


def qf_closure(s: FiniteStructure, elems: Iterable[int]) -> list:
    """Closure of ``elems`` under the structure's partial functions, as a
    list: the inputs first, in order and without repeats, then each value
    after its arguments, found without graph rescans (``_closure_steps``)."""
    order = list(dict.fromkeys(elems))
    order += [v for v, _, _ in _closure_steps(s, set(order), order)]
    return order


def _qf_extend(old: dict, seeds, entries, incidence) -> tuple:
    """Extend the labelled closure ``old`` (element -> label) by ``seeds``
    and all they generate; return ``(delta, new, reads)``.

    New elements get the next labels in an order fixed by labels alone:
    the seeds, then, per new element in label order, the values of the
    function entries whose highest-labelled argument it is, sorted by
    symbol and argument labels.  ``new`` maps them to their labels.
    ``delta`` holds their number and every atom that mentions one,
    relabelled and listed once, at its highest-labelled element.  The
    result depends on ``old`` only through ``len(old)`` and ``reads``:
    each element whose label in ``old`` was looked up, in first-read
    order, with that label or -1 when it has none."""
    base = len(old)
    new: dict = {}
    reads: dict = {}

    def get(z):
        got = new.get(z)
        if got is None:
            got = reads.get(z)
            if got is None:
                got = reads[z] = old.get(z, -1)
        return got

    queue = []
    for x in seeds:
        if get(x) < 0:
            new[x] = base + len(queue)
            queue.append(x)
    for e in queue:  # grows while it is walked
        mine = new[e]
        placed = []
        for name, args, val in entries[e]:
            labels = tuple(map(get, args))
            if -1 not in labels and max(labels) == mine:
                placed.append((name, labels, val))
        placed.sort()
        for _, _, val in placed:
            if get(val) < 0:
                new[val] = base + len(queue)
                queue.append(val)
    atoms = []
    for e in queue:
        mine = new[e]
        for name, elems in incidence[e]:
            labels = tuple(map(get, elems))
            if -1 not in labels and max(labels) == mine:
                atoms.append((name, labels))
    atoms.sort()
    return (len(queue), tuple(atoms)), new, reads


def qf_type(s: FiniteStructure, t: Sequence[int]) -> int:
    """The qf type of ``t`` as an id of ``s.qf_types``: two tuples of ``s``
    get one id exactly when an isomorphism of their closures maps one
    tuple onto the other pointwise.  Ids compare only within ``s``."""
    t = tuple(t)
    for x in t:
        if not (0 <= x < s.size):
            raise ValueError(f"tuple element {x} outside universe of size {s.size}")
    return s.qf_types._node(t)[0]


class _QfTrie:
    """Interned qf type ids of one structure's tuples, along a prefix trie.

    A tuple's type is its list of deltas, one per prefix: for the empty
    tuple, the ``_qf_extend`` delta of the constants; for each next
    element, its label when it already lies in the closure, else the
    ``_qf_extend`` delta of the elements it brings in.  A tuple generates
    its closure, so an isomorphism of two closures that fixes the tuples
    pointwise is unique, and it preserves the labels, which depend on
    nothing but the labelled structure.  Equal delta lists build the same
    labelled closure, and qf-equal tuples have equal deltas, prefix by
    prefix: such an isomorphism restricts to every prefix closure.

    The id of ``t + (x,)`` is interned from the id of ``t`` and the id of
    x's delta, so ids are comparable only within one trie.  The one memo
    is the decision tree of ``_step``: extensions are memoised per
    appended element and closure size, over the labels ``_qf_extend``
    read, and a lookup follows the labels the tuple's closure gives those
    elements.  Each walk re-steps its prefixes through that tree."""

    def __init__(self, s: FiniteStructure):
        _, self._incidence, self._entries = s._atom_index
        self._deltas: dict = {}  # delta -> id
        self._ids: dict = {}  # (parent id, delta id) -> id
        self._steps: dict = {}  # (x, len(label)) -> decision tree
        constants = [val for _, _, val in sorted(self._entries[None])]
        delta, label, _ = _qf_extend({}, constants, self._entries, self._incidence)
        self._root = (self._intern(None, delta), label)

    def _intern(self, parent, delta) -> int:
        delta_id = self._deltas.setdefault(delta, len(self._deltas))
        return self._ids.setdefault((parent, delta_id), len(self._ids))

    def _step(self, label: dict, x: int) -> tuple:
        """``(delta, new)`` for appending ``x`` to a tuple whose closure is
        labelled by ``label``; ``new`` is empty when x lies in the closure.
        A memo tree node is ``[element, {label: child}]``, a leaf the result."""
        got = label.get(x)
        if got is not None:
            return got, {}
        node = self._steps.get((x, len(label)))
        while type(node) is list:
            node = node[1].get(label.get(node[0], -1))
        if node is None:
            delta, new, reads = _qf_extend(label, (x,), self._entries, self._incidence)
            node = (delta, new)
            slot, at = self._steps, (x, len(label))
            for z, got in reads.items():
                if at not in slot:
                    slot[at] = [z, {}]
                slot, at = slot[at][1], got
            slot[at] = node
        return node

    def _node(self, t: tuple) -> tuple:
        """``(id, label)`` of ``t``, appending its elements one by one to
        the root through ``_step`` and interning each prefix's id."""
        parent, label = self._root
        label = dict(label)
        for x in t:
            delta, new = self._step(label, x)
            parent = self._intern(parent, delta)
            label.update(new)
        return parent, label

    def extension_ids(self, t: tuple, xs: Sequence[int]) -> list:
        """The id of ``t + (x,)`` for each ``x`` of ``xs``, in order."""
        parent, label = self._node(t)
        ids = {x: self._intern(parent, self._step(label, x)[0]) for x in dict.fromkeys(xs)}
        return [ids[x] for x in xs]


# ---------------------------------------------------------------------------
# Consistency of a candidate pair (x -> c) against a partial injective map.
# Checks every relation tuple and function-graph entry whose support becomes
# fully assigned on either side; this makes completed maps preserve all
# relations and graphs in both directions.


def _delta_consistent(s: FiniteStructure, fwd: dict, bwd: dict, x: int, c: int) -> bool:
    # one pass per side: an atom with an unassigned element maps to None
    atoms, incidence, _ = s._atom_index
    get = fwd.get
    for name, elems in incidence[x]:
        image = [c if e == x else get(e) for e in elems]
        if None not in image and (name, tuple(image)) not in atoms:
            return False
    get = bwd.get
    for name, elems in incidence[c]:
        image = [x if e == c else get(e) for e in elems]
        if None not in image and (name, tuple(image)) not in atoms:
            return False
    return True


def _admit_pairs(s: FiniteStructure, pairs) -> tuple:
    """Build (fwd, bwd) from pairs with injectivity + atomic checks, or None."""
    fwd, bwd = {}, {}
    for a, b in pairs:
        if a in fwd:
            if fwd[a] != b:
                return None
            continue
        if b in bwd:
            return None
        if not _delta_consistent(s, fwd, bwd, a, b):
            return None
        fwd[a] = b
        bwd[b] = a
    return fwd, bwd


def automorphism_extending(s: FiniteStructure, t1: Sequence[int], t2: Sequence[int]):
    """Some automorphism of ``s`` with t1 -> t2 pointwise, or None.

    Backtracking with a most-constrained-element heuristic; sound and complete
    because pair admission checks every atom whose support just completed.
    This is the plain reference search that the ``OrbitEngine`` is tested
    against; ``type_equal`` does not call it."""
    if len(t1) != len(t2):
        raise ValueError("tuples must have equal length")
    start = _admit_pairs(s, zip(t1, t2))
    if start is None:
        return None
    fwd, bwd = start

    def search(fwd, bwd):
        if len(fwd) == s.size:
            return dict(fwd)
        best_elem, best_cands = None, None
        for x in range(s.size):
            if x in fwd:
                continue
            cands = [c for c in range(s.size) if c not in bwd and _delta_consistent(s, fwd, bwd, x, c)]
            if not cands:
                return None
            if best_cands is None or len(cands) < len(best_cands):
                best_elem, best_cands = x, cands
                if len(cands) == 1:
                    break
        for c in best_cands:
            fwd[best_elem] = c
            bwd[c] = best_elem
            found = search(fwd, bwd)
            if found is not None:
                return found
            del fwd[best_elem]
            del bwd[c]
        return None

    return search(fwd, bwd)


def _ef_wins(s: FiniteStructure, pos: frozenset, depth: int) -> bool:
    """The duplicator survives ``depth`` more rounds from a valid position.

    The spoiler is never made to repeat a placed element: that move leaves
    the position as it is, and surviving ``depth - 1`` rounds from ``pos``
    already follows from answering every new move at ``depth - 1``.  So the
    recursion places one pair per level and goes no deeper than the number
    of unplaced elements, whatever ``depth`` is.  Both sides are one
    structure, so a right-hand move y answered by c is a left-hand move of
    the inverse position, played by the same loop with (bwd, fwd); its pair
    is stored flipped back, so memo keys and move order are the two-sided
    game's."""
    if depth == 0:
        return True
    memo = s._ef_memo
    key = (pos, depth)
    if key in memo:
        return memo[key]
    fwd = dict(pos)
    bwd = {b: a for a, b in pos}
    for there, back, step in ((fwd, bwd, 1), (bwd, fwd, -1)):
        for x in range(s.size):
            if x in there:
                continue
            for c in range(s.size):
                if c not in back and _delta_consistent(s, there, back, x, c):
                    if _ef_wins(s, pos | {(x, c)[::step]}, depth - 1):
                        break
            else:
                memo[key] = False
                return False
    memo[key] = True
    return True


def _ef_equal(s: FiniteStructure, t1, t2, depth: int) -> bool:
    start = _admit_pairs(s, zip(t1, t2))
    if start is None:
        return False
    fwd, _ = start
    return _ef_wins(s, frozenset(fwd.items()), depth)


class _OrbitTable:
    """All ``n ** k`` tuples of one length, indexed in base ``n``
    (lexicographic order): ``root[i]`` is the least index of tuple i's
    orbit, computed on first use.  The prefixes of length k - 1 are walked
    orbit by orbit, each from its least member r, and each prefix p gets a
    map u(p) of the group sending p onto r.  The orbit of p + (x,) meets
    the tuples that start with r in r followed by the orbit of u(p)(x)
    under the stabiliser of r, whose least element completes the least
    index.  The Schreier generators u(g(p)) g u(p)^-1, for p in r's orbit
    and g a generator, generate that stabiliser; their orbits are merged
    until they are as coarse as the cells of r's refined colouring, which
    the stabiliser preserves."""

    def __init__(self, engine: "OrbitEngine", k: int):
        self.n, self.k, self._engine = engine.size, k, engine

    @cached_property
    def root(self) -> list:
        n, k, gens = self.n, self.k, self._engine.automorphisms
        images, inverses = [], []  # per generator, its action on prefix indices and its inverse
        for perm in gens:
            image = [0]
            for _ in range(k - 1):
                image = [i * n + p for i in image for p in perm]
            images.append(image)
            inverses.append(sorted(range(n), key=perm.__getitem__))
        prefix_root = [-1] * n ** (k - 1)
        to_root: list = [None] * len(prefix_root)
        least = {}  # root prefix -> least element of each element's stabiliser orbit
        for r, got in enumerate(prefix_root):
            if got >= 0:
                continue
            prefix_root[r], to_root[r], orbit = r, tuple(range(n)), [r]
            for p in orbit:  # grows while it is walked
                for image, inverse in zip(images, inverses):
                    if prefix_root[image[p]] < 0:
                        prefix_root[image[p]], to_root[image[p]] = r, tuple([to_root[p][y] for y in inverse])
                        orbit.append(image[p])
            prefix = tuple(r // n ** (k - 2 - j) % n for j in range(k - 1))
            cells, label = len(set(self._engine._level(prefix, 0)[0])), list(range(n))
            for p in orbit:
                if len(set(label)) == cells:
                    break
                for image, perm in zip(images, gens):
                    u, v = to_root[p], to_root[image[p]]
                    for y in range(n):
                        if label[u[y]] != label[v[perm[y]]]:
                            a, b = sorted((label[u[y]], label[v[perm[y]]]))
                            label = [a if c == b else c for c in label]
            least[r] = label
        return [r * n + least[r][y] for p, r in enumerate(prefix_root) for y in to_root[p]]


class OrbitEngine:
    """Exact orbit oracle of one structure: ``equal(t1, t2)`` asks whether
    some automorphism maps ``t1`` to ``t2`` pointwise.  A length registered
    with ``build_table`` is answered from its exact orbit table, built on
    the first query of two different tuples; any other query compares the
    tuples' colourings, then searches.

    Each tuple's search path starts from colour refinement (1-dimensional
    Weisfeiler-Leman) with its positions individualised; colour ids are
    interned per engine, so any two colourings compare directly.
    ``automorphisms`` generates the whole group: along the empty tuple's
    path b0, ..., b(r-1), deepest level first, one search per y in b(i)'s
    cell that the generators found so far do not send b(i) to looks for an
    automorphism fixing b0, ..., b(i-1) and sending b(i) to y.  Refinement
    is isomorphism-invariant and the search exhaustive, so the generators
    found at levels >= i generate the stabiliser of b0, ..., b(i-1)."""

    def __init__(self, s: FiniteStructure):
        self.size = s.size
        self._atoms, self._incidence, _ = s._atom_index
        self._ids: dict = {}  # colour signature -> colour id
        self._paths: dict = {}  # tuple -> the levels of its path built so far
        self._tables: dict = {}  # length -> _OrbitTable
        self._base = self._refine([self._ids.setdefault(("base",), 0)] * s.size)

    def build_table(self, length: int) -> _OrbitTable:
        """Answer every later query of this length from an orbit table."""
        return self._tables.setdefault(length, _OrbitTable(self, length))

    def equal(self, t1: tuple, t2: tuple) -> bool:
        for x in t1 + t2:
            if not (0 <= x < self.size):
                raise ValueError(f"tuple element {x} outside universe of size {self.size}")
        if t1 == t2:
            return True
        table = self._tables.get(len(t1))
        if table is not None:
            i1 = i2 = 0
            for x, y in zip(t1, t2):
                i1, i2 = i1 * self.size + x, i2 * self.size + y
            return table.root[i1] == table.root[i2]
        cb, sorted_b, _, _ = self._level(t2, 0)
        return sorted_b == self._level(t1, 0)[1] and self._search(t1, 0, cb) is not None

    @cached_property
    def automorphisms(self) -> list:
        """A generating set of the automorphism group, as image tuples."""
        depth = 0
        while self._level((), depth)[2] is not None:
            depth += 1
        gens: list = []
        for i in reversed(range(depth)):
            col, _, target, b = self._level((), i)
            orbit = self._orbit(b, gens)
            for y, c in enumerate(col):
                if c == target and y not in orbit:
                    nb = self._individualise(col, y)
                    perm = self._search((), i + 1, nb) if sorted(nb) == self._level((), i + 1)[1] else None
                    if perm is not None:
                        gens.append(perm)
                        orbit = self._orbit(b, gens)
        return gens

    @staticmethod
    def _orbit(x: int, gens: list) -> set:
        orbit, frontier = {x}, [x]
        for y in frontier:  # grows while it is walked
            for z in {perm[y] for perm in gens} - orbit:
                orbit.add(z)
                frontier.append(z)
        return orbit

    def _refine(self, col: list) -> tuple:
        """Refine to the coarsest equitable colouring below ``col``.  An
        element's signature lists its atoms with its own positions read as
        -1 and every other position as that element's colour."""
        ids = self._ids
        incidence = self._incidence
        cells = len(set(col))
        if cells == len(col):
            return tuple(col)
        while True:
            col = [
                ids.setdefault(
                    (c, tuple(sorted((name, tuple(-1 if e == x else col[e] for e in elems))
                                     for name, elems in incidence[x]))),
                    len(ids),
                )
                for x, c in enumerate(col)
            ]
            k = len(set(col))
            if k == cells:
                return tuple(col)
            cells = k

    def _level(self, t: tuple, i: int) -> tuple:
        """Level ``i`` of ``t``'s search path, grown on demand: a colouring,
        its sorted colours, and the colour and first element of its
        smallest non-singleton cell (least colour on ties) or None twice,
        which the next level individualises."""
        path = self._paths.setdefault(t, [])
        while len(path) <= i:
            if path:
                col = self._individualise(path[-1][0], path[-1][3])
            else:
                ids = self._ids
                col = self._refine([
                    ids.setdefault(("tuple", c, tuple(j for j, y in enumerate(t) if y == x)), len(ids))
                    for x, c in enumerate(self._base)
                ])
            target = min(((col.count(c), c) for c in set(col) if col.count(c) > 1), default=(0, None))[1]
            path.append((col, sorted(col), target, None if target is None else col.index(target)))
        return path[i]

    def _individualise(self, col: tuple, x: int) -> tuple:
        ids = self._ids
        return self._refine(
            [ids.setdefault((c, z == x), len(ids)) for z, c in enumerate(col)]
        )

    def _search(self, t: tuple, i: int, cb: tuple):
        """An automorphism sending each element of colour c under level
        ``i`` of ``t``'s path to one of colour c under ``cb``, or None.
        Both colourings are equitable with equal multisets.  Pairing each
        colour's elements in increasing order is tried first: the only
        candidate once discrete, on catalog models it mostly ends at once."""
        ca, _, target, _ = self._level(t, i)
        n = self.size
        perm = [0] * n
        for x, y in zip(sorted(range(n), key=ca.__getitem__), sorted(range(n), key=cb.__getitem__)):
            perm[x] = y
        if all((name, tuple(perm[e] for e in elems)) in self._atoms for name, elems in self._atoms):
            return tuple(perm)
        if target is None:
            return None
        sorted_na = self._level(t, i + 1)[1]
        for y, c in enumerate(cb):
            if c == target:
                nb = self._individualise(cb, y)
                if sorted(nb) == sorted_na:
                    perm = self._search(t, i + 1, nb)
                    if perm is not None:
                        return perm
        return None


def _check_delta(delta) -> None:
    """Reject a type policy other than ``"orbit"`` or ``("ef", d)`` with
    ``d`` an int >= 0 (a bool is not a depth)."""
    if delta == "orbit":
        return
    if not (
        isinstance(delta, tuple)
        and len(delta) == 2
        and delta[0] == "ef"
        and isinstance(delta[1], int)
        and not isinstance(delta[1], bool)
        and delta[1] >= 0
    ):
        raise ValueError(f"delta must be 'orbit' or ('ef', d), got {delta!r}")


def type_equal(s: FiniteStructure, t1: Sequence[int], t2: Sequence[int], policy="orbit") -> bool:
    """Full-type equality of two tuples of ``s``.

    ``policy`` is ``"orbit"`` or ``("ef", d)`` with d >= 0.
    """
    t1, t2 = tuple(t1), tuple(t2)
    if len(t1) != len(t2):
        raise ValueError("tuples must have equal length")
    if policy == "orbit":
        return s.orbits.equal(t1, t2)
    _check_delta(policy)
    d = policy[1]
    # an automorphism sending t1 to t2 wins the game at every depth, so the
    # game is played only between tuples in different orbits
    return s.orbits.equal(t1, t2) or _ef_equal(s, t1, t2, d)


def verify_indiscernible(m, tuples: Sequence[Sequence[int]], idx) -> bool:
    """Set-indiscernibility of ``tuples[k]`` for ``k`` in ``idx``: every
    repetition-free sequence of indices gives type-equal concatenations,
    length by length.

    Takes k - 1 orbit queries for k indices: the concatenation c in sorted
    index order against each of its adjacent block swaps c·σᵢ.  Orbit
    equality is an equivalence, and applying one position permutation τ
    to both tuples keeps a verdict, so c ≡ c·σᵢ gives c·τ ≡ c·σᵢ·τ.  The
    permutations π with c ≡ c·π are therefore closed under multiplication
    by each σᵢ, and the adjacent swaps generate Sym(k).  A shorter
    sequence is a prefix of a full one, and type equality passes to
    prefixes.  The tuples must share one length, so that each block swap
    is one position permutation.
    """
    blocks = [tuple(tuples[k]) for k in sorted(idx)]
    if len({len(b) for b in blocks}) > 1:
        raise ValueError("tuples must have equal length")

    def cat(seq):
        return tuple(x for b in seq for x in b)

    swaps = (blocks[:i] + [blocks[i + 1], blocks[i]] + blocks[i + 2:] for i in range(len(blocks) - 1))
    return all(type_equal(m, cat(blocks), cat(swapped)) for swapped in swaps)


@record
class PartialAutomorphism:
    """Injective partial map preserving relations and function graphs in both
    directions (graphs read relationally, restricted to the map's domain and
    range)."""

    pairs: tuple

    @classmethod
    def from_dict(cls, mapping: Mapping[int, int]) -> "PartialAutomorphism":
        return cls(tuple(sorted(mapping.items())))

    @cached_property
    def as_dict(self) -> dict:
        return dict(self.pairs)

    def violations(self, s: FiniteStructure) -> list:
        """Re-check the defining conditions against ``s``; empty means valid."""
        out = []
        fwd = self.as_dict
        if len(set(fwd.values())) != len(fwd):
            out.append("map is not injective")
            return out
        dom = set(fwd)
        rng = set(fwd.values())
        bwd = {b: a for a, b in fwd.items()}
        for r in s.relations:
            for tup in r.tuples:
                if all(e in dom for e in tup):
                    if tuple(fwd[e] for e in tup) not in r.tuples:
                        out.append(f"relation {r.name}: image of {tup} missing")
                if all(e in rng for e in tup):
                    if tuple(bwd[e] for e in tup) not in r.tuples:
                        out.append(f"relation {r.name}: preimage of {tup} missing")
        for f in s.functions:
            for args, val in f.graph:
                if val in dom and all(a in dom for a in args):
                    if f.as_dict.get(tuple(fwd[a] for a in args)) != fwd[val]:
                        out.append(f"function {f.name}: image of {(args, val)} not in graph")
                if val in rng and all(a in rng for a in args):
                    if f.as_dict.get(tuple(bwd[a] for a in args)) != bwd[val]:
                        out.append(f"function {f.name}: preimage of {(args, val)} not in graph")
        return out


def _generated_maps(s: FiniteStructure, pool: Sequence[int], depth: int) -> Iterator[tuple]:
    """Every partial automorphism of ``s`` with closed range whose domain is
    the closure of at most ``depth`` elements of ``pool``.

    Yields ``(combo, domain, maps)`` for each combination of ``pool`` with 1
    to ``depth`` elements, walked as a prefix tree (each size in
    ``itertools.combinations`` order): ``domain`` lists the elements of
    ``qf_closure(s, combo)`` and ``maps`` the maps on it, as dicts.  Such a
    map is fixed by the images of ``combo``: every other element of the
    domain is a function value of earlier ones, and its image can only be
    the function applied to the mapped arguments.  So a node extends its
    parent's maps by one generator and then places the values that
    generator makes reachable.  A generator's candidate images are its
    images under the maps of its own one-generator closure, because a map
    with closed domain and range restricts to one on every closed subset of
    its domain.  Every placed pair passes ``_delta_consistent``, so the maps
    on each domain are all its injective atom-preserving maps with closed
    range."""
    graphs = {f.name: f.as_dict for f in s.functions}

    def closed(combo, domain, fwd) -> bool:
        # the range lies inside the closure of the generators' images
        return len(qf_closure(s, [fwd[g] for g in combo])) == len(domain)

    def extend(combo, domain, maps, g, candidates):
        if g in domain:
            return domain, maps
        # (value, function dict, args), arguments placed first
        plan = [(v, graphs[name], args) for v, name, args in _closure_steps(s, {*domain, g}, (g,))]
        domain = domain + [g] + [v for v, _, _ in plan]
        out = []
        for fwd0, bwd0 in maps:
            for c in candidates:
                if c in bwd0 or not _delta_consistent(s, fwd0, bwd0, g, c):
                    continue
                fwd, bwd = dict(fwd0), dict(bwd0)
                fwd[g], bwd[c] = c, g
                for v, graph, args in plan:
                    image = graph.get(tuple(fwd[a] for a in args))
                    if image is None or image in bwd or not _delta_consistent(s, fwd, bwd, v, image):
                        break
                    fwd[v], bwd[image] = image, v
                else:
                    if closed(combo, domain, fwd):
                        out.append((fwd, bwd))
        return domain, out

    pool = list(pool)
    roots = [extend((g,), [], [({}, {})], g, range(s.size)) for g in pool]
    candidates = [sorted({fwd[g] for fwd, _ in maps}) for g, (_, maps) in zip(pool, roots)]

    def walk(i, combo, domain, maps):
        yield combo, domain, [fwd for fwd, _ in maps]
        if len(combo) < depth:
            for j in range(i + 1, len(pool)):
                sub = combo + (pool[j],)
                yield from walk(j, sub, *extend(sub, domain, maps, pool[j], candidates[j]))

    for i, g in enumerate(pool):
        yield from walk(i, (g,), *roots[i])
