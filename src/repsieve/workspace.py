"""JSON workspace documents.

A workspace holds named representation maps and theory specs.  Its file
stores each map by reference into named sections of structures,
enrichments and term signatures, so commands can feed each other without
path plumbing; a map with a carrier or an enrichment stores them in place
of its target, which loading rebuilds from them.  Loading resolves every
entry once, and saving writes each map's parts under names derived from
the map's own.  Rendering is canonical: section keys are sorted,
everything else follows the deterministic order the objects themselves
carry, so identical inputs give identical bytes and
``parse(render(ws))`` returns an equal workspace.
"""

from __future__ import annotations

import json

from repsieve.enrich import Enrichment
from repsieve.finstruct import FiniteStructure
from repsieve.represent import RepresentationMap
from repsieve.termalg import MAX_TERMS, AlgebraSignature, TermAlgebra
from repsieve.theories import TheorySpec

__all__ = [
    "SCHEMA_VERSION",
    "WorkspaceError",
    "Workspace",
    "parse_workspace",
    "render_workspace",
    "load_workspace",
    "save_workspace",
]

SCHEMA_VERSION = 1

_SECTIONS = ("structures", "enrichments", "signatures", "representations", "theories")


class WorkspaceError(ValueError):
    """Malformed document; the message names the offending field."""


def _derived_target(carrier: TermAlgebra, enrichment: Enrichment) -> FiniteStructure:
    """The enrichment applied to the carrier's structure, or to a bare
    universe of the enrichment's size when there is no carrier."""
    if carrier is not None:
        base = carrier.as_structure
    else:
        base = FiniteStructure.make(sum(map(len, enrichment.levels)))
    return base if enrichment is None else enrichment.apply(base)


class Workspace:
    """Named representation maps and theory specs."""

    def __init__(self):
        self.representations = {}  # name -> RepresentationMap
        self.theories = {}  # name -> TheorySpec

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.representations, self.theories) == (other.representations, other.theories)
        return NotImplemented

    def add_representation(self, name: str, r: RepresentationMap) -> str:
        """Store a live representation map.  A map with a carrier or an
        enrichment is saved with them in place of its target, so its target
        must be the one they derive."""
        derived = r.carrier is not None or r.enrichment is not None
        if derived and _derived_target(r.carrier, r.enrichment) != r.target:
            raise ValueError(
                f"representations.{name}: the target is not the one its carrier "
                "and enrichment derive"
            )
        self.representations[name] = r
        return name


def _structure_doc(s: FiniteStructure) -> dict:
    return {
        "universe": s.size,
        "relations": [
            {
                "name": r.name,
                "arity": r.arity,
                "tuples": sorted(list(t) for t in r.tuples),
            }
            for r in s.relations
        ],
        "functions": [
            {
                "name": f.name,
                "arity": f.arity,
                "graph": [list(args) + [value] for args, value in f.graph],
            }
            for f in s.functions
        ],
    }


def _structure_parse(doc, where: str) -> FiniteStructure:
    _expect_keys(doc, where, {"universe"}, {"relations", "functions"})
    relations = {}
    for i, rel in enumerate(_list(doc.get("relations", []), f"{where}.relations")):
        here = f"{where}.relations[{i}]"
        _expect_keys(rel, here, {"name", "arity", "tuples"}, set())
        tuples = _list(rel["tuples"], f"{here}.tuples")
        _put_name(relations, rel["name"], here, (
            _arity(rel["arity"], f"{here}.arity"),
            [_ints(t, f"{here}.tuples[{j}]") for j, t in enumerate(tuples)],
        ))
    functions = {}
    for i, fn in enumerate(_list(doc.get("functions", []), f"{where}.functions")):
        here = f"{where}.functions[{i}]"
        _expect_keys(fn, here, {"name", "arity", "graph"}, set())
        arity = _arity(fn["arity"], f"{here}.arity")
        graph = {}
        for j, row in enumerate(_list(fn["graph"], f"{here}.graph")):
            row = _ints(row, f"{here}.graph[{j}]")
            if len(row) != arity + 1:
                raise WorkspaceError(f"{here}: graph row {list(row)} does not fit arity {arity}")
            _put_row(graph, row[:arity], row[arity], f"{here}.graph[{j}]")
        _put_name(functions, fn["name"], here, (arity, graph))
    universe = _int(doc["universe"], f"{where}.universe")
    # no carrier derives a larger target, and every element costs memory
    if universe > MAX_TERMS:
        raise WorkspaceError(
            f"{where}.universe: {universe} elements, more than the bound of {MAX_TERMS}"
        )
    try:
        return FiniteStructure.make(universe, relations=relations, functions=functions)
    except (TypeError, ValueError) as exc:
        raise WorkspaceError(f"{where}: {exc}") from exc


def _enrichment_doc(e: Enrichment) -> dict:
    return {
        "levels": [sorted(level) for level in e.levels],
        "unary_fns": [
            {"name": f.name, "graph": [[a, v] for (a,), v in f.graph]}
            for f in e.functions
        ],
    }


def _enrichment_parse(doc, where: str) -> Enrichment:
    _expect_keys(doc, where, {"levels", "unary_fns"}, set())
    levels = [
        _ints(level, f"{where}.levels[{i}]")
        for i, level in enumerate(_list(doc["levels"], f"{where}.levels"))
    ]
    members = sorted(x for level in levels for x in level)
    if members != list(range(len(members))):
        raise WorkspaceError(f"{where}: levels do not partition 0..{len(members) - 1}")
    functions = {}
    for i, fn in enumerate(_list(doc["unary_fns"], f"{where}.unary_fns")):
        here = f"{where}.unary_fns[{i}]"
        _expect_keys(fn, here, {"name", "graph"}, set())
        graph = {}
        for j, row in enumerate(_list(fn["graph"], f"{here}.graph")):
            row = _ints(row, f"{here}.graph[{j}]")
            if len(row) != 2:
                raise WorkspaceError(f"{here}.graph[{j}]: expected [argument, value], got {list(row)}")
            _put_row(graph, row[:1], row[1], f"{here}.graph[{j}]")
        _put_name(functions, fn["name"], here, graph)
    try:
        return Enrichment.make(levels, functions)
    except (TypeError, ValueError) as exc:
        raise WorkspaceError(f"{where}: {exc}") from exc


def _signature_doc(ta: TermAlgebra) -> dict:
    return {
        "symbols": [{"name": n, "arity": k} for n, k in ta.signature],
        "base": ta.base_size,
        "depth": max((t.depth for t in ta.terms), default=0),
    }


def _signature_parse(doc, where: str) -> TermAlgebra:
    _expect_keys(doc, where, {"symbols", "base", "depth"}, set())
    arities = {}
    for i, sym in enumerate(_list(doc["symbols"], f"{where}.symbols")):
        here = f"{where}.symbols[{i}]"
        _expect_keys(sym, here, {"name", "arity"}, set())
        _put_name(arities, sym["name"], here, _int(sym["arity"], f"{here}.arity"))
    base = _int(doc["base"], f"{where}.base")
    depth = _int(doc["depth"], f"{where}.depth")
    try:
        return TermAlgebra.build(AlgebraSignature.make(arities), base, depth)
    except (TypeError, ValueError) as exc:
        raise WorkspaceError(f"{where}: {exc}") from exc


def _theory_doc(spec: TheorySpec) -> dict:
    return {"tag": spec.tag, "params": dict(spec.params)}


def _theory_parse(doc, where: str) -> TheorySpec:
    _expect_keys(doc, where, {"tag", "params"}, set())
    params = doc["params"]
    if not isinstance(params, dict):
        raise WorkspaceError(f"{where}.params: expected an object, got {type(params).__name__}")
    try:
        return TheorySpec.make(doc["tag"], **params)
    except ValueError as exc:
        raise WorkspaceError(f"{where}.{exc}") from exc


def _entry_check(doc, where: str) -> None:
    """Check an entry's shape.  Its target is either the named structure
    ``target`` or, when a ``carrier`` or an ``enrichment`` is named, derived
    from them; an entry names one or the other, never both."""
    _expect_keys(doc, where, {"source", "map"}, {"target", "carrier", "enrichment"})
    if not isinstance(doc["map"], list):
        raise WorkspaceError(f"{where}: map is not a list")
    for key in ("source", "target", "carrier", "enrichment"):
        if key in doc:
            _str(doc[key], f"{where}.{key}")
    derived = "carrier" in doc or "enrichment" in doc
    if "target" in doc and derived:
        raise WorkspaceError(
            f"{where}.target: not allowed beside a carrier or an enrichment, which "
            "determine the target; rebuild the workspace with build-ex1 or build-ex2"
        )
    if "target" not in doc and not derived:
        raise WorkspaceError(f"{where}.target: missing, and no carrier or enrichment to derive it from")


def _entry_resolve(doc, parts: dict, where: str) -> RepresentationMap:
    """The live map of a shape-checked entry.  Every reference, the derived
    target and the map are checked here."""

    def resolve(section: str, kind: str, key: str):
        ref = doc.get(key)
        if ref is not None and ref not in parts[section]:
            raise WorkspaceError(f"{where}: unresolved {kind} {ref!r}")
        return parts[section].get(ref)

    source = resolve("structures", "reference", "source")
    carrier = resolve("signatures", "signature", "carrier")
    enrichment = resolve("enrichments", "enrichment", "enrichment")
    if "target" in doc:
        target = resolve("structures", "reference", "target")
    else:
        try:
            target = _derived_target(carrier, enrichment)
        except ValueError as exc:
            raise WorkspaceError(f"{where}: {exc}") from exc
    images = doc["map"]
    if len(images) != source.size:
        raise WorkspaceError(
            f"{where}: map has {len(images)} entries for a universe of {source.size}"
        )
    bad = [
        x for x in images
        if isinstance(x, bool) or not (isinstance(x, int) and 0 <= x < target.size)
    ]
    if bad:
        raise WorkspaceError(f"{where}: image {bad[0]!r} outside the target universe")
    return RepresentationMap.make(source, target, images, carrier=carrier, enrichment=enrichment)


def _int(value, where: str) -> int:
    # bool is a subclass of int, but JSON true is not a number
    if isinstance(value, bool) or not isinstance(value, int):
        raise WorkspaceError(f"{where}: expected an integer, got {json.dumps(value)}")
    return value


def _arity(value, where: str) -> int:
    if _int(value, where) < 0:
        raise WorkspaceError(f"{where}: expected a non-negative integer, got {value}")
    return value


def _str(value, where: str) -> str:
    if not isinstance(value, str):
        raise WorkspaceError(f"{where}: expected a string, got {json.dumps(value)}")
    return value


def _put_name(named: dict, name, where: str, value) -> None:
    """Add the entry at ``where`` under its name, which must be new."""
    if _str(name, f"{where}.name") in named:
        raise WorkspaceError(f"{where}.name: duplicate name {name!r}")
    named[name] = value


def _put_row(graph: dict, args: tuple, value: int, where: str) -> None:
    """Add a function graph row; a repeated row is fine, a second value is not."""
    if graph.setdefault(args, value) != value:
        raise WorkspaceError(f"{where}: arguments {list(args)} already map to {graph[args]}")


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise WorkspaceError(f"{where}: expected a list, got {json.dumps(value)}")
    return value


def _ints(value, where: str) -> tuple:
    return tuple(_int(x, f"{where}[{i}]") for i, x in enumerate(_list(value, where)))


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise WorkspaceError(f"{where}: expected an object, got {type(value).__name__}")
    return value


def _expect_keys(doc, where: str, required: set, optional: set):
    _object(doc, where)
    missing = required - doc.keys()
    if missing:
        raise WorkspaceError(f"{where}: missing field {sorted(missing)[0]!r}")
    stray = doc.keys() - required - optional
    if stray:
        raise WorkspaceError(f"{where}: unknown field {sorted(stray)[0]!r}")


def _entry_doc(name: str, r: RepresentationMap, parts: dict) -> dict:
    """Add the map's parts to ``parts`` under names derived from ``name``
    and return its entry."""
    entry = {"source": f"{name}.source"}
    parts["structures"][entry["source"]] = _structure_doc(r.source)
    if r.carrier is None and r.enrichment is None:
        entry["target"] = f"{name}.target"
        parts["structures"][entry["target"]] = _structure_doc(r.target)
    entry["map"] = list(r.f)
    if r.carrier is not None:
        entry["carrier"] = f"{name}.carrier"
        parts["signatures"][entry["carrier"]] = _signature_doc(r.carrier)
    if r.enrichment is not None:
        entry["enrichment"] = f"{name}.enrichment"
        parts["enrichments"][entry["enrichment"]] = _enrichment_doc(r.enrichment)
    return entry


def render_workspace(ws: Workspace) -> str:
    parts = {"structures": {}, "enrichments": {}, "signatures": {}}
    entries = {
        name: _entry_doc(name, r, parts) for name, r in sorted(ws.representations.items())
    }
    doc = {"version": SCHEMA_VERSION}
    for section, docs in parts.items():
        doc[section] = dict(sorted(docs.items()))
    doc["representations"] = entries
    doc["theories"] = {name: _theory_doc(t) for name, t in sorted(ws.theories.items())}
    return json.dumps(doc, indent=2) + "\n"


def parse_workspace(text: str) -> Workspace:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WorkspaceError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    _expect_keys(doc, "document", {"version"}, set(_SECTIONS))
    if _int(doc["version"], "version") != SCHEMA_VERSION:
        raise WorkspaceError(
            f"version: expected {SCHEMA_VERSION}, got {doc['version']!r}"
        )
    sections = {key: _object(doc.get(key, {}), key) for key in _SECTIONS}
    # entries first: an entry of an older shape is reported as such, before
    # the sections it references
    for name, sub in sections["representations"].items():
        _entry_check(sub, f"representations.{name}")
    parts = {
        section: {name: parse(sub, f"{section}.{name}") for name, sub in sections[section].items()}
        for section, parse in (
            ("structures", _structure_parse),
            ("enrichments", _enrichment_parse),
            ("signatures", _signature_parse),
        )
    }
    ws = Workspace()
    for name, sub in sections["representations"].items():
        ws.representations[name] = _entry_resolve(sub, parts, f"representations.{name}")
    for name, sub in sections["theories"].items():
        ws.theories[name] = _theory_parse(sub, f"theories.{name}")
    return ws


def load_workspace(path) -> Workspace:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_workspace(fh.read())


def save_workspace(ws: Workspace, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_workspace(ws))
