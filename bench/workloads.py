"""Workload definitions: seeded set-up and the cases each workload runs.

Every input is derived from the seed during set-up, through the
``repsieve`` command line (``build-ex2``/``build-ex1``) and the public
API (the linear-order workspaces).  After a build, the source universe of
each representation is relabelled by a seeded permutation at the JSON
level: the source relations and the map are rewritten, everything else in
the document passes through untouched.  Every verdict the cases check is
invariant under isomorphism, so the known answers hold for every seed.

A case is one ``repsieve`` command with a known exit code, a time budget,
and a check on the machine report it writes with ``--out``.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

__all__ = ["WORKLOADS", "Case", "Build", "case_names", "set_up"]

# Catalog models, by the short names used in file and case names.
THEORIES = {
    "eq2x3": ("eq_rel", {"classes": 2, "size": 3}),
    "eq2x4": ("eq_rel", {"classes": 2, "size": 4}),
    "eq3x3": ("eq_rel", {"classes": 3, "size": 3}),
    "eq4x2": ("eq_rel", {"classes": 4, "size": 2}),
    "eq6x3": ("eq_rel", {"classes": 6, "size": 3}),
    "n222": ("nested_eq_rel", {"sizes": [2, 2, 2]}),
    "pure6": ("pure_set", {"n": 6}),
    "pure12": ("pure_set", {"n": 12}),
}


@dataclass(frozen=True)
class Build:
    """One set-up command: ``kind`` is ex2, ex1 or literal."""

    kind: str
    theory: str
    budget_s: float = 60.0

    @property
    def raw(self) -> str:
        return f"raw_{self.kind}_{self.theory}.json"

    @property
    def path(self) -> str:
        return f"{self.kind}_{self.theory}.json"

    @property
    def argv(self) -> list:
        cmd = "build-ex1" if self.kind == "ex1" else "build-ex2"
        argv = [cmd, "theories.json", "--theory", self.theory, "--out", self.raw]
        if self.kind == "literal":
            argv += ["--mode", "literal"]
        return argv


@dataclass(frozen=True)
class Case:
    """One timed command.  ``units`` names what the case's work is counted
    in (pairs, tuples or families); ``expect`` is its known exit code."""

    name: str
    argv: tuple
    expect: int
    budget_s: float
    units: str = ""
    target: int = 0  # sieve: minimum survivors; delta-system: minimum petals
    tuples: tuple = ()  # sieve inputs, in source labels
    workspace: str = ""

    @property
    def report(self) -> str:
        return f"report_{self.name}.json"

    def command(self) -> list:
        return list(self.argv) + ["--out", self.report]


# --- per-workload definitions -------------------------------------------------

# (case name, workspace kind, theory, extra flags, expected exit, budget seconds)
_CHECK = [
    ("ex2_eq3x3", "ex2", "eq3x3", [], 0, 20),
    ("ex2_n222", "ex2", "n222", [], 0, 20),
    ("ex2_eq4x2", "ex2", "eq4x2", [], 0, 20),
    ("ex2_eq2x4", "ex2", "eq2x4", [], 0, 20),
    ("ex1_eq3x3", "ex1", "eq3x3", [], 0, 20),
    ("literal_eq3x3", "literal", "eq3x3", [], 1, 20),
    ("ef3_eq3x3", "ex2", "eq3x3", ["--delta", "ef:3"], 0, 30),
]

_FACT14 = [
    ("ex2_eq3x3", "ex2", "eq3x3", [], 0, 30),
    ("literal_eq2x3", "literal", "eq2x3", [], 1, 20),
    ("ex1_n222", "ex1", "n222", [], 0, 20),
    ("ex2_pure6", "ex2", "pure6", [], 0, 20),
]

_SIEVE_BUILDS = [Build("ex2", "eq6x3"), Build("ex2", "pure12")]
_LINEAR = (8, 10)
_DELTA_ROUNDS = 2000
# pure_set n=12: enough distinct triples that the packing group exceeds the
# exhaustive threshold (200), so the greedy packer runs.
_PURE12_TUPLES = 240


def _checker_builds(spec) -> list:
    seen = {}
    for _, kind, theory, *_ in spec:
        seen.setdefault((kind, theory), Build(kind, theory))
    return list(seen.values())


def _checker_cases(command: str, spec) -> list:
    return [
        Case(
            name=name,
            argv=(command, f"{kind}_{theory}.json", "--max-tuple-len", "3", *flags),
            expect=expect,
            budget_s=budget,
            units="pairs",
        )
        for name, kind, theory, flags, expect, budget in spec
    ]


WORKLOADS = {
    "check": "check-representation at tuple length 3: fresh orbit searches",
    "fact14": "check-fact14 at tuple length 3: repeated oracle queries",
    "sieve": "sieve, delta-system and probe-instability: the orbit oracle is idle",
}


def case_names(workload: str) -> list:
    """Case names of a workload, without running its set-up."""
    if workload == "check":
        return [c[0] for c in _CHECK]
    if workload == "fact14":
        return [c[0] for c in _FACT14]
    return [
        "tuples_eq6x3",
        "tuples_pure12",
        "singletons_eq6x3",
        "singletons_pure12",
        "delta_random",
        *(f"probe_lin{n}" for n in _LINEAR),
    ]


# --- seeded relabelling ---------------------------------------------------------


def _permutation(seed: int, label: str, n: int) -> list:
    perm = list(range(n))
    random.Random(f"{seed}/{label}").shuffle(perm)
    return perm


def relabel(doc: dict, perm: list) -> dict:
    """Rename every source element ``a`` to ``perm[a]`` in each stored
    representation: source relations, source function graphs and the map."""
    out = json.loads(json.dumps(doc))
    for rep in out["representations"].values():
        src = out["structures"][rep["source"]]
        for rel in src.get("relations", []):
            rel["tuples"] = sorted([perm[x] for x in t] for t in rel["tuples"])
        for fn in src.get("functions", []):
            fn["graph"] = sorted([perm[x] for x in row] for row in fn["graph"])
        new_map = [None] * len(rep["map"])
        for a, image in enumerate(rep["map"]):
            new_map[perm[a]] = image
        rep["map"] = new_map
    return out


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _finish_build(b: Build, seed: int) -> list:
    """Relabel a built workspace; returns the permutation used."""
    doc = _read_json(b.raw)
    (rep,) = doc["representations"].values()
    n = len(rep["map"])
    perm = _permutation(seed, b.path, n)
    _write_json(b.path, relabel(doc, perm))
    return perm


# --- sieve inputs -----------------------------------------------------------------


def _eq6x3_tuples(seed: int, perm: list) -> list:
    """Every ordering of every class of eq 6x3, in seeded order.  The six
    classes of one ordering share a term shape and are pairwise disjoint,
    so the chosen group packs six petals exhaustively."""
    tuples = [
        tuple(perm[3 * c + i] for i in order)
        for c in range(6)
        for order in itertools.permutations(range(3))
    ]
    random.Random(f"{seed}/tuples_eq6x3").shuffle(tuples)
    return tuples


def _pure12_tuples(seed: int, perm: list) -> list:
    """A seeded partition of the twelve points into four triples, followed
    by seeded distinct triples.  All share one shape, the group is larger
    than the exhaustive threshold, and greedy packing takes the partition
    first, so four petals are always found."""
    rng = random.Random(f"{seed}/tuples_pure12")
    points = list(range(12))
    rng.shuffle(points)
    family = [tuple(points[i : i + 3]) for i in range(0, 12, 3)]
    taken = set(family)
    pool = [t for t in itertools.permutations(range(12), 3) if t not in taken]
    family += rng.sample(pool, _PURE12_TUPLES - len(family))
    return [tuple(perm[x] for x in t) for t in family]


def _linear_workspaces(seed: int) -> dict:
    """Identity maps of linear orders into a bare copy of the universe with
    the trivial enrichment, relabelled; returns n -> (path, chain)."""
    from repsieve import (
        FiniteStructure,
        RepresentationMap,
        TheorySpec,
        Workspace,
        desk_model,
        render_workspace,
        trivial_enrichment,
    )

    out = {}
    for n in _LINEAR:
        lin = desk_model(TheorySpec.make("linear_order", n=n))
        bare = FiniteStructure.make(n)
        enr = trivial_enrichment(bare)
        r = RepresentationMap.make(lin, enr.apply(bare), list(range(n)), enrichment=enr)
        ws = Workspace()
        ws.add_representation("id", r)
        path = f"lin{n}.json"
        perm = _permutation(seed, path, n)
        _write_json(path, relabel(json.loads(render_workspace(ws)), perm))
        out[n] = (path, [perm[i] for i in range(n)])
    return out


# --- set-up -------------------------------------------------------------------------


def _theories_doc(builds) -> dict:
    names = sorted({b.theory for b in builds})
    return {
        "version": 1,
        "theories": {
            name: {"tag": THEORIES[name][0], "params": THEORIES[name][1]} for name in names
        },
    }


def builds_for(workload: str) -> list:
    if workload == "check":
        return _checker_builds(_CHECK)
    if workload == "fact14":
        return _checker_builds(_FACT14)
    return list(_SIEVE_BUILDS)


def set_up(workload: str, seed: int, run_build) -> list:
    """Generate the workload's inputs in the current directory and return
    its cases.  ``run_build(build)`` runs one build command and raises on
    failure."""
    builds = builds_for(workload)
    _write_json("theories.json", _theories_doc(builds))
    perms = {}
    for b in builds:
        run_build(b)
        perms[b.path] = _finish_build(b, seed)
    if workload == "check":
        return _checker_cases("check-representation", _CHECK)
    if workload == "fact14":
        return _checker_cases("check-fact14", _FACT14)

    cases = []
    for name, path, tuples, target in (
        ("tuples_eq6x3", "ex2_eq6x3.json", _eq6x3_tuples(seed, perms["ex2_eq6x3.json"]), 6),
        ("tuples_pure12", "ex2_pure12.json", _pure12_tuples(seed, perms["ex2_pure12.json"]), 4),
    ):
        cases.append(
            Case(
                name=name,
                argv=("sieve", path, "--tuples", json.dumps([list(t) for t in tuples]),
                      "--target", str(target)),
                expect=0,
                budget_s=30,
                units="tuples",
                target=target,
                tuples=tuple(tuples),
                workspace=path,
            )
        )
    for theory, n in (("eq6x3", 18), ("pure12", 12)):
        path = f"ex2_{theory}.json"
        cases.append(
            Case(
                name=f"singletons_{theory}",
                argv=("sieve", path),
                expect=0,
                budget_s=30,
                units="tuples",
                target=2,
                tuples=tuple((a,) for a in range(n)),
                workspace=path,
            )
        )
    cases.append(
        Case(
            name="delta_random",
            argv=("delta-system", "--random", str(_DELTA_ROUNDS), "--seed", str(seed)),
            expect=0,
            budget_s=30,
            units="families",
            target=3,
        )
    )
    for n, (path, chain) in _linear_workspaces(seed).items():
        cases.append(
            Case(
                name=f"probe_lin{n}",
                argv=("probe-instability", path, "--phi", "lt",
                      "--chain", ",".join(map(str, chain))),
                expect=1,
                budget_s=30,
            )
        )
    return cases


# --- report checks ------------------------------------------------------------------


def _source_map(path: str) -> list:
    (rep,) = _read_json(path)["representations"].values()
    return rep["map"]


def check_report(case: Case, report: dict) -> list:
    """Problems with a case's machine report, beyond its exit code."""
    kind = report.get("kind")
    cmd = case.argv[0]
    if cmd in ("check-representation", "check-fact14"):
        if kind != "violation-report":
            return [f"expected a violation report, got {kind!r}"]
        if report["checked"] < 1:
            return ["no tuple-pairs checked"]
        if bool(report["entries"]) != (case.expect == 1):
            return [f"{len(report['entries'])} violations, expected exit {case.expect}"]
        return []
    if cmd == "sieve":
        if kind != "sieve-trace":
            return [f"expected a sieve trace, got {kind!r}"]
        survivors = report["survivors"]
        problems = []
        if len(set(survivors)) != len(survivors) or len(survivors) < case.target:
            problems.append(f"{len(set(survivors))} distinct survivors, target {case.target}")
        fmap = _source_map(case.workspace)
        root = set(report["certificate"]["root"])
        images = [{fmap[x] for x in case.tuples[i]} for i in survivors]
        for (i, a), (j, b) in itertools.combinations(zip(survivors, images), 2):
            if (a & b) - root:
                problems.append(f"survivors {i} and {j} share petal values {sorted((a & b) - root)}")
        return problems
    if cmd == "delta-system":
        if kind != "sunflower-certificate":
            return [f"expected a sunflower certificate, got {kind!r}"]
        if len(report["selected"]) < case.target:
            return [f"{len(report['selected'])} petals, target {case.target}"]
        return []
    if cmd == "probe-instability":
        if kind != "probe-report" or report["status"] != "representation_refuted":
            return [f"probe status {report.get('status')!r}, expected a refutation"]
        return []
    return [f"no check for {cmd}"]


def units_of(case: Case, report: dict) -> int:
    """Work units a case completed: pairs checked, tuples sieved, families packed."""
    if case.units == "pairs":
        return report["checked"]
    if case.units == "tuples":
        return report["counts"]["input"]
    if case.units == "families":
        return _DELTA_ROUNDS
    return 0
