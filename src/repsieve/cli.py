"""Batch front-end.

Loads workspace documents, runs the checkers, builders, and sieves, and
emits paired artifacts: a human-readable report on stdout and, with
``--out``, a machine-readable JSON file that ``parse_report`` round-trips.
Exit codes: 0 success or empty report, 1 violations or a failed
certificate, 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

from repsieve.represent import (
    CheckerPolicy,
    RepresentationMap,
    ViolationReport,
    check_by_partial_automorphisms,
    check_representation,
)
from repsieve.sieve import (
    ProbeReport,
    SieveBottleneck,
    SieveTrace,
    instability_probe,
    sieve,
    witness_automorphism,
)
from repsieve.sunflower import (
    DeltaSystemFailure,
    SunflowerCertificate,
    delta_system,
    validate_sunflower,
)
from repsieve.termalg import TermAlgebra
from repsieve.theories import (
    Decomposition,
    TheorySpec,
    _type_tags,
    build_layer_representation,
    build_sid,
    build_term_representation,
    desk_model,
    singleton_prefix,
    theory_oracle,
)
from repsieve.workspace import (
    Workspace,
    WorkspaceError,
    load_workspace,
    render_workspace,
    save_workspace,
)

__all__ = ["main", "run_command", "render_report", "parse_report", "ReportArtifact"]

REPORT_KINDS = (
    "violation-report",
    "sunflower-certificate",
    "delta-failure",
    "sieve-trace",
    "sieve-bottleneck",
    "probe-report",
    "decomposition",
    "representation",
)


class ReportArtifact:
    def __init__(self, human: str, machine: dict):
        self.human = human
        self.machine = machine

    @property
    def text(self) -> str:
        return json.dumps(self.machine, indent=2, sort_keys=True) + "\n"


def _delta_str(delta) -> str:
    return delta if delta == "orbit" else f"ef:{delta[1]}"


def _violation_artifact(rep: ViolationReport) -> ReportArtifact:
    machine = {
        "kind": "violation-report",
        "checker": rep.checker,
        "delta": _delta_str(rep.delta),
        "max_tuple_len": rep.max_tuple_len,
        "checked": rep.checked,
        "params": {k: v for k, v in rep.params},
        "entries": [
            {
                "a": list(e.a),
                "b": list(e.b),
                "image_a": list(e.image_a),
                "image_b": list(e.image_b),
                "separation": e.separation,
            }
            for e in rep.entries
        ],
    }
    if rep.empty:
        human = f"OK, {rep.checked} tuple-pairs checked"
    else:
        lines = [f"{len(rep.entries)} violations in {rep.checked} tuple-pairs:"]
        for e in rep.entries:
            lines.append(
                f"  {tuple(e.a)} vs {tuple(e.b)}: {e.separation}; "
                f"images {tuple(e.image_a)} / {tuple(e.image_b)}"
            )
        human = "\n".join(lines)
    return ReportArtifact(human, machine)


def _certificate_lines(c: SunflowerCertificate) -> list:
    return [
        f"sunflower certificate ({c.mode})",
        "selected: " + ", ".join(map(str, c.selected)),
        "root: " + (", ".join(map(str, sorted(c.root))) or "(empty)"),
        f"common length: {c.common_length}",
        "U (agreement positions): "
        + (", ".join(map(str, sorted(c.agree_idx))) or "(none)"),
        "E (repetition classes): "
        + (
            " ".join("{" + ", ".join(map(str, sorted(cls))) + "}" for cls in c.rep_equiv)
            or "(none)"
        ),
    ]


def _certificate_machine(c: SunflowerCertificate) -> dict:
    return {
        "kind": "sunflower-certificate",
        "selected": list(c.selected),
        "root": sorted(c.root),
        "common_length": c.common_length,
        "agree_idx": sorted(c.agree_idx),
        "rep_equiv": sorted(sorted(cls) for cls in c.rep_equiv),
        "mode": c.mode,
    }


def _trace_artifact(trace: SieveTrace) -> ReportArtifact:
    counts = trace.survivor_counts()
    lines = [f"sieve: {counts['input']} tuples in"]
    for stage, label in (
        ("stage0", "term shape"),
        ("stage1", "level pattern"),
        ("stage2", "function pattern"),
        ("stage3", "delta system"),
    ):
        lines.append(f"  {stage} ({label}): {counts[stage]}")
    lines.append("survivors: " + ", ".join(map(str, trace.s3)))
    lines.append(f"padded length: {trace.xi}")
    lines += _certificate_lines(trace.certificate)
    machine = {
        "kind": "sieve-trace",
        "counts": dict(counts),
        "survivors": list(trace.s3),
        "xi": trace.xi,
        "certificate": _certificate_machine(trace.certificate),
    }
    return ReportArtifact("\n".join(lines), machine)


def _probe_artifact(report: ProbeReport) -> ReportArtifact:
    lines = [f"probe: {report.status}"]
    if report.pair is not None:
        lines.append(f"pair: {report.pair}")
        lines.append(f"forward: {report.forward}")
        lines.append(f"backward: {report.backward}")
    if report.detail:
        lines.append(f"detail: {report.detail}")
    machine = {
        "kind": "probe-report",
        "status": report.status,
        "pair": list(report.pair) if report.pair is not None else None,
        "forward": list(report.forward) if report.forward is not None else None,
        "backward": list(report.backward) if report.backward is not None else None,
        "detail": report.detail,
    }
    return ReportArtifact("\n".join(lines), machine)


def _decomposition_artifact(d: Decomposition) -> ReportArtifact:
    tags = _type_tags(d)
    n = len(d.layers)
    lines = [f"decomposition ({d.mode}), {n} layer" + ("s" if n != 1 else "")]
    for idx, layer in enumerate(d.layers):
        lines.append(f"  layer {idx}: " + ", ".join(map(str, layer)))
    lines.append("element: base / type / copy")
    records = []
    for rec in d.records:
        tag = tags[rec.type_key]
        lines.append(
            f"  {rec.element}: {list(rec.base)} / {tag} / {rec.copy_index}"
        )
        records.append(
            {
                "element": rec.element,
                "layer": rec.layer,
                "base": list(rec.base),
                "type": tag,
                "copy_index": rec.copy_index,
            }
        )
    machine = {
        "kind": "decomposition",
        "mode": d.mode,
        "layers": [list(layer) for layer in d.layers],
        "records": records,
    }
    return ReportArtifact("\n".join(lines), machine)


def _representation_artifact(r: RepresentationMap) -> ReportArtifact:
    lines = [
        f"representation: {r.source.size} source elements into "
        f"{r.target.size} target elements"
    ]
    terms = None
    if r.carrier is not None:
        terms = {}
        for a, image in enumerate(r.f):
            rendered = r.carrier.term(image).render()
            terms[str(a)] = rendered
            lines.append(f"  {a} -> {rendered}")
    else:
        lines.append("  map: " + ", ".join(f"{a}->{v}" for a, v in enumerate(r.f)))
    machine = {
        "kind": "representation",
        "source_universe": r.source.size,
        "target_universe": r.target.size,
        "map": list(r.f),
        "terms": terms,
    }
    return ReportArtifact("\n".join(lines), machine)


def render_report(result) -> ReportArtifact:
    """Human and machine artifacts for any module result."""
    if isinstance(result, ViolationReport):
        return _violation_artifact(result)
    if isinstance(result, SunflowerCertificate):
        return ReportArtifact(
            "\n".join(_certificate_lines(result)), _certificate_machine(result)
        )
    if isinstance(result, DeltaSystemFailure):
        flavor = " (inconclusive)" if result.inconclusive else ""
        return ReportArtifact(
            f"no delta system of size {result.target}{flavor}: {result.reason}",
            {
                "kind": "delta-failure",
                "target": result.target,
                "reason": result.reason,
                "inconclusive": result.inconclusive,
            },
        )
    if isinstance(result, SieveTrace):
        return _trace_artifact(result)
    if isinstance(result, SieveBottleneck):
        return ReportArtifact(
            f"sieve bottleneck: {result}",
            {
                "kind": "sieve-bottleneck",
                "stage": result.stage,
                "largest": result.largest,
                "target": result.target,
                "inconclusive": result.inconclusive,
            },
        )
    if isinstance(result, ProbeReport):
        return _probe_artifact(result)
    if isinstance(result, Decomposition):
        return _decomposition_artifact(result)
    if isinstance(result, RepresentationMap):
        return _representation_artifact(result)
    raise TypeError(f"no report format for {type(result).__name__}")


def parse_report(text: str) -> dict:
    """Machine artifact back to its dictionary; inverse of the render."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict) or doc.get("kind") not in REPORT_KINDS:
        raise ValueError("not a report artifact")
    return doc


def _emit(args, art: ReportArtifact):
    print(art.human)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(art.text)


def _parse_delta(text: str):
    if text == "orbit":
        return "orbit"
    if text.startswith("ef:"):
        try:
            return ("ef", int(text[3:]))
        except ValueError:
            pass
    raise WorkspaceError(f"--delta must be 'orbit' or 'ef:D', got {text!r}")


def _policy(args) -> CheckerPolicy:
    return CheckerPolicy(
        delta=_parse_delta(args.delta), max_tuple_len=args.max_tuple_len
    )


def _pick_representation(ws: Workspace, name):
    if name is None:
        if len(ws.representations) != 1:
            raise WorkspaceError(
                "--rep is required when the workspace holds "
                f"{len(ws.representations)} representations"
            )
        name = next(iter(ws.representations))
    return ws.representation(name)


def _theory_from(ws: Workspace, name):
    if name is None:
        if len(ws.theories) != 1:
            raise WorkspaceError(
                f"--theory is required when the workspace holds {len(ws.theories)} theories"
            )
        name = next(iter(ws.theories))
    if name not in ws.theories:
        raise WorkspaceError(f"theories.{name}: no such entry")
    return name, ws.theories[name]


def _parse_int_list(text: str, flag: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError as exc:
        raise WorkspaceError(f"{flag} must be a comma-separated integer list") from exc


def _parse_json_lists(text: str, flag: str) -> list:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WorkspaceError(f"{flag}: {exc.msg}") from exc
    if not isinstance(doc, list) or not all(isinstance(x, list) for x in doc):
        raise WorkspaceError(f"{flag} must be a JSON list of lists")
    return [tuple(x) for x in doc]


def _cmd_check_representation(args) -> int:
    ws = load_workspace(args.workspace)
    r = _pick_representation(ws, args.rep)
    report = check_representation(r, _policy(args))
    _emit(args, render_report(report))
    return 0 if report.empty else 1


def _cmd_check_fact14(args) -> int:
    ws = load_workspace(args.workspace)
    r = _pick_representation(ws, args.rep)
    report = check_by_partial_automorphisms(r, _policy(args), max_domain=args.max_domain)
    _emit(args, render_report(report))
    return 0 if report.empty else 1


def _built_theory(args):
    ws = load_workspace(args.workspace)
    name, spec = _theory_from(ws, args.theory)
    m = desk_model(spec)
    o = theory_oracle(spec, m)
    return ws, name, spec, m, o


def _cmd_build_sid(args) -> int:
    _, _, _, m, o = _built_theory(args)
    d = build_sid(o, m, args.mode.replace("-", "_"))
    _emit(args, render_report(d))
    return 0


def _save_built(args, ws: Workspace, rep_name: str, r) -> None:
    print(render_report(r).human)
    if args.out:
        out = Workspace()
        out.theories.update(ws.theories)
        out.add_representation(rep_name, r)
        save_workspace(out, args.out)
        print(f"workspace written to {args.out}")


def _cmd_build_ex2(args) -> int:
    ws, name, spec, m, o = _built_theory(args)
    d = build_sid(o, m, "omega_stable")
    r = build_term_representation(o, m, d, args.mode.replace("-", "_"))
    _save_built(args, ws, f"{name}.ex2", r)
    return 0


def _cmd_build_ex1(args) -> int:
    ws, name, spec, m, o = _built_theory(args)
    d = singleton_prefix(build_sid(o, m, "omega_stable"))
    r = build_layer_representation(o, m, d)
    _save_built(args, ws, f"{name}.ex1", r)
    return 0


def _cmd_sieve(args) -> int:
    ws = load_workspace(args.workspace)
    r = _pick_representation(ws, args.rep)
    if args.tuples is None:
        tuples = [(a,) for a in range(r.source.size)]
    else:
        tuples = _parse_json_lists(args.tuples, "--tuples")
    try:
        trace = sieve(r, tuples, target=args.target)
    except SieveBottleneck as exc:
        _emit(args, render_report(exc))
        return 1
    for u in trace.s3[1:]:
        witness_automorphism(trace, (trace.s3[0],), (u,))
    _emit(args, render_report(trace))
    return 0


def _check_random_family_flags(args) -> None:
    """Reject family shapes that no sampling can fill, before drawing any."""
    for flag, value in (
        ("--random", args.random),
        ("--universe", args.universe),
        ("--set-size", args.set_size),
    ):
        if value < 0:
            raise WorkspaceError(f"{flag} must be >= 0, got {value}")
    if args.set_size > args.universe:
        raise WorkspaceError(
            f"--set-size {args.set_size} exceeds --universe {args.universe}"
        )
    available = math.comb(args.universe, args.set_size)
    if args.family_size > available:
        raise WorkspaceError(
            f"--family-size {args.family_size} exceeds the {available} distinct "
            f"{args.set_size}-sets of a universe of {args.universe}"
        )


def _cmd_delta_system(args) -> int:
    if args.sets is None and not args.random:
        raise WorkspaceError("delta-system needs --sets or --random")
    if args.sets is not None:
        family = _parse_json_lists(args.sets, "--sets")
        for i, members in enumerate(family):
            for j, x in enumerate(members):
                # the packing hashes and sorts the elements
                if isinstance(x, bool) or not isinstance(x, int):
                    raise WorkspaceError(f"--sets[{i}][{j}]: expected an integer, got {x!r}")
        outcome = delta_system(family, args.target)
        if isinstance(outcome, DeltaSystemFailure):
            _emit(args, render_report(outcome))
            return 1
        problems = validate_sunflower(family, outcome)
        _emit(args, render_report(outcome))
        if problems:
            print("certificate rejected: " + "; ".join(problems))
            return 1
        return 0
    _check_random_family_flags(args)
    rng = random.Random(args.seed)
    last = None
    for round_no in range(args.random):
        family = []
        seen = set()
        while len(family) < args.family_size:
            s = tuple(sorted(rng.sample(range(args.universe), args.set_size)))
            if s not in seen:
                seen.add(s)
                family.append(s)
        outcome = delta_system(family, args.target)
        if isinstance(outcome, DeltaSystemFailure):
            _emit(args, render_report(outcome))
            print(f"failed on round {round_no}")
            return 1
        problems = validate_sunflower(family, outcome)
        if problems:
            _emit(args, render_report(outcome))
            print(f"certificate rejected on round {round_no}: " + "; ".join(problems))
            return 1
        last = outcome
    print(f"{args.random} random families packed and validated")
    _emit(args, render_report(last))
    return 0


def _cmd_probe(args) -> int:
    ws = load_workspace(args.workspace)
    r = _pick_representation(ws, args.rep)
    chain = [(x,) for x in _parse_int_list(args.chain, "--chain")]
    report = instability_probe(r, args.phi, chain, delta=_parse_delta(args.delta))
    _emit(args, render_report(report))
    return 1 if report.refuted else 0


def _demo_spec(args) -> TheorySpec:
    if args.flavor == "eqrel":
        return TheorySpec.make("eq_rel", classes=args.classes, size=args.size)
    if args.flavor == "nested":
        return TheorySpec.make(
            "nested_eq_rel", sizes=_parse_int_list(args.sizes, "--sizes")
        )
    return TheorySpec.make("pure_set", n=args.n)


def _cmd_demo(args) -> int:
    spec = _demo_spec(args)
    m = desk_model(spec)
    o = theory_oracle(spec, m)
    d = build_sid(o, m, "omega_stable")
    print(render_report(d).human)
    r = build_term_representation(o, m, d, args.mode.replace("-", "_"))
    print(render_report(r).human)
    report = check_representation(r, _policy(args))
    _emit(args, render_report(report))
    return 0 if report.empty else 1


def _add_checker_flags(p, tuple_len_default=2):
    p.add_argument("--max-tuple-len", type=int, default=tuple_len_default)
    p.add_argument("--delta", default="orbit", help="orbit or ef:D")
    p.add_argument("--out", help="write the machine-readable report here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repsieve",
        description="representation checkers, builders, and sieves over workspace files",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-representation", help="exhaustive tuple-comparison checker")
    p.add_argument("workspace")
    p.add_argument("--rep")
    _add_checker_flags(p)
    p.set_defaults(fn=_cmd_check_representation)

    p = sub.add_parser("check-fact14", help="partial-automorphism checker")
    p.add_argument("workspace")
    p.add_argument("--rep")
    p.add_argument("--max-domain", type=int, default=8)
    _add_checker_flags(p)
    p.set_defaults(fn=_cmd_check_fact14)

    p = sub.add_parser("build-sid", help="layered decomposition for a catalog theory")
    p.add_argument("workspace")
    p.add_argument("--theory")
    p.add_argument("--mode", choices=["generic", "omega-stable"], default="omega-stable")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_build_sid)

    p = sub.add_parser("build-ex2", help="term representation from a decomposition")
    p.add_argument("workspace")
    p.add_argument("--theory")
    p.add_argument("--mode", choices=["copy-index", "literal"], default="copy-index")
    p.add_argument("--out", help="write a workspace holding the result here")
    p.set_defaults(fn=_cmd_build_ex2)

    p = sub.add_parser("build-ex1", help="layer enrichment representation")
    p.add_argument("workspace")
    p.add_argument("--theory")
    p.add_argument("--out", help="write a workspace holding the result here")
    p.set_defaults(fn=_cmd_build_ex1)

    p = sub.add_parser("sieve", help="staged extraction over a term representation")
    p.add_argument("workspace")
    p.add_argument("--rep")
    p.add_argument("--tuples", help="JSON list of source tuples; default all singletons")
    p.add_argument("--target", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_sieve)

    p = sub.add_parser("delta-system", help="sunflower certificates for set families")
    p.add_argument("--sets", help="JSON list of sequences")
    p.add_argument("--target", type=int, default=3)
    p.add_argument("--random", type=int, default=0, help="run N seeded random families")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--family-size", type=int, default=9)
    p.add_argument("--set-size", type=int, default=2)
    p.add_argument("--universe", type=int, default=100)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_delta_system)

    p = sub.add_parser("probe-instability", help="refute a representation via an ordered chain")
    p.add_argument("workspace")
    p.add_argument("--rep")
    p.add_argument("--phi", required=True, help="ordering relation name in the source")
    p.add_argument("--chain", required=True, help="comma-separated chain elements")
    p.add_argument("--delta", default="orbit")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_probe)

    p = sub.add_parser("demo", help="build a catalog example end to end and check it")
    p.add_argument("flavor", choices=["eqrel", "nested", "pureset"])
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--size", type=int, default=3)
    p.add_argument("--sizes", default="2,2,2")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--mode", choices=["copy-index", "literal"], default="copy-index")
    _add_checker_flags(p, tuple_len_default=3)
    p.set_defaults(fn=_cmd_demo)

    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (WorkspaceError, OSError, ValueError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> int:
    return run_command(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
