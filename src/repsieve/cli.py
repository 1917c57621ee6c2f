"""Batch front-end.

Loads workspace documents, runs the checkers, builders, and sieves, and
emits paired artifacts: a human-readable report on stdout and, with
``--out``, a machine-readable report, plain JSON (``indent=2``, sorted
keys) whose ``kind`` names what it holds.  Each command renders its own
result, and ``_emit`` alone writes the report file.
Exit codes: 0 success or empty report, 1 violations or a failed
certificate, 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
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
from repsieve.theories import (
    Decomposition,
    TheorySpec,
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
    save_workspace,
)

__all__ = ["main", "run_command"]

# delta-system --random packs about 9,000 families a second (2-vCPU VM,
# Python 3.11): the bound runs in about 11 s, whole command
MAX_RANDOM_FAMILIES = 100_000


def _delta_str(delta) -> str:
    return delta if delta == "orbit" else f"ef:{delta[1]}"


_SEPARATION = {
    "tuple-comparison": "images share a qf type but source types differ under {}",
    "partial-automorphism": (
        "a partial automorphism with closed domain and range "
        "matches the images but source types differ under {}"
    ),
}


def _violation_artifact(r: RepresentationMap, rep: ViolationReport) -> tuple:
    separation = _SEPARATION[rep.checker].format(rep.delta)
    entries = [(a, b, r.image(a), r.image(b)) for a, b in rep.entries]
    machine = {
        "kind": "violation-report",
        "checker": rep.checker,
        "delta": _delta_str(rep.delta),
        "max_tuple_len": rep.max_tuple_len,
        "checked": rep.checked,
        "entries": [
            {
                "a": list(a),
                "b": list(b),
                "image_a": list(image_a),
                "image_b": list(image_b),
                "separation": separation,
            }
            for a, b, image_a, image_b in entries
        ],
    }
    if rep.empty:
        human = f"OK, {rep.checked} tuple-pairs checked"
    else:
        lines = [f"{len(rep.entries)} violations in {rep.checked} tuple-pairs:"]
        for a, b, image_a, image_b in entries:
            lines.append(f"  {a} vs {b}: {separation}; images {image_a} / {image_b}")
        human = "\n".join(lines)
    return human, machine


def _certificate_artifact(c: SunflowerCertificate) -> tuple:
    lines = [
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
    machine = {
        "kind": "sunflower-certificate",
        "selected": list(c.selected),
        "root": sorted(c.root),
        "common_length": c.common_length,
        "agree_idx": sorted(c.agree_idx),
        "rep_equiv": sorted(sorted(cls) for cls in c.rep_equiv),
        "mode": c.mode,
    }
    return "\n".join(lines), machine


def _delta_failure_artifact(f: DeltaSystemFailure) -> tuple:
    flavor = " (inconclusive)" if f.inconclusive else ""
    machine = {
        "kind": "delta-failure",
        "target": f.target,
        "reason": f.reason,
        "inconclusive": f.inconclusive,
    }
    return f"no delta system of size {f.target}{flavor}: {f.reason}", machine


def _bottleneck_artifact(b: SieveBottleneck) -> tuple:
    machine = {
        "kind": "sieve-bottleneck",
        "stage": b.stage,
        "largest": b.largest,
        "target": b.target,
        "inconclusive": b.inconclusive,
    }
    return f"sieve bottleneck: {b}", machine


def _trace_artifact(trace: SieveTrace) -> tuple:
    counts = trace.survivor_counts()
    lines = [f"sieve: {counts['input']} tuples in"]
    for stage, label in (
        ("stage0", "term shape"),
        ("stage1", "level pattern"),
        ("stage2", "qf type"),
        ("stage3", "delta system"),
    ):
        lines.append(f"  {stage} ({label}): {counts[stage]}")
    lines.append("survivors: " + ", ".join(map(str, trace.s3)))
    lines.append(f"padded length: {trace.xi}")
    cert_human, cert_machine = _certificate_artifact(trace.certificate)
    lines.append(cert_human)
    machine = {
        "kind": "sieve-trace",
        "counts": dict(counts),
        "survivors": list(trace.s3),
        "xi": trace.xi,
        "certificate": cert_machine,
    }
    return "\n".join(lines), machine


def _probe_artifact(report: ProbeReport) -> tuple:
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
    return "\n".join(lines), machine


def _decomposition_artifact(d: Decomposition) -> tuple:
    n = len(d.layers)
    lines = [f"decomposition ({d.mode}), {n} layer" + ("s" if n != 1 else "")]
    for idx, layer in enumerate(d.layers):
        lines.append(f"  layer {idx}: " + ", ".join(map(str, layer)))
    lines.append("element: base / type / copy")
    records = []
    for rec in d.records:
        lines.append(
            f"  {rec.element}: {list(rec.base)} / {rec.type_tag} / {rec.copy_index}"
        )
        records.append(
            {
                "element": rec.element,
                "layer": rec.layer,
                "base": list(rec.base),
                "type": rec.type_tag,
                "copy_index": rec.copy_index,
            }
        )
    machine = {
        "kind": "decomposition",
        "mode": d.mode,
        "layers": [list(layer) for layer in d.layers],
        "records": records,
    }
    return "\n".join(lines), machine


def _representation_text(r: RepresentationMap) -> str:
    lines = [
        f"representation: {r.source.size} source elements into "
        f"{r.target.size} target elements"
    ]
    if r.carrier is not None:
        for a, image in enumerate(r.f):
            lines.append(f"  {a} -> {r.carrier.term(image).render()}")
    else:
        lines.append("  map: " + ", ".join(f"{a}->{v}" for a, v in enumerate(r.f)))
    return "\n".join(lines)


def _emit(args, human: str, machine: dict) -> None:
    """Print the human report; with ``--out``, write the machine report as
    JSON with sorted keys."""
    print(human)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(machine, indent=2, sort_keys=True) + "\n")


def _parse_delta(text: str):
    if text == "orbit":
        return "orbit"
    digits = text[3:]
    # int() would also take "3_0", "+3", " 3" and non-ASCII digits
    if text.startswith("ef:") and digits.isascii() and digits.isdigit():
        return ("ef", int(digits))
    raise WorkspaceError(f"--delta must be 'orbit' or 'ef:D', got {text!r}")


def _pick(entries: dict, section: str, flag: str, name):
    """The entry called ``name`` in one workspace section, or its only
    entry when ``name`` is None; the error names the flag or the field."""
    if name is None:
        if not entries:
            raise WorkspaceError(f"{section}: the workspace holds none")
        if len(entries) != 1:
            raise WorkspaceError(
                f"{flag} is required when the workspace holds {len(entries)} {section}"
            )
        name = next(iter(entries))
    if name not in entries:
        raise WorkspaceError(f"{section}.{name}: no such entry")
    return name, entries[name]


def _int(text: str) -> int:
    """An optional ``-`` then ASCII digits; ``int()`` alone would also take
    ``1_0``, ``+2``, `` 2`` and non-ASCII digits."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


def _parse_int_list(text: str, flag: str) -> tuple:
    try:
        return tuple(_int(x) for x in text.split(","))
    except argparse.ArgumentTypeError as exc:
        raise WorkspaceError(f"{flag} must be a comma-separated integer list: {exc}") from exc


def _parse_json_lists(text: str, flag: str) -> list:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WorkspaceError(f"{flag}: {exc.msg}") from exc
    if not doc or not isinstance(doc, list) or not all(isinstance(x, list) for x in doc):
        raise WorkspaceError(f"{flag}: expected a nonempty list of lists")
    return [tuple(x) for x in doc]


def _at_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise WorkspaceError(f"{flag} must be >= {least}, got {value}")


def _cmd_check(args) -> int:
    _at_least("--max-tuple-len", args.max_tuple_len, 1)
    ws = load_workspace(args.workspace)
    _, r = _pick(ws.representations, "representations", "--rep", args.rep)
    report = args.checker(
        r, CheckerPolicy(delta=_parse_delta(args.delta), max_tuple_len=args.max_tuple_len)
    )
    _emit(args, *_violation_artifact(r, report))
    return 0 if report.empty else 1


def _decompose(spec: TheorySpec, mode: str) -> Decomposition:
    m = desk_model(spec)
    return build_sid(theory_oracle(spec, m), m, mode)


def _decomposed_theory(args, mode: str = "omega_stable"):
    ws = load_workspace(args.workspace)
    name, spec = _pick(ws.theories, "theories", "--theory", args.theory)
    return ws, name, _decompose(spec, mode)


def _cmd_build_sid(args) -> int:
    _, _, d = _decomposed_theory(args, args.mode.replace("-", "_"))
    _emit(args, *_decomposition_artifact(d))
    return 0


def _save_built(args, ws: Workspace, rep_name: str, r) -> None:
    print(_representation_text(r))
    if args.out:
        out = Workspace()
        out.theories.update(ws.theories)
        out.add_representation(rep_name, r)
        save_workspace(out, args.out)
        print(f"workspace written to {args.out}")


def _cmd_build_ex2(args) -> int:
    ws, name, d = _decomposed_theory(args)
    r = build_term_representation(d, args.mode.replace("-", "_"))
    _save_built(args, ws, f"{name}.ex2", r)
    return 0


def _cmd_build_ex1(args) -> int:
    ws, name, d = _decomposed_theory(args)
    r = build_layer_representation(singleton_prefix(d))
    _save_built(args, ws, f"{name}.ex1", r)
    return 0


def _cmd_sieve(args) -> int:
    _at_least("--target", args.target, 2)
    ws = load_workspace(args.workspace)
    _, r = _pick(ws.representations, "representations", "--rep", args.rep)
    if args.tuples is None:
        tuples = [(a,) for a in range(r.source.size)]
    else:
        tuples = _parse_json_lists(args.tuples, "--tuples")
    try:
        trace = sieve(r, tuples, target=args.target)
    except SieveBottleneck as exc:
        _emit(args, *_bottleneck_artifact(exc))
        return 1
    for u in trace.s3[1:]:
        witness_automorphism(trace, (trace.s3[0],), (u,))
    _emit(args, *_trace_artifact(trace))
    return 0


def _random_families(seed: int, rounds: int):
    rng = random.Random(seed)
    for _ in range(rounds):
        drawn: dict = {}  # distinct 2-sets, in the order drawn
        while len(drawn) < 9:
            drawn[tuple(sorted(rng.sample(range(100), 2)))] = None
        yield list(drawn)


def _cmd_delta_system(args) -> int:
    _at_least("--target", args.target, 2)
    random_run = args.sets is None
    if not random_run and (args.random is not None or args.seed is not None):
        raise WorkspaceError("delta-system takes --sets or --random with its --seed, not both")
    if random_run:
        if not args.random:
            raise WorkspaceError("delta-system needs --sets or --random")
        _at_least("--random", args.random, 0)
        if args.random > MAX_RANDOM_FAMILIES:
            raise WorkspaceError(f"--random must be <= {MAX_RANDOM_FAMILIES}, got {args.random}")
        families = _random_families(args.seed or 0, args.random)
    else:
        family = _parse_json_lists(args.sets, "--sets")
        for i, members in enumerate(family):
            for j, x in enumerate(members):
                # the packing hashes and sorts the elements
                if isinstance(x, bool) or not isinstance(x, int):
                    raise WorkspaceError(f"--sets[{i}][{j}]: expected an integer, got {x!r}")
        families = [family]
    for round_no, family in enumerate(families):
        outcome = delta_system(family, args.target)
        if isinstance(outcome, DeltaSystemFailure):
            _emit(args, *_delta_failure_artifact(outcome))
            if random_run:
                print(f"failed on round {round_no}")
            return 1
        problems = validate_sunflower(family, outcome)
        if problems:
            _emit(args, *_certificate_artifact(outcome))
            where = f" on round {round_no}" if random_run else ""
            print(f"certificate rejected{where}: " + "; ".join(problems))
            return 1
    if random_run:
        print(f"{args.random} random families packed and validated")
    _emit(args, *_certificate_artifact(outcome))
    return 0


def _cmd_probe(args) -> int:
    ws = load_workspace(args.workspace)
    _, r = _pick(ws.representations, "representations", "--rep", args.rep)
    chain = [(x,) for x in _parse_int_list(args.chain, "--chain")]
    report = instability_probe(r, args.phi, chain)
    _emit(args, *_probe_artifact(report))
    return 1 if report.refuted else 0


# each demo flavour's fixed model, checked at tuple length 3 under the orbit oracle
_DEMO_MODELS = {
    "eqrel": ("eq_rel", {"classes": 3, "size": 3}),
    "nested": ("nested_eq_rel", {"sizes": (2, 2, 2)}),
    "pureset": ("pure_set", {"n": 6}),
}


def _cmd_demo(args) -> int:
    tag, params = _DEMO_MODELS[args.flavor]
    d = _decompose(TheorySpec.make(tag, **params), "omega_stable")
    print(_decomposition_artifact(d)[0])
    r = build_term_representation(d, args.mode.replace("-", "_"))
    print(_representation_text(r))
    report = check_representation(r, CheckerPolicy(max_tuple_len=3))
    _emit(args, *_violation_artifact(r, report))
    return 0 if report.empty else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repsieve",
        description="representation checkers, builders, and sieves over workspace files",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the checkers are read here, not at import, so a rebound name is used
    for name, checker, help_text in (
        ("check-representation", check_representation, "exhaustive tuple-comparison checker"),
        ("check-fact14", check_by_partial_automorphisms, "partial-automorphism checker"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("workspace")
        p.add_argument("--rep")
        p.add_argument("--max-tuple-len", type=_int, default=2)
        p.add_argument("--delta", default="orbit", help="orbit or ef:D")
        p.add_argument("--out", help="write the machine-readable report here")
        p.set_defaults(fn=_cmd_check, checker=checker)

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

    p = sub.add_parser("sieve", help="staged extraction over a representation")
    p.add_argument("workspace")
    p.add_argument("--rep")
    p.add_argument("--tuples", help="JSON list of source tuples; default all singletons")
    p.add_argument("--target", type=_int, default=2)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_sieve)

    p = sub.add_parser("delta-system", help="sunflower certificates for set families")
    p.add_argument("--sets", help="JSON list of sequences")
    p.add_argument("--target", type=_int, default=3)
    p.add_argument(
        "--random", type=_int,
        help="run N seeded random families, each of nine distinct 2-subsets of 0..99",
    )
    p.add_argument("--seed", type=_int, help="seed of the --random families, default 0")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_delta_system)

    p = sub.add_parser("probe-instability", help="refute a representation via an ordered chain")
    p.add_argument("workspace")
    p.add_argument("--rep")
    p.add_argument("--phi", required=True, help="ordering relation name in the source")
    p.add_argument("--chain", required=True, help="comma-separated chain elements")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_probe)

    p = sub.add_parser(
        "demo", help="build a catalog example (eq 3x3, nested (2,2,2) or pure set 6) and check it"
    )
    p.add_argument("flavor", choices=list(_DEMO_MODELS))
    p.add_argument("--mode", choices=["copy-index", "literal"], default="copy-index")
    p.add_argument("--out", help="write the machine-readable report here")
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
