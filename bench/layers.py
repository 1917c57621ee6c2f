"""In-process replay of a workload's commands, first untraced, then traced.

Run as ``python3 layers.py PLAN`` with ``src`` on ``PYTHONPATH`` and the
workload's set-up directory as the working directory.  ``PLAN`` is a JSON
file ``{"commands": [[name, argv], ...]}``.  Prints one JSON object: the
per-layer figures, the untraced and traced replay times, and each
command's exit code and report digest from the traced replay.

Spans are recorded from this file only: each layer's public function is
wrapped, and the wrapper is bound in place of the original under every
name that any ``repsieve`` module imported it as.  A span records name,
start, end, parent span and command id; the hot leaves (``type_equal``,
``automorphism_extending``, ``qf_type``, ``qf_closure``) are aggregated
per parent span instead, because ``check-fact14`` makes about a million
of them.  Memo tables live on the structures each command loads, so every
command starts cold.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time

import repsieve.cli as cli
from repsieve import enrich, finstruct, represent, sunflower, termalg, theories, workspace

sieve = sys.modules["repsieve.sieve"]  # the package re-exports a function of that name

clock = time.perf_counter


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent, command, child_s]
        self.spans = []
        # (parent span, hot name) -> [calls, seconds]
        self.hot = {}
        self.counts = {}
        self.distinct = {}  # hot name -> set of keys seen in this command
        self.distinct_total = {}
        self.stack = [[0.0]]  # child seconds of each open frame
        self.current = -1  # innermost open span
        self.command = -1

    def begin_command(self, command: int):
        self.command = command
        for name, keys in self.distinct.items():
            self.distinct_total[name] = self.distinct_total.get(name, 0) + len(keys)
        self.distinct = {}

    def finish(self):
        self.begin_command(-1)

    def count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name, fn, on_result=None, on_error=None):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            rec = [name, clock(), 0.0, self.current, self.command, 0.0]
            self.spans.append(rec)
            parent = self.current
            self.current = idx
            frame = [0.0]
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                rec[2] = clock()
                rec[5] = frame[0]
                self.stack.pop()
                self.stack[-1][0] += rec[2] - rec[1]
                self.current = parent
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def leaf(self, name, fn, key_of=None, on_result=None):
        """``name`` is a string, or a function of the call's arguments."""
        hot = self.hot
        name_of = name if callable(name) else (lambda args, kwargs: name)

        def wrapper(*args, **kwargs):
            label = name_of(args, kwargs)
            if key_of is not None:
                self.distinct.setdefault(label, set()).add(key_of(args))
            frame = [0.0]
            self.stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.stack.pop()
                self.stack[-1][0] += dt
                slot = hot.get((self.current, label))
                if slot is None:
                    hot[(self.current, label)] = [1, dt]
                else:
                    slot[0] += 1
                    slot[1] += dt
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper


def _rebind(original, wrapper):
    for modname, mod in list(sys.modules.items()):
        if modname == "repsieve" or modname.startswith("repsieve."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def _teq_name(args, kwargs):
    policy = args[3] if len(args) > 3 else kwargs.get("policy", "orbit")
    return "finstruct.type_equal_orbit" if policy == "orbit" else "finstruct.type_equal_ef"


def _teq_key(args):
    s, t1, t2 = args[0], tuple(args[1]), tuple(args[2])
    return (id(s), min(t1, t2), max(t1, t2), args[3] if len(args) > 3 else "orbit")


def install(tr: Tracer):
    """Wrap every traced layer function and bind the wrappers in place."""

    def count(key, amount):
        return lambda args, kwargs, result: tr.count(key, amount(args, result))

    leaves = [
        (finstruct.type_equal, _teq_name, _teq_key, None),
        (
            finstruct.automorphism_extending,
            "finstruct.automorphism_extending",
            None,
            count("finstruct.automorphism_extending.found", lambda a, r: r is not None),
        ),
        (finstruct.qf_type, "finstruct.qf_type", lambda a: (id(a[0]), tuple(a[1])), None),
        (finstruct.qf_closure, "finstruct.qf_closure", None, None),
    ]
    for fn, name, key_of, on_result in leaves:
        _rebind(fn, tr.leaf(name, fn, key_of, on_result))

    def sieve_result(args, kwargs, trace):
        for stage, n in trace.survivor_counts().items():
            if stage != "input":
                tr.count(f"sieve.sieve.{stage}.survivors", n)

    def sieve_error(exc):
        if isinstance(exc, sieve.SieveBottleneck):
            tr.count("sieve.sieve.bottlenecks")

    spans = [
        (represent.check_representation, "represent.check_representation",
         count("represent.check_representation.pairs", lambda a, r: r.checked), None),
        (represent.check_by_partial_automorphisms, "represent.check_by_partial_automorphisms",
         count("represent.check_by_partial_automorphisms.checks", lambda a, r: r.checked), None),
        (theories.build_sid, "theories.build_sid", None, None),
        (theories.build_term_representation, "theories.build_term_representation", None, None),
        (theories.build_layer_representation, "theories.build_layer_representation", None, None),
        (sieve.sieve, "sieve.sieve", sieve_result, sieve_error),
        (sieve.witness_automorphism, "sieve.witness_automorphism", None, None),
        (sieve.instability_probe, "sieve.instability_probe", None, None),
        (sunflower.delta_system, "sunflower.delta_system",
         count("sunflower.delta_system.exhaustive",
               lambda a, r: getattr(r, "mode", None) == "exhaustive"), None),
        (sunflower.validate_sunflower, "sunflower.validate_sunflower", None, None),
        (workspace.load_workspace, "workspace.load_workspace",
         count("workspace.load_workspace.bytes", lambda a, r: os.path.getsize(a[0])), None),
        (workspace.save_workspace, "workspace.save_workspace",
         count("workspace.save_workspace.bytes", lambda a, r: os.path.getsize(a[1])), None),
    ]
    for fn, name, on_result, on_error in spans:
        _rebind(fn, tr.span(name, fn, on_result, on_error))

    build = termalg.TermAlgebra.__dict__["build"].__func__
    termalg.TermAlgebra.build = classmethod(
        tr.span(
            "termalg.TermAlgebra.build",
            build,
            count("termalg.TermAlgebra.build.terms", lambda a, r: len(r)),
        )
    )
    enrich.Enrichment.apply = tr.span("enrich.Enrichment.apply", enrich.Enrichment.apply)


def summarize(tr: Tracer) -> dict:
    """Per-layer totals: calls, inclusive seconds, self seconds, counts."""
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for name, start, end, _parent, _cmd, child in tr.spans:
        add(f"{name}.calls", 1)
        add(f"{name}.s", end - start)
        add(f"{name}.self_s", end - start - child)
    for (parent, name), (calls, seconds) in tr.hot.items():
        add(f"{name}.calls", calls)
        add(f"{name}.s", seconds)
        # the orbit oracle's share of each checker, without the set-up's calls
        if name == "finstruct.type_equal_orbit" and parent >= 0:
            caller = tr.spans[parent][0]
            if caller.startswith("represent."):
                add(f"{caller}.type_equal_orbit_s", seconds)
    for key, n in tr.counts.items():
        add(key, int(n))
    for name, n in tr.distinct_total.items():
        add(f"{name}.distinct", n)
    return out


def _digest(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return ""


def replay(commands, tr=None):
    """Run every command in-process; returns (seconds, [(name, code, digest)])."""
    results = []
    sink = io.StringIO()
    t0 = clock()
    for cmd_id, (name, argv) in enumerate(commands):
        if tr is not None:
            tr.begin_command(cmd_id)
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.run_command(argv)
        sink.seek(0)
        sink.truncate()
        report = argv[argv.index("--out") + 1] if "--out" in argv else ""
        results.append((name, code, _digest(report) if name.startswith("case:") else ""))
    seconds = clock() - t0
    if tr is not None:
        tr.finish()
    return seconds, results


def main(argv) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        commands = json.load(fh)["commands"]
    untraced_s, _ = replay(commands)
    tr = Tracer()
    install(tr)
    traced_s, results = replay(commands, tr)
    print(
        json.dumps(
            {
                "layers": summarize(tr),
                "spans": len(tr.spans),
                "untraced_s": untraced_s,
                "traced_s": traced_s,
                "results": results,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
