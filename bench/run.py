"""repsieve benchmark: one workload as a closed loop of CLI commands.

    python3 bench/run.py --workload {check,fact14,sieve} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout.  The package is not installed:
every command runs as ``python -m repsieve.cli`` with ``src`` on
``PYTHONPATH``, one at a time, each starting when the previous one exits.

``--trace 0`` sets the workload up at least three times (``setup_s`` is
the median), then runs passes over its cases until ``--seconds`` have
passed; the first pass always completes.  Every case takes about two
seconds or less, so each is sampled several times, and each end-to-end
figure is taken over the per-case medians.  ``--trace 1`` sets up once,
runs one pass of subprocesses for the per-case times, then replays the
same argv lists in-process through ``repsieve.cli.run_command``
(``layers.py``), untraced and traced, for the per-layer figures.

The last line of stdout is the result object; the line before it holds
the environment and the digest of every machine report.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402

# setup_s is the median of at least three set-ups, and of as many as fit
# in five seconds when set-up is cheap.
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 5.0
STARTUP_REPEATS = 5
# A run stops starting commands at this point, so it exits well within
# 180 seconds even when every case runs into its budget.
RUN_DEADLINE_S = 150.0
LAYER_METRICS = [
    "finstruct.type_equal_orbit.calls",
    "finstruct.type_equal_orbit.distinct",
    "finstruct.type_equal_orbit.s",
    "finstruct.automorphism_extending.calls",
    "finstruct.automorphism_extending.found",
    "finstruct.automorphism_extending.s",
    "finstruct.type_equal_ef.calls",
    "finstruct.type_equal_ef.s",
    "finstruct.qf_type.calls",
    "finstruct.qf_type.distinct",
    "finstruct.qf_type.s",
    "finstruct.qf_closure.calls",
    "finstruct.qf_closure.s",
    "represent.check_representation.s",
    "represent.check_representation.self_s",
    "represent.check_representation.pairs",
    "represent.check_representation.type_equal_orbit_s",
    "represent.check_by_partial_automorphisms.s",
    "represent.check_by_partial_automorphisms.self_s",
    "represent.check_by_partial_automorphisms.checks",
    "represent.check_by_partial_automorphisms.type_equal_orbit_s",
    "theories.build_sid.s",
    "theories.build_term_representation.s",
    "theories.build_layer_representation.s",
    "termalg.TermAlgebra.build.calls",
    "termalg.TermAlgebra.build.terms",
    "termalg.TermAlgebra.build.s",
    "enrich.Enrichment.apply.calls",
    "enrich.Enrichment.apply.s",
    "sieve.sieve.calls",
    "sieve.sieve.s",
    "sieve.sieve.self_s",
    "sieve.sieve.bottlenecks",
    "sieve.sieve.stage0.survivors",
    "sieve.sieve.stage1.survivors",
    "sieve.sieve.stage2.survivors",
    "sieve.sieve.stage3.survivors",
    "sieve.witness_automorphism.calls",
    "sieve.witness_automorphism.s",
    "sieve.instability_probe.calls",
    "sieve.instability_probe.s",
    "sunflower.delta_system.calls",
    "sunflower.delta_system.exhaustive",
    "sunflower.delta_system.s",
    "sunflower.validate_sunflower.calls",
    "sunflower.validate_sunflower.s",
    "workspace.load_workspace.calls",
    "workspace.load_workspace.bytes",
    "workspace.load_workspace.s",
    "workspace.save_workspace.calls",
    "workspace.save_workspace.bytes",
    "workspace.save_workspace.s",
]


class SetupError(Exception):
    pass


class Runner:
    """Runs ``repsieve`` commands as child processes, one at a time."""

    def __init__(self, root: str, deadline: float):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env["PYTHONHASHSEED"] = "0"
        self.deadline = deadline
        self._child = None
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self._child is not None:
            self._child.kill()

    def run(self, argv, budget_s: float, log: str, module=True):
        """Returns (exit code or None when over budget, seconds, max RSS in MB)."""
        budget_s = min(budget_s, self.deadline - time.monotonic())
        if budget_s <= 0:
            return None, 0.0, 0.0
        cmd = [sys.executable, "-m", "repsieve.cli", *argv] if module else [sys.executable, *argv]
        with open(log, "wb") as out:
            t0 = time.perf_counter()
            child = subprocess.Popen(cmd, env=self.env, stdout=out, stderr=subprocess.STDOUT)
            self._child = child
            signal.setitimer(signal.ITIMER_REAL, budget_s)
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                self._child = None
            seconds = time.perf_counter() - t0
        child.returncode = os.waitstatus_to_exitcode(status)
        code = None if child.returncode < 0 else child.returncode
        return code, seconds, usage.ru_maxrss / 1024.0


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _source_digest(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src", "repsieve")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            h.update(open(os.path.join(src, name), "rb").read())
    return h.hexdigest()[:16]


def _commit(root: str):
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def set_up(workload: str, seed: int, where: str, runner: Runner) -> list:
    os.makedirs(where)
    os.chdir(where)

    def run_build(b):
        code, _, _ = runner.run(b.argv, b.budget_s, f"log_{b.path}.txt")
        if code != 0:
            raise SetupError(f"{' '.join(b.argv)} exited with {code}; see {where}")

    return workloads.set_up(workload, seed, run_build)


class Tally:
    """Per-case samples and the correctness bookkeeping of one run."""

    def __init__(self, cases):
        self.cases = cases
        self.times = {c.name: [] for c in cases}
        self.units = {}
        self.digests = {}
        self.rss = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, case, code, seconds, rss):
        self.attempted += 1
        self.rss = max(self.rss, rss)
        self.times[case.name].append(seconds)
        if code is None:
            problems = [f"over its {case.budget_s:g}s budget or the run deadline"]
        elif code != case.expect:
            problems = [f"exit {code}, expected {case.expect}"]
        elif not os.path.exists(case.report):
            problems = ["no machine report written"]
        else:
            try:
                with open(case.report, encoding="utf-8") as fh:
                    report = json.load(fh)
                problems = workloads.check_report(case, report)
                self.units[case.name] = workloads.units_of(case, report)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"unreadable machine report: {exc!r}"]
            digest = _digest(case.report)
            if self.digests.setdefault(case.name, digest) != digest:
                problems.append("report digest differs from the first run")
            os.remove(case.report)
        if problems:
            self.failed += 1
            self.problems.append(f"{case.name}: " + "; ".join(problems))

    def medians(self) -> dict:
        return {name: statistics.median(ts) for name, ts in self.times.items() if ts}


def run_cases(tally: Tally, runner: Runner, seconds: float):
    """Passes over the cases, in order, until ``seconds`` have passed; the
    first pass always completes."""
    start = time.monotonic()
    while True:
        for case in tally.cases:
            if tally.attempted >= len(tally.cases) and time.monotonic() - start >= seconds:
                return
            code, dt, rss = runner.run(case.command(), case.budget_s, f"log_{case.name}.txt")
            tally.record(case, code, dt, rss)
        if time.monotonic() - start >= seconds:
            return


def end_to_end(tally: Tally, setup_times) -> dict:
    med = tally.medians()
    counted = [c for c in tally.cases if c.units in ("pairs", "tuples") and c.name in tally.units]
    busy = sum(med[c.name] for c in counted)
    items = sum(tally.units[c.name] for c in counted)
    return {
        "wall_s": {"value": sum(med.values()), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "items_per_s": {"value": items / busy if busy else 0.0, "unit": "1/s"},
        "peak_rss_mb": {"value": tally.rss, "unit": "MB"},
    }


def per_layer(workload, tally: Tally, runner: Runner, builds) -> tuple:
    cases = tally.cases
    med = tally.medians()
    metrics = {}
    for w in workloads.WORKLOADS:
        for name in workloads.case_names(w):
            metrics[f"cli.case.{w}.{name}.s"] = med.get(name, 0.0) if w == workload else 0.0
    rates = {"pairs": [0, 0.0], "tuples": [0, 0.0], "families": [0, 0.0]}
    for c in cases:
        if c.units and c.name in med:
            rates[c.units][0] += tally.units[c.name]
            rates[c.units][1] += med[c.name]
    for unit, (n, s) in rates.items():
        metrics[f"cli.{unit}_per_s"] = n / s if s else 0.0
    startup = []
    for _ in range(STARTUP_REPEATS):
        code, dt, _ = runner.run(["--help"], 30, "log_startup.txt")
        if code != 0:
            raise SetupError("repsieve --help failed")
        startup.append(dt)
    metrics["cli.startup_s"] = statistics.median(startup)

    commands = [[f"setup:{b.path}", b.argv] for b in builds]
    commands += [[f"case:{c.name}", c.command()] for c in cases]
    with open("plan.json", "w", encoding="utf-8") as fh:
        json.dump({"commands": commands}, fh)
    code, _, rss = runner.run(
        [os.path.join(BENCH_DIR, "layers.py"), "plan.json"],
        runner.deadline - time.monotonic(),
        "layers.txt",
        module=False,
    )
    lines = open("layers.txt", encoding="utf-8").read().splitlines()
    if code != 0 or not lines:
        raise SetupError(f"in-process replay failed with exit {code}; see layers.txt")
    replay = json.loads(lines[-1])
    expect = {f"case:{c.name}": c.expect for c in cases}
    for name, code, digest in replay["results"]:
        tally.attempted += 1
        problems = []
        if name in expect:
            if code != expect[name]:
                problems.append(f"in-process exit {code}, expected {expect[name]}")
            if digest != tally.digests.get(name[5:]):
                problems.append("in-process report digest differs from the subprocess run")
        elif code != 0:
            problems.append(f"in-process exit {code}")
        if problems:
            tally.failed += 1
            tally.problems.append(f"{name}: " + "; ".join(problems))
    layers = replay["layers"]
    for key in LAYER_METRICS:
        metrics[key] = layers.get(key, 0)
    metrics["trace.overhead_share"] = replay["traced_s"] / replay["untraced_s"] - 1.0
    info = {
        "untraced_s": replay["untraced_s"],
        "traced_s": replay["traced_s"],
        "spans": replay["spans"],
        "replay_peak_rss_mb": rss,
    }
    return metrics, info


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "share"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repsieve", "cli.py")):
        print("error: run from the root of a repsieve checkout (src/repsieve missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "commit": _commit(root),
        "source_digest": _source_digest(root),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
    }
    work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    runner = Runner(root, deadline)
    import repsieve  # noqa: F401  (imported once, outside the timed set-up)

    try:
        builds = workloads.builds_for(args.workload)
        setup_times = []
        cases = None
        while not setup_times or (
            not args.trace
            and (len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_S)
        ):
            t0 = time.perf_counter()
            where = os.path.join(work, f"setup{len(setup_times)}")
            got = set_up(args.workload, args.seed, where, runner)
            setup_times.append(time.perf_counter() - t0)
            cases = cases or got
        os.chdir(os.path.join(work, "setup0"))
        tally = Tally(cases)
        run_cases(tally, runner, 0 if args.trace else args.seconds)
        if args.trace:
            metrics, info = per_layer(args.workload, tally, runner, builds)
            env["replay"] = info
            env["trace_overhead_share"] = metrics["trace.overhead_share"]
            metrics = {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}
        else:
            metrics = end_to_end(tally, setup_times)
            env["setups"] = len(setup_times)
            env["samples"] = {name: len(ts) for name, ts in tally.times.items()}
            env["case_s"] = tally.medians()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        os.chdir(root)
    shutil.rmtree(work, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(work))
    except OSError:
        pass
    env["loadavg_after"] = os.getloadavg()
    env["report_digest"] = hashlib.sha256(
        json.dumps(sorted(tally.digests.items())).encode()
    ).hexdigest()[:16]
    for line in tally.problems:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
