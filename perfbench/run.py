"""bufrelay benchmark: one closed-loop client driving the public CLI entry points.

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``. The
workloads are listed with their reasons in ``BENCHMARK.json`` and
``perfbench/plan.json``; ``--workload all`` runs each of them in turn.

A run spawns child processes: ``SETUP_REPEATS`` that only import bufrelay and
build the workload's documents (set-up time), and one that does the same and
then measures. The measuring child evaluates every document of the workload
in order with ``workers=1`` ("a pass") and repeats passes for about
``--seconds`` seconds; it checks every output (see ``checks.py``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` first makes one
untraced pass, then traced passes (see ``tracing.py``), and prints the
per-layer metrics together with the tracing overhead. Nothing queues inside
one serial process, so no layer has a wait-time metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A record of the run
(environment, failures by message, every problem found) goes to
``perfbench/out/``. The process exits non-zero without a result line when the
program cannot be imported or a child fails.

``--capture-reference`` rewrites ``perfbench/reference.json`` from the code
in ``src/``; run it only on a commit whose closed forms are the reference.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
SETUP_REPEATS = 4
RUN_TIMEOUT_S = 170.0


# ---------------------------------------------------------------------------
# child side: set up, measure, check


sys.path.insert(0, str(BENCH))


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import bufrelay.cli  # noqa: F401  (the set-up cost being measured)
    import workloads

    return workloads


def environment(loadavg) -> dict:
    import importlib.util

    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        # without numba every slot loop of bufrelay.sim runs as plain Python
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_at_start": loadavg,
        "git_commit": _git_commit(),
    }


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


class SimObserver:
    """Keeps the ``SimOutcome`` of every ``sim.run`` call so checks can read its standard errors."""

    def __init__(self):
        self.outcomes: list = []
        self._undo: list = []

    def install(self):
        from bufrelay import sim

        import tracing

        inner = sim.run

        def observed(*args, **kwargs):
            out = inner(*args, **kwargs)
            self.outcomes.append(out)
            return out

        self._undo = tracing.rebind({inner: observed})

    def uninstall(self):
        import tracing

        tracing.restore(self._undo)
        self._undo = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


class Result(NamedTuple):
    name: str
    start: float
    end: float
    columns: list | None
    rows: list | None
    error: str | None
    outcomes: list


class Pass(NamedTuple):
    start: float
    end: float
    results: list[Result]

    @property
    def wall(self) -> float:
        return self.end - self.start


def run_pass(workloads, requests, observer, tracer=None) -> Pass:
    docs = [copy.deepcopy(r.doc) for r in requests]
    if tracer is not None:
        tracer.start_pass()
    results = []
    t_pass = time.perf_counter()
    for req, doc in zip(requests, docs):
        observer.outcomes = []
        entry = workloads.entry_point(req.kind)
        t0 = time.perf_counter()
        try:
            columns, rows = entry(doc, workers=1)
            error = None
        except Exception as exc:  # a failed request is counted, with its message
            columns = rows = None
            error = f"{type(exc).__name__}: {exc}"
        results.append(Result(req.name, t0, time.perf_counter(), columns, rows, error, observer.outcomes))
    return Pass(t_pass, time.perf_counter(), results)


def run_passes(workloads, requests, observer, seconds, tracer=None) -> list[Pass]:
    """Whole passes until the next one would end more than half a pass past ``seconds``."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(workloads, requests, observer, tracer))
        elapsed = time.perf_counter() - t0
        mean = elapsed / len(passes)
        if elapsed + mean > seconds + 0.5 * mean:
            return passes


def check_passes(requests, passes, reference):
    """Every output problem over all passes, and the number of statistical tests made."""
    import checks

    by_name = {r.name: r for r in requests}
    problems: list[str] = []
    tests: list = []
    first = {}
    for p, one in enumerate(passes):
        for res in one.results:
            req = by_name[res.name]
            ref = reference[res.name]
            if res.error is not None:
                continue
            if ref["error"] is not None:
                checks.check_new_success(res.name, res.columns, res.rows, problems)
            else:
                checks.check_analytic(res.name, req.kind, res.columns, res.rows, ref, problems)
            if req.kind != "simulate":
                continue
            if res.name in first:
                if not checks.same_rows(first[res.name], res.rows):
                    problems.append(f"{res.name}: pass {p} differs from the first pass with the same seed")
                continue
            first[res.name] = res.rows
            mode = req.doc["mode"]
            problems += checks.check_simulated(
                res.name, mode, req.doc, res.columns, res.rows, res.outcomes, tests
            )
    problems += checks.run_tests(tests)
    return problems, len(tests)


def _per_request_median(results, seconds) -> list[float]:
    by_name: dict[str, list[float]] = {}
    for r in results:
        by_name.setdefault(r.name, []).append(seconds(r))
    return [statistics.median(v) for v in by_name.values()]


def _percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


def child_main(args) -> int:
    workloads = _import_program()
    requests = workloads.build(args.workload, args.seed)
    # wall time: unlike the passes, imports do not track the speed probe
    out: dict = {"setup_s": time.monotonic() - args.t_spawn}
    if args.role == "setup":
        print(json.dumps(out))
        return 0

    import resource

    import speed
    import tracing

    reference = json.loads(REFERENCE.read_text())[args.workload]
    points = {name: ref["points"] for name, ref in reference.items()}
    observer = SimObserver()
    stdout, sys.stdout = sys.stdout, sys.stderr  # keep library chatter off the result line
    try:
        if not args.trace:
            with observer, speed.SpeedProbe() as probe:
                passes = run_passes(workloads, requests, observer, args.seconds)
            checked = passes
        else:
            with speed.SpeedProbe() as probe:
                with observer:
                    untraced = run_pass(workloads, requests, observer)
                tracer = tracing.Tracer(probe)
                with tracer, observer:
                    passes = run_passes(workloads, requests, observer, max(args.seconds - untraced.wall, 0.0), tracer)
            checked = passes + [untraced]
        problems, n_tests = check_passes(requests, checked, reference)
    finally:
        sys.stdout = stdout

    results = [r for one in passes for r in one.results]
    failures: dict[str, int] = {}
    for r in results:
        if r.error is not None:
            failures[r.error] = failures.get(r.error, 0) + 1
    n_failed = sum(failures.values())
    n_points = sum(points[r.name] for r in results)
    out.update(
        passes=len(passes),
        pass_s=[one.wall for one in passes],
        requests=len(results),
        failed=n_failed,
        failures=failures,
        problems=problems,
        statistical_tests=n_tests,
        points=n_points,
    )
    if not args.trace:
        pass_points = [sum(points[r.name] for r in one.results) for one in passes]
        out["points_per_s"] = statistics.median(
            n / probe.reference_seconds(one.start, one.end) for n, one in zip(pass_points, passes)
        )
        out["points_per_s_wall"] = statistics.median(n / one.wall for n, one in zip(pass_points, passes))
        # one sample per request: its median over the passes
        ref_ms = _per_request_median(results, lambda r: 1e3 * probe.reference_seconds(r.start, r.end))
        wall_ms = _per_request_median(results, lambda r: 1e3 * (r.end - r.start))
        out["request_ms_p50"] = statistics.median(ref_ms)
        out["request_ms_p98"] = _percentile(ref_ms, 98)
        out["request_ms_p50_wall"] = statistics.median(wall_ms)
        out["request_ms_p98_wall"] = _percentile(wall_ms, 98)
        out["request_samples"] = len(ref_ms)
        out["probe_ms_median"] = 1e3 * statistics.median(probe.durations)
    else:
        # span times leave the probe out, and so does the wall time they must cover
        traced_wall = sum(probe.net_seconds(one.start, one.end) for one in passes)
        layer_self = tracer.layer_self_s()
        coverage = sum(layer_self.values()) / traced_wall
        if abs(coverage - 1.0) > 0.05:
            problems.append(f"layer self times cover {coverage:.3f} of the traced wall time")
        metrics = tracing.layer_metrics(tracer, len(passes), n_points, len(results), n_failed)
        # in reference seconds, so that the machine's speed changes between passes cancel
        untraced_s = probe.reference_seconds(untraced.start, untraced.end)
        overhead_s = statistics.median(probe.reference_seconds(one.start, one.end) for one in passes) - untraced_s
        metrics["trace.overhead_s"] = (overhead_s, "s")
        metrics["trace.overhead_frac"] = (overhead_s / untraced_s, "ratio")
        metrics["trace.self_time_coverage"] = (coverage, "ratio")
        out["layer_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        out["untraced_pass_s"] = untraced.wall
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    out["env"] = environment(args.loadavg)
    print(json.dumps(out))
    return 0


# ---------------------------------------------------------------------------
# parent side: spawn, time set-up, report


class ChildFailed(RuntimeError):
    pass


def _spawn(role, args, deadline) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--loadavg", json.dumps(args.loadavg),
    ]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t-spawn", repr(t_spawn)], stdout=subprocess.PIPE, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{role} child exceeded the time limit")
    lines = stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{role} child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(args) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = [] if args.trace else [_spawn("setup", args, deadline) for _ in range(SETUP_REPEATS)]
    res = _spawn("measure", args, deadline)
    setups.append(res)
    setup = [r["setup_s"] for r in setups]
    spec = _declared()
    if args.trace:
        metrics = res.pop("layer_metrics")
        declared = spec["per_layer"]
    else:
        metrics = {
            "points_per_s": {"value": res["points_per_s"], "unit": "points/s"},
            "request_ms_p50": {"value": res["request_ms_p50"], "unit": "ms"},
            "request_ms_p98": {"value": res["request_ms_p98"], "unit": "ms"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        declared = spec["end_to_end"]
    if sorted(metrics) != sorted(d["name"] for d in declared):
        raise ChildFailed("reported metrics differ from those declared in BENCHMARK.json")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_samples_s": setup, **res, "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    return record


def report(record) -> dict:
    w = record["workload"]
    print(f"# {w} seed {record['seed']}: {record['passes']} passes of {record['pass_s'][0]:.2f} s"
          f" (first), {record['requests']} requests, {record['points']} points")
    print(f"# failed {record['failed']}/{record['requests']} requests")
    for message, count in sorted(record["failures"].items()):
        print(f"#   {count} x {message}")
    if record["problems"]:
        print(f"# INCORRECT: {len(record['problems'])} output problems, first: {record['problems'][0]}")
    if record["trace"]:
        print("# no wait-time metrics: one serial process, nothing queues between layers")
    else:
        print(f"# request latency over {record['request_samples']} requests (each its median over"
              f" the passes); times in reference seconds (see speed.py), median probe"
              f" {record['probe_ms_median']:.3f} ms")
        print(f"# wall clock: points_per_s {record['points_per_s_wall']:.6g},"
              f" request_ms_p50 {record['request_ms_p50_wall']:.6g},"
              f" request_ms_p98 {record['request_ms_p98_wall']:.6g}")
    for name, m in record["metrics"].items():
        print(f"{w} {name} {m['value']:.6g} {m['unit']}")
    return {
        "correct": not record["problems"],
        "attempted": record["requests"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--capture-reference", action="store_true")
    p.add_argument("--role", choices=("parent", "setup", "measure"), default="parent", help=argparse.SUPPRESS)
    p.add_argument("--t-spawn", type=float, help=argparse.SUPPRESS)
    p.add_argument("--loadavg", type=json.loads, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.role != "parent":
        return child_main(args)
    if args.capture_reference:
        return capture_reference()
    args.loadavg = list(os.getloadavg())
    names = [w["name"] for w in _declared()["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"unknown workload {args.workload!r} (choices: all, {', '.join(names)})", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            print(json.dumps(report(run_workload(args))))
            return 0
        summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            args.workload = name
            line = report(run_workload(args))
            summary["correct"] &= line["correct"]
            summary["attempted"] += line["attempted"]
            summary["failed"] += line["failed"]
            summary["metrics"].update({f"{name}.{k}": v for k, v in line["metrics"].items()})
        print(json.dumps(summary))
        return 0
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# reference capture


def capture_reference() -> int:
    workloads = _import_program()
    import checks

    ref = {}
    for w in workloads.WORKLOADS:
        ref[w] = {}
        for req in workloads.build(w, seed=0):
            try:
                columns, rows = workloads.entry_point(req.kind)(copy.deepcopy(req.doc), workers=1)
            except Exception as exc:
                ref[w][req.name] = {"error": f"{type(exc).__name__}: {exc}", "points": 1}
                continue
            points = len(rows) // len(req.doc["l_grid"]) if req.doc.get("mode") == "overflow" else len(rows)
            cells = [
                [None if req.kind == "simulate" and c in checks.SIM_COLUMNS else _plain(v)
                 for c, v in zip(columns, row)]
                for row in rows
            ]
            ref[w][req.name] = {"error": None, "points": points, "columns": list(columns), "rows": cells}
    REFERENCE.write_text(json.dumps(ref, indent=0) + "\n")
    return 0


def _plain(value):
    return value.item() if hasattr(value, "item") else value


if __name__ == "__main__":
    sys.exit(main())
