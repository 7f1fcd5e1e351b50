"""Out-of-library tracing of bufrelay's public functions, and the per-layer metrics.

The tracer wraps every public module-level function of ``specfun``,
``channel``, ``analytic``, ``queueing``, ``sim`` and ``cli`` and rebinds the
wrapper under every name that any ``bufrelay`` module holds the function by,
so calls made through ``from .specfun import integral_J`` are caught too. No
library code changes. Each call becomes a span (name, start, end, parent,
request id) kept in flat arrays; a span's self time is its duration minus the
time its child spans cover, and a layer's self time is the sum over its spans.

``sim.run`` spans are named after the kernel path the call's config selects,
so ``sim.<path>`` self time excludes the ``channel.sample_snr`` draws.

Peak memory per simulated slot is sampled, not computed: during every sim
call a thread reads the resident set size from ``/proc/self/statm`` about
every 5 ms (the interpreter's switch interval), and the call's peak minus its
starting value is divided by its slot count. ``tracemalloc`` would give
allocated bytes, but it slows the pure-Python slot loops about 30-fold.
"""

from __future__ import annotations

import inspect
import math
import os
import sys
import threading
import time
from array import array

import numpy as np

LAYERS = ("specfun", "channel", "analytic", "queueing", "sim", "cli")
SIM_PATHS = (
    "cabr_adaptive_inf",
    "cabr_adaptive_finite",
    "cabr_fixed_inf",
    "cabr_fixed_finite",
    "cnbr",
    "cbr",
    "overflow",
)


def sim_path(config) -> str:
    """Kernel path a ``sim.run`` config selects."""
    if config.scheme != "cabr":
        return config.scheme
    cap = "inf" if math.isinf(config.buffer.capacity) else "finite"
    return f"cabr_{config.rate_mode}_{cap}"


def _bufrelay_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "bufrelay" or n.startswith("bufrelay.")]


def rebind(replacements: dict) -> list:
    """Point every bufrelay-module name bound to a key of ``replacements`` at its value.

    Returns the undo list for ``restore``.
    """
    undo = []
    for module in _bufrelay_modules():
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in replacements:
                undo.append((module, name, obj))
                setattr(module, name, replacements[obj])
    return undo


def restore(undo: list) -> None:
    for module, name, obj in reversed(undo):
        setattr(module, name, obj)


class RssSampler:
    """Peak resident-set growth of the calling thread's process between ``start`` and ``stop``."""

    def __init__(self):
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._go = threading.Event()
        self._done = False
        self._base = self._peak = 0
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _rss(self) -> int:
        with open("/proc/self/statm", "rb") as f:
            return int(f.read().split()[1]) * self._page

    def _loop(self) -> None:
        while True:
            self._go.wait()
            if self._done:
                return
            self._peak = max(self._peak, self._rss())
            time.sleep(0.001)

    def start(self) -> None:
        self._base = self._peak = self._rss()
        self._go.set()

    def stop(self) -> int:
        self._go.clear()
        self._peak = max(self._peak, self._rss())
        return self._peak - self._base

    def close(self) -> None:
        self._done = True
        self._go.set()
        self._thread.join()


class Tracer:
    """Spans and counters for one traced run; ``install`` and ``uninstall`` bracket it."""

    def __init__(self, probe=None):
        self._probe = probe  # a running speed.SpeedProbe whose time spans leave out
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, time covered by children, probe time at open]
        self._request = -1
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.raised: dict[tuple[str, str], int] = {}
        self.quad_evals = 0
        self.snr_samples = 0
        self.sim_slots = {p: 0 for p in SIM_PATHS}
        self.cabr_calls = 0
        self.cabr_repeats = 0
        self._cabr_seen: set = set()
        self.sim_peak: dict[str, tuple[int, int]] = {}  # path -> (slots, bytes) of its largest call
        self._sim_slots_pending = 0
        self._rss: RssSampler | None = None
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.total_s[name] = 0.0
            self.self_s[name] = 0.0
        return self._ids[name]

    def _open(self, name_id: int) -> None:
        if self._stack:
            parent = self._stack[-1][0]
        else:
            parent = -1
            self._request += 1
        self._stack.append([len(self.span_start), 0.0, self._probe.total if self._probe else 0.0])
        self.span_name.append(name_id)
        self.span_parent.append(parent)
        self.span_request.append(self._request)
        self.span_end.append(math.nan)
        self.span_start.append(time.perf_counter())

    def _close(self, name: str) -> None:
        end = time.perf_counter()
        index, covered, probe_at_open = self._stack.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        if self._probe:
            duration -= self._probe.total - probe_at_open
        if self._stack:
            self._stack[-1][1] += duration
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - covered

    def _wrap(self, func, name: str, before=None):
        name_id = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            span = name
            if before is not None:
                span, args, kwargs = before(args, kwargs)
            sampled = span.startswith("sim.")
            if sampled:
                slots = tracer._sim_slots_pending
                tracer._rss.start()
            tracer._open(name_id if span == name else tracer._name_id(span))
            try:
                return func(*args, **kwargs)
            except BaseException as exc:
                key = (span, type(exc).__name__)
                tracer.raised[key] = tracer.raised.get(key, 0) + 1
                raise
            finally:
                tracer._close(span)
                if sampled:
                    peak = tracer._rss.stop()
                    path = span[4:]
                    tracer.sim_peak[path] = max(tracer.sim_peak.get(path, (0, 0)), (slots, peak))

        traced.__wrapped__ = func
        return traced

    # -- argument hooks ------------------------------------------------------

    def _count_integrand(self, args, kwargs):
        if args:
            f, args = args[0], args[1:]
        else:
            f = kwargs.pop("f")

        def counted(x):
            self.quad_evals += 1
            return f(x)

        return "specfun.quad_semi_infinite", (counted,) + tuple(args), kwargs

    def _note_cabr(self, args, kwargs):
        key = (args, tuple(sorted(kwargs.items())))
        self.cabr_calls += 1
        if key in self._cabr_seen:
            self.cabr_repeats += 1
        else:
            self._cabr_seen.add(key)
        return "analytic.avg_rate_cabr", args, kwargs

    def _note_samples(self, args, kwargs):
        size = kwargs.get("size", args[2] if len(args) > 2 else None)
        self.snr_samples += 1 if size is None else int(np.prod(size))
        return "channel.sample_snr", args, kwargs

    def _sim_run(self, args, kwargs):
        config = kwargs.get("config", args[0] if args else None)
        return self._sim_call(sim_path(config), config.slots, args, kwargs)

    def _sim_overflow(self, args, kwargs):
        config = kwargs.get("config", args[0] if args else None)
        return self._sim_call("overflow", config.slots, args, kwargs)

    def _sim_call(self, path, slots, args, kwargs):
        self.sim_slots[path] += slots
        self._sim_slots_pending = slots
        return f"sim.{path}", args, kwargs

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        from bufrelay import analytic, channel, cli, queueing, sim, specfun

        hooks = {
            "specfun.quad_semi_infinite": self._count_integrand,
            "analytic.avg_rate_cabr": self._note_cabr,
            "channel.sample_snr": self._note_samples,
            "sim.run": self._sim_run,
            "sim.overflow_probability": self._sim_overflow,
        }
        self._rss = RssSampler()
        replacements = {}
        for module in (specfun, channel, analytic, queueing, sim, cli):
            layer = module.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                qual = f"{layer}.{name}"
                replacements[obj] = self._wrap(obj, qual, hooks.get(qual))
        self._undo = rebind(replacements)

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []
        self._rss.close()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def start_pass(self) -> None:
        """Repeats of ``avg_rate_cabr`` arguments are counted within one pass."""
        self._cabr_seen = set()

    # -- results -------------------------------------------------------------

    def child_counts(self, parent_name: str, child_names: tuple) -> int:
        """Number of spans named in ``child_names`` whose direct parent is ``parent_name``."""
        ids = {self._ids[n] for n in child_names if n in self._ids}
        pid = self._ids.get(parent_name)
        if pid is None or not ids:
            return 0
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        mask = np.isin(names, list(ids)) & (parents >= 0)
        return int(np.count_nonzero(names[parents[mask]] == pid))

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return out

    def save(self, path) -> None:
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            request=np.frombuffer(self.span_request, dtype=np.int32),
            start_s=np.frombuffer(self.span_start, dtype=np.float64) - t0,
            end_s=np.frombuffer(self.span_end, dtype=np.float64) - t0,
        )


def _per(numer: float, denom: float) -> float:
    return numer / denom if denom else 0.0


def layer_metrics(tracer: Tracer, passes: int, points: int, requests: int,
                  failed: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, per pass; ratios with no calls read 0."""
    m: dict[str, tuple[float, str]] = {}
    calls = lambda n: tracer.calls.get(n, 0)
    total = lambda n: tracer.total_s.get(n, 0.0)
    selfs = lambda n: tracer.self_s.get(n, 0.0)
    raised = lambda n, kind=None: sum(
        v for (name, k), v in tracer.raised.items() if name == n and (kind is None or k == kind)
    )
    layer_self = tracer.layer_self_s()

    q = "specfun.quad_semi_infinite"
    m[f"{q}.calls"] = (calls(q) / passes, "count")
    m[f"{q}.self_ms"] = (1e3 * selfs(q) / passes, "ms")
    m[f"{q}.us_per_call"] = (1e6 * _per(total(q), calls(q)), "us")
    m[f"{q}.evals"] = (tracer.quad_evals / passes, "count")
    m[f"{q}.evals_per_call"] = (_per(tracer.quad_evals, calls(q)), "count")
    m[f"{q}.convergence_errors"] = (raised(q, "ConvergenceError") / passes, "count")
    for fam in ("J", "L", "M"):
        n = f"specfun.integral_{fam}"
        m[f"{n}.calls"] = (calls(n) / passes, "count")
        m[f"{n}.us_per_call"] = (1e6 * _per(total(n), calls(n)), "us")
    n = "specfun.exp_integral_en_scaled"
    m[f"{n}.calls"] = (calls(n) / passes, "count")
    m[f"{n}.self_ms"] = (1e3 * selfs(n) / passes, "ms")
    m["specfun.self_ms"] = (1e3 * layer_self["specfun"] / passes, "ms")

    n = "analytic.avg_rate_cabr"
    hops = tracer.child_counts(n, ("analytic.avg_rate_cabr_hop_s", "analytic.avg_rate_cabr_hop_r"))
    m[f"{n}.calls"] = (calls(n) / passes, "count")
    m[f"{n}.ms_per_call"] = (1e3 * _per(total(n), calls(n)), "ms")
    m[f"{n}.hop_evals_per_call"] = (_per(hops, calls(n)), "count")
    m[f"{n}.repeat_frac"] = (_per(tracer.cabr_repeats, tracer.cabr_calls), "ratio")
    m[f"{n}.raised"] = (raised(n) / passes, "count")
    n = "analytic.rho_for_delay_bound"
    bounds = tracer.child_counts(n, ("analytic.delay_bound_adaptive",))
    m[f"{n}.calls"] = (calls(n) / passes, "count")
    m[f"{n}.ms_per_call"] = (1e3 * _per(total(n), calls(n)), "ms")
    m[f"{n}.bound_evals_per_call"] = (_per(bounds, calls(n)), "count")
    n = "analytic.delay_bound_adaptive"
    m[f"{n}.calls"] = (calls(n) / passes, "count")
    m[f"{n}.raised"] = (raised(n, "ValueError") / passes, "count")
    for f in ("ser_exact_cabr", "rho_opt_fixed"):
        n = f"analytic.{f}"
        m[f"{n}.ms_per_call"] = (1e3 * _per(total(n), calls(n)), "ms")
    m["analytic.self_ms"] = (1e3 * layer_self["analytic"] / passes, "ms")

    for f in ("steady_state", "delays", "throughput", "ser_threshold", "ser_asym_threshold_pip"):
        n = f"queueing.{f}"
        m[f"{n}.calls"] = (calls(n) / passes, "count")
        m[f"{n}.us_per_call"] = (1e6 * _per(total(n), calls(n)), "us")
    m["queueing.self_ms"] = (1e3 * layer_self["queueing"] / passes, "ms")

    n = "channel.sample_snr"
    m[f"{n}.calls"] = (calls(n) / passes, "count")
    m[f"{n}.samples"] = (tracer.snr_samples / passes, "count")
    m[f"{n}.self_ms"] = (1e3 * selfs(n) / passes, "ms")
    m[f"{n}.ns_per_sample"] = (1e9 * _per(selfs(n), tracer.snr_samples), "ns")
    m["channel.derive_link_params.calls"] = (calls("channel.derive_link_params") / passes, "count")

    for path in SIM_PATHS:
        n = f"sim.{path}"
        m[f"{n}.calls"] = (calls(n) / passes, "count")
        m[f"{n}.slots"] = (tracer.sim_slots[path] / passes, "slots")
        m[f"{n}.self_ms"] = (1e3 * selfs(n) / passes, "ms")
        m[f"{n}.slots_per_s"] = (_per(tracer.sim_slots[path], selfs(n)), "slots/s")
        slots, peak = tracer.sim_peak.get(path, (0, 0))
        m[f"{n}.peak_alloc_bytes_per_slot"] = (_per(peak, slots), "B/slot")
    m["sim.self_ms"] = (1e3 * layer_self["sim"] / passes, "ms")

    m["cli.requests"] = (requests / passes, "count")
    m["cli.points"] = (points / passes, "count")
    m["cli.self_us_per_point"] = (1e6 * _per(layer_self["cli"], points), "us")
    m["cli.fail_frac"] = (_per(failed, requests), "ratio")
    return m
