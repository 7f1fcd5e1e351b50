"""Experiment runner: closed-form tables, Monte Carlo runs, and figure presets.

An experiment is a JSON document (or a named built-in preset, or a preset
overlaid by a document) interpreted by one of four commands:

  analyze    evaluate closed-form metrics on a parameter grid
  sweep      analyze with a mandatory sweep axis
  simulate   run the slot-level engine and join matching analytic columns
  compare    tabulate scheme rate ratios (adaptive vs fixed schedules)

Results are written to stdout or a file as CSV (RFC-4180 quoting, full
round-trip float precision) or JSON. Sweep points are dispatched to a worker
pool (--workers or BUFRELAY_WORKERS); rows always come out in grid order and
per-point seeds are derived from (seed, point index), so output bytes do not
depend on the worker count.

Exit codes: 0 success, 2 bad configuration, 3 numerical non-convergence,
4 infeasible design constraints.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import json
import math
import os
import sys
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import analytic, queueing, sim
from .analytic import HopPair, ModulationParams, SelectionThresholds
from .channel import LinkParams, NodeGeometry, PowerConstraints, derive_link_params
from .queueing import SchemeConstraint, ThresholdProtocolParams
from .specfun import ConvergenceError, memo

__all__ = [
    "ConfigError",
    "InfeasibleError",
    "EXIT_OK",
    "EXIT_CONFIG",
    "EXIT_CONVERGENCE",
    "EXIT_INFEASIBLE",
    "PRESETS",
    "cmd_analyze",
    "cmd_simulate",
    "cmd_compare",
    "main",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_INFEASIBLE = 4


class ConfigError(Exception):
    """Bad experiment document; the message names the offending field."""


class InfeasibleError(Exception):
    """The requested design constraints admit no operating point."""


# ---------------------------------------------------------------------------
# document helpers


def _as_map(doc, key, required=False):
    sec = doc.get(key)
    if sec is None:
        if required:
            raise ConfigError(f"{key}: section required")
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(f"{key}: must be a mapping")
    return sec


def _as_num(value, field, positive=False, allow_inf=False):
    if isinstance(value, str) and value == "inf" and allow_inf:
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field}: must be a number")
    v = float(value)
    if math.isnan(v):
        raise ConfigError(f"{field}: must not be NaN")
    if math.isinf(v) and not allow_inf:
        raise ConfigError(f"{field}: must be finite")
    if positive and not (v > 0.0):
        raise ConfigError(f"{field}: must be positive")
    return v


def _as_int(value, field, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{field}: must be an integer")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{field}: must be at least {minimum}")
    return value


def _as_list(doc, key, what="non-empty list", field=None):
    raw = doc.get(key)
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{field or key}: {what} required")
    return raw


def _as_nums(doc, key, field=None, **checks):
    field = field or key
    raw = _as_list(doc, key, field=field)
    return [_as_num(v, f"{field}[{i}]", **checks) for i, v in enumerate(raw)]


@contextlib.contextmanager
def _reraise(prefix=None, error=ConfigError):
    """Turn a ValueError raised by a library constructor or solver into ``error``.

    A failed root bracket or a threshold too one-sided for a closed form is a
    numerical failure, not a bad or infeasible input, so
    ``analytic.BracketError`` and ``analytic.OneSidedError`` pass through
    (exit 3).
    """
    try:
        yield
    except (analytic.BracketError, analytic.OneSidedError):
        raise
    except ValueError as exc:
        raise error(f"{prefix}: {exc}" if prefix else str(exc)) from exc


def _get_by_path(doc, path, what):
    node = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"{what}: '{path}' not found in the document")
        node = node[part]
    return node


def _set_by_path(doc, path, value, what):
    parts = path.split(".")
    node = doc
    for part in parts[:-1]:
        nxt = node.setdefault(part, {})
        if not isinstance(nxt, dict):
            raise ConfigError(f"{what}: '{part}' in '{path}' is not a section")
        node = nxt
    node[parts[-1]] = value


class _Axis(NamedTuple):
    path: str
    values: list
    label: str
    scale_by: Optional[str]


def _axis(doc, key, values_key, monotone=False):
    sec = doc.get(key)
    if sec is None:
        return None
    if not isinstance(sec, dict):
        raise ConfigError(f"{key}: must be a mapping")
    path = sec.get("parameter")
    if not isinstance(path, str) or not path:
        raise ConfigError(f"{key}.parameter: non-empty string required")
    values = _as_nums(sec, values_key, field=f"{key}.{values_key}", allow_inf=True)
    if monotone and len(values) > 1:
        diffs = [b - a for a, b in zip(values, values[1:])]
        if not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
            raise ConfigError(f"{key}.{values_key}: must be strictly monotone")
    label = sec.get("label", path.rsplit(".", 1)[-1])
    if not isinstance(label, str) or not label:
        raise ConfigError(f"{key}.label: must be a non-empty string")
    scale_by = sec.get("scale_by")
    if scale_by is not None and (not isinstance(scale_by, str) or not scale_by):
        raise ConfigError(f"{key}.scale_by: must be a parameter path")
    return _Axis(path, values, label, scale_by)


def _expand_points(doc):
    """Cross the optional series and sweep axes into labelled point documents."""
    series = _axis(doc, "series", "values")
    sweep = _axis(doc, "sweep", "grid", monotone=True)
    labels = [axis.label for axis in (series, sweep) if axis]
    points = []
    for sv in series.values if series else [None]:
        base = copy.deepcopy(doc)
        if series:
            _set_by_path(base, series.path, sv, "series.parameter")
        for xv in sweep.values if sweep else [None]:
            pt = copy.deepcopy(base)
            lab = [sv] if series else []
            if sweep:
                actual = xv
                if sweep.scale_by:
                    actual = xv * _as_num(
                        _get_by_path(pt, sweep.scale_by, "sweep.scale_by"),
                        "sweep.scale_by target",
                    )
                _set_by_path(pt, sweep.path, actual, "sweep.parameter")
                lab.append(xv)
            points.append((lab, pt))
    return labels, points


# ---------------------------------------------------------------------------
# domain-object builders


def _build_link(sec, field):
    lam = _as_num(sec.get("lam"), f"{field}.lam", positive=True, allow_inf=True)
    mu = _as_num(sec.get("mu"), f"{field}.mu", positive=True)
    with _reraise(field):
        if "p" in sec:
            return LinkParams(lam=lam, mu=mu, p=_as_num(sec["p"], f"{field}.p"))
        return LinkParams.from_lambda_mu(lam, mu)


def build_pair(doc) -> HopPair:
    sec = _as_map(doc, "pair", required=True)
    if "links" in sec:
        links = _as_map(sec, "links", required=True)
        return HopPair(
            s=_build_link(_as_map(links, "s", required=True), "pair.links.s"),
            r=_build_link(_as_map(links, "r", required=True), "pair.links.r"),
        )
    geom_sec = _as_map(sec, "geometry", required=True)
    power_sec = _as_map(sec, "power", required=True)
    with _reraise("pair"):
        geom = NodeGeometry(
            d_sr=_as_num(geom_sec.get("d_sr", 1.0), "pair.geometry.d_sr"),
            d_rd=_as_num(geom_sec.get("d_rd", 1.0), "pair.geometry.d_rd"),
            d_sp=_as_num(geom_sec.get("d_sp"), "pair.geometry.d_sp"),
            d_rp=_as_num(geom_sec.get("d_rp"), "pair.geometry.d_rp"),
            alpha=_as_num(geom_sec.get("alpha", 3.0), "pair.geometry.alpha"),
        )
        power = PowerConstraints(
            gamma_max_db=_as_num(power_sec.get("gamma_max_db"), "pair.power.gamma_max_db"),
            gamma_p_db=_as_num(power_sec.get("gamma_p_db"), "pair.power.gamma_p_db"),
        )
        ohs = sec.get("omega_h_s")
        ohr = sec.get("omega_h_r")
        hop_s, hop_r = derive_link_params(
            geom,
            power,
            None if ohs is None else _as_num(ohs, "pair.omega_h_s", positive=True),
            None if ohr is None else _as_num(ohr, "pair.omega_h_r", positive=True),
        )
    return HopPair(s=hop_s, r=hop_r)


class _Point:
    """One grid point's document and hop pair."""

    def __init__(self, doc):
        self.doc = doc
        self.pair = build_pair(doc)

    @property
    def balance(self):
        """(rate, rho) at the rate balance point, solved once per memo block."""
        return analytic.avg_rate_cabr(self.pair)


def _resolve_rho(pt, key="rho"):
    spec = pt.doc.get(key)
    if spec is None:
        raise ConfigError(f"{key}: required here (number, 'balance' or 'fixed-opt')")
    if isinstance(spec, str):
        if spec == "balance":
            return pt.balance[1]
        if spec == "fixed-opt":
            return analytic.rho_opt_fixed(pt.pair)
        raise ConfigError(f"{key}: must be a positive number, 'balance' or 'fixed-opt'")
    return _as_num(spec, key, positive=True)


def _build_thresholds(pt) -> SelectionThresholds:
    rho = _resolve_rho(pt)
    rho_c = _resolve_rho(pt, "rho_c") if "rho_c" in pt.doc else rho
    rho_d = _resolve_rho(pt, "rho_d") if "rho_d" in pt.doc else rho
    return SelectionThresholds(rho=rho, rho_c=rho_c, rho_d=rho_d)


def _build_modulation(doc) -> ModulationParams:
    sec = _as_map(doc, "modulation")
    with _reraise("modulation"):
        return ModulationParams(
            eta=_as_num(sec.get("eta", 2.0), "modulation.eta", positive=True),
            phi=_as_num(sec.get("phi", 1.0), "modulation.phi", positive=True),
            rate_R=_as_num(sec.get("rate_R", 1.0), "modulation.rate_R", positive=True),
        )


def _build_buffer(doc) -> sim.BufferState:
    sec = _as_map(doc, "buffer")
    with _reraise("buffer"):
        return sim.BufferState(
            discipline=sec.get("discipline", "fifo"),
            capacity=_as_num(
                sec.get("capacity", "inf"), "buffer.capacity", positive=True, allow_inf=True
            ),
            occupancy=_as_num(sec.get("occupancy", 0.0), "buffer.occupancy"),
        )


def _build_chain(sec) -> ThresholdProtocolParams:
    L = _as_num(sec.get("buffer_size_L"), "chain.buffer_size_L", positive=True, allow_inf=True)
    with _reraise("chain"):
        if "q_s" in sec:
            return ThresholdProtocolParams(
                buffer_size_L=L,
                q_s=_as_num(sec["q_s"], "chain.q_s"),
                q_c=_as_num(sec.get("q_c", 1.0), "chain.q_c"),
                q_d=_as_num(sec.get("q_d", 1.0), "chain.q_d"),
            )
        if "xi" in sec:
            return ThresholdProtocolParams.from_xis(
                buffer_size_L=L,
                xi=_as_num(sec["xi"], "chain.xi", positive=True),
                xi_c=_as_num(sec.get("xi_c", 0.0), "chain.xi_c"),
                xi_d=_as_num(sec.get("xi_d", 0.0), "chain.xi_d"),
            )
    raise ConfigError("chain: needs q_s (with q_c, q_d) or xi (with xi_c, xi_d)")


def _point_seed(base: int, index: int) -> int:
    """Stable per-point seed; independent of worker count and dispatch order."""
    return int(np.random.SeedSequence([base, index]).generate_state(1, np.uint64)[0])


def _doc_seed(doc) -> int:
    return _as_int(doc.get("seed", 1), "seed", minimum=0)


def _doc_slots(doc, default=200_000) -> int:
    return _as_int(doc.get("slots", default), "slots", minimum=1)


# ---------------------------------------------------------------------------
# row records and point evaluators
#
# Each mode declares its columns once, as a row record that the evaluator
# builds with keyword arguments; a header is the point labels followed by the
# record's fields. Workers get a mode name and a payload of plain data and
# hand rows back as plain lists, so nothing sent between processes is a record.


def _record(name, fields, nan_default=False):
    """Row record over whitespace-separated fields; nan_default fills unset cells with nan."""
    fields = fields.split()
    return namedtuple(name, fields, defaults=[math.nan] * len(fields) if nan_default else None)


def _row(p, record):
    return [list(p["labels"]) + list(record)]


def _noncognitive_pair(pair: HopPair) -> HopPair:
    links = []
    for name, link in (("s", pair.s), ("r", pair.r)):
        if math.isinf(link.lam):
            raise ConfigError(
                f"rate_noncognitive: hop {name} has no peak-power-limited rate (lam=inf)"
            )
        # push the interference cap far past the power cap so it never binds
        links.append(LinkParams.from_lambda_mu(link.lam, 1e9 * link.lam))
    return HopPair(s=links[0], r=links[1])


def _per_hop(metric, ser, pt, *rho):
    """Cells {metric}_s and {metric}_r of a per-hop symbol error rate."""
    t = ser(pt.pair, *rho, _build_modulation(pt.doc))
    return {f"{metric}_s": t.p_s, f"{metric}_r": t.p_r}


def _delay_bound(pair, rho):
    """Adaptive delay bound at threshold ``rho``, or nan past the balance point."""
    try:
        return analytic.delay_bound_adaptive(pair, rho)
    except analytic.PastBalanceError:
        return math.nan


# metric name -> (row record, evaluator returning the record's cells by name)
_METRICS = {
    name: (_record(name, fields), value)
    for name, fields, value in [
        ("capacity", "capacity_s capacity_r", lambda pt: dict(
            capacity_s=analytic.avg_capacity_hop(pt.pair.s),
            capacity_r=analytic.avg_capacity_hop(pt.pair.r),
        )),
        ("rate_cabr", "rho_balance rate_cabr", lambda pt: dict(
            rho_balance=pt.balance[1], rate_cabr=pt.balance[0]
        )),
        ("rho_balance", "rho_balance log2_rho_balance", lambda pt: dict(
            rho_balance=pt.balance[1], log2_rho_balance=math.log2(pt.balance[1])
        )),
        ("rate_noncognitive", "rate_noncognitive", lambda pt: dict(
            rate_noncognitive=analytic.avg_rate_cabr(_noncognitive_pair(pt.pair))[0]
        )),
        ("rate_cnbr", "rate_cnbr", lambda pt: dict(rate_cnbr=analytic.avg_rate_cnbr(pt.pair))),
        ("rate_cbr", "rate_cbr", lambda pt: dict(rate_cbr=analytic.avg_rate_cbr(pt.pair))),
        ("ratio_cnbr", "ratio_cnbr", lambda pt: dict(
            ratio_cnbr=pt.balance[0] / analytic.avg_rate_cnbr(pt.pair)
        )),
        ("ratio_cbr", "ratio_cbr", lambda pt: dict(
            ratio_cbr=pt.balance[0] / analytic.avg_rate_cbr(pt.pair)
        )),
        ("rho_opt_fixed", "rho_opt_fixed", lambda pt: dict(
            rho_opt_fixed=analytic.rho_opt_fixed(pt.pair)
        )),
        ("lsp", "q_s q_r", lambda pt: dict(
            zip(("q_s", "q_r"), analytic.lsp(pt.pair, _resolve_rho(pt)))
        )),
        ("ser_cabr", "ser_cabr_s ser_cabr_r", lambda pt: _per_hop(
            "ser_cabr", analytic.ser_exact_cabr, pt, _resolve_rho(pt)
        )),
        ("ser_asym_cabr", "ser_asym_cabr_s ser_asym_cabr_r", lambda pt: _per_hop(
            "ser_asym_cabr", analytic.ser_asym_cabr, pt, _resolve_rho(pt)
        )),
        ("ser_cnbr", "ser_cnbr_s ser_cnbr_r", lambda pt: _per_hop(
            "ser_cnbr", analytic.ser_exact_cnbr, pt
        )),
        ("ser_asym_cnbr", "ser_asym_cnbr_s ser_asym_cnbr_r", lambda pt: _per_hop(
            "ser_asym_cnbr", analytic.ser_asym_cnbr, pt
        )),
        ("delay_bound", "delay_bound", lambda pt: dict(
            delay_bound=_delay_bound(pt.pair, _resolve_rho(pt))
        )),
    ]
}

_DEFAULT_METRICS = ["rate_cabr", "rate_cnbr", "rate_cbr"]
# the compare mode's fixed columns; a document's metrics do not apply to it
_COMPARE = {"metrics": ["rate_cabr", "rate_cnbr", "ratio_cnbr", "rate_cbr", "ratio_cbr"]}


def _table_fields(doc, labels):
    metrics = _as_list(doc, "metrics") if "metrics" in doc else list(_DEFAULT_METRICS)
    fields = []
    for m in metrics:
        if not isinstance(m, str) or m not in _METRICS:
            raise ConfigError(
                f"metrics: unknown metric '{m}' (choices: {', '.join(sorted(_METRICS))})"
            )
        for col in _METRICS[m][0]._fields:
            if col in labels or col in fields:
                raise ConfigError(f"metrics: column '{col}' requested twice")
            fields.append(col)
    return fields, {"metrics": metrics}


def _pt_table(p):
    pt = _Point(p["doc"])
    row = list(p["labels"])
    for metric in p["metrics"]:
        record, value = _METRICS[metric]
        row.extend(record(**value(pt)))
    return [row]


_ChainRow = _record("_ChainRow", """
    L q_s q_c q_d xi xi_c xi_d tau pi_0 pi_L mean_occupancy t_q t_u t_o t_total lifo_t_q
""")


def _pt_chain(p):
    chain = _build_chain(_as_map(p["doc"], "chain", required=True))
    L = chain.buffer_size_L
    if math.isinf(L):
        pi_0, pi_L = queueing._pi0_infinite(chain), 0.0
        occ = lifo_tq = math.nan
    else:
        pi = queueing.steady_state(chain)
        pi_0, pi_L = float(pi[0]), float(pi[-1])
        occ = queueing.mean_occupancy(chain)
        lifo_tq = queueing.lifo_equivalent_queue_delay(chain)
    return _row(p, _ChainRow(
        L=L, q_s=chain.q_s, q_c=chain.q_c, q_d=chain.q_d,
        xi=chain.xi, xi_c=chain.xi_c, xi_d=chain.xi_d,
        tau=queueing.throughput(chain), pi_0=pi_0, pi_L=pi_L, mean_occupancy=occ,
        **asdict(queueing.delays(chain)), lifo_t_q=lifo_tq,
    ))


class _Design(NamedTuple):
    knob: str  # document key of the design's free parameter
    default: Optional[float]
    positive: bool
    xi_c: Callable  # (knob value, xi) -> boundary drift xi_c


_DESIGNS = {
    "mdmt": _Design("x_star", None, True, lambda x_star, xi: x_star * xi),
    "ct": _Design("tau_star", None, True, lambda tau_star, xi: queueing.ct_xi_c(tau_star, xi)),
    "eps": _Design("epsilon", 0.0, False, lambda eps, xi: queueing.epsilon_xi_c(eps, xi)),
}


def _design_knob(design):
    name = design["name"]
    if not isinstance(name, str) or name not in _DESIGNS:
        raise ConfigError("designs[].name: must be one of mdmt, ct, eps")
    spec = _DESIGNS[name]
    return _as_num(
        design.get(spec.knob, spec.default), f"designs[].{spec.knob}", positive=spec.positive
    )


_TRADEOFF = "design knob xi xi_c tau"
_DelayTradeoffRow = _record("_DelayTradeoffRow", _TRADEOFF + " t_q t_u t_o t_total", True)
_BerTradeoffRow = _record("_BerTradeoffRow", _TRADEOFF + " ser_s_approx ser_s_exact")


def _design_chain(design, xi):
    """The design's knob, boundary drift xi_c and infinite-buffer chain at drift xi."""
    knob = _design_knob(design)
    spec = _DESIGNS[design["name"]]
    with _reraise(f"{design['name']} {spec.knob}={knob} at xi={xi}"):
        xi_c = spec.xi_c(knob, xi)
    return knob, xi_c, ThresholdProtocolParams.from_xis(math.inf, xi, xi_c, 1.0)


def _pt_tradeoff(p):
    if p["design"] is None:  # feasibility-boundary row: tau (1 + t) = 1
        tau = p["tau"]
        return [list(_DelayTradeoffRow(design="bound", tau=tau, t_total=1.0 / tau - 1.0))]
    design = p["design"]
    xi = p["xi"]
    knob, xi_c, chain = _design_chain(design, xi)
    common = dict(
        design=design["name"], knob=knob, xi=xi, xi_c=xi_c, tau=queueing.throughput(chain)
    )
    if p["objective"] == "delay":
        return [list(_DelayTradeoffRow(**common, **asdict(queueing.delays(chain))))]
    pair = build_pair(p["doc"])
    mod = _build_modulation(p["doc"])
    with _reraise("pair"):
        return [list(_BerTradeoffRow(
            **common,
            ser_s_approx=queueing.ser_asym_threshold_pip(pair, xi, xi_c, mod, method="approx"),
            ser_s_exact=queueing.ser_asym_threshold_pip(pair, xi, xi_c, mod, method="exact"),
        ))]


_DelayCompareRow = _record("_DelayCompareRow", "rho delay_bound rate_cabr rate_cnbr ratio_cnbr")


def _rho_for_delay_bound(pair, t_target):
    with _reraise(f"t_target={t_target}", InfeasibleError):
        return analytic.rho_for_delay_bound(pair, t_target)


def _pt_delay_compare(p):
    doc = p["doc"]
    pair = build_pair(doc)
    rho = _rho_for_delay_bound(pair, _as_num(doc.get("t_target"), "t_target", positive=True))
    bound = analytic.delay_bound_adaptive(pair, rho)
    rate = analytic.avg_rate_cabr_hop_s(pair, rho)  # arrival-limited throughput
    cnbr = analytic.avg_rate_cnbr(pair)
    return _row(p, _DelayCompareRow(
        rho=rho, delay_bound=bound, rate_cabr=rate, rate_cnbr=cnbr, ratio_cnbr=rate / cnbr
    ))


_OverflowRow = _record("_OverflowRow", "t_target d_sp d_rp rho L overflow_prob")


def _pt_overflow(p):
    pair = build_pair(p["doc"])
    rho = _rho_for_delay_bound(pair, p["t_target"])
    config = sim.SchemeConfig(
        scheme="cabr",
        rate_mode="adaptive",
        slots=p["slots"],
        seed=_point_seed(p["seed"], p["index"]),
        thresholds=SelectionThresholds.uniform(rho),
    )
    curve = sim.overflow_probability(config, pair, np.asarray(p["l_grid"], dtype=float))
    return [
        list(_OverflowRow(
            t_target=p["t_target"], d_sp=p["d_sp"], d_rp=p["d_rp"],
            rho=rho, L=l_value, overflow_prob=float(prob),
        ))
        for l_value, prob in zip(p["l_grid"], curve)
    ]


_SerSweepRow = _record("_SerSweepRow", """
    case gamma_max_db scheme rho ser_s_exact ser_r_exact ser_s_asym ser_r_asym
    ser_s_sim ser_r_sim ser_s_se ser_r_se
""")


def _ser_threshold_cells(buffer_sizes, exact=None, marginal=None):
    """(column, value) pairs ser_{hop}_L{L}: the threshold protocol's per-hop
    error rate at each finite buffer size, or nan without exact rates."""
    cells = []
    for L in buffer_sizes:
        sers = (math.nan, math.nan)
        if exact is not None:
            # balanced drift: the empty/full mixing weights reduce to 1/L
            sers = queueing.ser_threshold(
                ThresholdProtocolParams(L, 0.5, 1.0, 1.0),
                exact.p_s, marginal.p_s, exact.p_r, marginal.p_r,
            )
        cells += [(f"ser_{hop}_L{L}", ser) for hop, ser in zip("sr", sers)]
    return cells


def _pt_ser_sweep(p):
    pair = build_pair(p["doc"])
    mod = _build_modulation(p["doc"])
    scheme = p["scheme"]
    marginal = analytic.ser_exact_cnbr(pair, mod)
    if scheme == "cabr":
        rho = analytic.rho_opt_fixed(pair)
        exact = analytic.ser_exact_cabr(pair, rho, mod)
        asym = analytic.ser_asym_cabr(pair, rho, mod)
        thresholds = SelectionThresholds.uniform(rho)
        thresh_cells = _ser_threshold_cells(p["buffer_sizes"], exact, marginal)
    else:
        rho, thresholds = math.nan, None
        exact, asym = marginal, analytic.ser_asym_cnbr(pair, mod)
        thresh_cells = _ser_threshold_cells(p["buffer_sizes"])
    config = sim.SchemeConfig(
        scheme=scheme,
        rate_mode="fixed",
        slots=p["slots"],
        seed=_point_seed(p["seed"], p["index"]),
        thresholds=thresholds,
        modulation=mod,
    )
    out = sim.run(config, pair)
    row = _SerSweepRow(
        case=p["case"], gamma_max_db=p["gamma_max_db"], scheme=scheme, rho=rho,
        ser_s_exact=exact.p_s, ser_r_exact=exact.p_r, ser_s_asym=asym.p_s, ser_r_asym=asym.p_r,
        ser_s_sim=out.ser_per_hop[0], ser_r_sim=out.ser_per_hop[1],
        ser_s_se=out.ci_halfwidths.get("ser_s", math.nan),
        ser_r_se=out.ci_halfwidths.get("ser_r", math.nan),
    )
    return [list(row) + [ser for _, ser in thresh_cells]]


_RunRow = _record("_RunRow", """
    scheme rate_mode slots seed rho
    avg_rate avg_rate_se avg_rate_ref
    rate_hop_s rate_hop_s_ref rate_hop_r rate_hop_r_ref
    q_s q_s_ref q_c q_c_ref q_d q_d_ref
    ser_s ser_s_se ser_s_ref ser_r ser_r_se ser_r_ref
    tau_pps tau_ref
    t_q t_q_ref t_u t_u_ref t_o t_o_ref t_total t_total_ref
    mean_occupancy underflow overflow delay_bound
""", nan_default=True)


def _selection_refs(pair, thr):
    """Chain probabilities q_s, q_c, q_d that the selection thresholds induce."""
    return dict(
        q_s_ref=analytic.lsp(pair, thr.rho)[0],
        q_c_ref=analytic.lsp(pair, thr.rho_c)[0],
        q_d_ref=1.0 - analytic.lsp(pair, thr.rho_d)[0],
    )


def _refs_cabr_adaptive(pair, thr, mod, buffer):
    refs = _selection_refs(pair, thr)
    hop_s = analytic.avg_rate_cabr_hop_s(pair, thr.rho)
    hop_r = analytic.avg_rate_cabr_hop_r(pair, thr.rho)
    return dict(
        refs, rate_hop_s_ref=hop_s, rate_hop_r_ref=hop_r, avg_rate_ref=min(hop_s, hop_r),
        delay_bound=_delay_bound(pair, thr.rho),
    )


def _refs_cabr_fixed(pair, thr, mod, buffer):
    refs = _selection_refs(pair, thr)
    exact = analytic.ser_exact_cabr(pair, thr.rho, mod)
    p_c = analytic.ser_exact_cabr(pair, thr.rho_c, mod).p_s
    p_d = analytic.ser_exact_cabr(pair, thr.rho_d, mod).p_r
    try:
        chain = ThresholdProtocolParams(
            buffer.capacity, refs["q_s_ref"], refs["q_c_ref"], refs["q_d_ref"]
        )
        ser_s, ser_r = queueing.ser_threshold(chain, exact.p_s, p_c, exact.p_r, p_d)
    except ValueError:
        return refs  # growing chain on an unbounded buffer: no steady state
    tau = queueing.throughput(chain)
    delays = {f"{k}_ref": v for k, v in asdict(queueing.delays(chain)).items()}
    return dict(
        refs, **delays, ser_s_ref=ser_s, ser_r_ref=ser_r,
        tau_ref=tau, avg_rate_ref=tau * mod.rate_R,
    )


def _refs_fixed_schedule(pair, thr, mod, buffer):
    t = analytic.ser_exact_cnbr(pair, mod)
    return dict(ser_s_ref=t.p_s, ser_r_ref=t.p_r, tau_ref=0.5, avg_rate_ref=0.5 * mod.rate_R)


# (scheme, rate_mode) -> analytic reference cells of a run row; unset cells read nan
_RUN_REFS = {
    ("cabr", "adaptive"): _refs_cabr_adaptive,
    ("cabr", "fixed"): _refs_cabr_fixed,
    ("cnbr", "adaptive"): lambda pair, *_: dict(avg_rate_ref=analytic.avg_rate_cnbr(pair)),
    ("cbr", "adaptive"): lambda pair, *_: dict(avg_rate_ref=analytic.avg_rate_cbr(pair)),
    ("cnbr", "fixed"): _refs_fixed_schedule,
    ("cbr", "fixed"): _refs_fixed_schedule,
}


def _pt_run(p):
    pt = _Point(p["doc"])
    scheme = pt.doc.get("scheme")
    if scheme not in ("cabr", "cnbr", "cbr"):
        raise ConfigError("scheme: must be one of cabr, cnbr, cbr")
    rate_mode = pt.doc.get("rate_mode", "adaptive")
    if rate_mode not in ("adaptive", "fixed"):
        raise ConfigError("rate_mode: must be 'adaptive' or 'fixed'")
    thresholds = _build_thresholds(pt) if scheme == "cabr" else None
    modulation = _build_modulation(pt.doc) if rate_mode == "fixed" else None
    buffer = _build_buffer(pt.doc)
    seed = _point_seed(p["seed"], p["index"])
    with _reraise():
        config = sim.SchemeConfig(
            scheme=scheme,
            rate_mode=rate_mode,
            slots=p["slots"],
            seed=seed,
            thresholds=thresholds,
            modulation=modulation,
            buffer=buffer,
        )
    with _reraise("pair"):  # a forced p the sampler cannot draw
        out = sim.run(config, pt.pair)
    refs = _RUN_REFS[scheme, rate_mode](pt.pair, thresholds, modulation, buffer)
    ci = out.ci_halfwidths
    return _row(p, _RunRow(
        scheme=scheme, rate_mode=rate_mode, slots=out.slots_run, seed=seed,
        rho=thresholds.rho if thresholds else math.nan,
        avg_rate=out.avg_rate, avg_rate_se=ci.get("avg_rate", math.nan),
        rate_hop_s=out.rate_hop_s, rate_hop_r=out.rate_hop_r,
        q_s=out.lsp_empirical[0], q_c=out.lsp_empirical[1], q_d=out.lsp_empirical[2],
        ser_s=out.ser_per_hop[0], ser_s_se=ci.get("ser_s", math.nan),
        ser_r=out.ser_per_hop[1], ser_r_se=ci.get("ser_r", math.nan),
        tau_pps=out.throughput_pps,
        **asdict(out.delay),
        mean_occupancy=out.mean_occupancy,
        underflow=out.underflow_count, overflow=out.overflow_count,
        **refs,
    ))


def _eval_task(task):
    name, payload = task
    with memo():
        return _MODES[name].point(payload)


def _run_tasks(name, payloads, workers):
    # one memo block per command in the serial path and per task in a worker;
    # either way no integral value outlives the command
    tasks = [(name, p) for p in payloads]
    if workers <= 1 or len(tasks) <= 1:
        with memo():
            results = [_eval_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_eval_task, tasks))
    return [row for point_rows in results for row in point_rows]


# ---------------------------------------------------------------------------
# mode builders: document -> (columns, payloads)


def _grid_builder(fields):
    """Builder of a mode with one payload per series x sweep point.

    ``fields(doc, labels)`` returns the mode's columns after the labels and the
    payload entries every point shares.
    """

    def build(doc):
        labels, points = _expand_points(doc)
        columns, shared = fields(doc, labels)
        payloads = [
            dict(shared, labels=lab, doc=pt, index=i) for i, (lab, pt) in enumerate(points)
        ]
        return list(labels) + list(columns), payloads

    return build


def _fields_of(record):
    return lambda doc, labels: (record._fields, {})


def _run_fields(doc, labels):
    return _RunRow._fields, {"seed": _doc_seed(doc), "slots": _doc_slots(doc)}


def _build_tradeoff(doc):
    objective = doc.get("objective", "delay")
    if objective not in ("delay", "ber"):
        raise ConfigError("objective: must be 'delay' or 'ber'")
    xi_grid = _as_nums(doc, "xi_grid")
    if any(not (x > 1.0) for x in xi_grid):
        raise ConfigError("xi_grid: every drift ratio must exceed 1")
    designs = _as_list(doc, "designs")
    for i, d in enumerate(designs):
        if not isinstance(d, dict) or "name" not in d:
            raise ConfigError(f"designs[{i}]: mapping with a 'name' required")
        _design_knob(d)  # validates name and knob

    constraint = None
    if "constraint" in doc:
        sec = _as_map(doc, "constraint", required=True)
        with _reraise("constraint"):
            constraint = SchemeConstraint(
                t_max=_as_num(sec.get("t_max"), "constraint.t_max"),
                tau_min=_as_num(sec.get("tau_min"), "constraint.tau_min"),
            )
        feas = queueing.feasibility(constraint)
        if not feas.feasible:
            raise InfeasibleError(feas.violated)

    payloads = []
    for design in designs:
        grid_d = xi_grid
        if constraint is not None:
            if design["name"] == "mdmt":
                rng = queueing.mdmt_xi_range(design["x_star"], constraint)
                if not rng.feasible:
                    raise InfeasibleError(f"mdmt x*={design['x_star']}: {rng.violated}")
                grid_d = [x for x in xi_grid if rng.xi_lo <= x <= rng.xi_hi]
            elif design["name"] == "ct":
                if design["tau_star"] < constraint.tau_min:
                    raise InfeasibleError(
                        f"ct tau*={design['tau_star']}: below the throughput floor"
                    )
                with _reraise(f"ct tau*={design['tau_star']}", InfeasibleError):
                    xi_min = queueing.ct_xi_min(design["tau_star"], constraint.t_max)
                grid_d = [x for x in xi_grid if x >= xi_min]
            else:  # eps: the drifts whose chain meets both bounds
                chains = [(x, _design_chain(design, x)[2]) for x in xi_grid]
                grid_d = [
                    x for x, chain in chains
                    if queueing.delays(chain).t_total <= constraint.t_max
                    and queueing.throughput(chain) >= constraint.tau_min
                ]
                if not grid_d:
                    raise InfeasibleError(
                        f"eps epsilon={_design_knob(design)}: no xi meets t_max and tau_min"
                    )
        for xi in grid_d:
            payloads.append(
                {"design": design, "xi": xi, "objective": objective, "doc": doc}
            )
    if objective == "delay":
        for tau in doc.get("bound_tau_grid", []):
            tau = _as_num(tau, "bound_tau_grid[]", positive=True)
            payloads.append({"design": None, "tau": tau})
        return list(_DelayTradeoffRow._fields), payloads
    return list(_BerTradeoffRow._fields), payloads


def _build_overflow(doc):
    l_grid = _as_nums(doc, "l_grid", positive=True)
    if any(b <= a for a, b in zip(l_grid, l_grid[1:])):
        raise ConfigError("l_grid: must be strictly increasing")
    targets = _as_list(doc, "t_targets")
    geometries = _as_list(doc, "geometries", "non-empty list of {d_sp, d_rp}")
    shared = {"l_grid": l_grid, "seed": _doc_seed(doc), "slots": _doc_slots(doc, default=500_000)}
    base_geom = _as_map(doc, "geometry_base")
    power = _as_map(doc, "power", required=True)
    payloads = []
    for t_target in targets:
        t = _as_num(t_target, "t_targets[]", positive=True)
        for g in geometries:
            if not isinstance(g, dict):
                raise ConfigError("geometries[]: must be mappings")
            d_sp = _as_num(g.get("d_sp"), "geometries[].d_sp", positive=True)
            d_rp = _as_num(g.get("d_rp"), "geometries[].d_rp", positive=True)
            point_doc = {
                "pair": {
                    "geometry": {**base_geom, "d_sp": d_sp, "d_rp": d_rp},
                    "power": power,
                }
            }
            payloads.append(
                dict(shared, doc=point_doc, t_target=t, d_sp=d_sp, d_rp=d_rp, index=len(payloads))
            )
    return list(_OverflowRow._fields), payloads


def _build_ser_sweep(doc):
    cases = _as_list(doc, "cases")
    schemes = doc.get("schemes", ["cabr", "cnbr"])
    if not isinstance(schemes, list) or any(s not in ("cabr", "cnbr") for s in schemes):
        raise ConfigError("schemes: list drawn from cabr, cnbr")
    gammas = _as_nums(doc, "gamma_max_db_grid")
    buffer_sizes = doc.get("threshold_buffer_sizes", [])
    if not isinstance(buffer_sizes, list):
        raise ConfigError("threshold_buffer_sizes: list of integers")
    buffer_sizes = [_as_int(v, "threshold_buffer_sizes[]", minimum=1) for v in buffer_sizes]
    shared = {"buffer_sizes": buffer_sizes, "seed": _doc_seed(doc), "slots": _doc_slots(doc)}
    payloads = []
    for case in cases:
        if not isinstance(case, dict) or "name" not in case:
            raise ConfigError("cases[]: mapping with a 'name' required")
        ohs = _as_num(case.get("omega_h_s", 1.0), "cases[].omega_h_s", positive=True)
        ohr = _as_num(case.get("omega_h_r", 1.0), "cases[].omega_h_r", positive=True)
        mu_s = _as_num(case.get("mu_s"), "cases[].mu_s", positive=True)
        mu_r = _as_num(case.get("mu_r"), "cases[].mu_r", positive=True)
        for gdb in gammas:
            gamma_max = 10.0 ** (gdb / 10.0)
            point_doc = {
                "pair": {
                    "links": {
                        "s": {"lam": gamma_max * ohs, "mu": mu_s},
                        "r": {"lam": gamma_max * ohr, "mu": mu_r},
                    }
                },
                "modulation": _as_map(doc, "modulation"),
            }
            for scheme in schemes:
                payloads.append(dict(
                    shared, case=case["name"], gamma_max_db=gdb, doc=point_doc,
                    scheme=scheme, index=len(payloads),
                ))
    thresh_fields = [name for name, _ in _ser_threshold_cells(buffer_sizes)]
    return list(_SerSweepRow._fields) + thresh_fields, payloads


class _Mode(NamedTuple):
    kind: str  # the command that runs the mode
    build: Callable  # document -> (columns, payloads)
    point: Callable  # payload -> the point's rows


# the first mode of each kind is its default
_MODES = {
    "table": _Mode("analyze", _grid_builder(_table_fields), _pt_table),
    "chain-table": _Mode("analyze", _grid_builder(_fields_of(_ChainRow)), _pt_chain),
    "tradeoff": _Mode("analyze", _build_tradeoff, _pt_tradeoff),
    "compare": _Mode(
        "compare", _grid_builder(lambda _, labels: _table_fields(_COMPARE, labels)), _pt_table
    ),
    "delay-compare": _Mode(
        "compare", _grid_builder(_fields_of(_DelayCompareRow)), _pt_delay_compare
    ),
    "run": _Mode("simulate", _grid_builder(_run_fields), _pt_run),
    "overflow": _Mode("simulate", _build_overflow, _pt_overflow),
    "ser-sweep": _Mode("simulate", _build_ser_sweep, _pt_ser_sweep),
}


# ---------------------------------------------------------------------------
# figure presets

_POWER_COMMON = {"gamma_max_db": 30.0, "gamma_p_db": 10.0}
_GEOM_COMMON = {"d_sr": 1.0, "d_rd": 1.0, "alpha": 3.0}
_D_SP_GRID = [0.8, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0]
_D_RP_SERIES = [1.5, 2.0, 3.0]
_XI_GRID = [
    1.05, 1.1, 1.2, 1.35, 1.5, 1.75, 2.0, 2.5, 3.0,
    3.5, 4.0, 5.0, 6.0, 8.0, 10.0, 14.0, 20.0,
]
_TRADEOFF_DESIGNS = [
    {"name": "mdmt", "x_star": 1.0},
    {"name": "mdmt", "x_star": 0.5},
    {"name": "mdmt", "x_star": 0.25},
    {"name": "ct", "tau_star": 1.0 / 3.0},
    {"name": "eps", "epsilon": 0.0},
]
_PIP_LINKS = {"s": {"lam": math.inf, "mu": 33.75}, "r": {"lam": math.inf, "mu": 80.0}}
_BPSK = {"eta": 2.0, "phi": 1.0, "rate_R": 1.0}


def _fig_pair(d_sp, d_rp):
    return {
        "geometry": {**_GEOM_COMMON, "d_sp": d_sp, "d_rp": d_rp},
        "power": dict(_POWER_COMMON),
    }


def _d_sp_curves(kind, mode, **fields):
    """Preset over the source-to-primary distance, one curve per relay-to-primary distance."""
    return {
        "kind": kind,
        "mode": mode,
        **fields,
        "pair": _fig_pair(2.0, 2.0),
        "series": {"parameter": "pair.geometry.d_rp", "values": _D_RP_SERIES},
        "sweep": {"parameter": "pair.geometry.d_sp", "grid": _D_SP_GRID},
    }


PRESETS = {
    # adaptive-rate throughput vs source-to-primary distance, one curve per
    # relay-to-primary distance, with the unconstrained-power reference
    "fig3": _d_sp_curves("analyze", "table", metrics=["rate_cabr", "rate_noncognitive"]),
    # balance threshold (log2) vs source-to-primary distance; crosses zero
    # where the two interference distances coincide
    "fig4": _d_sp_curves("analyze", "table", metrics=["rho_balance"]),
    # adaptive-selection rate gain over the alternating schedule
    "fig5": _d_sp_curves("compare", "compare"),
    # rate gain over the block fill-then-drain schedule vs the distance ratio;
    # the sweep value multiplies the per-series d_rp to give d_sp
    "fig6": {
        "kind": "compare",
        "mode": "compare",
        "pair": _fig_pair(2.0, 2.0),
        "series": {"parameter": "pair.geometry.d_rp", "values": [2.0, 3.0]},
        "sweep": {
            "parameter": "pair.geometry.d_sp",
            "grid": [0.5, 0.7, 0.85, 1.0, 1.15, 1.3, 1.5, 1.75, 2.0],
            "scale_by": "pair.geometry.d_rp",
            "label": "d_sp_over_d_rp",
        },
    },
    # rate gain over the alternating schedule when the mean delay is capped
    "fig7": {
        "kind": "compare",
        "mode": "delay-compare",
        "pair": _fig_pair(2.0, 2.0),
        "series": {"parameter": "t_target", "values": [7.3, 3.3]},
        "sweep": {
            "parameter": "pair.geometry.d_sp",
            "grid": [1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0],
        },
    },
    # occupancy-tail curves at fixed delay caps; the nearer geometry has the
    # stronger interference constraint and the emptier buffer
    "fig8": {
        "kind": "simulate",
        "mode": "overflow",
        "geometry_base": dict(_GEOM_COMMON),
        "power": dict(_POWER_COMMON),
        "t_targets": [7.3, 3.3],
        "geometries": [
            {"d_sp": 1.5, "d_rp": 2.0},
            {"d_sp": 2.25, "d_rp": 3.0},
        ],
        "l_grid": [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
        "slots": 500_000,
        "seed": 20,
    },
    # fixed-rate error rates vs peak transmit SNR for matched and mismatched
    # interference caps, with high-SNR asymptotes, simulation points, and the
    # finite-buffer boundary-threshold mixes
    "fig9": {
        "kind": "simulate",
        "mode": "ser-sweep",
        "cases": [
            {"name": "symmetric", "omega_h_s": 1.0, "omega_h_r": 0.5787,
             "mu_s": 156.25, "mu_r": 156.25},
            {"name": "asymmetric", "omega_h_s": 1.0, "omega_h_r": 0.751,
             "mu_s": 156.25, "mu_r": 202.5},
        ],
        "schemes": ["cabr", "cnbr"],
        "gamma_max_db_grid": [
            10.0, 12.5, 15.0, 17.5, 20.0, 22.5, 25.0, 27.5, 30.0,
            32.5, 35.0, 37.5, 40.0, 42.5, 45.0, 47.5, 50.0,
        ],
        "modulation": dict(_BPSK),
        "threshold_buffer_sizes": [2, 10],
        "slots": 200_000,
        "seed": 9,
    },
    # threshold-protocol delay vs throughput, with the feasibility boundary
    "fig10": {
        "kind": "analyze",
        "mode": "tradeoff",
        "objective": "delay",
        "xi_grid": list(_XI_GRID),
        "designs": copy.deepcopy(_TRADEOFF_DESIGNS),
        "bound_tau_grid": [
            0.26, 0.28, 0.30, 0.32, 0.34, 0.36, 0.38,
            0.40, 0.42, 0.44, 0.46, 0.48, 0.50,
        ],
    },
    # threshold-protocol first-hop error rate vs throughput in the
    # interference-limited regime
    "fig11": {
        "kind": "analyze",
        "mode": "tradeoff",
        "objective": "ber",
        "xi_grid": list(_XI_GRID),
        "designs": copy.deepcopy(_TRADEOFF_DESIGNS),
        "pair": {"links": copy.deepcopy(_PIP_LINKS)},
        "modulation": dict(_BPSK),
    },
}


# ---------------------------------------------------------------------------
# commands


def _table_for(kind, doc, workers):
    choices = [name for name, spec in _MODES.items() if spec.kind == kind]
    mode = doc.get("mode", "chain-table" if kind == "analyze" and "chain" in doc else choices[0])
    if mode not in choices:
        raise ConfigError(f"mode: '{mode}' not valid for {kind} (choices: {', '.join(choices)})")
    columns, payloads = _MODES[mode].build(doc)
    return columns, _run_tasks(mode, payloads, workers)


def cmd_analyze(doc, workers=1):
    """Closed-form metric table over the configured grid."""
    return _table_for("analyze", doc, workers)


def cmd_simulate(doc, workers=1):
    """Monte Carlo runs joined with their matching analytic columns."""
    return _table_for("simulate", doc, workers)


def cmd_compare(doc, workers=1):
    """Scheme rate-ratio table over the configured grid."""
    return _table_for("compare", doc, workers)


# ---------------------------------------------------------------------------
# I/O


def _py(value):
    return value.item() if isinstance(value, np.generic) else value


def _write_csv(columns, rows, stream):
    csv.writer(stream).writerows([columns, *rows])


def _write_json(columns, rows, stream):
    json.dump({"columns": list(columns), "rows": rows}, stream, indent=1)
    stream.write("\n")


def _emit(columns, rows, path, fmt):
    rows = [[_py(v) for v in row] for row in rows]
    writer = _write_csv if fmt == "csv" else _write_json
    if path is None or path == "-":
        writer(columns, rows, sys.stdout)
        return
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer(columns, rows, f)


# ---------------------------------------------------------------------------
# entry point


def _load_document(args):
    doc = {}
    if args.preset:
        doc = copy.deepcopy(PRESETS[args.preset])
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as f:
                user = json.load(f)
        except FileNotFoundError as exc:
            raise ConfigError(f"{args.config}: file not found") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.config}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
        if not isinstance(user, dict):
            raise ConfigError(f"{args.config}: top level must be a mapping")
        doc.update(user)
    if not doc:
        raise ConfigError("a config file or --preset is required")
    if args.slots is not None:
        doc["slots"] = _as_int(args.slots, "--slots", minimum=1)
    if args.seed is not None:
        doc["seed"] = _as_int(args.seed, "--seed", minimum=0)
    return doc


def _resolve_workers(args):
    if args.workers is not None:
        value = args.workers
    else:
        raw = os.environ.get("BUFRELAY_WORKERS")
        if raw is None:
            return 1
        try:
            value = int(raw)
        except ValueError as exc:
            raise ConfigError(f"BUFRELAY_WORKERS: not an integer: {raw!r}") from exc
    if value < 1:
        raise ConfigError("worker count must be at least 1")
    return value


def _effective_kind(command, doc):
    kind = doc.get("kind", "analyze" if command == "sweep" else command)
    kinds = sorted({mode.kind for mode in _MODES.values()})
    if kind not in kinds:
        raise ConfigError(f"kind: must be one of {', '.join(kinds)}")
    if command == "sweep":
        if kind != "analyze":
            raise ConfigError(f"sweep runs analyze documents; this one says kind={kind}")
        if "sweep" not in doc:
            raise ConfigError("sweep: a sweep section is required")
    elif kind != command:
        raise ConfigError(f"this document says kind={kind}; run `bufrelay {kind}`")
    return kind


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bufrelay",
        description=(
            "Closed-form analysis, Monte Carlo simulation, and scheme comparison "
            "for a two-hop buffer-aided relay link under interference-limited "
            "power control."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "analyze": "evaluate closed-form metrics on a grid",
        "sweep": "analyze with a mandatory sweep axis",
        "simulate": "run the slot-level engine with analytic overlay columns",
        "compare": "tabulate scheme rate ratios",
    }
    for name, text in helps.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("config", nargs="?", help="JSON experiment document")
        p.add_argument("--preset", choices=sorted(PRESETS), help="built-in experiment")
        p.add_argument("--seed", type=int, help="override the document seed")
        p.add_argument("--slots", type=int, help="override the slot count")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument(
            "--format", choices=("csv", "json"), default="csv", dest="fmt",
            help="output format (default: csv)",
        )
        p.add_argument("--workers", type=int, help="worker processes for sweep points")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc = _load_document(args)
        kind = _effective_kind(args.command, doc)
        workers = _resolve_workers(args)
        columns, rows = _table_for(kind, doc, workers)
        _emit(columns, rows, args.out, args.fmt)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, analytic.BracketError, analytic.OneSidedError) as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except InfeasibleError as exc:
        print(f"infeasible constraints: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
