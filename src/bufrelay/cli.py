"""Experiment runner: closed-form tables, Monte Carlo runs, and figure presets.

An experiment is a JSON document (or a named built-in preset, or a preset
overlaid by a document) interpreted by one of four commands:

  analyze    evaluate closed-form metrics on a parameter grid
  sweep      analyze with a mandatory sweep axis
  simulate   run the slot-level engine and join matching analytic columns
  compare    tabulate scheme rate ratios (adaptive vs fixed schedules)

Results are written to stdout or a file as CSV (RFC-4180 quoting, full
round-trip float precision) or JSON. Sweep points are dispatched to a pool
of --workers processes, never more than there are points; rows always come
out in grid order and per-point seeds are derived from (seed, point index),
so output bytes do not depend on the worker count.

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
import sys
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import analytic, queueing, sim
from .analytic import HopPair, ModulationParams, SelectionThresholds
from .channel import LinkParams, NodeGeometry, PowerConstraints, _pow, derive_link_params
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
# document fields
#
# Each mode lists the fields it reads in one table (after the row records).
# One validator reads fields against their entries and returns normalized
# values, which builders and point evaluators use without checking again.

_REQ = object()  # default of a required field: an absent key reads as null
_OPT = object()  # default of an optional field, left out when its key is absent


class _F(NamedTuple):
    """One document field; messages print ``label``, else a map's key, else the path.

    A map with ``forms`` also reads the fields of one of them: the form that field
    ``by`` names, else the first whose key is present, else form "".
    """

    key: str
    type: str = "num"  # num int str choice any list map, or rho: > 0, "balance", "fixed-opt"
    range: object = None  # num "> 0"; int minimum; list minimum length (1) or a _LIST_CHECKS key
    default: object = _REQ  # _REQ, _OPT, None (left out if absent or null) or an absent key's value
    inf: bool = False  # a num accepts the string "inf"
    label: str = ""
    what: str = ""  # message of a str, choice or list check, a non-mapping item, or a form miss
    choices: tuple = ()
    fields: tuple = ()  # a map's fields (none: its contents pass unchecked), or a list's item
    forms: Optional[dict] = None  # form key -> extra fields
    by: str = ""  # a key every item mapping must hold, and the form it picks
    make: Optional[Callable] = None  # builds a map's value; its ValueError names the map's path


def _increasing(v):
    return all(b > a for a, b in zip(v, v[1:]))


# whole-list range checks: name -> (predicate on the normalized items, message)
_LIST_CHECKS = {
    "monotone": (lambda v: _increasing(v) or _increasing(v[::-1]), "must be strictly monotone"),
    "increasing": (_increasing, "must be strictly increasing"),
    "> 1": (lambda v: all(x > 1.0 for x in v), "every drift ratio must exceed 1"),
}


def _check(f, value, label, path=""):
    """``value`` of field ``f`` normalized, or a ConfigError naming ``label``."""
    def fail(message):
        raise ConfigError(f"{label}: {message}")

    if f.type == "map":
        if value is None and f.key:
            if f.default is _REQ or f.default is _OPT:
                fail("section required")
            value = {}
        if not isinstance(value, dict) or (f.by and f.by not in value):
            fail("must be a mapping" if f.key else f.what)  # list items say what they need
        if not (f.fields or f.forms):
            return value
        out = _section(value, f.fields, f"{path}.")
        if f.forms:
            form = value[f.by] if f.by else next((k for k in f.forms if k in value), "")
            if form not in f.forms:
                fail(f.what)
            out.update(_section(value, f.forms[form], f"{path}."))
        if f.make is None:
            return out
        with _reraise(path):
            return f.make(**out)
    if f.type == "list":
        if not isinstance(value, list) or len(value) < (f.range if isinstance(f.range, int) else 1):
            fail(f.what or "non-empty list required")
        item = f.fields[0]
        out = [
            _check(item, v, item.label or f"{path}[{i}]", f"{path}[]") for i, v in enumerate(value)
        ]
        if isinstance(f.range, str) and not _LIST_CHECKS[f.range][0](out):
            fail(_LIST_CHECKS[f.range][1])
        return out
    if f.type in ("str", "choice"):
        if not isinstance(value, str) or not (value in f.choices if f.choices else value):
            fail(f.what.format(v=value))
        return value
    if f.type == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            fail("must be an integer")
        if f.range is not None and value < f.range:
            fail(f"must be at least {f.range}")
        return value
    if f.type == "any" or (f.type == "rho" and value in ("balance", "fixed-opt")):
        return value
    if f.type == "rho" and (value is None or isinstance(value, str)):
        fail("required here (number, 'balance' or 'fixed-opt')" if value is None
             else "must be a positive number, 'balance' or 'fixed-opt'")
    if f.inf and value == "inf":
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        fail("must be a number")
    try:
        v = float(value)
    except OverflowError:  # an integer beyond the largest float
        v = math.inf if value > 0 else -math.inf
    if math.isnan(v):
        fail("must not be NaN")
    if math.isinf(v) and not f.inf:
        fail("must be finite")
    if (f.range == "> 0" or f.type == "rho") and not (v > 0.0):
        fail("must be positive")
    return v


def _section(sec, fields, prefix=""):
    """Normalized values of ``fields`` in mapping ``sec``, absent optional ones left out."""
    out = {}
    for f in fields:
        value = sec.get(f.key, f.default)
        if value is not _OPT and (value is not None or f.default is not None):
            path = prefix + f.key
            label = f.label or (f.key if f.type == "map" else path)
            out[f.key] = _check(f, None if value is _REQ else value, label, path)
    return out


@contextlib.contextmanager
def _reraise(prefix=None, error=ConfigError, catch=ValueError):
    """Turn a ValueError (or another ``catch`` type) raised by a library call into ``error``.

    A failed root bracket or a threshold too one-sided for a closed form is a
    numerical failure, not a bad or infeasible input, so
    ``analytic.BracketError`` and ``analytic.OneSidedError`` pass through
    (exit 3).
    """
    try:
        yield
    except (analytic.BracketError, analytic.OneSidedError):
        raise
    except catch as exc:
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


def _expand_points(doc):
    """Cross the optional series and sweep axes into labelled point documents."""
    series, sweep = _read(doc, "series sweep")
    labels = [ax.get("label", ax["parameter"].rsplit(".", 1)[-1]) for ax in (series, sweep) if ax]
    points = []
    for sv in series["values"] if series else [None]:
        base = copy.deepcopy(doc)
        if series:
            _set_by_path(base, series["parameter"], sv, "series.parameter")
        for xv in sweep["grid"] if sweep else [None]:
            pt = copy.deepcopy(base)
            lab = [sv] if series else []
            if sweep:
                actual = xv
                if "scale_by" in sweep:
                    target = _get_by_path(pt, sweep["scale_by"], "sweep.scale_by")
                    actual = xv * _check(_F(""), target, "sweep.scale_by target")
                _set_by_path(pt, sweep["parameter"], actual, "sweep.parameter")
                lab.append(xv)
            points.append((lab, pt))
    return labels, points


# ---------------------------------------------------------------------------
# domain-object builders


def _derive_pair(links=None, geometry=None, power=None, omega_h_s=None, omega_h_r=None):
    """The pair section's links, or the links its geometry and power give."""
    if links is not None:
        return links
    geom, power = NodeGeometry(**geometry), PowerConstraints(**power)
    return HopPair(*derive_link_params(geom, power, omega_h_s, omega_h_r))


class _Point:
    """One grid point's document and hop pair."""

    def __init__(self, doc):
        self.doc = doc
        (self.pair,) = _read(doc, "pair")

    @property
    def balance(self):
        """(rate, rho) at the rate balance point, solved once per memo block."""
        return analytic.avg_rate_cabr(self.pair)


def _resolve_rho(pt, key="rho", default=None):
    """Threshold ``key`` of the point; ``default`` where the document leaves it out."""
    (spec,) = _read(pt.doc, key)
    if spec == "balance":
        return pt.balance[1]
    if spec == "fixed-opt":
        return analytic.rho_opt_fixed(pt.pair)
    return default if spec is None else spec


def _point_seed(base: int, index: int) -> int:
    """Stable per-point seed; independent of worker count and dispatch order."""
    return int(np.random.SeedSequence([base, index]).generate_state(1, np.uint64)[0])


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
    t = ser(pt.pair, *rho, _read(pt.doc, "modulation")[0])
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

# the compare mode's fixed columns; a document's metrics do not apply to it
_COMPARE = {"metrics": ["rate_cabr", "rate_cnbr", "ratio_cnbr", "rate_cbr", "ratio_cbr"]}


def _table_fields(doc, labels):
    (metrics,) = _read(doc, "metrics")
    fields = []
    for m in metrics:
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
    (chain,) = _read(p["doc"], "chain")
    L = chain.buffer_size_L
    if math.isinf(L):
        pi_0, pi_L = queueing._pi0_infinite(chain), 0.0
        occ = lifo_tq = math.nan
    else:
        # a buffer too large for one array, or for the memory
        with _reraise("chain", catch=(ValueError, MemoryError)):
            pi = queueing.steady_state(chain)
            occ = queueing.mean_occupancy(chain)
            lifo_tq = queueing.lifo_equivalent_queue_delay(chain)
        pi_0, pi_L = float(pi[0]), float(pi[-1])
    return _row(p, _ChainRow(
        L=L, q_s=chain.q_s, q_c=chain.q_c, q_d=chain.q_d,
        xi=chain.xi, xi_c=chain.xi_c, xi_d=chain.xi_d,
        tau=queueing.throughput(chain), pi_0=pi_0, pi_L=pi_L, mean_occupancy=occ,
        **asdict(queueing.delays(chain)), lifo_t_q=lifo_tq,
    ))


# design name -> (its free parameter, (knob value, xi) -> boundary drift xi_c)
_DESIGNS = {
    "mdmt": (_F("x_star", range="> 0"), lambda x_star, xi: x_star * xi),
    "ct": (_F("tau_star", range="> 0"), lambda tau_star, xi: queueing.ct_xi_c(tau_star, xi)),
    "eps": (_F("epsilon", default=0.0), lambda eps, xi: queueing.epsilon_xi_c(eps, xi)),
}


_TRADEOFF = "design knob xi xi_c tau"
_DelayTradeoffRow = _record("_DelayTradeoffRow", _TRADEOFF + " t_q t_u t_o t_total", True)
_BerTradeoffRow = _record("_BerTradeoffRow", _TRADEOFF + " ser_s_approx ser_s_exact")


def _design_chain(design, xi):
    """The design's knob, boundary drift xi_c and infinite-buffer chain at drift xi."""
    field, xi_c_of = _DESIGNS[design["name"]]
    knob = design[field.key]
    with _reraise(f"{design['name']} {field.key}={knob} at xi={xi}"):
        xi_c = xi_c_of(knob, xi)
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
    pair = _read(p["doc"], "pair")[0]
    mod = _read(p["doc"], "modulation")[0]
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
    pair = _read(doc, "pair")[0]
    rho = _rho_for_delay_bound(pair, _read(doc, "t_target")[0])
    bound = analytic.delay_bound_adaptive(pair, rho)
    rate = analytic.avg_rate_cabr_hop_s(pair, rho)  # arrival-limited throughput
    cnbr = analytic.avg_rate_cnbr(pair)
    return _row(p, _DelayCompareRow(
        rho=rho, delay_bound=bound, rate_cabr=rate, rate_cnbr=cnbr, ratio_cnbr=rate / cnbr
    ))


_OverflowRow = _record("_OverflowRow", "t_target d_sp d_rp rho L overflow_prob")


def _pt_overflow(p):
    pair = _read(p["doc"], "pair")[0]
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
            with _reraise("modulation"):  # an error rate past 1
                sers = queueing.ser_threshold(
                    ThresholdProtocolParams(L, 0.5, 1.0, 1.0),
                    exact.p_s, marginal.p_s, exact.p_r, marginal.p_r,
                )
        cells += [(f"ser_{hop}_L{L}", ser) for hop, ser in zip("sr", sers)]
    return cells


def _pt_ser_sweep(p):
    pair = _read(p["doc"], "pair")[0]
    mod = p["modulation"]
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
    scheme, rate_mode = _read(pt.doc, "scheme rate_mode")
    thresholds = None
    if scheme == "cabr":
        rho = _resolve_rho(pt)
        thresholds = SelectionThresholds(
            rho, _resolve_rho(pt, "rho_c", rho), _resolve_rho(pt, "rho_d", rho)
        )
    modulation = _read(pt.doc, "modulation")[0] if rate_mode == "fixed" else None
    (buffer,) = _read(pt.doc, "buffer")
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
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            results = list(pool.map(_eval_task, tasks))
    return [row for point_rows in results for row in point_rows]


# ---------------------------------------------------------------------------
# field tables: top-level key -> entry


def _axis(key, values, check=None):
    return _F(key, "map", default=None, fields=(
        _F("parameter", "str", what="non-empty string required"),
        _F(values, "list", check, fields=(_F("", inf=True),)),
        _F("label", "str", default=_OPT, what="must be a non-empty string"),
        _F("scale_by", "str", default=None, what="must be a parameter path"),
    ))


def _choice(key, choices, what, **kw):
    return _F(key, "choice", choices=choices, what=what, **kw)


# one hop's link, keyed by the hop: its own p, or p = exp(-mu/lam)
_LINK = _F("", "map", fields=(
    _F("lam", range="> 0", inf=True), _F("mu", range="> 0"), _F("p", default=_OPT),
), make=lambda **v: LinkParams(**v) if "p" in v else LinkParams.from_lambda_mu(**v))

# every top-level field, the grid modes' first
_FIELDS = {f.key: f for f in (
    _axis("series", "values"),
    _axis("sweep", "grid", "monotone"),
    _F("pair", "map", make=_derive_pair, forms={
        "links": (_F("links", "map", make=HopPair,
                     fields=(_LINK._replace(key="s"), _LINK._replace(key="r"))),),
        "": (
            _F("geometry", "map", fields=tuple(_F(k, default=d) for k, d in [
                ("d_sr", 1.0), ("d_rd", 1.0), ("d_sp", _REQ), ("d_rp", _REQ), ("alpha", 3.0)])),
            _F("power", "map", fields=(_F("gamma_max_db"), _F("gamma_p_db"))),
            _F("omega_h_s", range="> 0", default=None),
            _F("omega_h_r", range="> 0", default=None),
        ),
    }),
    _F("metrics", "list", default=["rate_cabr", "rate_cnbr", "rate_cbr"], fields=(_choice(
        "", tuple(sorted(_METRICS)), label="metrics",
        what=f"unknown metric '{{v}}' (choices: {', '.join(sorted(_METRICS))})"),)),
    _F("rho", "rho"),
    _F("rho_c", "rho", default=_OPT),
    _F("rho_d", "rho", default=_OPT),
    _F("modulation", "map", default={}, fields=tuple(
        _F(k, range="> 0", default=d) for k, d in [("eta", 2.0), ("phi", 1.0), ("rate_R", 1.0)]
    ), make=ModulationParams),
    _F("chain", "map", fields=(_F("buffer_size_L", range="> 0", inf=True),), forms={
        "q_s": (_F("q_s"), _F("q_c", default=1.0), _F("q_d", default=1.0)),
        "xi": (_F("xi", range="> 0"), _F("xi_c", default=0.0), _F("xi_d", default=0.0)),
    }, what="needs q_s (with q_c, q_d) or xi (with xi_c, xi_d)", make=lambda **v: (
        ThresholdProtocolParams(**v) if "q_s" in v else ThresholdProtocolParams.from_xis(**v)
    )),
    _F("t_target", range="> 0"),
    _choice("scheme", ("cabr", "cnbr", "cbr"), "must be one of cabr, cnbr, cbr"),
    _choice("rate_mode", ("adaptive", "fixed"), "must be 'adaptive' or 'fixed'",
            default="adaptive"),
    _F("buffer", "map", default={}, fields=(
        _F("capacity", range="> 0", default="inf", inf=True),
        _F("occupancy", default=0.0),
        _F("discipline", "any", default="fifo"),  # sim.BufferState checks it
    ), make=sim.BufferState),
    _F("seed", "int", 0, default=1),
    _F("slots", "int", 1, default=200_000),
    # tradeoff
    _choice("objective", ("delay", "ber"), "must be 'delay' or 'ber'", default="delay"),
    _F("xi_grid", "list", "> 1", fields=(_F(""),)),
    _F("designs", "list", fields=(_F(
        "", "map", by="name", what="mapping with a 'name' required",
        fields=(_choice("name", tuple(_DESIGNS), "must be one of mdmt, ct, eps"),),
        forms={name: (knob,) for name, (knob, _) in _DESIGNS.items()}),)),
    _F("constraint", "map", default=_OPT, fields=(_F("t_max"), _F("tau_min")),
       make=SchemeConstraint),
    _F("bound_tau_grid", "list", 0, default=[], what="list of numbers",
       fields=(_F("", range="> 0", label="bound_tau_grid[]"),)),
    # overflow, whose own table gives slots the default 500000
    _F("l_grid", "list", "increasing", fields=(_F("", range="> 0"),)),
    _F("t_targets", "list", fields=(_F("", range="> 0", label="t_targets[]"),)),
    _F("geometries", "list", what="non-empty list of {d_sp, d_rp} required", fields=(_F(
        "", "map", label="geometries[]", what="must be mappings",
        fields=(_F("d_sp", range="> 0"), _F("d_rp", range="> 0"))),)),
    # passed to the points, which read them as a pair's geometry and power
    _F("geometry_base", "map", default={}),
    _F("power", "map"),
    # ser-sweep
    _F("cases", "list", fields=(_F(
        "", "map", label="cases[]", by="name", what="mapping with a 'name' required", fields=(
            _F("name", "any"),
            _F("omega_h_s", range="> 0", default=1.0),
            _F("omega_h_r", range="> 0", default=1.0),
            _F("mu_s", range="> 0"),
            _F("mu_r", range="> 0"),
        )),)),
    _F("schemes", "list", 0, default=["cabr", "cnbr"], what="list drawn from cabr, cnbr",
       fields=(_choice("", ("cabr", "cnbr"), "list drawn from cabr, cnbr", label="schemes"),)),
    _F("gamma_max_db_grid", "list", fields=(_F(""),)),
    _F("threshold_buffer_sizes", "list", 0, default=[], what="list of integers",
       fields=(_F("", "int", 1, label="threshold_buffer_sizes[]"),)),
)}


def _read(doc, keys, table=_FIELDS):
    """Normalized values of the space-separated top-level ``keys``; None where absent."""
    out = _section(doc, [table[k] for k in keys.split()])
    return [out.get(k) for k in keys.split()]


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
    seed, slots = _read(doc, "seed slots")
    return _RunRow._fields, {"seed": seed, "slots": slots}


def _build_tradeoff(doc):
    objective, xi_grid, designs, constraint = _read(doc, "objective xi_grid designs constraint")
    if constraint is not None:
        feas = queueing.feasibility(constraint)
        if not feas.feasible:
            raise InfeasibleError(feas.violated)

    payloads = []
    # messages quote mdmt and ct knobs as the document wrote them
    for design, written in zip(designs, doc["designs"]):
        grid_d = xi_grid
        if constraint is not None:
            if design["name"] == "mdmt":
                rng = queueing.mdmt_xi_range(design["x_star"], constraint)
                if not rng.feasible:
                    raise InfeasibleError(f"mdmt x*={written['x_star']}: {rng.violated}")
                grid_d = [x for x in xi_grid if rng.xi_lo <= x <= rng.xi_hi]
            elif design["name"] == "ct":
                tau_star = written["tau_star"]
                if design["tau_star"] < constraint.tau_min:
                    raise InfeasibleError(f"ct tau*={tau_star}: below the throughput floor")
                with _reraise(f"ct tau*={tau_star}", InfeasibleError):
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
                        f"eps epsilon={design['epsilon']}: no xi meets t_max and tau_min"
                    )
        for xi in grid_d:
            payloads.append(
                {"design": design, "xi": xi, "objective": objective, "doc": doc}
            )
    if objective == "delay":
        (taus,) = _read(doc, "bound_tau_grid")
        payloads += [{"design": None, "tau": tau} for tau in taus]
        return list(_DelayTradeoffRow._fields), payloads
    return list(_BerTradeoffRow._fields), payloads


def _build_overflow(doc):
    l_grid, t_targets, geometries, base, power, seed, slots = _read(
        doc, "l_grid t_targets geometries geometry_base power seed slots", _MODES["overflow"].fields
    )
    shared = {"l_grid": l_grid, "seed": seed, "slots": slots}
    payloads = []
    for t_target in t_targets:
        for g in geometries:
            point_doc = {"pair": {"geometry": {**base, **g}, "power": power}}
            payloads.append(
                dict(shared, **g, doc=point_doc, t_target=t_target, index=len(payloads))
            )
    return list(_OverflowRow._fields), payloads


def _build_ser_sweep(doc):
    cases, schemes, grid, buffer_sizes, seed, slots = _read(
        doc, "cases schemes gamma_max_db_grid threshold_buffer_sizes seed slots"
    )
    gammas = []
    for i, gdb in enumerate(grid):
        with _reraise(f"gamma_max_db_grid[{i}]"):
            gammas.append((gdb, _pow(10.0, gdb / 10.0, "10^(gamma_max_db/10)")))
    (mod,) = _read(doc, "modulation")
    shared = {"buffer_sizes": buffer_sizes, "seed": seed, "slots": slots, "modulation": mod}
    payloads = []
    for i, case in enumerate(cases):
        for gdb, gamma_max in gammas:
            links = {}
            for hop in "sr":
                lam = gamma_max * case[f"omega_h_{hop}"]
                if lam == 0.0:
                    raise ConfigError(
                        f"cases[{i}].omega_h_{hop}: its product with 10^(gamma_max_db/10) "
                        f"underflows to 0 at gamma_max_db {gdb}"
                    )
                links[hop] = {"lam": lam, "mu": case[f"mu_{hop}"]}
            for scheme in schemes:
                payloads.append(dict(
                    shared, case=case["name"], gamma_max_db=gdb, doc={"pair": {"links": links}},
                    scheme=scheme, index=len(payloads),
                ))
    thresh_fields = [name for name, _ in _ser_threshold_cells(buffer_sizes)]
    return list(_SerSweepRow._fields) + thresh_fields, payloads


class _Mode(NamedTuple):
    kind: str  # the command that runs the mode
    build: Callable  # document -> (columns, payloads)
    point: Callable  # payload -> the point's rows
    fields: dict  # the mode's field table: top-level key -> entry


def _fields(keys, *own):
    return {f.key: f for f in [*(_FIELDS[k] for k in keys.split()), *own]}


# the first mode of each kind is its default
_MODES = {
    "table": _Mode("analyze", _grid_builder(_table_fields), _pt_table,
                   _fields("series sweep metrics pair rho modulation")),
    "chain-table": _Mode("analyze", _grid_builder(_fields_of(_ChainRow)), _pt_chain,
                         _fields("series sweep chain")),
    "tradeoff": _Mode("analyze", _build_tradeoff, _pt_tradeoff, _fields(
        "objective xi_grid designs constraint bound_tau_grid pair modulation")),
    "compare": _Mode("compare", _grid_builder(lambda _, labels: _table_fields(_COMPARE, labels)),
                     _pt_table, _fields("series sweep pair")),
    "delay-compare": _Mode("compare", _grid_builder(_fields_of(_DelayCompareRow)),
                           _pt_delay_compare, _fields("series sweep pair t_target")),
    "run": _Mode("simulate", _grid_builder(_run_fields), _pt_run, _fields(
        "series sweep seed slots pair scheme rate_mode rho rho_c rho_d modulation buffer")),
    "overflow": _Mode("simulate", _build_overflow, _pt_overflow, _fields(
        "l_grid t_targets geometries geometry_base power seed",
        _F("slots", "int", 1, default=500_000))),
    "ser-sweep": _Mode("simulate", _build_ser_sweep, _pt_ser_sweep, _fields(
        "cases schemes gamma_max_db_grid threshold_buffer_sizes modulation seed slots")),
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
        except OSError as exc:  # a directory, no permission
            raise ConfigError(f"{args.config}: {exc.strerror or exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.config}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
        except ValueError as exc:  # bytes that are not UTF-8
            raise ConfigError(f"{args.config}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError(f"{args.config}: top level must be a mapping")
        doc.update(user)
    if not doc:
        raise ConfigError("a config file or --preset is required")
    for flag in ("slots", "seed"):
        value = getattr(args, flag)
        if value is not None:
            doc[flag] = _check(_FIELDS[flag], value, f"--{flag}")
    return doc


def _resolve_workers(args):
    if args.workers is None:
        return 1
    if args.workers < 1:
        raise ConfigError("worker count must be at least 1")
    return args.workers


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
