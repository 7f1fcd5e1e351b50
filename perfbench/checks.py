"""Output checks: analytic columns against stored references, simulated ones statistically.

Analytic cells must match ``reference.json`` (captured with
``run.py --capture-reference``) to a relative 1e-9, the accuracy gate any
change of the closed forms has to keep. Simulated cells are compared with the
analytic column of the same row:

* a symbol-error rate under a uniform threshold by an exact two-sided binomial
  test on the error count, which also covers cells with no errors at all;
* every other column by its batch-means standard error, as a Student t with
  99 degrees of freedom (the engine uses 100 batches).

The run as a whole has the false-alarm rate of one 4-sigma normal band,
2 * Phi(-4) = 6.3e-5, split evenly over its tests (Bonferroni). A per-cell
4-sigma band over the ~180 cells of ``fixed_rate_sim`` would invalidate about
one run in a hundred by chance.

A check that fails marks the run incorrect; it does not count as a failed
request.
"""

from __future__ import annotations

import math

from scipy import stats

FAMILY_ALPHA = math.erfc(4.0 / math.sqrt(2.0))
REL_TOL = 1e-9
BATCHES = 100

# columns of simulate tables that the engine, not the closed forms, produces
SIM_COLUMNS = frozenset(
    """seed overflow_prob ser_s_sim ser_r_sim ser_s_se ser_r_se avg_rate avg_rate_se
    rate_hop_s rate_hop_r q_s q_c q_d ser_s ser_r tau_pps t_q t_u t_o t_total
    mean_occupancy underflow overflow""".split()
)

# (simulated column, analytic column, standard-error key of the SimOutcome)
_ADAPTIVE_INF = [
    ("avg_rate", "avg_rate_ref", "avg_rate"),
    ("rate_hop_s", "rate_hop_s_ref", "rate_hop_s"),
    ("rate_hop_r", "rate_hop_r_ref", "rate_hop_r"),
    ("q_s", "q_s_ref", "q_s"),
    ("q_c", "q_c_ref", "q_c"),
]
# the rate references assume no boundary thresholds, so only the q columns apply
_ADAPTIVE_FINITE = [("q_s", "q_s_ref", "q_s"), ("q_c", "q_c_ref", "q_c"), ("q_d", "q_d_ref", "q_d")]
_FIXED_FINITE = [
    ("tau_pps", "tau_ref", "throughput_pps"),
    ("ser_s", "ser_s_ref", "ser_s"),
    ("ser_r", "ser_r_ref", "ser_r"),
    ("t_q", "t_q_ref", "t_q"),
    ("t_u", "t_u_ref", "t_u"),
    ("t_o", "t_o_ref", "t_o"),
    ("t_total", "t_total_ref", "t_total"),
    ("q_s", "q_s_ref", "q_s"),
    ("q_c", "q_c_ref", "q_c"),
    ("q_d", "q_d_ref", "q_d"),
]


def _isnan(v) -> bool:
    return isinstance(v, float) and math.isnan(v)


def same_rows(a, b) -> bool:
    """Bit-identical tables, NaN equal to NaN."""
    return len(a) == len(b) and all(
        len(x) == len(y) and all((_isnan(u) and _isnan(v)) or u == v for u, v in zip(x, y))
        for x, y in zip(a, b)
    )


def same_value(value, ref) -> bool:
    if isinstance(ref, str) or isinstance(value, str):
        return value == ref
    value, ref = float(value), float(ref)
    if math.isnan(ref) or math.isnan(value):
        return math.isnan(ref) and math.isnan(value)
    if ref == 0.0:
        return value == 0.0
    return abs(value - ref) <= REL_TOL * abs(ref)


def check_analytic(name, kind, columns, rows, ref, problems) -> None:
    """Compare every closed-form cell with the stored reference."""
    if list(columns) != ref["columns"]:
        problems.append(f"{name}: columns {list(columns)} differ from the reference")
        return
    if len(rows) != len(ref["rows"]):
        problems.append(f"{name}: {len(rows)} rows, reference has {len(ref['rows'])}")
        return
    for i, (row, ref_row) in enumerate(zip(rows, ref["rows"])):
        for col, value, ref_value in zip(columns, row, ref_row):
            if kind == "simulate" and col in SIM_COLUMNS:
                continue
            if not same_value(value, ref_value):
                problems.append(f"{name} row {i} {col}: {value!r}, reference {ref_value!r}")


def check_new_success(name, columns, rows, problems) -> None:
    """A pair that raised at the reference commit and now returns: values must be sane."""
    if len(rows) != 1:
        problems.append(f"{name}: expected one row, got {len(rows)}")
        return
    for col, value in zip(columns, rows[0]):
        if not (math.isfinite(value) and value > 0.0):
            problems.append(f"{name} {col}: {value!r} is not a positive finite number")


def _finite_buffer(doc, row, idx) -> bool:
    cap = row[idx["capacity"]] if "capacity" in idx else doc.get("buffer", {}).get("capacity", "inf")
    return cap != "inf" and math.isfinite(float(cap))


def _cell_tests(name, mode, doc, columns, rows, outcomes):
    """Yield (label, kind, data) statistical tests of one simulate table."""
    idx = {c: i for i, c in enumerate(columns)}
    slots = doc["slots"]
    if mode == "ser-sweep":
        for i, (row, out) in enumerate(zip(rows, outcomes)):
            if row[idx["scheme"]] == "cnbr":
                n_s = n_r = slots // 2
            else:
                # infinite packet buffer: departures plus the packets left queued
                n_r = round(out.throughput_pps * slots)
                n_s = n_r + round(out.final_occupancy)
            for hop, n in (("s", n_s), ("r", n_r)):
                p_sim = row[idx[f"ser_{hop}_sim"]]
                p_ref = row[idx[f"ser_{hop}_exact"]]
                yield f"{name} row {i} ser_{hop}", "binom", (round(p_sim * n), n, p_ref)
        return
    lifo = doc.get("buffer", {}).get("discipline") == "lifo"
    for i, (row, out) in enumerate(zip(rows, outcomes)):
        if row[idx["rate_mode"]] == "adaptive":
            triples = _ADAPTIVE_FINITE if _finite_buffer(doc, row, idx) else _ADAPTIVE_INF
        else:
            triples = _FIXED_FINITE
        refs = {ref_col: row[idx[ref_col]] for _, ref_col, _ in triples}
        if lifo:
            refs.update(_lifo_refs(row, idx))
        for col, ref_col, key in triples:
            value, ref = row[idx[col]], refs[ref_col]
            if _isnan(value) and _isnan(ref):
                continue
            yield f"{name} row {i} {col}", "t", (value, ref, out.ci_halfwidths.get(key, math.nan))


def _lifo_refs(row, idx) -> dict:
    """Queueing-delay references of a newest-first buffer.

    The CLI's t_q_ref and t_total_ref columns hold the first-in-first-out
    chain delays whatever the discipline, while the engine reports the
    newest-first queueing delay (L - mean occupancy) / arrival rate. The
    closed form of the latter is ``queueing.lifo_equivalent_queue_delay`` of
    the same chain.
    """
    from bufrelay import queueing

    chain = queueing.ThresholdProtocolParams(
        row[idx["capacity"]], row[idx["q_s_ref"]], row[idx["q_c_ref"]], row[idx["q_d_ref"]]
    )
    t_q = queueing.lifo_equivalent_queue_delay(chain)
    return {"t_q_ref": t_q, "t_total_ref": t_q + row[idx["t_u_ref"]] + row[idx["t_o_ref"]]}


def check_simulated(name, mode, doc, columns, rows, outcomes, tests) -> list[str]:
    """Structural checks now; statistical tests are appended to ``tests`` for later."""
    problems = []
    if mode == "overflow":
        idx = {c: i for i, c in enumerate(columns)}
        n_l = len(doc["l_grid"])
        for start in range(0, len(rows), n_l):
            curve = [r[idx["overflow_prob"]] for r in rows[start : start + n_l]]
            if not all(0.0 <= p <= 1.0 for p in curve):
                problems.append(f"{name} rows {start}..: overflow probability outside [0, 1]")
            if any(b > a for a, b in zip(curve, curve[1:])):
                problems.append(f"{name} rows {start}..: overflow curve increases with L")
        return problems
    if len(outcomes) != len(rows):
        return [f"{name}: {len(outcomes)} simulations observed for {len(rows)} rows"]
    tests.extend(_cell_tests(name, mode, doc, columns, rows, outcomes))
    return problems


def run_tests(tests) -> list[str]:
    """Evaluate the collected tests at the run's Bonferroni-split false-alarm rate."""
    if not tests:
        return []
    alpha = FAMILY_ALPHA / len(tests)
    t_crit = stats.t.isf(alpha / 2.0, BATCHES - 1)
    problems = []
    for label, kind, data in tests:
        if kind == "binom":
            k, n, p = data
            if n <= 0:
                problems.append(f"{label}: no transmissions")
                continue
            p_value = min(1.0, 2.0 * min(stats.binom.cdf(k, n, p), stats.binom.sf(k - 1, n, p)))
            if p_value < alpha:
                problems.append(f"{label}: {k} errors in {n} at p={p:.3e} (two-sided p-value {p_value:.2e})")
        else:
            value, ref, se = data
            if _isnan(value) or _isnan(ref) or _isnan(se):
                problems.append(f"{label}: {value!r} vs {ref!r} with standard error {se!r}")
            elif abs(value - ref) > t_crit * se:
                problems.append(f"{label}: {value:.6g} vs {ref:.6g}, {abs(value - ref) / se:.2f} standard errors (limit {t_crit:.2f})")
    return problems
