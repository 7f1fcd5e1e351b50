"""The experiment documents of the four benchmark workloads.

Each workload is a fixed list of requests; one request is one call of a
public CLI entry point (``cmd_analyze``, ``cmd_compare`` or ``cmd_simulate``)
on one experiment document. Closed-form documents do not depend on the seed.
Simulation documents get a document seed derived from the workload seed, and
the CLI derives every per-point seed from that, exactly as
``bufrelay simulate --seed`` does.
"""

from __future__ import annotations

import copy
import itertools
from typing import NamedTuple

import numpy as np

from bufrelay import cli

WORKLOADS = ("closed_form", "wide_range", "adaptive_sim", "fixed_rate_sim")

# the pair of the acceptance suite: mixed power/interference capping on both hops
_PAIR_MIXED = {"links": {"s": {"lam": 4.0, "mu": 10.0}, "r": {"lam": 7.0, "mu": 3.0}}}
_BPSK = {"eta": 2.0, "phi": 1.0, "rate_R": 1.0}

# fig9 at its preset 200k slots takes about 23 s; 50k keeps a pass near 7 s
FIG9_SLOTS = 50_000
ADAPTIVE_RUN_SLOTS = 1_000_000
FIXED_RUN_SLOTS = 100_000
WIDE_GRID = (1e-4, 1e-2, 1.0, 1e2, 1e4)


class Request(NamedTuple):
    name: str
    kind: str  # analyze | compare | simulate
    doc: dict


def _preset(name: str, **overrides) -> Request:
    doc = copy.deepcopy(cli.PRESETS[name])
    doc.update(overrides)
    return Request(name, doc["kind"], doc)


def _doc_seed(seed: int, index: int) -> int:
    """Seed of the index-th simulation document, derived like a CLI point seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def _closed_form() -> list[Request]:
    reqs = [_preset(n) for n in ("fig3", "fig4", "fig5", "fig6", "fig7", "fig10", "fig11")]
    # four metrics that each solve the same balance point inside one point
    table = {
        "kind": "analyze",
        "mode": "table",
        "metrics": ["rate_cabr", "lsp", "ser_cabr", "ser_asym_cabr"],
        "rho": "balance",
        "modulation": dict(_BPSK),
        "pair": copy.deepcopy(cli.PRESETS["fig3"]["pair"]),
        "sweep": {"parameter": "pair.geometry.d_sp", "grid": [1.0, 1.5, 2.0, 2.5, 3.0, 4.0]},
    }
    reqs.append(Request("balance_table", "analyze", table))
    return reqs


def _wide_range() -> list[Request]:
    reqs = []
    for lam_s, mu_s, lam_r, mu_r in itertools.product(WIDE_GRID, repeat=4):
        doc = {
            "kind": "analyze",
            "mode": "table",
            "metrics": ["rate_cabr"],
            "pair": {
                "links": {"s": {"lam": lam_s, "mu": mu_s}, "r": {"lam": lam_r, "mu": mu_r}}
            },
        }
        reqs.append(Request(f"pair_{lam_s:g}_{mu_s:g}_{lam_r:g}_{mu_r:g}", "analyze", doc))
    return reqs


def _run_doc(**fields) -> dict:
    doc = {"kind": "simulate", "mode": "run", "scheme": "cabr", "pair": copy.deepcopy(_PAIR_MIXED)}
    doc.update(fields)
    return doc


def _adaptive_sim(seed: int) -> list[Request]:
    return [
        _preset("fig8", seed=_doc_seed(seed, 0)),
        # infinite buffer below the balance point (rho_balance is 1.0466)
        Request(
            "run_adaptive_inf",
            "simulate",
            _run_doc(rate_mode="adaptive", rho=0.7, slots=ADAPTIVE_RUN_SLOTS, seed=_doc_seed(seed, 1)),
        ),
        # finite bit buffer whose boundary thresholds differ from the interior one
        Request(
            "run_adaptive_finite",
            "simulate",
            _run_doc(
                rate_mode="adaptive",
                rho="balance",
                rho_c=2.0,
                rho_d=0.5,
                buffer={"capacity": 8.0},
                slots=ADAPTIVE_RUN_SLOTS,
                seed=_doc_seed(seed, 2),
            ),
        ),
    ]


def _fixed_rate_sim(seed: int) -> list[Request]:
    reqs = [_preset("fig9", slots=FIG9_SLOTS, seed=_doc_seed(seed, 0))]
    for k, discipline in enumerate(("fifo", "lifo"), start=1):
        doc = _run_doc(
            rate_mode="fixed",
            rho=0.6,
            rho_c=1.2,
            rho_d=0.3,
            modulation=dict(_BPSK),
            buffer={"discipline": discipline},
            series={"parameter": "buffer.capacity", "values": [2, 10]},
            slots=FIXED_RUN_SLOTS,
            seed=_doc_seed(seed, k),
        )
        reqs.append(Request(f"run_fixed_finite_{discipline}", "simulate", doc))
    return reqs


def build(workload: str, seed: int) -> list[Request]:
    if workload == "closed_form":
        return _closed_form()
    if workload == "wide_range":
        return _wide_range()
    if workload == "adaptive_sim":
        return _adaptive_sim(seed)
    if workload == "fixed_rate_sim":
        return _fixed_rate_sim(seed)
    raise ValueError(f"unknown workload {workload!r} (choices: {', '.join(WORKLOADS)})")


def entry_point(kind: str):
    """The public CLI function that serves a request of this kind."""
    return getattr(cli, f"cmd_{kind}")
