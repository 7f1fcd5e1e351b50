"""Every analytic cell stored in ``perfbench/reference.json``, recomputed bit for bit.

``reference.json`` is the one golden file of the closed forms, and
``perfbench/run.py --capture-reference`` is its only writer. Each request of
the four benchmark workloads runs through the CLI entry point the benchmark
calls, with the capture's seed, and each analytic cell must equal the stored
one by ``repr``: strings exactly, numbers to the last bit, nan equal to nan,
and an int never equal to a float. Columns that the simulator produces
(``checks.SIM_COLUMNS`` of a ``simulate`` table) are left to the benchmark's
statistical checks.

A wide_range pair stored with an error must still raise ``BracketError`` with
the stored message, or return one row of positive finite numbers, the
benchmark's rule (``checks.check_new_success``) for a pair that newly succeeds.
The stored errors were captured as ``ValueError`` (``BracketError``'s base)
before the message named the searched range, so the raised message has to
start with the stored one.
"""

import copy
import json

import pytest

from bufrelay import analytic
from conftest import BENCH, perfbench_module

workloads = perfbench_module("workloads")
checks = perfbench_module("checks")

REFERENCE = json.loads((BENCH / "reference.json").read_text())
CAPTURE_SEED = 0  # the seed ``run.py --capture-reference`` builds the workloads with


def _plain(value):
    # the capture's conversion: numpy scalars are stored as Python numbers
    return value.item() if hasattr(value, "item") else value


def _stored_error(where, exc, stored) -> list[str]:
    """Problems of a request that raised, against its stored error (or None)."""
    if (
        stored is not None
        and isinstance(exc, analytic.BracketError)
        and str(exc).startswith(stored.partition(": ")[2])
    ):
        return []
    return [f"{where}: raised {type(exc).__name__}: {exc}; stored {stored!r}"]


def _problems(section, req, ref) -> list[str]:
    where = f"{section} {req.name}"
    try:
        columns, rows = workloads.entry_point(req.kind)(copy.deepcopy(req.doc), workers=1)
    except Exception as exc:  # noqa: BLE001 - every failure is reported with its request
        return _stored_error(where, exc, ref["error"])
    problems: list[str] = []
    if ref["error"] is not None:
        checks.check_new_success(where, columns, rows, problems)
        return problems
    if list(columns) != ref["columns"]:
        return [f"{where}: columns {list(columns)}, stored {ref['columns']}"]
    if len(rows) != len(ref["rows"]):
        return [f"{where}: {len(rows)} rows, stored {len(ref['rows'])}"]
    for i, (row, stored_row) in enumerate(zip(rows, ref["rows"])):
        for column, got, want in zip(columns, row, stored_row, strict=True):
            if req.kind == "simulate" and column in checks.SIM_COLUMNS:
                continue
            got = _plain(got)
            if repr(got) != repr(want):
                problems.append(f"{where} row {i} {column}: {got!r}, stored {want!r}")
    return problems


def _cases():
    """One case per named request, so a failing preset or run is reported by name;
    the 625 wide_range pairs are one case."""
    for section in workloads.WORKLOADS:
        requests = workloads.build(section, CAPTURE_SEED)
        if section == "wide_range":
            yield pytest.param(section, requests, id=section)
        else:
            for req in requests:
                yield pytest.param(section, [req], id=f"{section}-{req.name}")


def test_stored_sections_are_the_workloads():
    assert list(REFERENCE) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("section", workloads.WORKLOADS)
def test_stored_entries_are_the_requests(section):
    names = [req.name for req in workloads.build(section, CAPTURE_SEED)]
    stored = REFERENCE[section]
    assert names == list(stored), (
        f"{section}: the workload's requests and the stored entries differ; re-capture "
        f"with perfbench/run.py --capture-reference (not stored: "
        f"{sorted(set(names) - set(stored))}, no longer requested: "
        f"{sorted(set(stored) - set(names))})"
    )


@pytest.mark.parametrize(("section", "requests"), _cases())
def test_every_stored_analytic_cell(section, requests):
    stored = REFERENCE[section]
    missing = [req.name for req in requests if req.name not in stored]
    assert not missing, f"{section}: not stored: {missing}; re-capture with --capture-reference"
    problems = [p for req in requests for p in _problems(section, req, stored[req.name])]
    if problems:
        pytest.fail(f"{len(problems)} stored values differ:\n" + "\n".join(problems[:40]))
