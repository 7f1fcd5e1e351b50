"""Experiment documents drawn from the CLI's field tables.

The fuzz test starts each document from a small valid one for its mode,
drops or redraws the fields its mode's table lists, then sets the path under
test and maybe one more to an edge value (no path: a valid document). One
test case runs per mode and table path, so a field added to a table is
fuzzed without new test code. Whatever comes out, ``cli.main`` must exit 0, 2,
3 or 4 with at most one stderr line, never with an exception. The reference
test keeps the README's field reference and the tables in step.
"""

import contextlib
import copy
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bufrelay import cli

# at most two points and 2000 slots per document
SLOTS = 2000


def small(preset, **fields):
    """A preset cut to one series value and two sweep points, with the given fields set."""
    doc = copy.deepcopy(cli.PRESETS[preset])
    if "series" in doc:
        doc["series"]["values"] = doc["series"]["values"][:1]
    if "sweep" in doc:
        doc["sweep"]["grid"] = doc["sweep"]["grid"][:2]
    return {**doc, **fields}


PAIR = {"links": {"s": {"lam": 4.0, "mu": 10.0}, "r": {"lam": 7.0, "mu": 3.0}}}

# mode -> valid documents to start from
BASES = {
    "table": [small("fig3"), {"metrics": ["lsp", "ser_cabr"], "rho": "balance", "pair": PAIR}],
    "chain-table": [{
        "mode": "chain-table",
        "chain": {"buffer_size_L": 4, "q_s": 0.4, "q_c": 0.9, "q_d": 0.8},
        "series": {"parameter": "chain.buffer_size_L", "values": [4, "inf"]},
    }, {"chain": {"buffer_size_L": 8, "xi": 1.5, "xi_c": 0.25, "xi_d": 1.0}}],
    "tradeoff": [
        small("fig10", xi_grid=[1.5, 3.0], designs=[{"name": "ct", "tau_star": 0.4}],
              bound_tau_grid=[0.3], constraint={"t_max": 6.0, "tau_min": 0.3}),
        small("fig11", xi_grid=[2.0], designs=[{"name": "mdmt", "x_star": 0.5}]),
    ],
    "compare": [small("fig5"), small("fig6")],
    "delay-compare": [small("fig7")],
    "run": [{
        "kind": "simulate", "mode": "run", "scheme": "cabr", "rate_mode": "fixed",
        "rho": 0.6, "rho_c": 1.2, "rho_d": 0.3, "modulation": {"eta": 2.0},
        "buffer": {"capacity": 4, "discipline": "lifo"}, "pair": PAIR, "slots": SLOTS, "seed": 7,
    }, {
        "kind": "simulate", "mode": "run", "scheme": "cnbr", "pair": small("fig3")["pair"],
        "sweep": {"parameter": "pair.geometry.d_sp", "grid": [1.0, 2.0]}, "slots": SLOTS,
    }],
    "overflow": [small(
        "fig8", t_targets=[7.3], geometries=[{"d_sp": 1.5, "d_rp": 2.0}], l_grid=[1.0, 4.0],
        slots=SLOTS,
    )],
    "ser-sweep": [small(
        "fig9", gamma_max_db_grid=[20.0], cases=[cli.PRESETS["fig9"]["cases"][1]], slots=SLOTS,
    )],
}

# one or two of these go to table paths: bad numbers, types and shapes
EDGES = [0, -1, 1e300, -1e300, math.inf, -math.inf, math.nan, "x", [1.0], {"a": 1}, 2.5]


def leaves(fields, prefix=""):
    """(path, entry) of every field under ``fields``: "a[].b" is field b of list
    a's items, "a[]" an item of a list of scalars."""
    for f in fields:
        path = prefix + f.key
        forms = sum((f.forms or {}).values(), ())
        if f.type == "map" and (f.fields or forms):
            yield from leaves(f.fields + forms, path + ".")
        elif f.type == "list" and f.fields[0].type == "map":
            yield from leaves(f.fields, path + "[]")
        else:
            yield path, f
            if f.type == "list":
                yield path + "[]", f.fields[0]


def place(doc, path, index=0, create=False):
    """(container, key) that ``path`` names in ``doc``, "[]" meaning item ``index``
    of a list; None where the document has no such place (missing sections are
    made if ``create``)."""
    *walk, last = path.replace("[]", ".[]").split(".")
    node = doc
    for key, after in zip(walk, walk[1:] + [last]):
        if key == "[]":
            node = node[index % len(node)] if isinstance(node, list) and node else None
        elif isinstance(node, dict):
            node = node.setdefault(key, {}) if create and after != "[]" else node.get(key)
        else:
            return None
    if last == "[]":
        return (node, index % len(node)) if isinstance(node, list) and node else None
    return (node, last) if isinstance(node, dict) else None


def valid_value(f):
    """A strategy for values the entry accepts, kept small."""
    if f.type == "num":
        values = [0.5, 1.0, 2.0, 3.0] if f.range == "> 0" else [0.0, 0.5, 1.0]
        return st.sampled_from(values + (["inf"] if f.inf else []))
    if f.type == "int":
        return st.sampled_from([f.range, f.range + 1, f.range + 9])
    if f.type == "choice":
        return st.sampled_from(f.choices)
    if f.type == "rho":
        return st.sampled_from([0.5, 1.0, 2.0, "balance", "fixed-opt"])
    if f.type == "list" and valid_value(f.fields[0]) is not None:
        return st.lists(valid_value(f.fields[0]), min_size=1, max_size=2)
    return None  # strings, maps and any: the base document's value stays


def mode_paths(mode):
    return list(leaves(cli._MODES[mode].fields.values()))


@st.composite
def documents(draw, mode, mutate):
    doc = copy.deepcopy(draw(st.sampled_from(BASES[mode])))
    fields = mode_paths(mode)
    for path, f in fields:
        spot = place(doc, path)
        action = draw(st.sampled_from(["keep", "keep", "keep", "drop", "redraw"]))
        if spot is None or path == "slots" or action == "keep":
            continue  # slots stay at most SLOTS: an absent slots means 200000
        node, key = spot
        if action == "drop" and f.default is not cli._REQ:
            node.pop(key, None)
        elif action == "redraw" and valid_value(f) is not None:
            node[key] = draw(valid_value(f))
    paths = [mutate] if mutate else []
    if mutate and draw(st.booleans()):
        paths.append(draw(st.sampled_from([path for path, _ in fields])))
    for path in paths:
        spot = place(doc, path, draw(st.integers(0, 1)), create=True)
        if spot is not None:
            spot[0][spot[1]] = draw(st.sampled_from(EDGES))
    return doc


def exit_code(mode, doc, tmpdir):
    """main's exit code, checked to be documented and to come with at most one stderr line."""
    path = os.path.join(tmpdir, "doc.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([cli._MODES[mode].kind, path])
    assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_CONVERGENCE, cli.EXIT_INFEASIBLE)
    assert len(err.getvalue().splitlines()) <= 1, err.getvalue()
    return rc


CASES = [(mode, path) for mode in sorted(cli._MODES) for path in [None] + [
    path for path, _ in mode_paths(mode)
]]
# about 2000 documents in all
EXAMPLES = -(-2000 // len(CASES))


@pytest.mark.parametrize("mode, path", CASES)
def test_documents_exit_cleanly(mode, path):
    doc_kind = {"kind": cli._MODES[mode].kind, "mode": mode}
    with tempfile.TemporaryDirectory() as tmpdir:

        @settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
        @given(documents(mode, path))
        def check(doc):
            exit_code(mode, {**doc, **doc_kind}, tmpdir)

        check()


README = Path(__file__).resolve().parent.parent / "README.md"


def reference():
    """The README's field reference: mode -> the cells of its row, path -> (type, default)."""
    text = README.read_text(encoding="utf-8")
    text = text[text.index("### Field reference"):text.index("### Output and exit codes")]
    modes, fields = {}, {}
    for line in text.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 3:
            key = cells[0].strip("`")
            (modes if key in cli._MODES else fields)[key] = cells[1:]
    return modes, fields


def test_reference_names_every_field_of_every_mode():
    modes, fields = reference()
    assert set(modes) == set(cli._MODES)
    for mode, (command, reads) in modes.items():
        assert command == cli._MODES[mode].kind
        assert re.findall(r"`([^`]+)`", reads) == list(cli._MODES[mode].fields)
    tabled = {}
    for mode in cli._MODES:
        for path, f in mode_paths(mode):
            if not path.endswith("[]"):
                tabled.setdefault(path, []).append(f.default)
    assert set(fields) == set(tabled)
    for path, (_, default) in fields.items():
        if default.startswith("required"):
            assert cli._REQ in tabled[path], path
        elif default.startswith("`"):
            assert json.loads(default.split("`")[1]) in tabled[path], path
        else:  # prose: an optional field without a fixed default
            assert all(d is None or d is cli._OPT for d in tabled[path]), path
