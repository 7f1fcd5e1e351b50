"""Every name a bufrelay module exports has a caller outside the tests.

A name in a module's ``__all__`` counts as called when the package source or
the benchmark scripts (``perfbench/*.py``) refer to it, found by AST as a
Name, an Attribute or an import alias; a reference inside the name's own
top-level definition does not count. A ``getattr`` whose name is an f-string,
as in perfbench's ``getattr(cli, f"cmd_{kind}")``, refers to every name that
starts with the f-string's literal head. Code that only tests call belongs in
``tests/``, so the exported surface is what the CLI, its presets and the
benchmark use.
"""

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bufrelay"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")

# exported with no caller yet, by module. None today: channel's link_pdf and
# link_ccdf, kept for the lattice solve of the adaptive buffer (ROADMAP item
# 9), are called by analytic's node rule, which guesses the searches' roots
UNCALLED_BY_DESIGN: dict[str, set[str]] = {}


def _lookup_head(node) -> str | None:
    """The literal head of the f-string name of a getattr call, else None."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "getattr" and len(node.args) >= 2):
        return None
    name = node.args[1]
    if isinstance(name, ast.JoinedStr) and isinstance(name.values[0], ast.Constant):
        return name.values[0].value
    return None


def _references(path: pathlib.Path) -> tuple[set, set, set]:
    """(every name path refers to, those outside the referring definition's
    own name, the heads of its getattr f-string lookups)."""
    every, outside_own, heads = set(), set(), set()
    for top in ast.parse(path.read_text()).body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            head = _lookup_head(node)
            if head:
                heads.add(head)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            every.add(name)
            if name != own:
                outside_own.add(name)
    return every, outside_own, heads


REFS = {
    path: _references(path)
    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
}


@pytest.mark.parametrize("module", MODULES)
def test_every_export_has_a_caller(module):
    home = SRC / f"{module}.py"
    called = set(REFS[home][1])
    heads = set()
    for path, (every, _, path_heads) in REFS.items():
        heads |= path_heads
        if path != home:
            called |= every
    exported = set(importlib.import_module(f"bufrelay.{module}").__all__)
    uncalled = {name for name in exported - called if not name.startswith(tuple(heads))}
    allowed = UNCALLED_BY_DESIGN.get(module, set())
    assert sorted(uncalled - allowed) == [], f"bufrelay.{module} exports names only tests call"
    assert allowed <= uncalled, "a name in UNCALLED_BY_DESIGN has a caller now; drop it there"



# the term machinery that only the seam's bodies read: analytic._selected and
# analytic._law, through analytic._expect. joint_ccdf_sr evaluates the joint
# CCDF at any x, so it reads the joint terms itself
SEAM = {"_selected", "_law", "_expect", "joint_ccdf_sr"}
TERM_MACHINERY = {
    "joint_terms_sr", "marginal_terms", "product_terms",
    "_sum_with_err", "_rate_term_nats", "_w2_term_nats", "_ew_term", "_eval_term",
}


def _reads(tops: dict, name: str) -> set:
    """The term machinery that the top-level definition name refers to, also
    through the module's other definitions, stopping at the seam."""
    seen, todo, found = set(), [name], set()
    while todo:
        node = tops[todo.pop()]
        refs = {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        }
        found |= refs & TERM_MACHINERY
        for ref in refs & tops.keys() - SEAM - seen:
            seen.add(ref)
            todo.append(ref)
    return found


def test_public_exact_functions_read_only_through_the_seam():
    # the replacement of the term sums by the defining integrals (ROADMAP item
    # 12) then changes the seam's bodies and no public function
    from bufrelay import analytic

    tree = ast.parse((SRC / "analytic.py").read_text())
    tops = {top.name: top for top in tree.body if hasattr(top, "name")}
    reads = {name: _reads(tops, name) for name in analytic.__all__ if name != "joint_ccdf_sr"}
    assert {name: sorted(r) for name, r in reads.items() if r} == {}
