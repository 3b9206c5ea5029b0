"""Oracles never share code with the closed forms they audit, checked on the
package call graph read from the source with `ast`, both ways: an oracle
reaches none of the forms it audits, and no audited form reaches the oracle
or a helper of its own.

The graph's nodes are the package's top-level functions and classes (a
class stands for all of its methods).  A node reaches every package node its
body names: by its own module's name, through `from .module import name`, or
as an attribute of a package module imported with `from . import module`.
The receiver of any other attribute is not known statically, so an attribute
that some package class defines as a method or property reaches that class.

Chain of trust for the cover oracle: `cover_oracle` decides incompatibility
with b from its own per-node bit tables, so it shares only the bit kernel
with `main_cover` and with the compatibility closed form `_compat_masks`.
`tests/oracle_restated.py` still decides incompatibility by `_compat_masks`,
which `compat_oracle` audits, and `cover_oracle` must equal it report for
report.
"""

import ast
from pathlib import Path

import pytest

import clopenforce

PACKAGE = Path(clopenforce.__file__).parent

BIT_KERNEL = {
    "cantor.check_depth",
    "cantor.cyl_mask",
    "cantor.dense_mask",
    "cantor.densities",
    "cantor.levelset_mask",
    "cantor.positions",
    "cantor.projections",
}
VALUES = {
    "cantor.ClopenSet",
    "cantor.LevelSet",
    "perfectposet.OracleReport",
    "perfectposet.PCondition",
}
TRUSTED = BIT_KERNEL | VALUES  # allowed to every oracle; not walked into
SHARED_CHECKS = {"perfectposet._same_depth"}  # allowlisted, and the closed forms may reach them

# (oracle, the closed forms it audits, what it may reach besides TRUSTED:
# shared checks and the oracle's own helpers)
ORACLES = (
    (
        "perfectposet.compat_oracle",
        {"perfectposet.p_compatible", "perfectposet._compat_masks"},
        {"perfectposet._same_depth"},
    ),
    (
        "perfectposet.cover_oracle",
        {
            "perfectposet.main_cover",
            "perfectposet.iterate_cover",
            "perfectposet._node_parts",
            "perfectposet.p_compatible",
            "perfectposet._compat_masks",
        },
        {
            "perfectposet._same_depth",
            "perfectposet._node_table",
            "perfectposet._meets",
            "perfectposet._meet",
            "perfectposet._node_bits",
            "perfectposet._packed",
            "perfectposet._dense_bits",
        },
    ),
    (
        "coverlemmas.split_goodness",
        {
            "coverlemmas.halve_once",
            "coverlemmas.hit_weight",
            "coverlemmas.shrink",
            "numerics.epsilon",
        },
        set(),
    ),
)


MODULE_CODE = "<module>"  # the node of a module's code outside its functions and classes


@pytest.fixture(scope="module")
def graph() -> dict[str, set[str]]:
    """Each package node -> the package nodes its body reaches, and each
    module's MODULE_CODE node -> those its other statements reach."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    tops = {
        mod: [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]
        for mod, tree in trees.items()
    }
    nodes = {f"{mod}.{n.name}" for mod, defs in tops.items() for n in defs}
    owners: dict[str, set[str]] = {}  # method or property name -> classes
    for mod, defs in tops.items():
        for cls in defs:
            if isinstance(cls, ast.ClassDef):
                for item in cls.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        owners.setdefault(item.name, set()).add(f"{mod}.{cls.name}")
    edges = {}
    for mod, tree in trees.items():
        names = {n.name: f"{mod}.{n.name}" for n in tops[mod]}
        modules = {}
        for imp in tree.body:
            if isinstance(imp, ast.ImportFrom) and imp.level == 1:
                for alias in imp.names:
                    local = alias.asname or alias.name
                    if imp.module is None:
                        modules[local] = alias.name
                    else:
                        names[local] = f"{imp.module}.{alias.name}"
        bodies = {f"{mod}.{top.name}": [top] for top in tops[mod]}
        bodies[f"{mod}.{MODULE_CODE}"] = [n for n in tree.body if n not in tops[mod]]
        for own, body in bodies.items():
            reached = set()
            for sub in (sub for node in body for sub in ast.walk(node)):
                if isinstance(sub, ast.Name) and sub.id in names:
                    reached.add(names[sub.id])
                elif isinstance(sub, ast.Attribute):
                    if isinstance(sub.value, ast.Name) and sub.value.id in modules:
                        reached.add(f"{modules[sub.value.id]}.{sub.attr}")
                    else:
                        reached |= owners.get(sub.attr, set())
            edges[own] = (reached & nodes) - {own}
    return edges


def reach(graph: dict[str, set[str]], start: str, stop=frozenset()) -> set[str]:
    """Every node reachable from start, not walking on from those in stop."""
    seen, todo = set(), [start]
    while todo:
        for name in graph[todo.pop()]:
            if name not in seen:
                seen.add(name)
                if name not in stop:
                    todo.append(name)
    return seen


def test_the_graph_sees_the_closed_forms_edges(graph):
    assert "perfectposet._node_parts" in graph["perfectposet.main_cover"]
    assert "perfectposet._compat_masks" in graph["perfectposet.p_compatible"]
    assert "numerics.epsilon" in reach(graph, "coverlemmas.shrink")
    assert "soft.FinitePoset" in graph["soft.verify_cover"]  # P.compat_rows()
    for oracle, audited, allowed in ORACLES:
        assert {oracle} | audited | allowed | TRUSTED <= graph.keys()


def test_oracles_reach_no_audited_closed_form(graph):
    for oracle, audited, _ in ORACLES:
        shared = reach(graph, oracle) & audited
        assert not shared, f"{oracle} reaches {sorted(shared)}"


def test_no_closed_form_reaches_an_oracles_own_code(graph):
    # the other direction: an audited closed form reaches neither its oracle
    # nor a helper on the oracle's allowlist, save the shared checks
    for oracle, audited, allowed in ORACLES:
        own = ({oracle} | allowed) - SHARED_CHECKS
        for form in audited:
            shared = reach(graph, form) & own
            assert not shared, f"{form} reaches {sorted(shared)}"


def test_oracles_reach_only_their_allowlist(graph):
    for oracle, _, allowed in ORACLES:
        extra = reach(graph, oracle, TRUSTED) - TRUSTED - allowed
        assert not extra, f"{oracle} reaches {sorted(extra)}"


def test_every_private_function_and_class_is_reachable(graph):
    # from a public name, a handler registered with @_verb, or module code:
    # a private helper that nothing reaches is dead code
    cli = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    handlers = {
        f"cli.{top.name}" for top in cli.body if isinstance(top, ast.FunctionDef)
        and any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_verb"
                for d in top.decorator_list)
    }
    assert "cli._eps" in handlers
    private = {name for name in graph if name.split(".", 1)[1].startswith("_")}
    roots = (graph.keys() - private) | handlers
    assert {f"cantor.{MODULE_CODE}", "cli.main"} <= roots
    reached = set(roots)
    for root in roots:
        reached |= reach(graph, root)
    assert private - reached == set()
