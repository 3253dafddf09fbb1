"""Every public module-level function and class of the package is used by
the package itself or by the benchmark under perfbench/.  A name that only
tests call is a dead helper: it goes, or its test calls the code underneath,
unless KEPT lists it with the reason it stays."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "prudentwalks"
SCANNED = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))

KEPT = {
    "rhs_2sided": "one application of the functional equation: the independent fixed-point check",
    "rhs_4sided": "one application of the functional equation: the independent fixed-point check",
    "rhs_triangular": "one application of the functional equation: the independent fixed-point check",
    "two_sided_endpoint_closed": "closed form of the X+Y-refined 2-sided series; joins the exact drift route",
    "euler_identity_check": "the q-series product identity of the triangular right-edge series",
    "two_sided_p1_display": "the paper's displayed 2-sided P(t;1), checked against the solved forms",
    "exact_variance": "exact variance of an endpoint statistic, next to exact_mean",
    "enumerate_walks": "the exhaustive walk list, unreduced by symmetry, that the searches are checked against",
}


def _names_by_top_level_node():
    """(definitions, references): definitions maps each public module-level
    function or class of the package to its (file, top-level index);
    references lists (name, file, top-level index) for every name, attribute
    and imported name in the scanned files."""
    definitions, references = {}, []
    for path in SCANNED:
        tree = ast.parse(path.read_text(), filename=str(path))
        for i, top in enumerate(tree.body):
            if (
                path.parent == PACKAGE
                and isinstance(top, (ast.FunctionDef, ast.ClassDef))
                and not top.name.startswith("_")
            ):
                definitions[top.name] = (path, i)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    references.append((node.id, path, i))
                elif isinstance(node, ast.Attribute):
                    references.append((node.attr, path, i))
                elif isinstance(node, ast.alias):
                    references.append((node.name, path, i))
    return definitions, references


def _unreferenced():
    """Public names referenced nowhere outside their own definition (by
    name: a name defined in two modules counts as one)."""
    definitions, references = _names_by_top_level_node()
    used = {name for name, path, i in references if (path, i) != definitions.get(name)}
    return {name for name in definitions if name not in used}


def test_no_public_name_is_used_only_by_tests():
    dead = sorted(_unreferenced() - set(KEPT))
    assert not dead, "referenced nowhere in src/ or perfbench/: %s" % dead


def test_every_kept_name_is_still_defined_and_unused():
    # an entry whose name went, or gained a caller, is stale
    definitions, _ = _names_by_top_level_node()
    assert set(KEPT) <= set(definitions)
    assert set(KEPT) <= _unreferenced()
