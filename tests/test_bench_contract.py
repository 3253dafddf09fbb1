"""The benchmark under perfbench/ calls the library by name; every name it
uses must still exist, so that removing code from the package cannot break
the benchmark unnoticed (some names are only looked up when a job runs)."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _is_module(path):
    try:
        return importlib.util.find_spec(path) is not None
    except ModuleNotFoundError:
        return False


def library_uses(source):
    """(module, name) pairs used by a perfbench file: names imported from a
    prudentwalks module, and attributes read off a name bound to one."""
    tree = ast.parse((PERFBENCH / source).read_text(), filename=source)
    modules = {}  # local name -> prudentwalks module path
    uses = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("prudentwalks"):
            for alias in node.names:
                path = "%s.%s" % (node.module, alias.name)
                if _is_module(path):
                    modules[alias.asname or alias.name] = path
                else:
                    uses.add((node.module, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("prudentwalks.") and alias.asname:
                    modules[alias.asname] = alias.name
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            uses.add((modules[node.value.id], node.attr))
    return uses


@pytest.mark.parametrize("source", ["workloads.py", "selftest.py"])
def test_benchmark_names_resolve(source):
    uses = library_uses(source)
    assert uses, "no library use found in %s" % source
    missing = sorted(
        "%s.%s" % use for use in uses if not hasattr(importlib.import_module(use[0]), use[1])
    )
    assert not missing, "%s uses names the library no longer has: %s" % (source, missing)


def test_run_time_lookups_are_covered():
    uses = library_uses("workloads.py")
    assert ("prudentwalks.funceq", "iterate_1sided") in uses
    assert ("prudentwalks.sampler", "ExtTable") in uses
