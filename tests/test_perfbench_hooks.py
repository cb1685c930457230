"""The benchmark looks its traced stages up by name, and a stage whose
function is gone is silently listed as absent (``Tracer.find``); a name
it imports that is gone fails it at import.  These tests read the
benchmark's sources, without changing them, and resolve every calderon
name they hook or import."""

import ast
import importlib
import re
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _hooked_paths():
    """Each literal ``tr.find("calderon....")`` path, and each
    ``_sweep(tr, "<name>"`` call as ``calderon._kernels.<name>``."""
    found, swept = set(), set()
    for source in sorted(PERFBENCH.glob("*.py")):
        text = source.read_text()
        found.update(re.findall(r'tr\.find\("(calderon\.[\w.]+)"\)', text))
        swept.update(re.findall(r'_sweep\(tr, "(\w+)"', text))
    return found, {f"calderon._kernels.{name}" for name in swept}


def _is_module(path):
    try:
        importlib.import_module(path)
    except ImportError:
        return False
    return True


def _imported_paths():
    """Per benchmark file, each ``from calderon... import name`` as
    ``module.name``, and each attribute read on a name bound to a
    calderon module (``import calderon as cal`` or ``from calderon
    import cli``) as ``module.attribute``."""
    paths = set()
    for source in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(source.read_text())
        bound = {}  # local name -> calderon module path
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "calderon":
                        bound[alias.asname or alias.name.split(".")[0]] = (
                            alias.name if alias.asname else "calderon")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "calderon":
                for alias in node.names:
                    path = f"{node.module}.{alias.name}"
                    paths.add(path)
                    if _is_module(path):
                        bound[alias.asname or alias.name] = path
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in bound):
                paths.add(f"{bound[node.value.id]}.{node.attr}")
    return paths


def _resolves(path):
    module, _, name = path.rpartition(".")
    try:
        getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        return _is_module(path)
    return True


def test_every_traced_hook_resolves():
    found, swept = _hooked_paths()
    assert found and swept  # the scan still matches how the benchmark names its hooks
    assert [p for p in sorted(found | swept) if not _resolves(p)] == []


def test_every_imported_name_resolves():
    paths = _imported_paths()
    # the scan still sees the benchmark's imports and module attributes
    assert {"calderon.projector.scan_defect_modes", "calderon.mode_symbol",
            "calderon.cli.ExperimentConfig"} <= paths
    assert [p for p in sorted(paths) if not _resolves(p)] == []
