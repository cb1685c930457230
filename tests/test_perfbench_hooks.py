"""The benchmark looks its traced stages up by name, and a stage whose
function is gone is silently listed as absent (``Tracer.find``).  These
tests read the benchmark's sources, without changing them, and resolve
every name they hook by the same rule."""

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


def _resolves(path):
    module, _, name = path.rpartition(".")
    try:
        getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        return False
    return True


def test_every_traced_hook_resolves():
    found, swept = _hooked_paths()
    assert found and swept  # the scan still matches how the benchmark names its hooks
    assert [p for p in sorted(found | swept) if not _resolves(p)] == []
