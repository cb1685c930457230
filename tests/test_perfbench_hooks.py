"""The benchmark looks its traced stages up by name, and a stage whose
function is gone is silently listed as absent (``Tracer.find``); a name
it imports that is gone fails it at import.  These tests read the
benchmark's sources, without changing them, and resolve every calderon
name they hook or import; the last one makes the benchmark's calls and
reads their results as it does."""

import ast
import importlib
import re
from pathlib import Path

import numpy as np

import calderon as cal
from calderon.contour import characteristic_roots, contour_quadrature, enclosing_circle
from calderon.projector import layer_potential_blocks

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


def test_the_benchmarks_call_shapes_hold():
    # single_mode's calls on toy symbols, each read as the benchmark reads
    # it: a change here would pass the name checks above and then fail a
    # benchmark run
    for spec in (cal.build_gallery("dbar", mu=0.5), cal.build_gallery("laplace_mass", mu=1.0)):
        powers = np.arange(2 * spec.k - 1)
        for m in (-2, 0, 3):
            sym = cal.mode_symbol(spec, np.array([m]))
            rp = cal.calderon_projector(sym, "plus").matrix
            rm = cal.calderon_projector(sym, "minus").matrix
            oracle = cal.spectral_split(cal.companion_matrix(sym)).projector
            assert rp.shape == rm.shape == oracle.shape == (spec.r * spec.k,) * 2
            assert layer_potential_blocks(sym, cross_check=False).shape == rp.shape
            roots = characteristic_roots(sym)
            assert all(half in ("upper", "lower") for _, _, half in roots)
            assert sum(mult for _, mult, _ in roots) == spec.r * spec.k
            upper = [r for r, _, half in roots if half == "upper"]
            if not upper:
                continue
            circle = enclosing_circle(upper, excluded=[r for r, _, half in roots if half != "upper"])

            def integrand(z, sym=sym):
                inv = np.linalg.inv(sym(z))
                return (z[:, None] ** powers)[:, :, None, None] * inv[:, None, :, :]

            value, nodes = contour_quadrature(integrand, circle)
            assert value.shape == (len(powers), spec.r, spec.r)
            assert isinstance(nodes, int) and nodes >= circle.nodes  # counted by the stage
    # the Riesz and power calls ride along on small matrices
    M = np.diag([1.0, 2.0, 5.0]).astype(complex)
    circle = cal.enclosing_circle(np.array([1.0, 2.0]), excluded=np.array([5.0]))
    assert cal.riesz_projector(M, circle).shape == (3, 3)
    assert cal.matrix_power(M, 0.5).shape == (3, 3)
