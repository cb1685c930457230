"""A fresh process loads only the modules its subcommand runs, and
scipy only when the Schur split runs, which no subcommand but acceptance
does; the layer and frame routes import nothing of each other; the lazy
package root resolves every public name; the public calls keep their
pinned parameter lists."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import calderon
from calderon.cli import main

PACKAGE = Path(calderon.__file__).resolve().parent

# imports calderon and the modules named after the argv lists, runs
# cli.main on each argv list, then reports the exit codes and the scipy,
# numpy.ma and calderon modules the process has loaded
SCRIPT = """\
import importlib, json, sys
import calderon
for name in sys.argv[2:]:
    importlib.import_module(name)
codes = [importlib.import_module("calderon.cli").main(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(m for m in sys.modules
                if m.split(".")[0] in ("scipy", "calderon") or m.split(".")[:2] == ["numpy", "ma"])
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def _fresh(runs, cwd, imports=()):
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(runs), *imports],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture()
def specs(tmp_path):
    paths = {}
    for name, gallery, params in [
        ("dbar", "dbar", ["mu=0.5"]),
        ("twist2", "twisted_dbar", ["mu=0.5", "d=2"]),
        ("dirac_a", "dirac2", ["mu=1", "v=0.1"]),
        ("dirac_b", "dirac2", ["mu=1", "v=0.3"]),
        ("laplace", "laplace_mass", ["mu=1.5"]),
    ]:
        out = tmp_path / f"{name}.spec"
        args = ["write-spec", gallery, "--out", str(out)]
        for p in params:
            args += ["-p", p]
        assert main(args) == 0
        paths[name] = str(out)
    return paths


def test_pipelines_never_load_scipy(specs, tmp_path):
    pair = ["--spec-a", specs["dirac_a"], "--spec-b", specs["dirac_b"], "--cutoff", "8"]
    runs = [
        ["compare", *pair, "--out", "compare.json"],
        ["index", "--spec-a", specs["twist2"], "--spec-b", specs["dbar"], "--cutoff", "8",
         "--out", "index.json"],
        ["schatten", *pair, "--format", "csv", "--out", "schatten.csv"],
        ["ellipticity", "--spec", specs["dirac_a"], "--cutoff", "8", "--out", "ell.json"],
        ["projector", "--spec", specs["laplace"], "--mode", "3", "--kind", "R", "--cutoff", "8",
         "--out", "proj.json"],
    ]
    got = _fresh(runs, tmp_path)
    assert got["codes"] == [0] * len(runs)
    for argv in runs:
        assert (tmp_path / argv[-1]).stat().st_size > 0
    # every calderon module was imported, and none of them pulled in
    # scipy; the acceptance suite loads only with its subcommand, so a
    # process of its own imports it
    alone = _fresh([], tmp_path, imports=["calderon.acceptance"])
    modules = {f"calderon.{p.stem}" for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    for loaded in (got["loaded"], alone["loaded"]):
        assert [m for m in loaded if m.startswith("scipy")] == []
    assert modules <= set(got["loaded"]) | set(alone["loaded"])
    assert "calderon.acceptance" not in got["loaded"]


PAIR_MODULES = {"calderon", "calderon.cli", "calderon.errors", "calderon.symbols",
                "calderon._kernels", "calderon.grassmann"}
LAYER_MODULES = PAIR_MODULES - {"calderon.grassmann"} | {"calderon.projector", "calderon.contour"}


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["compare", "PAIR"], PAIR_MODULES),
        (["schatten", "PAIR", "--format", "csv"], PAIR_MODULES),
        (["index", "PAIR"], PAIR_MODULES),
        (["ellipticity", "--spec", "dirac_a"], PAIR_MODULES - {"calderon.grassmann"}),
        (["projector", "--spec", "laplace", "--mode", "3", "--kind", "R"], LAYER_MODULES),
        # the weighted projector runs assemble_point's frame steps alone
        (["projector", "--spec", "laplace", "--mode", "3", "--kind", "P"], PAIR_MODULES),
    ],
    ids=["compare", "schatten-csv", "index", "ellipticity", "projector-R", "projector-P"],
)
def test_each_subcommand_loads_only_what_it_runs(specs, tmp_path, argv, modules):
    pair = ["--spec-a", specs["dirac_a"], "--spec-b", specs["dirac_b"]]
    argv = [a for arg in argv for a in (pair if arg == "PAIR" else [specs.get(arg, arg)])]
    got = _fresh([argv + ["--cutoff", "8", "--out", "report"]], tmp_path)
    assert got["codes"] == [0]
    assert {m for m in got["loaded"] if m.split(".")[0] == "calderon"} == modules
    assert [m for m in got["loaded"] if m.split(".")[0] == "scipy"] == []
    if "--spec-a" in argv:  # nor numpy.ma, which weighted_range_sweep keeps out
        assert [m for m in got["loaded"] if m.split(".")[0] != "calderon"] == []


def test_bare_import_loads_no_submodule(tmp_path):
    assert _fresh([], tmp_path)["loaded"] == ["calderon"]


def _package_imports(tree):
    """The names a module's source imports from the package, at module
    level and inside functions alike: ``x`` for ``from .x import ...``,
    ``from . import x`` and ``import calderon.x``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["calderon" if node.level else None, node.module]))
            parts = module.split(".")
            if parts[0] == "calderon":
                found |= {parts[1]} if len(parts) > 1 else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("calderon.")}
    return found


# the layer-potential route and the sign-iteration frame route
ROUTES = {"contour": "layer", "projector": "layer", "grassmann": "frame", "_kernels": "frame"}


def test_the_layer_and_frame_routes_import_nothing_of_each_other():
    imports = {p.stem: _package_imports(ast.parse(p.read_text())) for p in PACKAGE.glob("*.py")}
    assert {"projector", "grassmann", "acceptance"} <= imports["cli"]  # deferred imports count
    for module, route in ROUTES.items():
        other = {m for m, r in ROUTES.items() if r != route}
        assert imports[module] & other == set(), module


# every name the package root exported when it imported its modules
# eagerly, and the module that defines it
ROOT_NAMES = {
    "contour": ["Contour", "SpectralSplit", "characteristic_roots", "contour_quadrature",
                "enclosing_circle", "matrix_power", "riesz_projector", "spectral_split"],
    "grassmann": ["CompareReport", "GrassmannPoint", "IndexReport", "SchattenReport",
                  "assemble_point", "chiral_point", "compare_points", "fredholm_index",
                  "krichever_reference", "orthogonal_projector", "schatten_fit"],
    "projector": ["calderon_projector", "calderon_projector_stack", "entry_growth_fit",
                  "jump_operator", "layer_potential_blocks"],
    "symbols": ["EllipticityReport", "ModeSymbol", "OperatorSpec", "agree_up_to_order",
                "build_gallery", "check_ellipticity", "companion_matrix", "dump_spec",
                "from_document", "load_spec", "mode_symbol",
                "read_spec", "save_spec", "selfadjoint_double", "to_document"],
}


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in sorted(ROOT_NAMES.items()) for n in names]
)
def test_root_name_is_the_defining_modules_object(module, name):
    want = getattr(importlib.import_module(f"calderon.{module}"), name)
    assert calderon.__getattr__(name) is want
    assert getattr(calderon, name) is want
    assert name in vars(calderon)  # resolved once, then a plain attribute
    scope = {}
    exec(f"from calderon import {name} as got", scope)
    assert scope["got"] is want
    assert name in dir(calderon)


def test_root_resolves_its_submodules_and_rejects_unknown_names():
    assert calderon.__version__ == "0.1.0"
    assert {"errors", "__version__"} <= set(dir(calderon))
    for module in ("errors", "contour", "grassmann", "projector", "symbols"):
        want = importlib.import_module(f"calderon.{module}")
        assert calderon.__getattr__(module) is want and getattr(calderon, module) is want
    with pytest.raises(AttributeError, match="no_such_name"):
        calderon.no_such_name
    assert not hasattr(calderon, "mode_lattice")  # a module's name, never a root name
    with pytest.raises(ImportError):
        exec("from calderon import no_such_name", {})


def test_weighted_projector_loads_no_scipy_and_matches_in_process(specs, tmp_path):
    args = ["projector", "--spec", specs["laplace"], "--mode", "3", "--kind", "P", "--cutoff", "8"]
    got = _fresh([args + ["--out", "fresh.json"]], tmp_path)
    assert got["codes"] == [0]
    assert [m for m in got["loaded"] if m.split(".")[0] == "scipy"] == []
    assert main(args + ["--out", str(tmp_path / "here.json")]) == 0
    assert (tmp_path / "fresh.json").read_bytes() == (tmp_path / "here.json").read_bytes()


# every parameter each public call takes: the quadrature tolerance, the
# node budget, the defect policy and the cross-check are constants, so
# none of them comes back as a keyword unnoticed; a contour is one circle,
# and an orthogonal projector takes what calderon_projector takes, plus alpha
SIGNATURES = {
    "contour.Contour": "(center: complex, radius: float, nodes: int = 16) -> None",
    "contour.Contour.circle": "(center, radius, nodes=16)",
    "contour.contour_quadrature": "(f, contour)",
    "contour.riesz_projector": "(M, contour)",
    "contour.matrix_power": "(a, t)",
    "contour.enclosing_circle": "(group, excluded=())",
    "contour.characteristic_roots": "(sym)",
    "contour.spectral_split": "(C)",
    "projector.calderon_projector": "(sym, side='plus')",
    "projector.layer_potential_blocks": "(sym, cross_check=True)",
    "symbols.check_ellipticity": "(spec)",
    "symbols.build_gallery": "(name, /, **params)",
    "grassmann.assemble_point": "(spec, cutoff, alpha=0.5)",
    "grassmann.chiral_point": "(spec, side, cutoff, alpha=0.5)",
    "grassmann.orthogonal_projector": "(sym, side, alpha)",
    "acceptance.run_acceptance": "()",
    "errors.CalderonError": "(message, index=None, mode=None)",
    "errors.DefectMode": "(message, index=None, mode=None, roots=None)",
}


@pytest.mark.parametrize("path", sorted(SIGNATURES))
def test_public_signature_is_pinned(path):
    module, *names = path.split(".")
    fn = importlib.import_module(f"calderon.{module}")
    for name in names:
        fn = getattr(fn, name)
    assert str(inspect.signature(fn)) == SIGNATURES[path]
