"""SHA-256 digests of calderon's outputs, for a bit-for-bit check of two trees.

Run it once with each tree's ``src`` on ``PYTHONPATH`` and diff the two
texts; any difference names the output that moved:

    PYTHONPATH=/path/to/old/src python tools/output_digests.py --seed 901 > old.json
    PYTHONPATH=src python tools/output_digests.py --seed 901 > new.json
    diff old.json new.json

It prints one JSON object, keys sorted, of hex digests of:

* ``assemble_point`` modes, dims, frames, weights and exclusions at
  alpha 0.5 and 1.7 on the five acceptance specs and one
  ``selfadjoint_double``;
* ``compare_points`` rows, and ``fredholm_index`` counts, of the
  criterion 5-7 pairs and of twisted_dbar (d = 3) against dbar;
* ``chiral_point`` on both sides of three chiral specs;
* ``calderon_projector`` and ``orthogonal_projector`` on both sides at a
  few modes of each acceptance spec (an error digests its type and text);
* the report bytes and exit code of each ``calderon`` command of
  ``perfbench/cli_pipelines.py``'s workload of the given seed, each run
  as a fresh process on that tree's ``src``;
* the exit code, stdout and ``--out`` bytes of ``cli.main`` run in
  process on the commands that workload never runs: ``list-gallery``,
  ``write-spec``, ``ellipticity``, ``projector``, ``compare`` and
  ``schatten`` in JSON and CSV, ``index``, four error cases and, at full
  size, ``acceptance`` (its elapsed seconds masked).

``--toy`` shrinks every cutoff, runs the toy-scale command set and
skips ``acceptance``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import calderon as cal  # noqa: E402
from calderon import cli  # noqa: E402
from calderon.acceptance import _acceptance_specs  # noqa: E402
from calderon.errors import CalderonError  # noqa: E402
from cli_pipelines import Workload  # noqa: E402

ALPHAS = (0.5, 1.7)
TOY = 8  # --toy divides every cutoff by this


def _digest(*parts):
    """Hex SHA-256 of bytes, text, arrays (dtype, shape and bytes) or
    any other value's ``repr``."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            part = part.encode()
        elif isinstance(part, np.ndarray):
            a = np.ascontiguousarray(part)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            part = a.tobytes()
        elif not isinstance(part, bytes):
            part = repr(part).encode()
        h.update(part)
    return h.hexdigest()


def _outcome(call):
    """What ``call()`` gives: its value, or its error's type and text."""
    try:
        return call()
    except CalderonError as exc:
        return f"{type(exc).__name__}: {exc}"


def _point_digests(out, key, point):
    for name in ("modes", "dims", "ortho", "weights", "excluded"):
        out[f"{key}/{name}"] = _digest(getattr(point, name))


def point_digests(shrink):
    """Acceptance-spec points at both alphas, and both chiral halves."""
    out = {}
    double = cal.selfadjoint_double(cal.build_gallery("dirac2", mu=1))
    cutoffs = {spec.n: cutoff // shrink for spec, cutoff in _acceptance_specs()}
    for spec in [spec for spec, _ in _acceptance_specs()] + [double]:
        for alpha in ALPHAS:
            point = cal.assemble_point(spec, cutoffs[spec.n], alpha=alpha)
            _point_digests(out, f"assemble/{spec.name}/a{alpha}", point)
    chiral = [
        cal.build_gallery("dirac2", mu=1, v=0.3),
        cal.build_gallery("dirac3", mu=1, v=0.3),
        cal.selfadjoint_double(cal.build_gallery("twisted_dbar", mu=0.5, d=3)),
    ]
    for spec in chiral:
        for side in ("L", "R"):
            point = cal.chiral_point(spec, side, cutoffs[spec.n])
            _point_digests(out, f"chiral/{spec.name}/{side}", point)
    return out


def compare_digests(shrink):
    """Comparison rows and index counts of the criterion 5-7 pairs and
    of the twisted dbar index pair."""
    g = cal.build_gallery
    pairs = {
        "dirac2": (g("dirac2", mu=1, v=0), g("dirac2", mu=1, v=0.3), 512),
        "laplace_mass": (g("laplace_mass", mu=1), g("laplace_mass", mu=2), 512),
        "dirac3": (g("dirac3", mu=1, v=0), g("dirac3", mu=1, v=0.3), 48),
        "twist3": (g("twisted_dbar", mu=0.5, d=3), g("dbar", mu=0.5), 16),
    }
    out = {}
    for label, (sa, sb, cutoff) in pairs.items():
        pa, pb = (cal.assemble_point(s, cutoff // shrink) for s in (sa, sb))
        rep = cal.compare_points(pa, pb)
        for name in ("modes", "dims_a", "dims_b", "angle_rows", "cross", "cos_rows",
                     "diff_norms", "svals", "q_svals", "agreement", "skipped"):
            out[f"compare/{label}/{name}"] = _digest(getattr(rep, name))
        idx = _outcome(lambda: list(vars(cal.fredholm_index(pa, pb, rep=rep)).values()))
        out[f"index/{label}"] = _digest(*idx) if isinstance(idx, list) else _digest(idx)
    return out


def projector_digests():
    """Both projector routes on both sides at three modes of each
    acceptance spec."""
    modes = {2: [0, 3, -7], 3: [(0, 0), (2, -1), (-5, 3)]}
    out = {}
    for spec, _ in _acceptance_specs():
        for m in modes[spec.n]:
            sym = cal.mode_symbol(spec, m)
            for side in ("plus", "minus"):
                key = f"projector/{spec.name}/{m}/{side}"
                R = _outcome(lambda: cal.calderon_projector(sym, side).matrix)
                out[f"{key}/R"] = _digest(R)
                for alpha in ALPHAS:
                    P = _outcome(lambda: cal.orthogonal_projector(sym, side, alpha))
                    out[f"{key}/P/a{alpha}"] = _digest(P)
    return out


def cli_digests(seed, scale):
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        wl = Workload(seed, scale, tmp)
        for cmd in wl.commands:
            proc = wl._launch(cmd.argv())
            path = Path(tmp) / cmd.out
            report = path.read_bytes() if path.exists() else b""
            out[f"cli/{cmd.out}"] = _digest(f"exit {proc.returncode}\n", report)
    return out


# spec files of the in-process commands: file name -> write-spec arguments
SPECS = {
    "dbar.spec": ["dbar", "-p", "mu=0.5"],
    "twist3.spec": ["twisted_dbar", "-p", "mu=0.5", "-p", "d=3"],
    "laplace1.spec": ["laplace_mass", "-p", "mu=1"],
    "laplace2.spec": ["laplace_mass", "-p", "mu=2"],
    "dirac2.spec": ["dirac2", "-p", "mu=1", "-p", "v=0.3"],
    "dirac3.spec": ["dirac3", "-p", "mu=1", "-p", "v=0.3"],
}
DBAR_TWIST3 = ["--spec-a", "dbar.spec", "--spec-b", "twist3.spec", "--cutoff", "16"]
LAPLACE = ["--spec-a", "laplace1.spec", "--spec-b", "laplace2.spec", "--cutoff", "64"]


def main_commands(full):
    """``cli.main`` argument lists by digest key."""
    runs = {"list-gallery": ["list-gallery"]}
    for path, args in SPECS.items():  # every gallery operator
        runs[f"write-spec/{path}"] = ["write-spec", *args]
    runs["write-spec/repeated"] = ["write-spec", "dbar", "-p", "mu=2", "-p", "mu=0.5"]
    for spec in ("dirac3.spec", "dbar.spec"):
        runs[f"ellipticity/{spec}"] = ["ellipticity", "--spec", spec]
    for kind in ("R", "P"):
        for side in ("plus", "minus"):
            runs[f"projector/{kind}{side}"] = ["projector", "--spec", "dirac3.spec", "--mode",
                                               "2,-3", "--kind", kind, "--side", side]
    runs.update({
        "compare/json": ["compare", *DBAR_TWIST3],
        "compare/csv": ["compare", *LAPLACE, "--format", "csv"],
        "schatten/fitted": ["schatten", *LAPLACE],
        "schatten/finite-rank": ["schatten", *DBAR_TWIST3],
        "schatten/q0": ["schatten", *LAPLACE, "--q", "0"],
        "schatten/csv": ["schatten", *LAPLACE, "--format", "csv"],
        "index": ["index", *DBAR_TWIST3],
        "error/param": ["write-spec", "dbar", "-p", "mu=abc"],
        "error/index-csv": ["index", *DBAR_TWIST3, "--format", "csv"],
        "error/incompatible": ["compare", "--spec-a", "dbar.spec", "--spec-b", "dirac3.spec"],
        "error/index-tol": ["index", *LAPLACE, "--tol", "0.1"],
    })
    if full:
        for fmt in ("json", "csv"):
            runs[f"acceptance/{fmt}"] = ["acceptance", "--format", fmt, "--out", "out.txt"]
    return runs


def main_digests(full):
    """Exit code, stdout and ``--out`` bytes of each in-process command,
    run in a fresh directory that holds the spec files."""
    out = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for path, args in SPECS.items():
                assert cli.main(["write-spec", *args, "--out", path]) == 0
            for key, argv in main_commands(full).items():
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = cli.main(argv)
                text = re.sub(r"\(\d+\.\ds <", "(?s <", stdout.getvalue())  # elapsed seconds
                report = Path("out.txt").read_bytes() if Path("out.txt").exists() else b""
                Path("out.txt").unlink(missing_ok=True)
                out[f"main/{key}"] = _digest(f"exit {code}\n", text, report)
        finally:
            os.chdir(cwd)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=901, help="cli_pipelines workload seed")
    ap.add_argument("--toy", action="store_true",
                    help="small cutoffs, the toy command set and no acceptance")
    args = ap.parse_args(argv)
    shrink = TOY if args.toy else 1
    out = {**point_digests(shrink), **compare_digests(shrink), **projector_digests(),
           **cli_digests(args.seed, "toy" if args.toy else "full"), **main_digests(not args.toy)}
    sys.stdout.write(json.dumps(out, sort_keys=True, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
