"""Command-line front end.

Single binary with subcommands; every numerical tolerance is a flag so
experiment runs reproduce from a clean checkout.  Reports are canonical
JSON (sorted keys) or CSV; identical inputs produce byte-identical
output files (timings are kept out unless requested).

Exit codes: 0 all requested checks passed, 1 a check failed, 2 bad
usage or unparsable input, 3 a numerical precondition failed.
"""

import argparse
import io
import json
import sys
import time
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

from . import __version__
from .errors import CalderonError, ParseError, SpecError
from .symbols import (
    GALLERY_NAMES,
    build_gallery,
    check_ellipticity,
    dump_spec,
    mode_key,
    mode_symbol,
    read_spec,
)

_GALLERY_TEXT = """\
available model operators (calderon write-spec NAME -p key=value ...):

  dbar            mu            scalar d_n + i d_tau + mu; its truncated point is
                                the Hardy half (nontrivial modes m <= 0 at mu=0.5);
                                integer mu produces a defect mode
  twisted_dbar    mu, d         dbar with zeroth-order term mu + d; moves the
                                stability threshold by d: the index test family
  laplace_mass    mu            -d_n^2 - d_tau^2 + mu; closed-form projector
                                ((1/2, -1/2s), (-s/2, 1/2)), s = sqrt(m^2 + mu),
                                and the block-order staircase q - j
  dirac2          mu, v         planar Dirac with mass mu and scalar shift v;
                                chiral L/R marking; pairs with different v are
                                Hilbert-Schmidt close (tail slope -1)
  dirac3          mu, v         Dirac over the 2-torus boundary; pairs decay with
                                tail slope -1/2
  custom          n, r, k, ...  raw coefficient table via the document format
"""

_NO_CSV = "bundle has no singular values or exponent table to emit"

_ECHO_NAMES = {"p_list": "p", "fmt": "format"}  # config fields the echo renames


def _fields(obj, *skip):
    """A dataclass's fields but ``skip``, by name.  A cached property is no
    field, so ``CompareReport.angles`` or ``cos_rows`` never reaches a report."""
    return {f.name: getattr(obj, f.name) for f in fields(obj) if f.name not in skip}


@dataclass
class ExperimentConfig:
    """Echoable description of one CLI invocation.

    Its field defaults are the only defaults of the command line: the
    parser leaves every option that was not given unset.
    """

    subcommand: str
    spec: str | None = None
    spec_a: str | None = None
    spec_b: str | None = None
    cutoff: int = 16
    alpha: float = 0.5
    tol: float = 1e-6
    p_list: tuple = (1.0, 2.0)
    out: str | None = None
    fmt: str = "json"
    mode: tuple | None = None
    side: str = "plus"
    kind: str = "R"
    q: int | None = None
    include_timing: bool = False

    def __post_init__(self):
        if self.cutoff < 4:
            raise SpecError("cutoff must be at least 4")
        if not 0 < self.alpha < np.inf:  # NaN fails
            raise SpecError("alpha must be finite and positive")
        if not 0 < self.tol <= 0.1:  # see fredholm_index
            raise SpecError("tol must be finite and in (0, 0.1]")
        if not all(0 < p < np.inf for p in self.p_list):
            raise SpecError("Schatten orders must be finite and positive")
        if self.fmt == "csv" and self.subcommand in ("ellipticity", "projector", "index"):
            raise SpecError(_NO_CSV)  # emit_csv's refusal, before any spec is read

    def echo(self):
        """The set fields but ``out`` and ``include_timing``, under their report names."""
        return {
            _ECHO_NAMES.get(key, key): list(val) if isinstance(val, tuple) else val
            for key, val in _fields(self, "out", "include_timing").items()
            if val is not None
        }


@dataclass
class ReportBundle:
    config: dict
    timings: dict
    reports: dict
    version: str
    ok: bool


_NONFINITE = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}


def _float_texts(a, memo):
    """``repr`` texts of the elements of a 1-D float64 array.  Each
    distinct bit pattern is formatted once: ``memo`` maps the int64 view
    of a value to its text, so ``-0.0`` keeps its own text, and it is
    shared by every array of one report."""
    keys = a.view(np.int64).tolist()
    new = list(set(keys).difference(memo))
    if new:
        values = np.array(new, dtype=np.int64).view(np.float64).tolist()
        memo.update(zip(new, map(float.__repr__, values)))
    return list(map(memo.__getitem__, keys))


def _number_texts(a, memo):
    """JSON texts of the elements of a 1-D numeric array, in one pass."""
    if a.dtype.kind == "b":
        return np.where(a, "true", "false").tolist()
    if a.dtype.kind in "iu":
        return list(map(int.__repr__, a.tolist()))
    a = np.asarray(a, dtype=np.float64)
    texts = _float_texts(a, memo)
    return texts if np.isfinite(a).all() else [_NONFINITE.get(t, t) for t in texts]


def _block(items, pad, brackets="[]"):
    """JSON container of items already written at indent ``pad + "  "``."""
    if not items:
        return brackets
    inner = pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


def _rows(texts, widths, pad):
    """JSON list of rows of ``widths`` elements, from the elements' texts
    in row order.  Rows of one nonzero width are written by one join."""
    inner = pad + "  "
    if len(set(widths)) == 1 and widths[0]:
        cell = "," + inner + "  "
        row = inner + "]," + inner + "[" + inner + "  "
        body = row.join(map(cell.join, zip(*[iter(texts)] * widths[0])))
        return "[" + inner + "[" + inner + "  " + body + inner + "]" + pad + "]"
    ends = np.cumsum(widths).tolist()
    return _block([_block(texts[a:b], inner) for a, b in zip([0] + ends, ends)], pad)


def _json_text(obj):
    """``json.dumps(obj, sort_keys=True, indent=2)`` of a report payload,
    with NaN as null and numpy arrays and scalars as their ``tolist()``.
    A 1-D or 2-D numeric array, or a list of 1-D arrays of one numeric
    dtype, has its elements formatted in one pass, and each distinct
    float of the payload is formatted once."""
    memo = {}

    def text(obj, pad):
        inner = pad + "  "
        if isinstance(obj, dict):
            items = sorted({str(k): v for k, v in obj.items()}.items())
            return _block([f"{_encode_str(k)}: {text(v, inner)}" for k, v in items], pad, "{}")
        if isinstance(obj, np.ndarray) and obj.dtype.kind in "biuf" and obj.ndim in (1, 2):
            if obj.ndim == 1:
                return _block(_number_texts(obj, memo), pad)
            return _rows(_number_texts(obj.ravel(), memo), [obj.shape[1]] * len(obj), pad)
        if isinstance(obj, np.ndarray):
            return text(obj.tolist(), pad)
        if isinstance(obj, (list, tuple)):
            dtypes = {v.dtype if isinstance(v, np.ndarray) and v.ndim == 1 else None for v in obj}
            if len(dtypes) == 1 and None not in dtypes and next(iter(dtypes)).kind in "biuf":
                return _rows(_number_texts(np.concatenate(obj), memo), [len(v) for v in obj], pad)
            return _block([text(v, inner) for v in obj], pad)
        if isinstance(obj, str):
            return _encode_str(obj)
        if obj is None or isinstance(obj, (bool, np.bool_)):
            return "null" if obj is None else "true" if obj else "false"
        if isinstance(obj, (int, np.integer)):
            return int.__repr__(int(obj))
        if isinstance(obj, (float, np.floating)):
            out = float.__repr__(float(obj))
            return _NONFINITE.get(out, out)
        raise TypeError(f"object of type {type(obj).__name__} is not JSON serializable")

    return text(obj, "\n")


def _mode_tuple(text):
    """A ``--mode`` value as a tuple of ints; ``mode_symbol`` checks its length."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise SpecError(f"mode needs comma-separated integer components, got {text!r}") from None


def _param(text):
    """A ``write-spec -p`` value as a ``(key, float)`` pair."""
    key, _, val = text.partition("=")  # no "=": val is "", no number
    try:
        return key, float(val)
    except ValueError:
        raise SpecError(f"parameter {text!r} is not KEY=NUMBER") from None


def _p_list(text):
    """A ``--p`` value as a tuple of floats; ``ExperimentConfig`` checks their range."""
    try:
        return tuple(float(x) for x in text.split(",") if x)
    except ValueError as exc:
        raise SpecError(f"bad --p list {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# pipelines


def _run_ellipticity(cfg, reports, timings):
    spec = read_spec(cfg.spec)
    rep = check_ellipticity(spec)
    reports["ellipticity"] = {"spec": spec.name, **_fields(rep)}
    return rep.passed


def _run_projector(cfg, reports, timings):
    spec = read_spec(cfg.spec)
    mode = cfg.mode if cfg.mode is not None else (0,) * (spec.n - 1)
    sym = mode_symbol(spec, mode)
    if cfg.kind == "R":  # deferred imports: a runner imports what only it runs
        from .projector import calderon_projector
        matrix = calderon_projector(sym, cfg.side).matrix
    else:
        from .grassmann import orthogonal_projector
        matrix = orthogonal_projector(sym, cfg.side, cfg.alpha)
    reports["projector"] = {
        "m": mode_key(mode),
        "kind": cfg.kind + cfg.side,  # Rplus, Rminus, Pplus or Pminus
        "alpha": cfg.alpha,
        "re": matrix.real.tolist(),
        "im": matrix.imag.tolist(),
    }
    return True


def _points(cfg):
    """The assembled points of both specs of a pair command."""
    from .grassmann import assemble_point
    sa, sb = read_spec(cfg.spec_a), read_spec(cfg.spec_b)
    return [assemble_point(spec, cfg.cutoff, alpha=cfg.alpha) for spec in (sa, sb)]


def _run_compare(cfg, reports, timings):
    from .grassmann import compare_points
    rep = compare_points(*_points(cfg))
    reports["compare"] = {
        **_fields(rep, "angle_rows", "cross"),
        "angles": rep.angles,
        "skipped": [list(np.atleast_1d(s)) for s in rep.skipped],
    }
    return True


def _run_schatten(cfg, reports, timings):
    from .grassmann import compare_points, schatten_fit
    pa, pb = _points(cfg)
    rep = compare_points(pa, pb)
    q = cfg.q
    if q is None:
        q = pa.spec.k if rep.agreement == "full" else rep.agreement
        if q is None:
            raise SpecError("principal symbols differ; pass --q explicitly")
    fit = schatten_fit(rep, n=pa.spec.n, q=q, p_list=cfg.p_list)
    slope = "FINITE_RANK" if fit.finite_rank is not None else fit.slope
    reports["schatten"] = {**_fields(fit), "q": q, "n": pa.spec.n, "slope": slope}
    return True


def _run_index(cfg, reports, timings):
    from .grassmann import fredholm_index
    rep = fredholm_index(*_points(cfg), tol=cfg.tol)
    nonzero = [
        {"m": mode_key(m), "ker": int(k), "coker": int(c)}
        for m, k, c in zip(rep.modes, rep.kernel_dims, rep.cokernel_dims)
        if k or c
    ]
    per_mode = ("modes", "kernel_dims", "cokernel_dims")
    reports["index"] = {**_fields(rep, *per_mode), "nonzero_modes": nonzero}
    return rep.tail_safe


def _run_acceptance(cfg, reports, timings):
    from .acceptance import run_acceptance  # deferred: only this subcommand runs it
    results = run_acceptance()
    table = [
        {"number": r.number, "title": r.title, "passed": r.passed, "detail": r.detail}
        for r in results
    ]
    reports["acceptance"] = {"criteria": table, "passed": all(r.passed for r in results)}
    for r in results:
        if "growth_slopes" in r.data:
            reports["growth_fit"] = {"slopes": r.data["growth_slopes"]}
    timings.update({f"criterion_{r.number}": r.elapsed for r in results})
    return all(r.passed for r in results)


def run(config):
    """Execute one configured pipeline; returns a ReportBundle.  Its
    timings hold the pipeline's wall time, spec reading included, under
    the subcommand's name; acceptance adds one per criterion."""
    reports, timings = {}, {}
    runner = {
        "ellipticity": _run_ellipticity,
        "projector": _run_projector,
        "compare": _run_compare,
        "schatten": _run_schatten,
        "index": _run_index,
        "acceptance": _run_acceptance,
    }[config.subcommand]
    t0 = time.time()
    ok = runner(config, reports, timings)
    timings[config.subcommand] = time.time() - t0
    return ReportBundle(
        config=config.echo(),
        timings=timings,
        reports=reports,
        version=f"calderon {__version__}",
        ok=bool(ok),
    )


# ---------------------------------------------------------------------------
# serialization of bundles


def bundle_json(bundle, include_timing=False):
    """The bundle's fields as canonical JSON; ``timings`` only on request."""
    skip = () if include_timing else ("timings",)
    return _json_text(_fields(bundle, *skip)) + "\n"


def emit_csv(bundle, fh):
    """CSV view of a bundle: singular values or growth exponents.

    Schatten/compare bundles yield ``j,s_j,bound`` rows (zero values
    omitted); growth-fit tables yield ``q,jj,slope`` rows with NONE for
    degenerate blocks.
    """
    if "growth_fit" in bundle.reports:
        slopes = bundle.reports["growth_fit"]["slopes"]
        fh.write("q,jj,slope\n")
        for qi, row in enumerate(np.asarray(slopes, dtype=float)):
            for ji, val in enumerate(row):
                text = "NONE" if np.isnan(val) else repr(float(val))
                fh.write(f"{qi},{ji},{text}\n")
        return
    rep = bundle.reports.get("schatten") or bundle.reports.get("compare")
    if rep is None or "svals" not in rep:
        raise SpecError(_NO_CSV)
    svals = np.asarray(rep["svals"], dtype=float)
    target = rep.get("target_exponent")
    const = rep.get("bound_constant")
    kept = ~(svals <= 0.0)  # only s_j <= 0 is skipped: a NaN row is written
    texts = _float_texts(svals[kept], {})
    js = (np.flatnonzero(kept) + 1).tolist()
    if target is None or const is None:
        bounds = [""] * len(js)
    else:
        bounds = [repr(float(const * j**target)) for j in js]
    rows = [f"{j},{s},{b}\n" for j, s, b in zip(js, texts, bounds)]
    fh.write("j,s_j,bound\n" + "".join(rows))


def _write(text, path):
    """Write finished text to the file ``path``, or to stdout when ``path``
    is None.  A command that fails before this leaves ``--out`` as it was."""
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="calderon",
        description="Cauchy-data spaces, projectors and Grassmannian comparison "
        "on flat model geometries",
    )
    ap.add_argument("--version", action="version", version=f"calderon {__version__}")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def pipeline(name, summary, pair=False, single=False):
        # unset options stay out of the namespace: ExperimentConfig holds the defaults
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        if single:
            p.add_argument("--spec", required=True, help="operator document path")
        if pair:
            p.add_argument("--spec-a", required=True)
            p.add_argument("--spec-b", required=True)
        p.add_argument("--cutoff", type=int)
        p.add_argument("--alpha", type=float)
        p.add_argument("--tol", type=float)
        p.add_argument("--p", dest="p_list", type=_p_list, metavar="P",
                       help="comma-separated Schatten orders")
        p.add_argument("--out")
        p.add_argument("--format", dest="fmt", choices=("json", "csv"))
        p.add_argument("--timing", dest="include_timing", action="store_true",
                       help="include timings in reports")
        return p

    p = sub.add_parser("list-gallery", help="print the model-operator gallery")

    p = sub.add_parser("write-spec", help="write a gallery operator document")
    p.add_argument("name", choices=[g for g in GALLERY_NAMES if g != "custom"])
    p.add_argument("-p", "--param", action="append", default=[], type=_param,
                   metavar="KEY=VALUE")
    p.add_argument("--out", default=None)

    pipeline("ellipticity", "cosphere determinant scan and defect modes", single=True)
    p = pipeline("projector", "dump one per-mode projector matrix", single=True)
    p.add_argument("--mode", type=_mode_tuple,
                   help="tangential frequency (comma-separated for T^2)")
    p.add_argument("--side", choices=("plus", "minus"))
    p.add_argument("--kind", choices=("R", "P"))

    pipeline("compare", "principal-angle comparison of two points", pair=True)
    p = pipeline("schatten", "tail decay fit of a comparison", pair=True)
    p.add_argument("--q", type=int, help="agreement order (default: computed)")
    pipeline("index", "Fredholm index of the cross restriction", pair=True)
    pipeline("acceptance", "run the acceptance suite")
    return ap


def main(argv=None):
    try:
        # -p, --mode and --p convert while parsing, so their SpecError lands below
        args = _build_parser().parse_args(argv)
        if args.subcommand == "list-gallery":
            _write(_GALLERY_TEXT, None)
            return 0
        if args.subcommand == "write-spec":
            _write(dump_spec(build_gallery(args.name, **dict(args.param))), args.out)
            return 0

        cfg = ExperimentConfig(**vars(args))
        bundle = run(cfg)
        if cfg.fmt == "csv":
            sink = io.StringIO()
            emit_csv(bundle, sink)
            text = sink.getvalue()
        else:
            text = bundle_json(bundle, include_timing=cfg.include_timing)
        _write(text, cfg.out)
        return 0 if bundle.ok else 1
    except SystemExit as exc:  # argparse: a usage error, --help or --version
        return exc.code if isinstance(exc.code, int) else 2
    except (ParseError, SpecError) as exc:
        _error_record(exc)
        return 2
    except CalderonError as exc:
        _error_record(exc)
        return 3


def _error_record(exc):
    record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
