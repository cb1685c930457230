"""Command-line front end.

Single binary with subcommands; every numerical tolerance is a flag so
experiment runs reproduce from a clean checkout.  Reports are canonical
JSON (sorted keys) or CSV; identical inputs produce byte-identical
output files (timings are kept out unless requested).

Exit codes: 0 all requested checks passed, 1 a check failed, 2 bad
usage or unparsable input, 3 a numerical precondition failed.
"""

import argparse
import json
import sys
import time
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

from . import __version__
from .errors import CalderonError, ParseError, SpecError
from .symbols import (
    GALLERY_NAMES,
    agree_up_to_order,
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
    samples: int = 64
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

    def echo(self):
        out = {
            "subcommand": self.subcommand,
            "cutoff": self.cutoff,
            "alpha": self.alpha,
            "tol": self.tol,
            "p": list(self.p_list),
            "format": self.fmt,
        }
        for key in ("spec", "spec_a", "spec_b", "mode", "side", "kind", "q"):
            val = getattr(self, key)
            if val is not None:
                out[key] = list(val) if isinstance(val, tuple) else val
        return out


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
        return tuple(int(x) for x in str(text).split(","))
    except ValueError:
        raise SpecError(f"mode needs comma-separated integer components, got {text!r}") from None


# ---------------------------------------------------------------------------
# pipelines


def _run_ellipticity(cfg, reports, timings):
    spec = read_spec(cfg.spec)
    t0 = time.time()
    rep = check_ellipticity(spec, samples=cfg.samples)
    timings["ellipticity"] = time.time() - t0
    reports["ellipticity"] = {
        "spec": spec.name,
        "samples": rep.samples,
        "min_abs_det": rep.min_abs_det,
        "passed": rep.passed,
        "defect_modes": rep.defect_modes,
    }
    return rep.passed


def _run_projector(cfg, reports, timings):
    from . import projector  # deferred: a runner imports what only it runs
    spec = read_spec(cfg.spec)
    mode = cfg.mode if cfg.mode is not None else (0,) * (spec.n - 1)
    t0 = time.time()
    sym = mode_symbol(spec, mode)
    if cfg.kind == "R":
        proj = projector.calderon_projector(sym, cfg.side)
    else:
        proj = projector.orthogonal_projector(sym, cfg.side, cfg.alpha)
    timings["projector"] = time.time() - t0
    reports["projector"] = {
        "m": mode_key(mode),
        "kind": proj.kind,
        "alpha": cfg.alpha,
        "re": proj.matrix.real.tolist(),
        "im": proj.matrix.imag.tolist(),
    }
    return True


def _compare_payload(rep):
    return {
        "cutoff": rep.cutoff,
        "alpha": rep.alpha,
        "agreement": rep.agreement,
        "modes": rep.modes,
        "dims_a": rep.dims_a,
        "dims_b": rep.dims_b,
        "angles": [a for a in rep.angles],
        "diff_norms": rep.diff_norms,
        "svals": rep.svals,
        "q_svals": rep.q_svals,
        "skipped": [list(np.atleast_1d(s)) for s in rep.skipped],
    }


def _points(cfg):
    """Both specs of a pair command and their assembled points."""
    from .grassmann import assemble_point
    sa, sb = read_spec(cfg.spec_a), read_spec(cfg.spec_b)
    pa = assemble_point(sa, cfg.cutoff, alpha=cfg.alpha)
    pb = assemble_point(sb, cfg.cutoff, alpha=cfg.alpha)
    return sa, sb, pa, pb


def _run_compare(cfg, reports, timings):
    from .grassmann import compare_points
    t0 = time.time()
    _, _, pa, pb = _points(cfg)
    rep = compare_points(pa, pb)
    timings["compare"] = time.time() - t0
    reports["compare"] = _compare_payload(rep)
    return True


def _run_schatten(cfg, reports, timings):
    from .grassmann import compare_points, schatten_fit
    t0 = time.time()
    sa, sb, pa, pb = _points(cfg)
    rep = compare_points(pa, pb)
    q = cfg.q
    if q is None:
        agreement = agree_up_to_order(sa, sb)
        q = sa.k if agreement == "full" else agreement
        if q is None:
            raise SpecError("principal symbols differ; pass --q explicitly")
    fit = schatten_fit(rep, n=sa.n, q=q, p_list=cfg.p_list)
    timings["schatten"] = time.time() - t0
    reports["schatten"] = {
        "q": q,
        "n": sa.n,
        "count": fit.count,
        "finite_rank": fit.finite_rank,
        "slope": "FINITE_RANK" if fit.finite_rank is not None else fit.slope,
        "slope_halfwidth": fit.slope_halfwidth,
        "window": None if fit.window is None else list(fit.window),
        "target_exponent": fit.target_exponent,
        "bound_constant": fit.bound_constant,
        "bound_holds": fit.bound_holds,
        "sums": {str(p): v for p, v in fit.sums.items()},
        "tail_increase": {str(p): v for p, v in fit.tail_increase.items()},
        "svals": fit.svals,
    }
    return True


def _run_index(cfg, reports, timings):
    from .grassmann import fredholm_index
    t0 = time.time()
    _, _, pa, pb = _points(cfg)
    rep = fredholm_index(pa, pb, tol=cfg.tol)
    timings["index"] = time.time() - t0
    nonzero = [
        {"m": mode_key(m), "ker": int(k), "coker": int(c)}
        for m, k, c in zip(rep.modes, rep.kernel_dims, rep.cokernel_dims)
        if k or c
    ]
    reports["index"] = {
        "index": rep.index,
        "kernel_total": rep.kernel_total,
        "cokernel_total": rep.cokernel_total,
        "tail_safe": rep.tail_safe,
        "min_tail_gap": rep.min_tail_gap,
        "tol": rep.tol,
        "nonzero_modes": nonzero,
    }
    return rep.tail_safe


def _run_acceptance(cfg, reports, timings):
    from .acceptance import run_acceptance  # deferred: only this subcommand runs it
    t0 = time.time()
    results = run_acceptance()
    timings["acceptance"] = time.time() - t0
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
    """Execute one configured pipeline; returns a ReportBundle."""
    reports, timings = {}, {}
    runner = {
        "ellipticity": _run_ellipticity,
        "projector": _run_projector,
        "compare": _run_compare,
        "schatten": _run_schatten,
        "index": _run_index,
        "acceptance": _run_acceptance,
    }[config.subcommand]
    ok = runner(config, reports, timings)
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
    payload = {
        "config": bundle.config,
        "reports": bundle.reports,
        "version": bundle.version,
        "ok": bundle.ok,
    }
    if include_timing:
        payload["timings"] = bundle.timings
    return _json_text(payload) + "\n"


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
        raise SpecError("bundle has no singular values or exponent table to emit")
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


def _write_bundle(bundle, cfg):
    text_out = sys.stdout
    if cfg.fmt == "csv":
        if cfg.out:
            with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
                emit_csv(bundle, fh)
        else:
            emit_csv(bundle, text_out)
    else:
        text = bundle_json(bundle, include_timing=cfg.include_timing)
        if cfg.out:
            with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        else:
            text_out.write(text)


def list_gallery():
    """Deterministic text listing of the model-operator gallery."""
    return _GALLERY_TEXT


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
        p.add_argument("--p", dest="p_list", metavar="P", help="comma-separated Schatten orders")
        p.add_argument("--out")
        p.add_argument("--format", dest="fmt", choices=("json", "csv"))
        p.add_argument("--timing", dest="include_timing", action="store_true",
                       help="include timings in reports")
        return p

    p = sub.add_parser("list-gallery", help="print the model-operator gallery")

    p = sub.add_parser("write-spec", help="write a gallery operator document")
    p.add_argument("name", choices=[g for g in GALLERY_NAMES if g != "custom"])
    p.add_argument("-p", "--param", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--out", default=None)

    p = pipeline("ellipticity", "cosphere determinant scan and defect modes", single=True)
    p.add_argument("--samples", type=int)

    p = pipeline("projector", "dump one per-mode projector matrix", single=True)
    p.add_argument("--mode", help="tangential frequency (comma-separated for T^2)")
    p.add_argument("--side", choices=("plus", "minus"))
    p.add_argument("--kind", choices=("R", "P"))

    pipeline("compare", "principal-angle comparison of two points", pair=True)
    p = pipeline("schatten", "tail decay fit of a comparison", pair=True)
    p.add_argument("--q", type=int, help="agreement order (default: computed)")
    pipeline("index", "Fredholm index of the cross restriction", pair=True)
    pipeline("acceptance", "run the acceptance suite")
    return ap


def _config_from_args(args):
    kwargs = dict(vars(args))
    mode = kwargs.pop("mode", None)
    if "p_list" in kwargs:
        ptext = kwargs["p_list"]
        try:
            kwargs["p_list"] = tuple(float(x) for x in ptext.split(",") if x)
        except ValueError as exc:
            raise SpecError(f"bad --p list {ptext!r}: {exc}") from exc
    cfg = ExperimentConfig(**kwargs)
    if mode is not None:
        cfg.mode = _mode_tuple(mode)
    return cfg


def main(argv=None):
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        if args.subcommand == "list-gallery":
            sys.stdout.write(list_gallery())
            return 0
        if args.subcommand == "write-spec":
            params = {}
            for item in args.param:
                key, sep, val = item.partition("=")
                try:
                    params[key] = float(val)
                except ValueError:
                    sep = ""
                if not sep:
                    raise SpecError(f"parameter {item!r} is not KEY=NUMBER")
            text = dump_spec(build_gallery(args.name, **params))
            if args.out:
                with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
            return 0

        cfg = _config_from_args(args)
        bundle = run(cfg)
        _write_bundle(bundle, cfg)
        return 0 if bundle.ok else 1
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
