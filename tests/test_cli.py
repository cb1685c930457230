import io
import json
from pathlib import Path

import numpy as np
import pytest

from calderon.cli import ExperimentConfig, _build_parser, _config_from_args, main

GOLDEN_PROJECTOR = {
    "alpha": 0.5,
    "kind": "Rplus",
    "m": 0,
    "re": [[0.5, -0.5], [-0.5, 0.5]],
    "im": [[0.0, 0.0], [0.0, 0.0]],
}


@pytest.fixture()
def specs(tmp_path):
    paths = {}
    for name, params in [
        ("dbar", ["mu=0.5"]),
        ("twist3", ["mu=0.5", "d=3"]),
        ("laplace1", ["mu=1"]),
        ("laplace2", ["mu=2"]),
    ]:
        gallery = {"dbar": "dbar", "twist3": "twisted_dbar", "laplace1": "laplace_mass", "laplace2": "laplace_mass"}[name]
        out = tmp_path / f"{name}.spec"
        args = ["write-spec", gallery, "--out", str(out)]
        for p in params:
            args += ["-p", p]
        assert main(args) == 0
        paths[name] = str(out)
    return paths


def test_list_gallery_is_deterministic(capsys):
    assert main(["list-gallery"]) == 0
    first = capsys.readouterr().out
    assert main(["list-gallery"]) == 0
    assert capsys.readouterr().out == first
    for name in ("dbar", "twisted_dbar", "laplace_mass", "dirac2", "dirac3"):
        assert name in first


def test_write_spec_round_trips(specs):
    from calderon.symbols import read_spec

    spec = read_spec(specs["twist3"])
    assert spec.name == "twisted_dbar"
    assert spec.terms[(0, (0,))][0, 0] == 3.5


def test_projector_dump_matches_golden(specs, tmp_path):
    out = tmp_path / "proj.json"
    code = main(
        ["projector", "--spec", specs["laplace1"], "--mode", "0", "--side", "plus",
         "--out", str(out)]
    )
    assert code == 0
    got = json.loads(out.read_text())["reports"]["projector"]
    assert got["kind"] == GOLDEN_PROJECTOR["kind"]
    assert got["m"] == GOLDEN_PROJECTOR["m"]
    assert got["alpha"] == GOLDEN_PROJECTOR["alpha"]
    for key in ("re", "im"):
        assert np.abs(np.array(got[key]) - np.array(GOLDEN_PROJECTOR[key])).max() < 1e-10


def test_projector_dump_weighted_kind(specs, tmp_path):
    out = tmp_path / "proj.json"
    code = main(
        ["projector", "--spec", specs["laplace2"], "--mode", "2", "--kind", "P",
         "--alpha", "0.5", "--out", str(out)]
    )
    assert code == 0
    got = json.loads(out.read_text())["reports"]["projector"]
    assert got["kind"] == "Pplus"
    P = np.array(got["re"]) + 1j * np.array(got["im"])
    assert np.abs(P @ P - P).max() < 1e-9


def test_reports_are_byte_identical_across_runs(specs, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["compare", "--spec-a", specs["dbar"], "--spec-b", specs["twist3"],
            "--cutoff", "16"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_compare_report_content(specs, tmp_path):
    out = tmp_path / "cmp.json"
    assert main(
        ["compare", "--spec-a", specs["dbar"], "--spec-b", specs["twist3"],
         "--cutoff", "16", "--out", str(out)]
    ) == 0
    rep = json.loads(out.read_text())["reports"]["compare"]
    svals = rep["svals"]
    assert sum(1 for s in svals if s > 0.5) == 6
    assert all(s < 1e-12 for s in svals[6:])
    assert rep["agreement"] == 0


def test_index_subcommand(specs, tmp_path):
    out = tmp_path / "idx.json"
    code = main(
        ["index", "--spec-a", specs["twist3"], "--spec-b", specs["dbar"],
         "--cutoff", "16", "--tol", "1e-6", "--out", str(out)]
    )
    assert code == 0
    rep = json.loads(out.read_text())["reports"]["index"]
    assert rep["index"] == 3
    assert rep["tail_safe"] is True
    assert rep["nonzero_modes"] == [
        {"m": 1, "ker": 1, "coker": 0},
        {"m": 2, "ker": 1, "coker": 0},
        {"m": 3, "ker": 1, "coker": 0},
    ]


def test_schatten_subcommand_and_csv(specs, tmp_path):
    out = tmp_path / "fit.json"
    assert main(
        ["schatten", "--spec-a", specs["laplace1"], "--spec-b", specs["laplace2"],
         "--cutoff", "64", "--p", "1,2", "--out", str(out)]
    ) == 0
    rep = json.loads(out.read_text())["reports"]["schatten"]
    assert rep["q"] == 1
    assert rep["finite_rank"] is None
    assert -2.3 < rep["slope"] < -1.5
    assert rep["bound_holds"] is True

    csv_out = tmp_path / "fit.csv"
    assert main(
        ["schatten", "--spec-a", specs["dbar"], "--spec-b", specs["twist3"],
         "--cutoff", "16", "--format", "csv", "--out", str(csv_out)]
    ) == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "j,s_j,bound"
    assert len(lines) == 7  # six unit singular values, zeros omitted
    assert lines[1].startswith("1,")


def test_csv_header_only_for_identical_specs(specs, tmp_path):
    out = tmp_path / "zero.csv"
    assert main(
        ["compare", "--spec-a", specs["dbar"], "--spec-b", specs["dbar"],
         "--cutoff", "16", "--format", "csv", "--out", str(out)]
    ) == 0
    assert out.read_text() == "j,s_j,bound\n"


def test_ellipticity_subcommand(specs, tmp_path):
    out = tmp_path / "ell.json"
    assert main(["ellipticity", "--spec", specs["laplace1"], "--out", str(out)]) == 0
    rep = json.loads(out.read_text())["reports"]["ellipticity"]
    assert rep["passed"] is True
    assert rep["defect_modes"] == []


def test_parse_error_gives_machine_readable_record(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text("not json at all")
    code = main(["ellipticity", "--spec", str(bad)])
    assert code == 2
    record = json.loads(capsys.readouterr().out)
    assert record["error"]["type"] == "ParseError"


@pytest.mark.parametrize(
    "argv",
    [
        ["projector", "--spec", "SPEC", "--mode", "1.5"],
        ["projector", "--spec", "SPEC", "--mode", "x"],
        ["write-spec", "dbar", "-p", "mu=abc"],
        ["write-spec", "dbar", "-p", "mu"],
    ],
)
def test_malformed_numbers_give_a_spec_error_record(specs, capsys, argv):
    argv = [specs["laplace1"] if a == "SPEC" else a for a in argv]
    assert main(argv) == 2
    record = json.loads(capsys.readouterr().out)
    assert record["error"]["type"] == "SpecError"


@pytest.mark.parametrize(
    "sub, option, message",
    [
        ("index", "--alpha=nan", "alpha must be finite"),
        ("index", "--alpha=inf", "alpha must be finite"),
        ("index", "--tol=nan", "tol must be finite"),
        ("index", "--tol=inf", "tol must be finite"),
        ("index", "--tol=0", "tol must be finite"),
        ("index", "--tol=-1", "tol must be finite"),
        ("index", "--tol=0.2", "tol must be finite"),
        ("index", "--tol=1", "tol must be finite"),
        ("schatten", "--p=nan,-1", "Schatten orders must be finite"),
        ("compare", "--alpha=inf", "alpha must be finite"),
        # subcommands that never read the value reject it too
        ("ellipticity", "--tol=nan", "tol must be finite"),
        ("ellipticity", "--tol=0.5", "tol must be finite"),
        ("projector", "--p=inf", "Schatten orders must be finite"),
        # past the float range: the lattice check must not convert it
        pytest.param("index", f"--cutoff={10**400}", "cutoff must be", id="index-cutoff=10**400"),
    ],
)
def test_out_of_range_numbers_give_a_spec_error_record(specs, capsys, sub, option, message):
    if sub in ("ellipticity", "projector"):
        argv = [sub, "--spec", specs["dbar"], option]
    else:
        argv = [sub, "--spec-a", specs["twist3"], "--spec-b", specs["dbar"], "--cutoff", "8", option]
    assert main(argv) == 2
    record = json.loads(capsys.readouterr().out)
    assert record["error"]["type"] == "SpecError"
    assert message in record["error"]["message"]


def test_missing_file_exit_code(capsys):
    assert main(["ellipticity", "--spec", "does-not-exist.spec"]) == 2
    record = json.loads(capsys.readouterr().out)
    assert "does-not-exist" in record["error"]["message"]


def test_numerical_error_exit_code(tmp_path, capsys):
    assert main(["write-spec", "dbar", "-p", "mu=0", "--out", str(tmp_path / "d0.spec")]) == 0
    code = main(
        ["projector", "--spec", str(tmp_path / "d0.spec"), "--mode", "0"]
    )
    assert code == 3
    record = json.loads(capsys.readouterr().out)
    assert record["error"]["type"] == "DefectMode"


def test_acceptance_subcommand_exit_code(tmp_path):
    out = tmp_path / "acc.json"
    assert main(["acceptance", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["ok"] is True
    table = payload["reports"]["acceptance"]["criteria"]
    assert len(table) == 10 and all(row["passed"] for row in table)
    assert "growth_fit" in payload["reports"]


def test_only_index_reads_the_cosines(tmp_path, monkeypatch):
    from calderon.cli import run
    from test_grassmann import counted_svdvals

    paths = []
    for v in ("0.3", "0"):
        out = tmp_path / f"dirac2_v{v}.spec"
        assert main(["write-spec", "dirac2", "-p", "mu=1", "-p", f"v={v}", "--out", str(out)]) == 0
        paths.append(str(out))
    calls = counted_svdvals(monkeypatch)
    for sub, want in (("compare", 1), ("schatten", 1), ("index", 2)):
        calls.clear()
        run(ExperimentConfig(sub, spec_a=paths[0], spec_b=paths[1], cutoff=64))
        assert len(calls) == want, sub


def test_timing_flag_controls_payload(specs, tmp_path):
    out = tmp_path / "t.json"
    args = ["ellipticity", "--spec", specs["laplace1"], "--out", str(out)]
    assert main(args) == 0
    assert "timings" not in json.loads(out.read_text())
    assert main(args + ["--timing"]) == 0
    assert "timings" in json.loads(out.read_text())


def _plain(obj):
    """Reference walk to plain Python for ``json.dumps``: numpy arrays
    and scalars by ``tolist()`` or their Python type, NaN as None."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return None if np.isnan(obj) else float(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


def _reference_json(payload):
    return json.dumps(_plain(payload), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("shape", [(0,), (5,), (3, 4)])
def test_writer_array_fast_path_matches_json_dumps(shape):
    from calderon.cli import _json_text

    size = int(np.prod(shape))
    pool = np.array([np.nan, np.inf, -np.inf, -0.0, 1.5, 7.0, -2.0, np.nan, 0.1])
    arrays = [
        np.resize(pool, size).reshape(shape),
        np.resize(pool, size).reshape(shape).astype(np.float32),
        np.resize(pool, size).reshape(shape).astype(np.longdouble),
        np.arange(-3, size - 3).reshape(shape),
        np.arange(size, dtype=np.uint8).reshape(shape),
        (np.arange(size) % 3 == 0).reshape(shape),
    ]
    for arr in arrays:
        flat = arr.ravel()
        rows = [flat[:k] for k in range(min(size, 4) + 1)]  # ragged, one dtype
        got = _json_text({"a": arr, "list": [arr], "rows": rows}) + "\n"
        plain = {"a": arr.tolist(), "list": [arr.tolist()], "rows": [r.tolist() for r in rows]}
        assert got == json.dumps(_plain(plain), sort_keys=True, indent=2) + "\n"

    # one payload whose arrays share values across keys: each distinct
    # float64 bit pattern is formatted once, and the memo keeps 0.0 apart
    # from -0.0 and prints every NaN, whatever its payload bits, as null
    nans = np.array([0x7FF8000000000001, 0xFFF8000000000000 - 2**64], dtype=np.int64)
    base = np.concatenate([np.array([0.0, 0.1, 1.5, -2.0, np.inf, 1e-300]), nans.view(np.float64)])
    ints = np.arange(-3, 9).reshape(4, 3)
    shared = {
        "a": base,
        "b": np.concatenate([[-0.0, np.nan], base[::-1]]),
        "c": base.astype(np.float32),
        "d": np.repeat(base, 2)[::-1],
        "e": np.stack([base, -base]),
        "f": ints,
        "g": [base[:0], base[:2], base[:0], base[2:5]],
        "h": [base[:1], base[3:4], base[7:8]],
        "i": [base[:0], base[:0]],
        "j": np.zeros((2, 0)),
        "k": 0.1,
    }
    plain = {k: [r.tolist() for r in v] if isinstance(v, list) else v for k, v in shared.items()}
    assert _json_text(shared) == json.dumps(_plain(plain), sort_keys=True, indent=2)


def test_csv_rows_match_the_per_row_writer():
    from calderon.cli import ReportBundle, emit_csv

    def per_row(svals, const, target):  # the writer's former loop
        lines = ["j,s_j,bound\n"]
        for j, s in enumerate(svals, start=1):
            if s <= 0.0:
                continue
            bound = "" if (target is None or const is None) else repr(float(const * j**target))
            lines.append(f"{j},{float(s)!r},{bound}\n")
        return "".join(lines)

    svals = np.array([1.0, 0.7, 0.7, np.nan, 0.3, 1e-17, 0.0, -0.0, 0.3, -1e-3, 2.5e-300])
    for const, target in ((4.67, -0.5), (None, -1.0), (1.25, None)):
        rep = {"svals": svals, "bound_constant": const, "target_exponent": target}
        fh = io.StringIO()
        emit_csv(ReportBundle({}, {}, {"schatten": rep}, "v", True), fh)
        assert fh.getvalue() == per_row(svals, const, target)


def _bundles(specs):
    """One bundle of every subcommand and kind, with arrays as run() returns them."""
    from calderon.cli import run

    pair = dict(spec_a=specs["dbar"], spec_b=specs["twist3"], cutoff=16)
    laplace = dict(spec_a=specs["laplace1"], spec_b=specs["laplace2"], cutoff=32)
    configs = [
        ExperimentConfig("compare", **pair),
        ExperimentConfig("compare", **laplace),
        ExperimentConfig("schatten", **laplace),
        ExperimentConfig("schatten", **pair),
        ExperimentConfig("index", **pair),
        ExperimentConfig("ellipticity", spec=specs["laplace1"]),
        ExperimentConfig("projector", spec=specs["laplace2"], mode=(2,), kind="R"),
        ExperimentConfig("projector", spec=specs["laplace2"], mode=(2,), kind="P", side="minus"),
        ExperimentConfig("acceptance"),
    ]
    return [run(cfg) for cfg in configs]


def test_writer_matches_json_dumps_on_every_subcommand(specs):
    from calderon.cli import bundle_json

    bundles = _bundles(specs)
    # a degenerate block has a NaN growth slope; the gallery fit has none today
    slopes = np.array(bundles[-1].reports["growth_fit"]["slopes"], dtype=float)
    slopes[0, 1] = np.nan
    bundles[-1].reports["growth_fit"]["slopes"] = slopes
    bundles[0].config["spec_a"] = "caf\u00e9/\u2202\u03a9 \"quoted\"\tspec"
    for bundle in bundles:
        for timing in (False, True):
            payload = {"config": bundle.config, "reports": bundle.reports,
                       "version": bundle.version, "ok": bundle.ok}
            if timing:
                payload["timings"] = bundle.timings
            assert bundle_json(bundle, include_timing=timing) == _reference_json(payload)


@pytest.mark.parametrize("sub", ["compare", "index"])
def test_reports_match_the_golden_files(tmp_path, monkeypatch, sub):
    golden = Path(__file__).parent / "golden" / f"{sub}_dbar_twist3_c16.json"
    monkeypatch.chdir(tmp_path)
    assert main(["write-spec", "dbar", "-p", "mu=0.5", "--out", "dbar.spec"]) == 0
    assert main(["write-spec", "twisted_dbar", "-p", "mu=0.5", "-p", "d=3",
                 "--out", "twist3.spec"]) == 0
    assert main([sub, "--spec-a", "dbar.spec", "--spec-b", "twist3.spec", "--cutoff", "16",
                 "--out", "report.json"]) == 0
    assert (tmp_path / "report.json").read_bytes() == golden.read_bytes()


# weighted projector reports: (gallery operator, projector options) per golden file
P_GOLDEN = {
    "projector_P_laplace2_m3": (["laplace_mass", "-p", "mu=2"], ["--mode", "3"]),
    "projector_P_dirac3_m2_-3_minus_a1.7": (
        ["dirac3", "-p", "mu=1", "-p", "v=0.3"],
        ["--mode", "2,-3", "--side", "minus", "--alpha", "1.7"],
    ),
}


@pytest.mark.parametrize("name", sorted(P_GOLDEN))
def test_weighted_projector_reports_match_the_golden_files(tmp_path, monkeypatch, name):
    golden = Path(__file__).parent / "golden" / f"{name}.json"
    gallery, options = P_GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    assert main(["write-spec", *gallery, "--out", "op.spec"]) == 0
    assert main(["projector", "--spec", "op.spec", "--kind", "P", *options,
                 "--out", "report.json"]) == 0
    assert (tmp_path / "report.json").read_bytes() == golden.read_bytes()


def test_non_finite_spec_coefficient_gives_a_spec_error_record(specs, tmp_path, capsys):
    doc = json.loads(Path(specs["dbar"]).read_text())
    doc["terms"][0]["re"][0][0] = float("nan")
    bad = tmp_path / "nan.spec"
    bad.write_text(json.dumps(doc))
    assert main(["compare", "--spec-a", str(bad), "--spec-b", specs["dbar"]]) == 2
    record = json.loads(capsys.readouterr().out)
    assert record["error"]["type"] == "SpecError"
    assert "not finite" in record["error"]["message"]


def _parsed_config(argv):
    return _config_from_args(_build_parser().parse_args(argv))


def test_config_defaults_are_the_only_defaults():
    pair = {"spec_a": "a.spec", "spec_b": "b.spec"}
    pair_argv = ["--spec-a", "a.spec", "--spec-b", "b.spec"]
    minimal = [
        (["ellipticity", "--spec", "a.spec"], {"spec": "a.spec"}),
        (["projector", "--spec", "a.spec"], {"spec": "a.spec"}),
        (["compare", *pair_argv], pair),
        (["schatten", *pair_argv], pair),
        (["index", *pair_argv], pair),
        (["acceptance"], {}),
    ]
    for argv, required in minimal:
        assert _parsed_config(argv) == ExperimentConfig(subcommand=argv[0], **required), argv
    # every option lands in the config field of its name
    argv = ["index", *pair_argv, "--cutoff", "8", "--alpha", "0.7", "--tol", "1e-3",
            "--p", "1,3", "--out", "r.csv", "--format", "csv", "--timing"]
    assert _parsed_config(argv) == ExperimentConfig(
        subcommand="index", cutoff=8, alpha=0.7, tol=1e-3, p_list=(1.0, 3.0), out="r.csv",
        fmt="csv", include_timing=True, **pair,
    )


def test_bench_subcommand_is_gone(capsys):
    assert main(["bench"]) == 2
