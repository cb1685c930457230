"""cli_pipelines: the command line as users run it.

Every command is a fresh ``calderon`` process (the console-script entry
point, ``calderon.cli:main``) that writes its report to a file.  A pass
runs compare, schatten and index on three seeded pairs, the twisted
dbar index family, one ellipticity scan and one projector dump.  It
reuses the kernels and grassmann code of sweep_large on mid-size stacks
and adds process start-up, ``symbols.read_spec`` and report
serialization, which the other workloads skip.
"""

import csv
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import calderon as cal
from calderon import cli
from calderon.errors import CalderonError
from calderon.projector import scan_defect_modes
from sweep_large import compare_stages, dirac_pair, kernel_stages

ENTRY = "import sys; from calderon.cli import main; sys.exit(main())"
TIMEOUT_S = 120
PROCESS_STARTS = 3

# criteria 5, 6 and 7: fitted tail slopes around -(q+1)/(n-1)
SLOPE_BANDS = {"dirac2": (-1.15, -0.85), "laplace_mass": (-2.2, -1.8), "dirac3": (-0.7, -0.3)}

# (operator, cutoff, subcommands); "schatten-csv" is schatten with --format csv
PAIRS = {
    "full": [
        ("dirac2", 4096, ("compare", "schatten", "index")),
        ("laplace_mass", 512, ("compare", "schatten-csv", "index")),
        ("dirac3", 48, ("compare", "schatten", "index")),
    ],
    "toy": [
        ("dirac2", 256, ("compare", "schatten")),
        ("laplace_mass", 64, ("schatten-csv",)),
        ("dirac3", 8, ("index",)),
    ],
}
TWISTS = {"full": ((1, 2, 3), 16), "toy": ((1,), 8)}


def _pair_params(name, rng):
    """Two parameter sets of one operator, at least 0.05 apart."""
    if name == "laplace_mass":
        while True:
            ma, mb = rng.uniform(0.5, 2.0, size=2)
            if abs(ma - mb) >= 0.05:
                return {"mu": float(ma)}, {"mu": float(mb)}
    va, vb = dirac_pair(rng)
    return {"mu": 1.0, "v": va}, {"mu": 1.0, "v": vb}


def _csv_slope(text):
    """Tail slope from ``j,s_j,bound`` rows over the middle decade, the
    window schatten_fit uses."""
    s = np.array([float(row["s_j"]) for row in csv.DictReader(io.StringIO(text))])
    if s.size < 50:
        return None
    mid = np.sqrt(s.size)
    lo = max(5, int(round(mid / np.sqrt(10.0))))
    hi = min(s.size, int(round(mid * np.sqrt(10.0))))
    j = np.arange(1, s.size + 1)
    return float(np.polyfit(np.log(j[lo - 1 : hi]), np.log(s[lo - 1 : hi]), 1)[0])


@dataclass
class Command:
    """One CLI invocation and what its report must show."""

    sub: str
    specs: tuple
    out: str
    cutoff: int = 16
    fmt: str = "json"
    mode: int | None = None
    modes: int = 0  # retained modes the report carries
    expect: dict = field(default_factory=dict)

    def argv(self):
        args = [self.sub]
        if len(self.specs) == 2:
            args += ["--spec-a", self.specs[0], "--spec-b", self.specs[1]]
        else:
            args += ["--spec", self.specs[0]]
        if self.mode is not None:
            args += ["--mode", str(self.mode)]
        return args + ["--cutoff", str(self.cutoff), "--format", self.fmt, "--out", self.out]

    def config(self, workdir):
        paths = [str(workdir / s) for s in self.specs]
        return cli.ExperimentConfig(
            subcommand=self.sub,
            spec=paths[0] if len(paths) == 1 else None,
            spec_a=paths[0] if len(paths) == 2 else None,
            spec_b=paths[1] if len(paths) == 2 else None,
            cutoff=self.cutoff,
            fmt=self.fmt,
            mode=None if self.mode is None else (self.mode,),
        )


class Workload:
    name = "cli_pipelines"
    min_passes = 2  # byte identity needs two passes of the same seed
    children_rss = True
    probe = (1, 200, 0)  # host probe: every, chunks, window (harness.Steps)

    def __init__(self, seed, scale, workdir):
        self.workdir = Path(workdir)
        src = str(Path(cal.__file__).resolve().parents[1])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        self.reference = None
        self.specs = {}
        rng = np.random.default_rng(seed)
        self.commands = []
        for name, cutoff, subs in PAIRS[scale]:
            pa, pb = _pair_params(name, rng)
            a = self._spec(f"{name}_a.spec", name, pa)
            b = self._spec(f"{name}_b.spec", name, pb)
            retained = self._retained(a, b, cutoff)
            for sub in subs:
                fmt = "csv" if sub == "schatten-csv" else "json"
                self.commands.append(Command(
                    sub.split("-")[0], (a, b), f"{name}_{sub}.{fmt}", cutoff, fmt, modes=retained,
                    expect={"band": SLOPE_BANDS[name], "index": 0},
                ))
        mu = float(rng.uniform(0.2, 0.8))
        dbar = self._spec("dbar.spec", "dbar", {"mu": mu})
        degrees, cutoff = TWISTS[scale]
        for d in degrees:
            tw = self._spec(f"twist{d}.spec", "twisted_dbar", {"mu": mu, "d": d})
            self.commands.append(Command("index", (tw, dbar), f"twist{d}_index.json", cutoff,
                                         modes=self._retained(tw, dbar, cutoff), expect={"index": d}))
        ell = "dirac2_a.spec"
        self.commands.append(Command("ellipticity", (ell,), "ellipticity.json", expect={
            "defects": scan_defect_modes(self.specs[ell], 64)}))
        lap_mu = float(rng.uniform(0.5, 2.0))
        lap = self._spec("laplace_proj.spec", "laplace_mass", {"mu": lap_mu})
        m = int(rng.integers(-64, 65))
        s = np.sqrt(m * m + lap_mu)
        closed = np.array([[0.5, -1 / (2 * s)], [-s / 2, 0.5]])
        self.commands.append(Command("projector", (lap,), "projector.json", mode=m, modes=1,
                                     expect={"matrix": closed}))

    def _spec(self, fname, gallery, params):
        spec = cal.build_gallery(gallery, **params)
        cal.save_spec(spec, self.workdir / fname)
        self.specs[fname] = spec
        return fname

    def _retained(self, a, b, cutoff):
        sa, sb = self.specs[a], self.specs[b]
        defects = set(scan_defect_modes(sa, cutoff)) | set(scan_defect_modes(sb, cutoff))
        return (2 * cutoff + 1) ** (sa.n - 1) - len(defects)

    def inputs(self, i):
        return self.commands

    def _launch(self, argv):
        return subprocess.run([sys.executable, "-c", ENTRY, *argv], cwd=self.workdir, env=self.env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=TIMEOUT_S)

    def warmup(self):
        """One fresh process: the only state that carries from one command
        to the next is on disk (bytecode caches, page cache)."""
        cmd = self.commands[-1]
        self._launch(["projector", "--spec", cmd.specs[0], "--out", "warmup.json"])

    def run_pass(self, cmds, tr, checks, res):
        """One request: the pipeline's reports are verified as a set, so
        every mode waits for the whole pass."""
        digests = {}
        verified = []
        for cmd in cmds:
            with res.timed(cmd.out):
                if self._run_command(cmd, digests, tr, checks):
                    verified.append(cmd)
        res.request([cmd.out for cmd in verified], sum(cmd.modes for cmd in verified))
        if self.reference is None:
            self.reference = digests

    def _run_command(self, cmd, digests, tr, checks):
        with tr.span(f"cli.process.{cmd.sub}"):
            proc = self._launch(cmd.argv())
        failed = checks.failed
        path = self.workdir / cmd.out
        checks.check(proc.returncode == 0, f"{cmd.out}: exit code {proc.returncode}")
        if not checks.check(path.exists(), f"{cmd.out}: no report"):
            return False
        data = path.read_bytes()
        path.unlink()
        tr.add("cli.report_bytes", len(data))
        digests[cmd.out] = hashlib.sha256(data).hexdigest()
        self._check_report(cmd, data.decode("utf-8"), tr, checks)
        if self.reference is not None:
            checks.check(digests[cmd.out] == self.reference.get(cmd.out),
                         f"{cmd.out}: report differs from the first pass")
        return checks.failed == failed

    def _check_report(self, cmd, text, tr, checks):
        what = cmd.out
        if cmd.fmt == "csv":
            slope = _csv_slope(text)
            lo, hi = cmd.expect["band"]
            checks.check(slope is not None and lo <= slope <= hi, f"{what}: csv slope {slope}")
            return
        rep = json.loads(text)["reports"]
        if cmd.sub == "compare":
            svals = np.asarray(rep["compare"]["svals"], dtype=float)
            ok = len(rep["compare"]["modes"]) == cmd.modes
            ok = ok and bool(((svals >= 0) & (svals <= 1 + 1e-12)).all())
            checks.check(ok, f"{what}: compared modes and singular values")
        elif cmd.sub == "schatten":
            slope = rep["schatten"]["slope"]
            lo, hi = cmd.expect["band"]
            in_band = isinstance(slope, float) and lo <= slope <= hi
            checks.check(in_band, f"{what}: slope {slope}")
            if in_band:
                tr.maximum("grassmann.slope_dev", abs(slope - rep["schatten"]["target_exponent"]))
        elif cmd.sub == "index":
            idx = rep["index"]
            checks.check(idx["index"] == cmd.expect["index"] and idx["tail_safe"],
                         f"{what}: index {idx['index']}, tail safe {idx['tail_safe']}")
        elif cmd.sub == "ellipticity":
            ell = rep["ellipticity"]
            checks.check(ell["passed"] and ell["defect_modes"] == cmd.expect["defects"],
                         f"{what}: passed {ell['passed']}, defects {ell['defect_modes']}")
        elif cmd.sub == "projector":
            got = np.array(rep["projector"]["re"]) + 1j * np.array(rep["projector"]["im"])
            checks.check(np.abs(got - cmd.expect["matrix"]).max() <= 1e-10,
                         f"{what}: closed-form projector")

    def stages(self, cmds, tr, checks):
        """In-process replay of each command through the public calls it
        makes: spec reading, ``cli.run`` and serialization, then the
        grassmann and kernel stages of the pair commands."""
        starts = []
        for _ in range(PROCESS_STARTS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import calderon.cli"], env=self.env,
                           check=True, timeout=TIMEOUT_S)
            starts.append(time.perf_counter() - t0)
        for cmd in cmds:
            try:
                self._replay(cmd, tr)
            except CalderonError as exc:
                checks.error(1, f"stages {cmd.out}", exc)
        return {"cli.process_start_s": statistics.median(starts)}

    def _replay(self, cmd, tr):
        read_spec = tr.find("calderon.symbols.read_spec")
        run = tr.find("calderon.cli.run")
        writer = "emit_csv" if cmd.fmt == "csv" else "bundle_json"
        serialize = tr.find(f"calderon.cli.{writer}")
        if read_spec is None:
            return
        specs = []
        for fname in cmd.specs:
            with tr.span("symbols.read_spec"):
                specs.append(read_spec(self.workdir / fname))
        if run is not None:
            with tr.span("cli.run"):
                bundle = run(cmd.config(self.workdir))
            if serialize is not None:
                sink = (io.StringIO(),) if cmd.fmt == "csv" else ()
                with tr.span(f"cli.{writer}"):
                    serialize(bundle, *sink)
        if len(specs) != 2:
            return
        sa, sb = specs
        with tr.span("grassmann.assemble_point"):
            pa = cal.assemble_point(sa, cmd.cutoff)
        with tr.span("grassmann.assemble_point"):
            pb = cal.assemble_point(sb, cmd.cutoff)
        if cmd.sub == "index":
            with tr.span("grassmann.fredholm_index"):
                cal.fredholm_index(pa, pb)
        else:
            with tr.span("grassmann.compare_points"):
                rep = cal.compare_points(pa, pb)
            if cmd.sub == "schatten":
                q = cal.agree_up_to_order(sa, sb)
                with tr.span("grassmann.schatten_fit"):
                    cal.schatten_fit(rep, n=sa.n, q=sa.k if q == "full" else q)
        tr.add("grassmann.modes_retained", cmd.modes)
        tr.add("grassmann.lattice_modes", (2 * cmd.cutoff + 1) ** (sa.n - 1))
        kernel_stages(tr, sa, cmd.cutoff)
        kernel_stages(tr, sb, cmd.cutoff)
        compare_stages(tr, pa, pb)
