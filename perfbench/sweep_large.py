"""sweep_large: one seeded dirac3 pair at cutoff 128 through the library.

A pass assembles both Grassmannian points (66,049 lattice modes each),
compares them, fits the Schatten tail and counts the Fredholm index
from the same comparison.  The work sits in projector.companion_stack,
the _kernels sweeps at large N and grassmann's per-mode bookkeeping;
contour stays idle.  The stacks are far larger than L2, so batching
that adds temporaries shows in peak_rss_mb.
"""

import numpy as np

import calderon as cal
from calderon.errors import CalderonError
from harness import Checks, NullTracer, Steps, lattice

SLOPE_BAND = (-0.7, -0.3)  # criterion 7: n = 3, q = 0, target -1/2
CUTOFF = {"full": 128, "toy": 8}


# Shifts in (0, 0.014] stall the sign iteration at modes (+-1, 0), where
# |Re lambda| = v: a near-defect the library does not screen out yet.
DIRAC_V = (0.05, 0.5)


def dirac_pair(rng):
    """Two dirac shifts in DIRAC_V, at least 0.05 apart."""
    while True:
        va, vb = rng.uniform(*DIRAC_V, size=2)
        if abs(va - vb) >= 0.05:
            return float(va), float(vb)


def check_point(point, lattice_size, checks, label):
    """Bookkeeping: every lattice mode is retained or listed as a defect,
    and each retained dirac mode has exactly one decaying direction."""
    ok = checks.check(len(point.modes) + len(point.excluded) == lattice_size, f"{label}: mode bookkeeping")
    return ok & checks.check(bool((point.dims == 1).all()), f"{label}: frame dimensions")


def common_modes(a, b):
    """Indices of the modes retained in both points (lattice keys)."""
    width = 2 * a.cutoff + 1
    place = width ** np.arange(a.modes.shape[1])[::-1]
    keys_a = ((a.modes + a.cutoff) * place).sum(axis=1)
    keys_b = ((b.modes + b.cutoff) * place).sum(axis=1)
    _, ia, ib = np.intersect1d(keys_a, keys_b, return_indices=True)
    return ia, ib


def check_compare(rep, a, b, checks, label):
    svals = np.asarray(rep.svals)
    ok = len(rep.modes) == len(common_modes(a, b)[0])
    ok = ok and bool(((svals >= 0) & (svals <= 1 + 1e-12)).all())
    return checks.check(ok, f"{label}: compared modes and singular values")


def _sweep(tr, name, *args):
    """One ``calderon._kernels`` sweep as a stage, with its work counts;
    None when the sweep no longer exists."""
    fn = tr.find(f"calderon._kernels.{name}")
    if fn is None:
        return None
    with tr.span(f"kernels.{name}"):
        out = fn(*args)
    tr.add("kernels.modes", args[0].shape[0])
    tr.add("kernels.bytes_computed", sum(a.nbytes for a in args) + out.nbytes)
    return out


def kernel_stages(tr, spec, cutoff, alpha=0.5):
    """The stages of assemble_point, one public call each: companion
    stack, eigenvalue sweep, sign-iteration projector, range and
    weighted range."""
    stack_of = tr.find("calderon.projector.companion_stack")
    if stack_of is None:
        return
    modes = lattice(spec.n, cutoff)
    with tr.span("projector.companion_stack"):
        comp = stack_of(spec, modes)
    lam = _sweep(tr, "eigvals_sweep", comp)
    if lam is None:
        return
    keep = np.abs(lam.real).min(axis=1) > 1e-10 * (1.0 + np.linalg.norm(modes, axis=1))
    dims = (lam[keep].real < 0).sum(axis=1).astype(np.int64)
    proj = _sweep(tr, "stable_projector_sweep", comp[keep])
    raw = None if proj is None else _sweep(tr, "orthonormal_range_sweep", proj, dims)
    if raw is None:
        return
    msq = (modes[keep].astype(float) ** 2).sum(axis=1)
    exps = np.array([spec.k - 1 + alpha - j for j in range(spec.k)])
    w = np.repeat((1.0 + msq)[:, None] ** exps[None, :], spec.r, axis=1)
    _sweep(tr, "orthonormal_range_sweep", np.sqrt(w)[:, :, None] * raw, dims)


def compare_stages(tr, a, b):
    """The three singular-value sweeps inside compare_points."""
    ia, ib = common_modes(a, b)
    QA, QB = a.ortho[ia], b.ortho[ib]
    cross = np.einsum("nij,nik->njk", QA.conj(), QB)
    comp_a = QA - QB @ np.conj(np.swapaxes(cross, 1, 2))
    diff = QA @ np.conj(np.swapaxes(QA, 1, 2)) - QB @ np.conj(np.swapaxes(QB, 1, 2))
    for stack in (comp_a, diff, cross):
        _sweep(tr, "svdvals_sweep", stack)


class Workload:
    name = "sweep_large"
    min_passes = 3
    children_rss = False
    probe = (1, 200, 0)  # host probe: every, chunks, window (harness.Steps)

    def __init__(self, seed, scale, workdir):
        self.seed = seed
        self.cutoff = CUTOFF[scale]
        self.last = None

    def inputs(self, i):
        va, vb = dirac_pair(np.random.default_rng([self.seed, i]))
        return {
            "a": cal.build_gallery("dirac3", mu=1, v=va),
            "b": cal.build_gallery("dirac3", mu=1, v=vb),
        }

    def warmup(self):
        toy = Workload(self.seed, "toy", None)
        steps = Steps()
        steps.new_pass()
        toy.run_pass(toy.inputs(0), NullTracer(), Checks(), steps)

    def run_pass(self, inp, tr, checks, res):
        lattice_size = (2 * self.cutoff + 1) ** 2
        try:
            with res.timed("assemble a"), tr.span("grassmann.assemble_point"):
                a = cal.assemble_point(inp["a"], self.cutoff)
            with res.timed("assemble b"), tr.span("grassmann.assemble_point"):
                b = cal.assemble_point(inp["b"], self.cutoff)
            with res.timed("compare"):
                with tr.span("grassmann.compare_points"):
                    rep = cal.compare_points(a, b)
                ok = check_point(a, lattice_size, checks, "point a")
                ok &= check_point(b, lattice_size, checks, "point b")
                ok &= check_compare(rep, a, b, checks, "dirac3 pair")
            with res.timed("schatten"):
                with tr.span("grassmann.schatten_fit"):
                    fit = cal.schatten_fit(rep, n=3, q=0, p_list=(2.0,))
                in_band = fit.slope is not None and SLOPE_BAND[0] <= fit.slope <= SLOPE_BAND[1]
                ok &= checks.check(in_band, f"schatten slope {fit.slope} outside {SLOPE_BAND}")
            with res.timed("index"):
                with tr.span("grassmann.fredholm_index"):
                    idx = cal.fredholm_index(a, b, rep=rep)
                ok &= checks.check(idx.index == 0 and idx.tail_safe,
                                   f"index {idx.index}, tail safe {idx.tail_safe}")
        except CalderonError as exc:
            checks.error(1, "sweep_large pass", exc)
            return
        if in_band:
            tr.maximum("grassmann.slope_dev", abs(fit.slope - fit.target_exponent))
        tr.add("grassmann.modes_retained", len(rep.modes))
        tr.add("grassmann.lattice_modes", lattice_size)
        if tr.enabled:
            self.last = (a, b)
        if ok:
            res.request(("assemble a", "assemble b", "compare", "schatten", "index"), len(rep.modes))

    def stages(self, inp, tr, checks):
        for spec in (inp["a"], inp["b"]):
            kernel_stages(tr, spec, self.cutoff)
        if self.last is not None:
            compare_stages(tr, *self.last)
        return {}
