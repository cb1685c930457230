"""single_mode: the criterion-1 mode set, one mode at a time.

Every mode runs the layer-potential projector on both sides (each with
its residue/quadrature cross-check) and is verified against the
companion spectral split as a full matrix, for idempotence and for
complementarity.  About a hundred criterion-9 style Riesz projector and
fractional power calls ride along.  The work sits in symbols, contour
and projector, through per-mode Python and tiny LAPACK calls; kernels
and grassmann stay idle.
"""

import numpy as np

import calderon as cal
from calderon.errors import CalderonError
from calderon.projector import scan_defect_modes
from harness import Checks, NullTracer, Steps, lattice
from sweep_large import DIRAC_V

ORACLE_TOL = 1e-10  # max|R_layer - P_split| / (1 + max|P_split|)
IDEM_TOL = 1e-8
SUM_TOL = 1e-12
RIESZ_TOL = 1e-9
POWER_TOL = 1e-9

# (cutoff for the n=2 operators, cutoff for dirac3, Riesz calls, power matrices)
SIZES = {"full": (64, 24, 80, 10), "toy": (3, 2, 4, 1)}


def _retained_modes(spec, cutoff, tr):
    """``(key, mode)`` for every lattice mode that is not a defect."""
    with tr.span("projector.scan_defect_modes"):
        defects = set(scan_defect_modes(spec, cutoff))
    for mv in lattice(spec.n, cutoff):
        key = int(mv[0]) if spec.n == 2 else tuple(int(x) for x in mv)
        if key not in defects:
            yield key, mv


def _separable_group(eigs, anchor):
    """Largest eigenvalue group around ``eigs[anchor]`` that a circle
    separates from the rest with a margin of 0.05."""
    order = np.argsort(np.abs(eigs - eigs[anchor]))
    best = None
    for g in range(1, len(eigs)):
        group, rest = eigs[order[:g]], eigs[order[g:]]
        center = group.mean()
        if np.abs(rest - center).min() - np.abs(group - center).max() > 0.05:
            best = (group, rest)
    return best


def _verified_mode(spec, key, mv, tr, checks):
    """Both projectors of one mode, checked against the companion split as
    full matrices; returns the oracle gap, or None when a check failed."""
    label = f"{spec.name} mode {key}"
    try:
        with tr.span("symbols.mode_symbol"):
            sym = cal.mode_symbol(spec, mv)
        with tr.span("projector.calderon_projector"):
            rp = cal.calderon_projector(sym, "plus").matrix
        with tr.span("projector.calderon_projector"):
            rm = cal.calderon_projector(sym, "minus").matrix
        with tr.span("projector.companion_matrix"):
            comp = cal.companion_matrix(sym)
        with tr.span("contour.spectral_split"):
            oracle = cal.spectral_split(comp).projector
    except CalderonError as exc:
        checks.error(3, label, exc)
        return None
    gap = float(np.abs(rp - oracle).max() / (1.0 + np.abs(oracle).max()))
    ok = checks.check(gap <= ORACLE_TOL, f"{label}: oracle gap {gap:.2e}")
    ok &= checks.check(np.abs(rp @ rp - rp).max() <= IDEM_TOL, f"{label}: idempotence")
    ok &= checks.check(np.abs(rp + rm - np.eye(rp.shape[0])).max() <= SUM_TOL, f"{label}: complement")
    return gap if ok else None


def _verified_riesz(M, group, rest, tr, checks):
    try:
        with tr.span("contour.enclosing_circle"):
            circle = cal.enclosing_circle(group, excluded=rest)
        with tr.span("contour.riesz_projector"):
            P = cal.riesz_projector(M, circle)
    except CalderonError as exc:
        checks.error(3, "riesz_projector", exc)
        return
    checks.check(np.abs(P @ P - P).max() <= RIESZ_TOL, "riesz idempotence")
    checks.check(np.abs(P @ M - M @ P).max() <= RIESZ_TOL, "riesz commutation")
    checks.check(round(float(np.trace(P).real)) == len(group), "riesz rank")


def _verified_power(B, tr, checks):
    try:
        with tr.span("contour.matrix_power"):
            root = cal.matrix_power(B, 0.5)
        with tr.span("contour.matrix_power"):
            one = cal.matrix_power(B, 1.0)
    except CalderonError as exc:
        checks.error(2, "matrix_power", exc)
        return
    scale = 1.0 + np.abs(B).max()
    checks.check(np.abs(root @ root - B).max() <= POWER_TOL * scale, "square root squares back")
    checks.check(np.abs(one - B).max() <= POWER_TOL * scale, "first power is the identity map")


class Workload:
    name = "single_mode"
    min_passes = 3
    children_rss = False
    probe = (3, 1, 40)  # host probe: every, chunks, window (harness.Steps)

    def __init__(self, seed, scale, workdir):
        self.seed = seed
        self.cutoff2, self.cutoff3, self.n_riesz, self.n_power = SIZES[scale]

    def inputs(self, i):
        """Gallery parameters, Riesz and power test matrices of pass ``i``."""
        rng = np.random.default_rng([self.seed, i])
        mu_dbar = rng.uniform(0.2, 0.8)
        mu_twist, d = rng.uniform(0.2, 0.8), int(rng.integers(1, 4))
        mu_lap = rng.uniform(0.5, 2.0)
        v2, v3 = rng.uniform(*DIRAC_V, size=2)
        specs = [
            (cal.build_gallery("dbar", mu=mu_dbar), self.cutoff2),
            (cal.build_gallery("twisted_dbar", mu=mu_twist, d=d), self.cutoff2),
            (cal.build_gallery("laplace_mass", mu=mu_lap), self.cutoff2),
            (cal.build_gallery("dirac2", mu=1, v=v2), self.cutoff2),
            (cal.build_gallery("dirac3", mu=1, v=v3), self.cutoff3),
        ]
        riesz = []
        while len(riesz) < self.n_riesz:
            M = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            split = _separable_group(np.linalg.eigvals(M), len(riesz) % 6)
            if split is not None:
                riesz.append((M, *split))
        powers = [
            rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) + 6 * np.eye(4)
            for _ in range(self.n_power)
        ]
        return {"specs": specs, "riesz": riesz, "powers": powers}

    def warmup(self):
        toy = Workload(self.seed, "toy", None)
        steps = Steps()
        steps.new_pass()
        toy.run_pass(toy.inputs(0), NullTracer(), Checks(), steps)

    def run_pass(self, inp, tr, checks, res):
        gap_max = 0.0
        for s, (spec, cutoff) in enumerate(inp["specs"]):
            with res.timed(("scan", s)):
                modes = list(_retained_modes(spec, cutoff, tr))
            for key, mv in modes:
                with res.timed((s, key)), tr.span("bench.mode"):
                    gap = _verified_mode(spec, key, mv, tr, checks)
                if gap is not None:
                    gap_max = max(gap_max, gap)
                    res.request([(s, key)], 1)
        tr.maximum("projector.oracle_gap_max", gap_max)
        for n, (M, group, rest) in enumerate(inp["riesz"]):
            with res.timed(("riesz", n)):
                _verified_riesz(M, group, rest, tr, checks)
        for n, B in enumerate(inp["powers"]):
            with res.timed(("power", n)):
                _verified_power(B, tr, checks)

    def stages(self, inp, tr, checks):
        """Stages inside calderon_projector, on the same modes: the residue
        route alone, the roots, and the quadrature cross-check on the
        circle around the upper roots (with its node counts)."""
        route = tr.find("calderon.projector.layer_potential_blocks")
        roots_of = tr.find("calderon.contour.characteristic_roots")
        circle_of = tr.find("calderon.contour.enclosing_circle")
        quadrature = tr.find("calderon.contour.contour_quadrature")
        for spec, cutoff in inp["specs"]:
            powers = np.arange(2 * spec.k - 1)
            for key, mv in _retained_modes(spec, cutoff, tr):
                sym = cal.mode_symbol(spec, mv)
                try:
                    if route is not None:
                        with tr.span("projector.residue_route"):
                            route(sym, cross_check=False)
                    if roots_of is None:
                        continue
                    with tr.span("contour.characteristic_roots"):
                        roots = roots_of(sym)
                    upper = [r for r, _, half in roots if half == "upper"]
                    if not upper or circle_of is None or quadrature is None:
                        continue
                    circle = circle_of(upper, excluded=[r for r, _, half in roots if half != "upper"])

                    def integrand(z, sym=sym):
                        inv = np.linalg.inv(sym(z))
                        return (z[:, None] ** powers)[:, :, None, None] * inv[:, None, :, :]

                    with tr.span("contour.contour_quadrature"):
                        _, nodes = quadrature(integrand, circle)
                except CalderonError as exc:
                    checks.error(1, f"stages {spec.name} mode {key}", exc)
                    continue
                tr.add("contour.contour_quadrature.nodes", 2 * nodes - max(8, circle.nodes))
                tr.add("contour.contour_quadrature.final_nodes", nodes)
        return {}
