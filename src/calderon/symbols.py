"""Constant-coefficient elliptic operators on the model half-cylinder.

An operator lives on ``T^{n-1} x [0, inf)`` and is stored as a table of
matrix coefficients ``c[q, beta]`` multiplying ``d_n^q d_tau^beta``.
Because the coefficients are constant, each tangential Fourier mode ``m``
decouples into an ordinary differential system in the normal variable,
and everything downstream reduces to finite matrix algebra per mode.
"""

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import ParseError, SpecError

_PAULI = {
    1: np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    2: np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    3: np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

GALLERY_NAMES = ("dbar", "twisted_dbar", "laplace_mass", "dirac2", "dirac3", "custom")


@dataclass
class OperatorSpec:
    """Constant-coefficient operator of order ``k`` on rank-``r`` sections.

    ``terms`` maps ``(q, beta)`` with ``q + |beta| <= k`` to an ``r x r``
    complex matrix; ``beta`` is a tangential multi-index of length
    ``n - 1``.  The coefficient of ``d_n^k`` must be present and
    invertible.
    """

    name: str
    n: int
    r: int
    k: int
    terms: dict
    agmon_hint: float | None = None
    chiral_blocks: tuple | None = None

    def __post_init__(self):
        if self.n < 2:
            raise SpecError("total dimension n must be at least 2")
        if self.r < 1 or self.k < 1:
            raise SpecError("rank and order must be positive")
        clean = {}
        for key, mat in self.terms.items():
            q, beta = key
            beta = tuple(int(b) for b in beta)
            if len(beta) != self.n - 1:
                raise SpecError(f"multi-index {beta} has length != n-1")
            if any(b < 0 for b in beta) or q < 0 or q + sum(beta) > self.k:
                raise SpecError(f"term ({q}, {beta}) violates q + |beta| <= k")
            mat = np.asarray(mat, dtype=complex)
            if mat.shape != (self.r, self.r):
                raise SpecError(f"coefficient for ({q}, {beta}) is not {self.r}x{self.r}")
            if not np.isfinite(mat).all():
                raise SpecError(f"coefficient for ({q}, {beta}) is not finite")
            clean[(int(q), beta)] = mat
        self.terms = clean
        top = clean.get((self.k, (0,) * (self.n - 1)))
        if top is None:
            raise SpecError("missing coefficient of d_n^k")
        if abs(np.linalg.det(top)) < 1e-300:
            raise SpecError("coefficient of d_n^k is singular")
        if self.chiral_blocks is not None:
            left, right = self.chiral_blocks
            left, right = tuple(left), tuple(right)
            if sorted(left + right) != list(range(self.r)):
                raise SpecError("chiral blocks must partition the component indices")
            self.chiral_blocks = (left, right)


@dataclass(frozen=True)
class ModeSymbol:
    """One tangential mode of an operator: matrices A_q(m), q = 0..k.

    ``A[q] = sum_beta c[q, beta] (i m)^beta``; the top matrix ``A[k]``
    equals the d_n^k coefficient for every mode.  ``A`` is a read-only
    copy, so projectors computed from it stay valid for the symbol's
    lifetime.
    """

    spec: OperatorSpec
    m: tuple
    A: np.ndarray  # (k+1, r, r)
    # the plus-side projector matrix, filled by projector.calderon_projector
    _routes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        A = np.array(self.A, dtype=complex)
        A.setflags(write=False)
        object.__setattr__(self, "A", A)

    @functools.cached_property
    def _comp(self):
        """The block companion matrix, built on first use and kept
        read-only: the layer route and :func:`companion_matrix` share it."""
        C = _companion(self.A)
        C.setflags(write=False)
        return C

    @property
    def r(self):
        return self.spec.r

    @property
    def k(self):
        return self.spec.k

    def __call__(self, xi_n):
        """Full mode symbol a(m, xi_n) = sum_q A_q (i xi_n)^q.

        Accepts a scalar or an array of xi_n values; in the array case
        the result has shape (len(xi_n), r, r).
        """
        return symbol_values(self.A, np.asarray(xi_n, dtype=complex))


def symbol_values(A, xi):
    """``sum_q A_q (i xi)^q`` for an ``A`` stack of shape
    ``(k+1, ..., r, r)``; its middle axes broadcast against ``xi``'s."""
    iz = 1j * xi
    out = 0 + A[0]  # equals the q = 0 term (i xi)^0 A_0 added to zero
    for q in range(1, A.shape[0]):
        out = out + (iz**q if q > 1 else iz)[..., None, None] * A[q]  # iz**1 is iz, exactly
    return out


def _companion(A):
    """Block companion matrices from an ``A`` stack of shape
    ``(k+1, r, r)`` or ``(k+1, N, r, r)``: shape ``(rk, rk)`` or
    ``(N, rk, rk)``.

    The top coefficient ``A[k]`` must be the same matrix for every mode,
    as ``mode_matrix_stack`` guarantees (``q + |beta| <= k`` leaves the
    ``d_n^k`` term no tangential factor): its first mode's matrix is
    factored once for the whole stack.
    """
    k, r = A.shape[0] - 1, A.shape[-1]
    shape = A.shape[1:-2] + (r * k, r * k)
    if math.prod(shape) == 0:
        return np.zeros(shape, dtype=complex)
    # bottom block row: -A_k^{-1} A_q for q = 0..k-1, from one solve with
    # every mode's blocks as right-hand-side columns, laid out (r, N, k, r);
    # C is made after the solve, so it never sits beside the solve's buffers
    B = A[:k].swapaxes(0, -2)
    X = np.linalg.solve(A[(k,) + (0,) * (A.ndim - 3)], B.reshape(r, -1))
    C = np.zeros(shape, dtype=complex)
    for j in range(k - 1):
        C[..., j * r : (j + 1) * r, (j + 1) * r : (j + 2) * r] = np.eye(r)
    np.negative(X.reshape(B.shape[:-2] + (-1,)).swapaxes(0, -2), out=C[..., (k - 1) * r :, :])
    return C


def companion_matrix(sym):
    """First-order reduction of the mode ODE on ``(u, ..., d_n^{k-1} u)``.

    Its spectrum is ``{i xi_n}`` over the characteristic roots.  The
    symbol keeps the matrix, so this is a copy of it.
    """
    return sym._comp.copy()


# ---------------------------------------------------------------------------
# mode stacks


def mode_lattice(n, cutoff):
    """Integer modes with |m|_inf <= cutoff, in ascending lex order.  A
    cutoff that is not a nonnegative integer (2.5, NaN), or whose lattice
    has more bytes than an array can index, raises SpecError.  An int is
    not passed through float, which overflows past 1e308."""
    if not ((isinstance(cutoff, int) or float(cutoff).is_integer()) and cutoff >= 0):
        raise SpecError(f"cutoff must be a nonnegative integer, got {cutoff}")
    cutoff = int(cutoff)
    if (2 * cutoff + 1) ** (n - 1) * (n - 1) * 8 > np.iinfo(np.intp).max:
        raise SpecError(f"cutoff must be small enough for an array to hold its lattice: {cutoff}")
    axes = [np.arange(-cutoff, cutoff + 1)] * (n - 1)
    grid = np.meshgrid(*axes, indexing="ij")
    return np.stack(grid, axis=-1).reshape(-1, n - 1).astype(np.int64)


def mode_weights(modes, k, alpha):
    """Sobolev exponents ``s_j = k - 1 + alpha - j`` and the weights
    ``(1 + |m|^2)^{s_j}`` of a stack of modes, shape ``(N, k)``."""
    if not 0 < alpha < np.inf:  # NaN fails
        raise SpecError("alpha must be finite and positive")
    exps = np.array([k - 1 + alpha - j for j in range(k)])
    msq = (np.asarray(modes, dtype=float) ** 2).sum(axis=1)
    return exps, (1.0 + msq)[:, None] ** exps[None, :]


def mode_key(vec):
    """A mode row as reported: an int for n = 2, else a tuple of ints."""
    vec = np.atleast_1d(vec)
    if len(vec) == 1:
        return int(vec[0])
    return tuple(int(x) for x in vec)


def _term_stack(spec, modes, degree=None):
    """``A_q(m) = sum_beta c[q, beta] (i m)^beta``, shape ``(k+1, N, r, r)``, for real
    modes one per row, over the terms of total degree ``degree`` (None: all)."""
    im = 1j * np.asarray(modes, dtype=complex)
    A = np.zeros((spec.k + 1, len(im), spec.r, spec.r), dtype=complex)
    for (q, beta), c in spec.terms.items():
        if degree is not None and q + sum(beta) != degree:
            continue
        phase = None
        for j, bj in enumerate(beta):
            if bj:
                f = im[:, j] if bj == 1 else im[:, j] ** bj
                phase = f if phase is None else phase * f
        A[q] += c if phase is None else phase[:, None, None] * c
    return A


def mode_matrix_stack(spec, modes):
    """A_q(m) for a whole stack of modes: shape (k+1, N, r, r)."""
    return _term_stack(spec, modes)


def companion_stack(spec, modes):
    """Block companion matrices for a stack of modes: (N, rk, rk)."""
    return _companion(mode_matrix_stack(spec, modes))


def on_real_axis(dist, modes):
    """The defect predicate: a characteristic root at distance ``dist``
    from the real axis makes mode ``m`` a defect when
    ``dist <= 1e-10 (1 + |m|)``.  ``modes`` holds one mode per row
    (or is one mode) and broadcasts against ``dist``."""
    m = np.asarray(modes, dtype=float)
    return dist <= 1e-10 * (1.0 + np.sqrt((m * m).sum(axis=-1)))


def defect_screen(spec, modes):
    """Companion stack and eigenvalues of a mode stack, and the mask of
    its defect modes (a companion eigenvalue on the imaginary axis is a
    real characteristic root)."""
    comp = companion_stack(spec, modes)
    lam = _kernels.eigvals_sweep(comp)
    return comp, lam, on_real_axis(np.abs(lam.real).min(axis=1), modes)


def scan_defect_modes(spec, cutoff):
    """Modes in the lattice whose roots touch the real axis."""
    modes = mode_lattice(spec.n, cutoff)
    bad = defect_screen(spec, modes)[2]
    return [mode_key(m) for m in modes[bad]]


@dataclass
class EllipticityReport:
    min_abs_det: float
    passed: bool
    defect_modes: list
    samples: int


def _as_mode(spec, m):
    """A mode as a tuple of Python numbers: ints where integral.  A mode
    whose squared norm is no finite float (a non-finite entry, or one so
    large that the defect predicate's square overflows) raises SpecError."""
    m = tuple(
        x if type(x) is int else int(x) if float(x).is_integer() else float(x)
        for x in np.atleast_1d(m).tolist()
    )
    if len(m) != spec.n - 1:
        raise SpecError(f"mode {m} has length != n-1 = {spec.n - 1}")
    try:
        finite = math.isfinite(sum(float(x) * float(x) for x in m))
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise SpecError(f"mode {m} is not finite, or its squared norm overflows")
    return m


def build_gallery(name, /, **params):
    """Construct one of the built-in model operators.

    Parameters
    ----------
    name : str
        One of ``dbar``, ``twisted_dbar``, ``laplace_mass``, ``dirac2``,
        ``dirac3`` or ``custom``.
    **params
        Gallery parameters (``mu``, ``d``, ``v``); ``custom`` instead
        takes ``n``, ``r``, ``k``, a raw ``terms`` table and an optional
        ``name`` label.

    Returns
    -------
    OperatorSpec

    Notes
    -----
    Fixed conventions, with ``d_tau`` the tangential derivative(s):

    * ``dbar(mu)``          scalar ``d_n + i d_tau + mu`` on the circle,
    * ``twisted_dbar(mu,d)`` same with zeroth-order term ``mu + d``,
    * ``laplace_mass(mu)``  scalar ``-d_n^2 - d_tau^2 + mu``,
    * ``dirac2(mu,v)``      ``s1 d_n + s2 d_tau + mu s3 + v`` (Pauli),
    * ``dirac3(mu,v)``      ``s1 d_n + s2 d_t1 + s3 d_t2 + mu s3 + v``
      on the 2-torus.
    """

    def take(key, default=None):
        if key in params:
            return params.pop(key)
        if default is None:
            raise SpecError(f"gallery {name!r} requires parameter {key!r}")
        return default

    if name == "dbar" or name == "twisted_dbar":
        mu = complex(take("mu"))
        shift = complex(take("d")) if name == "twisted_dbar" else 0.0
        terms = {
            (1, (0,)): [[1.0]],
            (0, (1,)): [[1.0j]],
            (0, (0,)): [[mu + shift]],
        }
        spec = OperatorSpec(name, 2, 1, 1, terms)
    elif name == "laplace_mass":
        mu = complex(take("mu"))
        terms = {
            (2, (0,)): [[-1.0]],
            (0, (2,)): [[-1.0]],
            (0, (0,)): [[mu]],
        }
        spec = OperatorSpec(name, 2, 1, 2, terms, agmon_hint=np.pi)
    elif name == "dirac2":
        mu = complex(take("mu"))
        v = complex(take("v", 0.0))
        terms = {
            (1, (0,)): _PAULI[1],
            (0, (1,)): _PAULI[2],
            (0, (0,)): mu * _PAULI[3] + v * np.eye(2),
        }
        spec = OperatorSpec(name, 2, 2, 1, terms, agmon_hint=0.0,
                            chiral_blocks=((0,), (1,)))
    elif name == "dirac3":
        mu = complex(take("mu"))
        v = complex(take("v", 0.0))
        terms = {
            (1, (0, 0)): _PAULI[1],
            (0, (1, 0)): _PAULI[2],
            (0, (0, 1)): _PAULI[3],
            (0, (0, 0)): mu * _PAULI[3] + v * np.eye(2),
        }
        spec = OperatorSpec(name, 3, 2, 1, terms, agmon_hint=0.0,
                            chiral_blocks=((0,), (1,)))
    elif name == "custom":
        spec = OperatorSpec(
            str(take("name", "custom")),
            int(take("n")), int(take("r")), int(take("k")),
            dict(take("terms")),
            agmon_hint=params.pop("agmon_hint", None),
            chiral_blocks=params.pop("chiral_blocks", None),
        )
    else:
        raise SpecError(f"unknown gallery name {name!r}")
    if params:
        raise SpecError(f"unused gallery parameters {sorted(params)} for {name!r}")
    return spec


def mode_symbol(spec, m):
    """Restrict an operator to one tangential frequency.

    Tangential derivatives become multiplication by ``(im)^beta``, so the
    mode is described by the ``k + 1`` matrices ``A_q(m)``: row 0 of the
    N=1 :func:`mode_matrix_stack`.
    """
    m = _as_mode(spec, m)
    return ModeSymbol(spec=spec, m=m, A=mode_matrix_stack(spec, [m])[:, 0])


def agree_up_to_order(a, b):
    """Largest q such that the homogeneous components of degree >= k - q
    coincide; ``"full"`` when the whole coefficient tables agree, ``None``
    when already the principal parts differ.

    With constant coefficients the derivative conditions along the
    boundary hold automatically, so agreement is plain equality of the
    component tables (exact, no tolerance).
    """
    if (a.n, a.r, a.k) != (b.n, b.r, b.k):
        raise SpecError("operators must share n, r and k to be compared")
    zero = np.zeros((a.r, a.r), dtype=complex)
    for j in range(a.k + 1):
        keys = {key for key in a.terms if key[0] + sum(key[1]) == a.k - j}
        keys |= {key for key in b.terms if key[0] + sum(key[1]) == a.k - j}
        for key in keys:
            ca = a.terms.get(key, zero)
            cb = b.terms.get(key, zero)
            if not np.array_equal(ca, cb):
                return None if j == 0 else j - 1
    return "full"


def _cosphere_directions(n, samples):
    """Deterministic sample of unit covectors in R^n."""
    if n == 2:
        t = np.linspace(0.0, 2 * np.pi, samples, endpoint=False)
        return np.column_stack([np.cos(t), np.sin(t)])
    if n == 3:
        # Fibonacci sphere: near-uniform and reproducible
        i = np.arange(samples)
        z = 1.0 - 2.0 * (i + 0.5) / samples
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        phi = np.pi * (1 + 5**0.5) * i
        return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    rng = np.random.default_rng(0)
    v = rng.normal(size=(samples, n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    v[: min(n, samples)] = np.eye(n)[: min(n, samples)]
    return v


def check_ellipticity(spec, samples=64):
    """Sample ``det a_k`` on the unit cosphere and scan for defect modes.

    A failure is reported through the returned flag, never raised.  The
    defect scan (:func:`scan_defect_modes`) walks integer modes with
    ``|m|_inf <= 64`` for n = 2, else 24, and flags those whose full
    mode symbol has a characteristic root on the real axis.
    """
    if samples < 8:
        raise SpecError("need at least 8 cosphere samples")
    dirs = _cosphere_directions(spec.n, samples)
    dets = np.linalg.det(symbol_values(_term_stack(spec, dirs[:, :-1], spec.k), dirs[:, -1]))
    min_det = float(np.abs(dets).min())
    passed = min_det > 1e-10 * (1.0 + float(np.abs(dets).max()))

    defects = scan_defect_modes(spec, 64 if spec.n == 2 else 24)
    return EllipticityReport(
        min_abs_det=min_det,
        passed=passed,
        defect_modes=defects,
        samples=samples,
    )


def selfadjoint_double(spec):
    """Pair the operator with its formal adjoint in off-diagonal blocks.

    The result acts on rank ``2r`` sections; the adjoint block carries
    sign ``(-1)^{q+|beta|}`` on each conjugate-transposed coefficient.
    The L chiral marking points at the components carrying the original
    operator's Cauchy data.
    """
    r = spec.r
    terms = {}
    for (q, beta), c in spec.terms.items():
        sign = (-1) ** (q + sum(beta))
        block = np.zeros((2 * r, 2 * r), dtype=complex)
        block[:r, r:] = c
        block[r:, :r] = sign * c.conj().T
        terms[(q, beta)] = block
    return OperatorSpec(
        name=f"{spec.name}_double",
        n=spec.n,
        r=2 * r,
        k=spec.k,
        terms=terms,
        chiral_blocks=(tuple(range(r, 2 * r)), tuple(range(r))),
    )


# ---------------------------------------------------------------------------
# serialization


def to_document(spec):
    """Plain-dict form of a spec, suitable for JSON round-tripping."""
    terms = []
    for (q, beta) in sorted(spec.terms):
        c = spec.terms[(q, beta)]
        terms.append(
            {
                "dn": q,
                "dtau": list(beta),
                "re": c.real.tolist(),
                "im": c.imag.tolist(),
            }
        )
    doc = {
        "name": spec.name,
        "n": spec.n,
        "r": spec.r,
        "k": spec.k,
        "terms": terms,
        "agmon_hint": spec.agmon_hint,
        "chiral_blocks": None
        if spec.chiral_blocks is None
        else {"L": list(spec.chiral_blocks[0]), "R": list(spec.chiral_blocks[1])},
    }
    return doc


def from_document(doc):
    """Inverse of :func:`to_document`; raises ParseError on bad input."""
    try:
        terms = {}
        for t in doc["terms"]:
            mat = np.asarray(t["re"], dtype=float) + 1j * np.asarray(t["im"], dtype=float)
            terms[(int(t["dn"]), tuple(int(b) for b in t["dtau"]))] = mat
        chiral = doc.get("chiral_blocks")
        if chiral is not None:
            chiral = (tuple(chiral["L"]), tuple(chiral["R"]))
        hint = doc.get("agmon_hint")
        return OperatorSpec(
            name=str(doc["name"]),
            n=int(doc["n"]),
            r=int(doc["r"]),
            k=int(doc["k"]),
            terms=terms,
            agmon_hint=None if hint is None else float(hint),
            chiral_blocks=chiral,
        )
    except SpecError:
        raise
    except Exception as exc:
        raise ParseError(f"malformed operator document: {exc}") from exc


def dump_spec(spec):
    """Serialize to canonical JSON text (sorted keys, newline-terminated)."""
    return json.dumps(to_document(spec), sort_keys=True, indent=2) + "\n"


def load_spec(text):
    """Parse JSON text produced by :func:`dump_spec`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return from_document(doc)


def save_spec(spec, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_spec(spec))


def read_spec(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return load_spec(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
