"""The PMC <-> CMC correspondence made executable.

Frenet data (u, C_j, gamma_j, f_j) of a PMC chart maps to CMC data
(u, nu = C_j, p = sqrt(2) f_j, eta_j) for j = 1, 2 and back; integrating the
first-order Frenet systems rebuilds the immersions from data alone.  The
reconstruction initial frame is canonical and constructed in closed form from
the data at the base grid corner, so round trips recover the original chart up
to an ambient isometry, which ``weak_congruence_check`` pins down by frame
matching.
"""

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

from .ambient import cross_eps, inner, metric_diag, project_to_factor, tangent_project3
from .curves import _GAUSS, _gauss_points, _magnus_propagators, _mul, _prefix_products
from .errors import DomainError, PreconditionError, VerificationError
from .families import TARGET_LINE, TARGET_PRODUCT, ImmersionChart
from .diffgeo import (
    SHRINK,
    _chebyshev_grid,
    _parallelism,
    _real_stack,
    ar_theta,
    chebyshev_derivatives,
    cmc_record,
    conformal_data,
    eta_z_norm_law,
    frenet_scalars,
    gamma_norm_law,
    hopf_coefficients,
    hopf_theta,
    kaehler_functions,
    normal_frame,
    normalized_mismatch,
    parallelism_residual,
    sample_jet,
)
from .utils import write_columns_csv

PARALLELISM_GATE = 1e-4
DATA_TOL = 1e-3
REBUILT_CMC_TOL = 1e-3  # the |H| spread of a rebuilt CMC chart, and its |H| off the data's
MIXED_TOL = 1e-5  # gate on the mixed-partial residual of the eta integrands
CONGRUENCE_TOL = 1e-3  # aligned distance below which two charts count as congruent
_PASS_POINTS = 6000  # Gauss points per field evaluation of the column march: 41 columns at 41x41, 25 at 81x81


# ---------------------------------------------------------------------------
# data records
# ---------------------------------------------------------------------------


@dataclass
class PmcFrenetData:
    """Frenet data (u, C_j, gamma_j, f_j, |H|) of a PMC chart on a grid."""

    eps: int
    Hnorm: float
    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    C1: np.ndarray
    C2: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    # dense (x, y) -> dict of the grids() keys plus ux, uy; None for node-only
    # data.  The node arrays are its values at (x, y): extract_pmc_data samples
    # it there, cmc_to_pmc applies _pmc_map to the fields and to the grids
    fields: Optional[Callable] = None
    residuals: dict = field(default_factory=dict)

    def grids(self):
        return {"u": self.u, "C1": self.C1, "C2": self.C2, "gamma1": self.gamma1, "gamma2": self.gamma2,
                "f1": self.f1, "f2": self.f2}


@dataclass
class CmcFrenetData:
    """Conformal CMC data (u, nu, p, eta) in M2(eps) x R on a grid."""

    eps: int
    Hval: float
    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    nu: np.ndarray
    p: np.ndarray
    eta: np.ndarray
    eta_x: np.ndarray
    eta_y: np.ndarray
    # dense (x, y) -> dict of the grids() keys plus ux, uy; None for node-only
    # data.  The node arrays are its values at (x, y): pmc_to_cmc applies
    # _cmc_map to the PMC record's fields and to its grids
    fields: Optional[Callable] = None
    residuals: dict = field(default_factory=dict)

    def grids(self):
        return {"u": self.u, "nu": self.nu, "p": self.p, "eta_x": self.eta_x, "eta_y": self.eta_y}

    def eta_z(self):
        return 0.5 * (self.eta_x - 1j * self.eta_y)

    def to_csv(self, path):
        write_columns_csv(path, {
            "x": self.x, "y": self.y, "u": self.u, "nu": self.nu, "p_re": self.p.real, "p_im": self.p.imag,
            "eta": self.eta, "eta_x": self.eta_x, "eta_y": self.eta_y,
        })


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


def _sample_key(x, y):
    """The key of a sample set: the dtype, shape and bytes of x and y."""
    x, y = np.asarray(x), np.asarray(y)
    return (x.dtype.str, x.shape, x.tobytes(), y.dtype.str, y.shape, y.tobytes())


def _frenet_fields(jet, frame):
    """The pointwise Frenet data of a PMC chart on one jet and its normal frame, read-only."""
    u, _ = conformal_data(jet)
    C1, C2, _, _ = kaehler_functions(jet)
    gamma1, gamma2, f1, f2 = frenet_scalars(jet, frame)
    e2u = np.exp(2 * u)
    ux = jet.ip(jet.pxx, jet.px) / e2u
    uy = jet.ip(jet.pxy, jet.px) / e2u
    out = {
        "u": u, "ux": ux, "uy": uy, "C1": C1, "C2": C2,
        "gamma1": gamma1, "gamma2": gamma2, "f1": f1, "f2": f2,
        "Hnorm": frame.Hnorm,
    }
    for v in out.values():
        if isinstance(v, np.ndarray):  # scalar samples give immutable numpy scalars
            v.flags.writeable = False
    return out


def _pmc_point_fields(chart, memo):
    """Dense pointwise Frenet data of a PMC chart.

    Every sample set answered is memoised in ``memo`` by ``_sample_key``: the
    three records of one round trip (``pmc_to_cmc`` for j = 1, 2 and the
    ``cmc_to_pmc`` of the two) compose their ``fields`` onto this one and read
    the same Gauss points, Simpson midpoints and recertification grid, so each
    set is evaluated once.  The memoised arrays are read-only: an in-place edit
    of a record built from them raises instead of corrupting a later read.
    """

    def fields(x, y):
        key = _sample_key(x, y)
        if key not in memo:
            jet = sample_jet(chart, x, y)
            memo[key] = _frenet_fields(jet, normal_frame(jet))
        return memo[key]

    return fields


def pmc_compatibility_residuals(data):
    """Normalized residuals of the PMC integrability system: the derivative laws on the
    Chebyshev grid of the node rectangle (``_spectral_derivatives``), the |gamma_j|^2 laws
    on the node arrays."""
    F, Fx, Fy = _spectral_derivatives(data, ("C1", "C2", "gamma1", "gamma2", "f1", "f2"))
    e2u = np.exp(2 * F["u"])
    H = data.Hnorm
    nodes, e2u_nodes = data.grids(), np.exp(2 * data.u)
    out = {}
    for j in (1, 2):
        C, gamma, f = F[f"C{j}"], F[f"gamma{j}"], F[f"f{j}"]
        g_zbar = 0.5 * (Fx[f"gamma{j}"] + 1j * Fy[f"gamma{j}"])
        rhs = -1j * H * C * e2u / np.sqrt(2.0)
        out[f"gamma{j}_zbar"] = normalized_mismatch(g_zbar, rhs, terms=(H * e2u,))
        f_zbar = 0.5 * (Fx[f"f{j}"] + 1j * Fy[f"f{j}"])
        rhs = 1j * data.eps * e2u * C * gamma / 4.0
        out[f"f{j}_zbar"] = normalized_mismatch(f_zbar, rhs, terms=(e2u * np.abs(gamma),))
        C_z = 0.5 * (Fx[f"C{j}"] - 1j * Fy[f"C{j}"])
        rhs = 2j * np.exp(-2 * F["u"]) * f * np.conj(gamma) - 1j * H / np.sqrt(2.0) * gamma
        out[f"C{j}_z"] = normalized_mismatch(C_z, rhs, terms=(H * np.abs(gamma),))
        out[f"gamma{j}_norm"] = gamma_norm_law(nodes[f"gamma{j}"], nodes[f"C{j}"], e2u_nodes)
    return out


def extract_pmc_data(chart, nx=81, ny=81):
    """Sample the Frenet data of a PMC chart, refusing non-parallel charts."""
    if chart.target != TARGET_PRODUCT:
        raise DomainError("extract_pmc_data expects a product chart")
    X, Y = chart.grid(nx, ny, shrink=SHRINK)
    # the parallelism gate, as parallelism_residual takes it; its jet then gives the Frenet
    # data on the Chebyshev grid, which the compatibility residuals read
    Xc, Yc, Dx, Dy = _chebyshev_grid(X, Y)
    jet = sample_jet(chart, Xc, Yc)
    frame = normal_frame(jet)
    resid = _parallelism(jet, frame.H, frame.proj, Dx, Dy)
    if resid > PARALLELISM_GATE:
        raise PreconditionError(
            f"chart is not PMC: parallelism residual {resid:.2e} > {PARALLELISM_GATE:.1e}"
        )
    fields = _pmc_point_fields(chart, {_sample_key(Xc, Yc): _frenet_fields(jet, frame)})
    F = fields(X, Y)
    Hgrid = F["Hnorm"]
    data = PmcFrenetData(
        eps=chart.eps, Hnorm=float(np.mean(Hgrid)), x=X, y=Y, fields=fields,
        **{k: F[k] for k in ("u", "C1", "C2", "gamma1", "gamma2", "f1", "f2")},
    )
    data.residuals = pmc_compatibility_residuals(data)
    data.residuals["H_spread"] = float(np.max(Hgrid) - np.min(Hgrid))
    data.residuals["parallelism"] = resid
    return data


# ---------------------------------------------------------------------------
# the data maps of the correspondence
# ---------------------------------------------------------------------------


def _cmc_map(F, j):
    """Forward map on a dict of PMC data: (u, C_j, gamma_j, f_j) to (u, nu, p, eta_x, eta_y).

    u_x and u_y pass through when F holds them.
    """
    g = F[f"gamma{j}"]
    return {
        **{k: F[k] for k in ("u", "ux", "uy") if k in F},
        "nu": F[f"C{j}"], "p": np.sqrt(2.0) * F[f"f{j}"],
        "eta_x": -np.sqrt(2.0) * g.imag, "eta_y": -np.sqrt(2.0) * g.real,
    }


def _pmc_map(F1, F2):
    """Inverse map on two dicts of CMC data with one u: PMC data (u, C_j, gamma_j, f_j).

    u (and u_x, u_y when F1 holds them) come from F1.
    """
    out = {k: F1[k] for k in ("u", "ux", "uy") if k in F1}
    for j, F in ((1, F1), (2, F2)):
        out[f"C{j}"] = F["nu"]
        out[f"gamma{j}"] = -1j * np.sqrt(2.0) * (0.5 * (F["eta_x"] - 1j * F["eta_y"]))
        out[f"f{j}"] = F["p"] / np.sqrt(2.0)
    return out


def _bspline_basis(t, k, x):
    """The knot interval l of each x in the span of the knots t, and the k + 1 B-splines of
    degree k not zero there, B_{l-k} .. B_l, as rows of a (k + 1, len(x)) array: the Cox-de
    Boor recursion (de Boor, *A Practical Guide to Splines*, ch. X, ``bsplvb``).  x = t[-1]
    falls in the last interval."""
    l = np.clip(np.searchsorted(t, x, side="right") - 1, k, len(t) - k - 2)
    T = t[l + np.arange(1 - k, k + 1)[:, None]]  # row i holds t[l + 1 - k + i]
    right, left = T - x, x - T
    b = np.ones((1, len(x)))
    for j in range(1, k + 1):
        term = b / (T[k:k + j] - T[k - j:k])
        nxt = np.empty((j + 1, len(x)))
        nxt[:j] = right[k:k + j] * term
        nxt[j] = 0.0
        nxt[1:] += left[k - j:k] * term
        b = nxt
    return l, b


def _fit(t, v):
    """FITPACK's interpolating B-spline through the rows of v, shape (len(t), m), at the nodes t.

    Degree k = min(5, len(t) - 1), knots the nodes less three at each end, k + 1
    fold at the ends.  The collocation matrix A (A[i, j] = B_j(t_i)) is banded and
    totally positive, so it is factored by elimination without pivoting (de Boor,
    ch. XIII), and the rows of v are reduced by it, every row operation
    elementwise and in a fixed order: no bit of the coefficients depends on the
    BLAS kernel.  Returns the knots, k and the coefficients, shape (len(t), m).
    """
    n = len(t)
    k = min(5, n - 1)
    knots = np.r_[[t[0]] * (k + 1), t[3:-3], [t[-1]] * (k + 1)]
    l, B = _bspline_basis(knots, k, t)
    A = np.zeros((n, n))
    for r in range(k + 1):
        A[np.arange(n), l - k + r] = B[r]
    i, j = np.nonzero(A)
    lo, hi = int(np.max(i - j)), int(np.max(j - i))
    for p in range(n):  # A = LU: the multipliers below the diagonal, U on and above it
        rows = slice(p + 1, p + lo + 1)
        A[rows, p] /= A[p, p]
        A[rows, p + 1:p + hi + 1] -= A[rows, p, None] * A[p, p + 1:p + hi + 1]
    c = np.array(v, dtype=float)
    for p in range(n):
        c[p + 1:p + lo + 1] -= A[p + 1:p + lo + 1, p, None] * c[p]
    for p in range(n - 1, -1, -1):
        for q in range(p + 1, min(n, p + hi + 1)):
            c[p] -= A[p, q] * c[q]
        c[p] /= A[p, p]
    return knots, k, c


def _diff(t, k, c, axis):
    """The derivative along array axis ``axis`` of the tensor spline with knots t, degree k and
    coefficients c on that axis: degree k - 1 on t[1:-1]."""
    w = k / (t[k + 1:-1] - t[1:-k - 1])
    return t[1:-1], k - 1, np.diff(c, axis=axis) * w.reshape((-1,) + (1,) * (c.ndim - 1 - axis))


def _spline(xs, ys, v):
    """One tensor B-spline interpolating every component of v, shape (*components, nx, ny), on xs x ys.

    Quintic on each axis, of lower degree on an axis of fewer than six nodes,
    with FITPACK's interpolation knots (``_fit``).  The fit runs along x, then
    along y, each pass solving for every component at once, with the nodes of
    its axis first, as ``_fit`` takes them.  The returned ``sp(x, y, nu=(0, 0))``
    takes samples x and y of one shape and gives the (nu[0], nu[1]) derivative
    there, a C-ordered (*components, *x.shape) array, from differenced
    coefficients; a point outside the knot span xs[0]..xs[-1], ys[0]..ys[-1]
    raises DomainError, where it would extrapolate.  It computes the Cox-de
    Boor basis on the distinct x and on the distinct y of the points,
    contracts the coefficients along x, then along y, k + 1 terms each summed
    in a fixed order, and gathers the points from the grid these span: a
    tensor grid costs its point count, a scattered query the product of its
    distinct x and y counts.  numpy only, with no BLAS call, so no bit
    depends on the matrix kernel BLAS picks for the CPU.
    """
    nx, ny, comp = len(xs), len(ys), np.shape(v)[:-2]
    V = np.reshape(v, (-1, nx, ny))
    m = len(V)
    tx, kx, c = _fit(xs, V.transpose(1, 0, 2).reshape(nx, -1))
    ty, ky, c = _fit(ys, c.reshape(nx, m, ny).transpose(2, 1, 0).reshape(ny, -1))
    # the coefficients as (x, component, y): each term of the x contraction gathers whole blocks
    c = np.ascontiguousarray(c.reshape(ny, m, nx).transpose(2, 1, 0))

    def sp(x, y, nu=(0, 0)):
        ux, ix = np.unique(np.asarray(x, dtype=float), return_inverse=True)
        uy, iy = np.unique(np.asarray(y, dtype=float), return_inverse=True)
        if not (xs[0] <= ux[0] and ux[-1] <= xs[-1] and ys[0] <= uy[0] and uy[-1] <= ys[-1]):
            raise DomainError("spline queried outside its knot span")
        t1, k1, d = tx, kx, c
        for _ in range(nu[0]):
            t1, k1, d = _diff(t1, k1, d, 0)
        t2, k2 = ty, ky
        for _ in range(nu[1]):
            t2, k2, d = _diff(t2, k2, d, 2)
        lx, bx = _bspline_basis(t1, k1, ux)
        ly, by = _bspline_basis(t2, k2, uy)
        D = bx[0, :, None, None] * d[lx - k1]
        for r in range(1, k1 + 1):
            D += bx[r, :, None, None] * d[lx - k1 + r]
        D = np.ascontiguousarray(D.transpose(1, 2, 0))  # (component, y, x): each term below gathers x rows
        E = by[0, :, None] * np.take(D, ly - k2, axis=1)
        for s in range(1, k2 + 1):
            E += by[s, :, None] * np.take(D, ly - k2 + s, axis=1)
        return np.take(E.reshape(m, -1), (iy * len(ux) + ix).reshape(-1), axis=1).reshape(comp + np.shape(x))

    return sp


def _grid_fields(data):
    """Dense evaluation of a record's data: its ``fields``, or one spline of its node arrays.

    For node-only data (``fields`` None) the entries of ``data.grids()`` are
    stacked by ``_real_stack`` into one ``_spline``, which each ``fields``
    call evaluates once; u_x and u_y are the derivatives of the spline of u.
    Every point set the round trip asks for is a tensor grid, whose
    evaluation costs its point count; a point outside the node rectangle
    raises DomainError.
    """
    if data.fields is not None:
        return data.fields
    xs, ys = data.x[:, 0], data.y[0, :]
    stack, unstack = _real_stack(data.grids())
    sp = _spline(xs, ys, stack)
    sp_u = _spline(xs, ys, data.u)

    def fields(X, Y):
        out = unstack(sp(X, Y))
        out["ux"] = sp_u(X, Y, nu=(1, 0))
        out["uy"] = sp_u(X, Y, nu=(0, 1))
        return out

    return fields


def _spectral_derivatives(data, keys):
    """A record's dense data F on the Chebyshev grid of its node rectangle, ends included, and
    the ``chebyshev_derivatives`` Fx, Fy there of its entries ``keys``: one ``_grid_fields(data)``
    call (a node-only record's spline, which its march reads too)."""
    X, Y, Dx, Dy = _chebyshev_grid(data.x, data.y)
    F = _grid_fields(data)(X, Y)
    return (F, *chebyshev_derivatives({k: F[k] for k in keys}, Dx, Dy))


def _path_integrate(x, y, gx, gy, fields):
    """Potential eta on a grid with eta_x = gx, eta_y = gy (bottom row, then columns).

    Simpson increments: the node values are gx and gy, the midpoint values
    the ``eta_x`` and ``eta_y`` of the dense source ``fields``, read in one
    call for the bottom row and one for the columns.
    """
    dx = x[1, 0] - x[0, 0]
    dy = y[0, 1] - y[0, 0]
    eta = np.zeros_like(gx)
    mid = fields(x[:-1, 0] + 0.5 * dx, y[:-1, 0])["eta_x"]
    eta[1:, 0] = np.cumsum((dx / 6.0) * (gx[:-1, 0] + 4.0 * mid + gx[1:, 0]))
    mid = fields(x[:, :-1], y[:, :-1] + 0.5 * dy)["eta_y"]
    eta[:, 1:] = eta[:, [0]] + np.cumsum((dy / 6.0) * (gy[:, :-1] + 4.0 * mid + gy[:, 1:]), axis=1)
    return eta


def pmc_to_cmc(data, j):
    """Forward data map of the correspondence: (u, C_j, gamma_j, f_j) to (u, nu, p, eta).

    The node arrays are ``_cmc_map`` of ``data.grids()``, and the dense
    ``fields`` (None for node-only data) is ``_cmc_map`` composed onto
    ``data.fields``.  The new record's residuals are
    ``cmc_compatibility_residuals``; past ``MIXED_TOL`` its ``eta_mixed``, the
    mixed-partial consistency of eta_x = -sqrt(2) Im gamma_j and
    eta_y = -sqrt(2) Re gamma_j, raises VerificationError.  Otherwise eta
    comes from path integration of these integrands, with midpoints from
    ``_grid_fields`` of the new record.
    """
    if j not in (1, 2):
        raise DomainError("j must be 1 or 2")
    pf = data.fields
    out = CmcFrenetData(
        eps=data.eps, Hval=data.Hnorm, x=data.x, y=data.y, eta=None,
        fields=None if pf is None else lambda xs, ys: _cmc_map(pf(xs, ys), j),
        **_cmc_map(data.grids(), j),
    )
    out.residuals = cmc_compatibility_residuals(out)
    mixed = out.residuals["eta_mixed"]
    if mixed > MIXED_TOL:
        raise VerificationError(f"eta path integration inconsistent: mixed-partial residual {mixed:.2e}")
    out.eta = _path_integrate(data.x, data.y, out.eta_x, out.eta_y, _grid_fields(out))
    return out


def cmc_compatibility_residuals(data):
    """Normalized residuals of the CMC integrability system and ``eta_mixed``, d/dy of eta_x
    against d/dx of eta_y: the derivative laws on the Chebyshev grid of the node rectangle
    (``_spectral_derivatives``), the |eta_z|^2 law on the node arrays."""
    F, Fx, Fy = _spectral_derivatives(data, ("nu", "p", "eta_x", "eta_y"))
    e2u = np.exp(2 * F["u"])
    H = data.Hval
    eta_z = 0.5 * (F["eta_x"] - 1j * F["eta_y"])
    out = {}
    p_zbar = 0.5 * (Fx["p"] + 1j * Fy["p"])
    out["p_zbar"] = normalized_mismatch(p_zbar, data.eps * e2u / 2.0 * F["nu"] * eta_z, terms=(e2u,))
    nu_z = 0.5 * (Fx["nu"] - 1j * Fy["nu"])
    rhs = -H * eta_z - 2.0 * np.exp(-2 * F["u"]) * F["p"] * np.conj(eta_z)
    out["nu_z"] = normalized_mismatch(nu_z, rhs, terms=(H * np.abs(eta_z) + 1.0,))
    eta_lap = 0.25 * (Fx["eta_x"] + Fy["eta_y"])
    out["eta_zzbar"] = normalized_mismatch(eta_lap, e2u / 2.0 * H * F["nu"], terms=(e2u * H,))
    out["eta_z_norm"] = eta_z_norm_law(data.eta_z(), data.nu, np.exp(2 * data.u))
    out["eta_mixed"] = normalized_mismatch(Fy["eta_x"], Fx["eta_y"], terms=(np.abs(F["eta_x"]) + np.abs(F["eta_y"]),))
    return out


def cmc_to_pmc(data1, data2):
    """Inverse data map: two CMC data sets with equal (u, H) assemble to PMC data.

    The node arrays are ``_pmc_map`` of the two records' ``grids()``, and the
    dense ``fields`` is ``_pmc_map`` composed onto their ``fields`` (None
    unless both have one); its residuals are ``pmc_compatibility_residuals``.
    """
    if data1.eps != data2.eps:
        raise DomainError("signatures differ")
    if data1.x.shape != data2.x.shape or np.max(np.abs(data1.x - data2.x)) > 1e-12 or np.max(
        np.abs(data1.y - data2.y)
    ) > 1e-12:
        raise DomainError("grids differ")
    if np.max(np.abs(data1.u - data2.u)) > DATA_TOL:
        raise DomainError("induced metrics differ: the data do not describe one surface")
    if abs(data1.Hval - data2.Hval) > DATA_TOL:
        raise DomainError("mean curvatures differ")

    f1, f2 = data1.fields, data2.fields
    out = PmcFrenetData(
        eps=data1.eps, Hnorm=0.5 * (data1.Hval + data2.Hval), x=data1.x, y=data1.y,
        fields=None if f1 is None or f2 is None else lambda xs, ys: _pmc_map(f1(xs, ys), f2(xs, ys)),
        **_pmc_map(data1.grids(), data2.grids()),
    )
    out.residuals = pmc_compatibility_residuals(out)
    return out


# ---------------------------------------------------------------------------
# canonical initial frames
# ---------------------------------------------------------------------------


def _factor_base(eps):
    if eps == +1:
        p0 = np.array([1.0, 0.0, 0.0])
        E1 = np.array([0.0, 1.0, 0.0])
    else:
        p0 = np.array([0.0, 0.0, 1.0])
        E1 = np.array([1.0, 0.0, 0.0])
    return p0, E1, cross_eps(p0, E1, eps)


def initial_cmc_state(eps, u0, nu0, eta_x0, eta_y0, eta0=0.0):
    """Canonical start (Psi, Psi_x, Psi_y, N) compatible with the data values."""
    p0, F1, F2 = _factor_base(eps)
    e2u = np.exp(2 * u0)
    a_sq = e2u - eta_x0**2
    if a_sq <= 0:
        raise DomainError("initial data violates |Psi_x|^2 = e^{2u}")
    a = np.sqrt(a_sq)
    alpha = -eta_x0 * eta_y0 / a
    beta_sq = e2u - eta_y0**2 - alpha**2
    if beta_sq < -1e-10 * e2u:
        raise DomainError("initial data violates the conformal frame conditions")
    # beta = 0 is legitimate: cylinders have a rank-one factor projection
    beta = np.sqrt(max(beta_sq, 0.0))
    psi_x = a * F1
    psi_y = alpha * F1 + beta * F2
    Psi = np.concatenate([p0, [eta0]])
    Psi_x = np.concatenate([psi_x, [eta_x0]])
    Psi_y = np.concatenate([psi_y, [eta_y0]])
    # unit normal in T(M2 x R), sign chosen to match the vertical component nu
    ip = partial(inner, eps=eps)
    cands = []
    for f in (np.concatenate([F1, [0.0]]), np.concatenate([F2, [0.0]]), np.array([0.0, 0, 0, 1.0])):
        v = f - ip(f, Psi_x) * Psi_x / e2u - ip(f, Psi_y) * Psi_y / e2u
        cands.append((ip(v, v), v))
    nsq, N = max(cands, key=lambda t: t[0])
    N = N / np.sqrt(nsq)
    if abs(N[3]) > 1e-12 and abs(nu0) > 1e-12 and np.sign(N[3]) != np.sign(nu0):
        N = -N
    if abs(abs(N[3]) - abs(nu0)) > 1e-6:
        raise DomainError(
            f"initial data inconsistent: |N_vertical| = {abs(N[3]):.6f} but nu = {nu0:.6f}"
        )
    return np.concatenate([Psi, Psi_x, Psi_y, N])


def initial_pmc_state(eps, u0, C1, C2, gamma1, gamma2):
    """Canonical start (Phi, Phi_x, Phi_y, xi) solving the frame relations.

    Solved in closed form in the null basis m = E1 - i E2 of each factor:
    with A = |a1|^2 + |a2|^2 = e^{2u}(1+C1)/8 split by (1 +- C2), the blocks
    a_k, b_k of Phi_z and the xi coefficients follow from the J-relations.
    """
    if min(1 - C1**2, 1 - C2**2) < 1e-12:
        raise DomainError("complex point: the canonical frame construction needs C_j^2 < 1")
    p0, E1, E2 = _factor_base(eps)
    m = E1 - 1j * E2
    e2u = np.exp(2 * u0)
    t = e2u * (1 + C1) / 16.0
    a1 = np.sqrt((1 + C2) * t)
    a2 = np.sqrt((1 - C2) * t)
    b1 = (1 - C1) * np.conj(a1) * gamma2 / ((1 + C2) * np.conj(gamma1))
    b2 = -(1 - C1) * np.conj(a2) * gamma2 / ((1 - C2) * np.conj(gamma1))
    s1 = 1j * (1 - C1) * a1 / gamma1
    t1 = -1j * (1 + C1) * b1 / gamma1
    s2 = 1j * (1 - C1) * a2 / gamma1
    t2 = -1j * (1 + C1) * b2 / gamma1
    phi_z = a1 * m + b1 * np.conj(m)
    psi_z = a2 * m + b2 * np.conj(m)
    xi = np.concatenate([s1 * m + t1 * np.conj(m), s2 * m + t2 * np.conj(m)])
    Phi = np.concatenate([p0, p0])
    Phi_z = np.concatenate([phi_z, psi_z])
    Phi_x = 2.0 * Phi_z.real
    Phi_y = -2.0 * Phi_z.imag
    return Phi, Phi_x, Phi_y, xi


# ---------------------------------------------------------------------------
# reconstruction: CMC charts in M2(eps) x R
# ---------------------------------------------------------------------------


def _spline_chart(x, y, fields_by_name, eps, target, name, metadata):
    """Wrap gridded jet fields, each (dim, nx, ny), into an ImmersionChart.

    The six jet keys are stacked into one quintic ``_spline``, so a jet call
    evaluates the spline once and hands out one C-ordered (dim, ...) block per
    key.  A jet call outside the node rectangle raises DomainError.
    """
    xs = x[:, 0]
    ys = y[0, :]
    keys = ("p", "px", "py", "pxx", "pxy", "pyy")
    sp = _spline(xs, ys, np.stack([fields_by_name[k] for k in keys]))

    def jet(X, Y):
        vals = sp(X, Y)
        return dict(zip(keys, vals))

    return ImmersionChart(
        name=name, eps=eps, target=target, domain=(xs[0], xs[-1], ys[0], ys[-1]),
        jet=jet, metadata=metadata,
    )


def _cmc_coefficients(eps, Hval, F):
    """The data-only factors of the CMC Frenet system on the points of the dict F.

    Each entry multiplies one state-linear term of ``_cmc_rhs_blocks``, so the
    system is real-linear in each entry; the constant H is spread over the
    points like the others.
    """
    u_z = 0.5 * (F["ux"] - 1j * F["uy"])
    eta_z = 0.5 * (F["eta_x"] - 1j * F["eta_y"])
    e2u = np.exp(2 * F["u"])
    p = F["p"]
    return {
        "u_z": u_z, "p": p, "eps_eta_z2": eps * eta_z**2,
        "e2u_H": e2u / 2.0 * Hval, "eps_eta_abs": eps * (np.abs(eta_z) ** 2 - e2u / 2.0),
        "H": np.full_like(e2u, Hval), "p_over_e2u": 2.0 * np.exp(-2 * F["u"]) * p,
        "eps_nu_eta_z": eps * F["nu"] * eta_z,
    }


def _cmc_rhs_blocks(S, hat, c):
    """Second derivatives and N derivatives from the CMC Frenet system.

    S holds rows (Psi, Psi_x, Psi_y, N) stacked to (16, ...) and hat the
    factor point Psi-hat = (psi, 0), through which alone Psi enters; c is
    the dict of ``_cmc_coefficients`` at the evaluation points.
    """
    Px, Py, N = S[4:8], S[8:12], S[12:16]
    Psi_z = 0.5 * (Px - 1j * Py)
    A = 2.0 * c["u_z"] * Psi_z + c["p"] * N + c["eps_eta_z2"] * hat
    B = c["e2u_H"] * N + c["eps_eta_abs"] * hat
    Nz = -c["H"] * Psi_z - c["p_over_e2u"] * np.conj(Psi_z) + c["eps_nu_eta_z"] * hat
    Pxx = 2.0 * (A.real + B.real)
    Pyy = 2.0 * (B.real - A.real)
    Pxy = -2.0 * A.imag
    Nx = 2.0 * Nz.real
    Ny = -2.0 * Nz.imag
    return Pxx, Pxy, Pyy, Nx, Ny


def _cmc_system(eps, Hval):
    """The CMC system on the frame (Psi-hat, e1, e2, N, Psi): Gram diag(eps, 1, 1, 1), Psi affine.

    The rebuilt point takes its factor part from the Psi-hat row, which stays
    on the quadric, and its height from the affine row.
    """
    return _FrenetSystem(
        4, (eps, 1.0, 1.0, 1.0), (4, 1, 2, 3), (1.0, 1.0, 1.0, 1.0), 0,
        partial(_cmc_coefficients, eps, Hval), _cmc_rhs_blocks,
        lambda F: np.concatenate([F[0, :3], F[4, 3:]]),
    )


@dataclass(frozen=True)
class _FrenetSystem:
    """A first-order Frenet system as the frame march sees it.

    The march carries a frame F of ``len(rows) + 1`` rows in R^dim.  Its
    first ``len(gram)`` rows have the constant Gram matrix diag(gram) under
    the ambient metric; a further row is affine (the CMC point Psi).  The
    state (P, P_x, P_y, normal parts) that ``blocks`` reads packs slot k as
    sigma[k] F[rows[k]], the P_x and P_y slots times e^u, and P-hat is the
    row ``hat``.  ``coefficients(F)`` turns a dict of data fields into the
    dict c of the system's data-only factors, on the same points;
    ``blocks(S, hat, c)`` gives (P_xx, P_xy, P_yy, normal_x, normal_y), the
    normal parts packed as in S, by state arithmetic alone, linear in
    (S, hat) and real-linear in each entry of c; ``point(F)`` reads P from
    frames on a (rows, dim, ...) layout.  S, hat and every block hold their
    components first, as the charts' jets do.
    """

    dim: int
    gram: tuple
    rows: tuple
    sigma: tuple
    hat: int
    coefficients: Callable
    blocks: Callable
    point: Callable


def _state(system, F, u):
    """The state S and P-hat that ``blocks`` reads, from frames F on a (rows, dim, ...) layout at conformal factor u."""
    eu = np.exp(u)
    slots = [s * F[r] for s, r in zip(system.sigma, system.rows)]
    slots[1], slots[2] = eu * slots[1], eu * slots[2]
    return np.concatenate(slots), F[system.hat]


def _frame(system, S, hat, u):
    """The frame of one state S with P-hat at conformal factor u: ``_state`` inverted."""
    d = system.dim
    F = np.empty((len(system.rows) + 1, d))
    for k, (s, r) in enumerate(zip(system.sigma, system.rows)):
        F[r] = S[k * d:(k + 1) * d] / (s * np.exp(u) if k in (1, 2) else s)
    F[system.hat] = hat
    return F


def _algebra_operators(system, c):
    """The constant parts of the frame's x and y algebras, probed from one ``blocks`` call.

    Along either axis the derivative of state slot k is a combination of the
    frame rows, real-linear in the coefficients: L_0 + sum_t coef_t L_t, with
    coef_t the real and imaginary parts of the c_k.  ``blocks`` is called on
    the frame-coordinate basis (F the identity, u = 0) at one probe point per
    term: at point 0 every c_k is zero (L_0: the P row passes P_x or P_y
    through), at point t one c_k is 1 or, for a complex c_k, i.  Returns the
    coefficient units and per direction (slot, col, L): row k of L[t] divided
    by sigma[k], at the union of the nonzero positions, L of shape (terms, nnz).
    """
    d, k = system.dim, len(system.rows)
    units = [(key, 1.0) for key in c] + [(key, 1j) for key, v in c.items() if np.iscomplexobj(v)]
    n = len(units) + 1
    probe = {key: np.zeros(n, v.dtype) for key, v in c.items()}
    for t, (key, unit) in enumerate(units, 1):
        probe[key][t] = unit
    S, hat = _state(system, np.multiply.outer(np.eye(k + 1, d), np.ones(n)), np.zeros(n))
    Pxx, Pxy, Pyy, Nx, Ny = system.blocks(S, hat, probe)
    ops = []
    for dS in (np.concatenate([S[d:2 * d], Pxx, Pxy, Nx]), np.concatenate([S[2 * d:3 * d], Pxy, Pyy, Ny])):
        L = dS.reshape(k, d, n) / np.array(system.sigma)[:, None, None]
        L = np.concatenate([L[..., :1], L[..., 1:] - L[..., :1]], axis=-1)
        slot, col = np.nonzero(np.any(L != 0, axis=-1))
        ops.append((slot, col, np.ascontiguousarray(L[slot, col].T)))
    return units, ops


def _algebra(system, operators, F, axis):
    """The algebra element A_x (axis 0) or A_y (axis 1) of the frame at the points of the data dict F.

    It is on a (rows, rows, *points) layout, with F' = A F, and lies in the
    algebra of the frame's group: (A diag(gram)) is skew on the group rows.
    The rows of the state slots come from the probed ``operators``, rescaled
    by e^u where a slot holds P_x or P_y, whose e^u also moves; the P-hat
    row is filled in by that skew-symmetry.  Built by one einsum and
    elementwise products, with no BLAS call.
    """
    units, ops = operators
    slot, col, L = ops[axis]
    c = system.coefficients(F)
    u = F["u"]
    coef = np.stack([np.ones(np.shape(u)), *(c[k].real if unit == 1.0 else c[k].imag for k, unit in units)], axis=-1)
    w, rows, g, h = len(system.rows) + 1, np.array(system.rows), np.array(system.gram), system.hat
    moves = np.zeros(w, dtype=int)
    moves[rows[1:3]] = 1
    scale = np.stack([np.exp(-u), np.ones(np.shape(u)), np.exp(u)])
    r = rows[slot]
    A = np.zeros((w, w) + np.shape(u))
    E = np.moveaxis(np.einsum("...t,tn->...n", coef, L), -1, 0)
    A[r, col] = np.multiply(E, scale[moves[col] - moves[r] + 1], out=E)
    A[rows[1:3], rows[1:3]] -= F[("ux", "uy")[axis]]
    A[h, :len(g)] = -A[:len(g), h] * (g[h] / g).reshape((-1,) + (1,) * np.ndim(u))
    return A


def _march_grid(system, operators, F0, fields, x, y):
    """March a Frenet frame over the node grid from ``F0`` at its corner.

    A line's frames are the prefix products (``curves._prefix_products``) of
    its steps, ``curves._magnus_propagators`` as in the curve march, applied
    to its first frame; the algebra is read from ``fields`` at the Gauss
    points of the steps.  Marches the bottom row, then the columns from it,
    as many per field evaluation as keep its Gauss points within
    ``_PASS_POINTS`` (at least one; the frames do not depend on the grouping);
    the top row is marched again from its left end, sharing the bottom row's
    field evaluation, and its largest point distance from the columns' ends
    is the loop closure.  Returns the frames, (rows, dim, nx, ny), and it.
    """
    xs, ys = x[:, 0], y[0, :]

    def lines(X, Y, axis, t):
        """Prefix propagators of the lines of the sample grid (X, Y), their steps along its last axis."""
        A = _algebra(system, operators, fields(X, Y), axis)
        return _prefix_products(_magnus_propagators(A.reshape(A.shape[:-1] + (len(t) - 1, len(_GAUSS))), np.diff(t)))

    along_rows = lines(*np.meshgrid(_gauss_points(xs), ys[[0, -1]]), 0, xs)
    frames = np.empty(F0.shape + x.shape)
    frames[..., 0, 0] = F0
    frames[..., 1:, 0] = _mul(along_rows[:, :, 0], F0[:, :, None])
    yg = _gauss_points(ys)
    width = max(1, _PASS_POINTS // len(yg))
    for i in range(0, len(xs), width):
        block = slice(i, i + width)
        P = lines(*np.meshgrid(xs[block], yg, indexing="ij"), 1, ys)
        frames[..., block, 1:] = _mul(P, frames[..., block, 0, None])
    top = _mul(along_rows[:, :, 1], frames[..., 0, -1, None])
    closure = float(np.max(np.linalg.norm(system.point(top) - system.point(frames[..., 1:, -1]), axis=0)))
    return frames, closure


def _integrate_frenet(data, system, start, target, name, metadata):
    """Rebuild a chart from its data: the body both Frenet integrators share.

    Refuses (PreconditionError) data whose residuals but ``parallelism`` pass
    ``DATA_TOL``, marches the frame of ``system`` from the frame of the state
    ``start(F0)`` = (S, P-hat) (F0 the data at the grid corner) with
    ``_march_grid``, reading ``_grid_fields(data)`` at the Gauss points, and
    wraps the points, first derivatives and the second derivatives the
    system gives at the nodes as a ``_spline_chart``.  Returns the chart,
    the loop closure and the dense source.
    """
    worst = max(v for k, v in data.residuals.items() if k != "parallelism")
    if worst > DATA_TOL:
        raise PreconditionError(f"data residuals too large to integrate: {worst:.2e}")
    fields = _grid_fields(data)
    nodes = fields(data.x, data.y)
    c = system.coefficients(nodes)
    F0 = _frame(system, *start({k: v[0, 0] for k, v in nodes.items()}), nodes["u"][0, 0])
    frames, closure = _march_grid(system, _algebra_operators(system, c), F0, fields, data.x, data.y)
    S, hat = _state(system, frames, nodes["u"])
    Pxx, Pxy, Pyy, _, _ = system.blocks(S, hat, c)
    d = system.dim
    chart = _spline_chart(
        data.x, data.y,
        {"p": system.point(frames), "px": S[d:2 * d], "py": S[2 * d:3 * d],
         "pxx": Pxx, "pxy": Pxy, "pyy": Pyy},
        data.eps, target, name, metadata,
    )
    return chart, closure, fields


def integrate_cmc_frenet(data):
    """Rebuild the CMC immersion from its data by integrating the Frenet system.

    Data whose ``cmc_compatibility_residuals`` pass ``DATA_TOL`` are refused
    with PreconditionError.  Marches the adapted frame (Psi-hat, e1, e2, N), Psi-hat = (psi, 0) and
    Psi_x = e^u e1, Psi_y = e^u e2, whose Gram matrix is diag(eps, 1, 1, 1),
    with the point Psi as an affine fifth row.  Its x and y algebras come
    from the Frenet system (``_cmc_rhs_blocks``) on the frame-coordinate
    basis, with the data read from ``data.fields`` or, when that is None,
    from one quintic tensor spline of the node arrays (``_march_grid``).
    The Pade map keeps the frame on its group with no projection.  The
    rebuilt point takes its factor part from the Psi-hat row, which stays on
    the quadric, and its height from the affine row.  Returns the rebuilt
    chart, one quintic tensor spline through the marched points, e^u e1,
    e^u e2 and the Frenet second derivatives at the nodes, and a report of
    the loop closure and of H and theta_AR on ``cmc_record`` of the chart.
    No step makes a BLAS call, so the chart's bits do not depend on the
    BLAS kernel.
    """
    eps = data.eps
    nx, ny = data.x.shape

    def start(F0):
        S = initial_cmc_state(
            eps, float(F0["u"]), float(F0["nu"]), float(F0["eta_x"]), float(F0["eta_y"]), eta0=float(data.eta[0, 0])
        )
        return S, np.r_[S[:3], 0.0]

    chart, closure, fields = _integrate_frenet(
        data, _cmc_system(eps, data.Hval), start, TARGET_LINE, "cmc_reconstruction", {"Hval": data.Hval}
    )
    report = {"loop_closure": closure}
    ar = cmc_record(chart, min(nx, 41), min(ny, 41), 0.03).require_cmc(REBUILT_CMC_TOL)
    report["H_match"] = float(np.max(np.abs(ar.H_scalar - data.Hval)))
    xg, yg = ar.x, ar.y
    Fa = fields(xg, yg)
    eta_z = 0.5 * (Fa["eta_x"] - 1j * Fa["eta_y"])
    report["theta_ar_match"] = float(np.max(np.abs(ar.theta_ar - ar_theta(data.Hval, Fa["p"], eta_z, eps))))
    report["conformal_defect"] = float(np.max(ar.conformal_defect))
    if report["H_match"] > REBUILT_CMC_TOL:
        raise VerificationError(f"reconstruction failed: |H| off by {report['H_match']:.2e}")
    return chart, report


# ---------------------------------------------------------------------------
# reconstruction: PMC charts in M2(eps) x M2(eps)
# ---------------------------------------------------------------------------


def _pmc_coefficients(eps, Hval, F):
    """The data-only factors of the PMC Frenet system on the points of the dict F.

    Each entry multiplies one state-linear term of ``_pmc_rhs_blocks``, so the
    system is real-linear in each entry; the constant |H|/sqrt(2) is spread
    over the points like the others, and ``e2u_H`` is e^{2u}/2 times it: the
    mean curvature vector is |H|/sqrt(2) (xi + conj(xi)).
    """
    u_z = 0.5 * (F["ux"] - 1j * F["uy"])
    e2u = np.exp(2 * F["u"])
    C1, C2 = F["C1"], F["C2"]
    g1, g2, f1, f2 = F["gamma1"], F["gamma2"], F["f1"], F["f2"]
    H = Hval / np.sqrt(2.0)
    return {
        "u_z": u_z, "f1": f1, "f2": f2, "eps_g1g2": eps * g1 * g2 / 2.0,
        "e2u_H": e2u / 2.0 * H, "eps_e2u": eps * e2u / 4.0, "eps_e2u_C1C2": eps * e2u / 4.0 * C1 * C2,
        "H": np.full_like(e2u, H), "f2_over_e2u": 2.0 * np.exp(-2 * F["u"]) * f2,
        "f1bar_over_e2u": 2.0 * np.exp(-2 * F["u"]) * np.conj(f1),
        "eps_C1g2": eps * 1j * C1 * g2 / 2.0, "eps_C2g1bar": eps * 1j * C2 * np.conj(g1) / 2.0,
    }


def _pmc_rhs_blocks(S, Phi_hat, c):
    """Second derivatives of Phi and first derivatives of xi from the Frenet system.

    S is the packed state (Phi, Phi_x, Phi_y, Re xi, Im xi), Phi_hat the
    reflection (phi, -psi) of Phi and c the dict of ``_pmc_coefficients`` at
    the evaluation points; xi_x and xi_y come back packed as (Re, Im).
    """
    Phi, Px, Py, xi = _unpack_pmc(S)
    Phi_z = 0.5 * (Px - 1j * Py)
    xibar = np.conj(xi)
    A = 2.0 * c["u_z"] * Phi_z + c["f1"] * xi + c["f2"] * xibar - c["eps_g1g2"] * Phi_hat
    B = c["e2u_H"] * (xi + xibar) - c["eps_e2u"] * Phi - c["eps_e2u_C1C2"] * Phi_hat
    xi_z = -c["H"] * Phi_z - c["f2_over_e2u"] * np.conj(Phi_z) + c["eps_C1g2"] * Phi_hat
    xi_zbar = -c["H"] * np.conj(Phi_z) - c["f1bar_over_e2u"] * Phi_z - c["eps_C2g1bar"] * Phi_hat
    Pxx = 2.0 * (A.real + B.real)
    Pyy = 2.0 * (B.real - A.real)
    Pxy = -2.0 * A.imag
    xi_x = xi_z + xi_zbar
    xi_y = 1j * (xi_z - xi_zbar)
    return Pxx, Pxy, Pyy, np.concatenate([xi_x.real, xi_x.imag]), np.concatenate([xi_y.real, xi_y.imag])


def _pmc_system(eps, Hnorm):
    """The PMC system on the frame (Phi, Phi-hat, e1, e2, sqrt(2) Re xi, sqrt(2) Im xi).

    Its Gram matrix is diag(2 eps, 2 eps, 1, 1, 1, 1); the rebuilt point is
    the Phi row.
    """
    r = 1.0 / np.sqrt(2.0)
    return _FrenetSystem(
        6, (2.0 * eps, 2.0 * eps, 1.0, 1.0, 1.0, 1.0), (0, 2, 3, 4, 5), (1.0, 1.0, 1.0, r, r), 1,
        partial(_pmc_coefficients, eps, Hnorm), _pmc_rhs_blocks, lambda F: F[0],
    )


def _pack_pmc(Phi, Px, Py, xi):
    return np.concatenate([Phi, Px, Py, xi.real, xi.imag])


def _unpack_pmc(S):
    return S[0:6], S[6:12], S[12:18], S[18:24] + 1j * S[24:30]


def integrate_pmc_frenet(data):
    """Rebuild the PMC immersion from its data by integrating the Frenet system.

    Marches the adapted frame (Phi, Phi-hat, e1, e2, sqrt(2) Re xi,
    sqrt(2) Im xi), Phi-hat = (phi, -psi), whose Gram matrix is
    diag(2 eps, 2 eps, 1, 1, 1, 1), as ``integrate_cmc_frenet`` marches its
    frame, behind the same gate on its ``pmc_compatibility_residuals``; the
    rebuilt point is the Phi row.
    """
    eps = data.eps
    nx, ny = data.x.shape

    def start(F0):
        Phi, Phi_x, Phi_y, xi = initial_pmc_state(
            eps, float(F0["u"]), float(F0["C1"]), float(F0["C2"]), complex(F0["gamma1"]), complex(F0["gamma2"])
        )
        return _pack_pmc(Phi, Phi_x, Phi_y, xi), np.r_[Phi[:3], -Phi[3:]]

    chart, closure, fields = _integrate_frenet(
        data, _pmc_system(eps, data.Hnorm), start, TARGET_PRODUCT, "pmc_reconstruction",
        {"Hnorm": data.Hnorm},
    )
    report = {"loop_closure": closure}
    Xs, Ys = chart.grid(min(nx, 33), min(ny, 33), shrink=0.03)
    report["parallelism"] = parallelism_residual(chart, Xs, Ys)
    jet = sample_jet(chart, Xs, Ys)
    frame = normal_frame(jet)
    scal = frenet_scalars(jet, frame)
    t1, t2 = hopf_coefficients(jet, frame, scal)
    Fa = fields(Xs, Ys)
    td1, td2 = (hopf_theta(data.Hnorm, Fa[f"f{j}"], Fa[f"gamma{j}"], eps) for j in (1, 2))
    report["theta_match"] = float(max(np.max(np.abs(t1 - td1)), np.max(np.abs(t2 - td2))))
    report["H_match"] = float(np.max(np.abs(frame.Hnorm - data.Hnorm)))
    return chart, report


# ---------------------------------------------------------------------------
# congruence testing
# ---------------------------------------------------------------------------


def _factor_frame_matrix(p, v, eps, reflect=False):
    """The frame matrix with the columns (p, e, J e), p and v first projected onto M2(eps) and T_p M2(eps).

    A rebuilt chart's centre point is a spline value, off the quadric by the
    spline's error; projected, the columns are G-orthonormal to round-off.
    """
    p = project_to_factor(p, eps)
    v = tangent_project3(p, v, eps)
    e = v / np.sqrt(inner(v, v, eps))
    je = cross_eps(p, e, eps)
    if reflect:
        je = -je
    return np.stack([p, e, je], axis=-1)


def factor_isometry_from_frames(pA, vA, pB, vB, eps, reflect=False):
    """The isometry of M2(eps) sending the frame (pA, vA) to (pB, +-vB's frame).

    The columns (p, e, J e) of a frame matrix M are orthogonal under the
    ambient metric G with Gram diag(eps, 1, 1), so M^{-1} = diag(eps, 1, 1) M^T G
    and the isometry MB MA^{-1} is one ``curves._mul``, with no BLAS call.  Its
    operands are made C-ordered (MA^T G is not), as the einsum's summation
    order follows their layout.
    """
    MA = _factor_frame_matrix(pA, vA, eps)
    MB = _factor_frame_matrix(pB, vB, eps, reflect=reflect)
    return _mul(np.ascontiguousarray(MB * np.array([eps, 1.0, 1.0])), np.ascontiguousarray(MA.T * metric_diag(eps)))


def _aligned_factor_distance(pA, vA, pB, vB, eps, reflect):
    """Max distance from factor block pB to pA moved by the isometry matching the centre frames.

    pA and pB are (3, nx, ny) blocks of a ``JetSample``'s p, components leading."""
    i0, j0 = pA.shape[1] // 2, pA.shape[2] // 2
    L = factor_isometry_from_frames(pA[:, i0, j0], vA, pB[:, i0, j0], vB, eps, reflect=reflect)
    mapped = np.einsum("ij,j...->i...", L, pA)
    return np.max(np.linalg.norm(mapped - pB, axis=0))


def _height_distance(hA, hB):
    """Max |s hA + c - hB| for the better sign s in {+1, -1}, with c the mean of hB - s hA."""
    return min(float(np.max(np.abs(s * hA + float(np.mean(hB - s * hA)) - hB))) for s in (+1.0, -1.0))


@dataclass
class CongruenceVerdict:
    congruent: bool
    distance: float
    domain_map: str  # "id" or "conj"


def weak_congruence_check(chartA, chartB, nx=41, ny=41):
    """Weak congruence of two charts into M2(eps) x R.

    Searches over the domain reflection z -> zbar composed with ambient
    isometries (factor isometry from frame matching, both orientations, and
    height direction/offset).  Returns the verdict with the smallest aligned
    max pointwise distance.
    """
    if chartA.target == TARGET_PRODUCT or chartB.target == TARGET_PRODUCT:
        raise DomainError("weak_congruence_check compares charts into M2(eps) x R")
    eps = chartA.eps
    XA, YA = chartA.grid(nx, ny, shrink=0.05)
    jA = sample_jet(chartA, XA, YA)
    PA = jA.p

    best = None
    i0, j0 = nx // 2, ny // 2
    for domain_map in ("id", "conj"):
        XB = XA.copy()
        YB = YA if domain_map == "id" else (chartB.domain[2] + chartB.domain[3]) - YA
        try:
            jB = sample_jet(chartB, XB, YB)
        except DomainError:
            continue
        PB = jB.p
        vA = jA.px[:3, i0, j0]
        vB = jB.px[:3, i0, j0]
        if inner(vA, vA, eps) < 1e-12 or inner(vB, vB, eps) < 1e-12:
            continue
        dist_h = _height_distance(PA[3], PB[3])
        for reflect in (False, True):
            dist = max(_aligned_factor_distance(PA[:3], vA, PB[:3], vB, eps, reflect), dist_h)
            if best is None or dist < best.distance:
                best = CongruenceVerdict(
                    congruent=bool(dist <= CONGRUENCE_TOL),
                    distance=float(dist),
                    domain_map=domain_map,
                )
    if best is None:
        return CongruenceVerdict(False, np.inf, "none")
    return best


def product_alignment_distance(chartA, chartB, nx=25, ny=25):
    """Aligned max distance between two product charts (per-factor frame matching)."""
    eps = chartA.eps
    X, Y = chartA.grid(nx, ny, shrink=0.05)
    jA = sample_jet(chartA, X, Y)
    jB = sample_jet(chartB, X, Y)
    PA, PB = jA.p, jB.p
    i0, j0 = nx // 2, ny // 2
    # the second factor of profile charts is a curve: use its x-velocity
    vA2, vB2 = jA.px[3:, i0, j0], jB.px[3:, i0, j0]
    if inner(vA2, vA2, eps) < 1e-10:
        vA2, vB2 = jA.py[3:, i0, j0], jB.py[3:, i0, j0]
    vA1, vB1 = jA.px[:3, i0, j0], jB.px[:3, i0, j0]
    d1 = [_aligned_factor_distance(PA[:3], vA1, PB[:3], vB1, eps, r) for r in (False, True)]
    d2 = [_aligned_factor_distance(PA[3:], vA2, PB[3:], vB2, eps, r) for r in (False, True)]
    return float(min(max(a, b) for a in d1 for b in d2))
