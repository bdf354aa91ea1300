"""Constructors for every explicit surface family: PMC charts in M2(eps) x M2(eps)
and CMC charts in M2(eps) x R (or x S1).

Every constructor returns an ``ImmersionChart`` whose ``jet`` broadcasts over
coordinate arrays and supplies the point with its first and second partials;
the chart evaluates through the jet's ``p``, and a product chart's jet is its
two factor jets stacked by ``_product_jet``.
Charts backed by closed forms carry exact jets; charts backed by a profile
solution or an integrated curve inherit the dense-output accuracy of those
solvers, which is far below the verification tolerances.

Conventions: product charts live in R^6 (two factor blocks), charts into
M2(eps) x R in R^4 with the height as fourth coordinate.  The height of the
torus family is the multivalued lift; ``embed_circle`` provides the
single-valued S1 embedding.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .ambient import check_eps, factor_constraint
from .curves import CurveSpec, constant_curvature_curve, integrate_curve
from .elliptic import complete_k, jacobi_sncndn
from .errors import DomainError, InfeasibleParameters
from .profile import ProfileParams, closed_form
from .utils import CumulativeIntegral

TARGET_PRODUCT = "product"
TARGET_LINE = "factor_times_line"
TARGET_CIRCLE = "factor_times_circle"

# Where the hyperboloid coordinates of a chart outgrow its metric scale by e^g,
# its invariants keep about 2.2e-16 e^(2g) relative accuracy, which the grid
# differences of the verification divide by their steps.  Each constructor
# refuses a rectangle past g = GROWTH_BOUND; on the rectangles tried at that
# edge the residuals stay below a fifth of their gates on 81x81 grids.
GROWTH_BOUND = 6.0
PLANE = 1e6  # bound on |x| and |y| of every rectangle: float spacing there is 1.2e-10


@dataclass
class ImmersionChart:
    """A parametrized surface patch with optional analytic 2-jet.

    evaluate(x, y) -> (..., dim) points, dim = 6 (product) or 4 (x R / x S1);
    jet(x, y) -> dict with keys p, px, py, pxx, pxy, pyy of the same shape.
    Without ``evaluate`` the chart evaluates through the jet's ``p``.
    """

    name: str
    eps: int
    target: str
    domain: tuple
    evaluate: Optional[Callable] = None
    jet: Optional[Callable] = None
    metadata: dict = field(default_factory=dict)
    circle_radius: Optional[float] = None
    periods: Optional[tuple] = None
    embed_circle: Optional[Callable] = None

    def __post_init__(self):
        if self.evaluate is None:
            if self.jet is None:
                raise DomainError(f"chart '{self.name}' needs evaluate or jet")
            # bind the jet given here, so a later swap of self.jet leaves evaluate alone
            jet = self.jet
            self.evaluate = lambda x, y: jet(x, y)["p"]
        _require(self.name, f"|x|, |y| <= {PLANE:g}", max(map(abs, self.domain)) <= PLANE, self.domain)

    @property
    def dim(self):
        return 6 if self.target == TARGET_PRODUCT else 4

    def grid(self, nx, ny, shrink=0.0):
        """Meshgrid of the domain rectangle, optionally shrunk by a margin fraction."""
        x0, x1, y0, y1 = self.domain
        mx = shrink * (x1 - x0)
        my = shrink * (y1 - y0)
        xs = np.linspace(x0 + mx, x1 - mx, nx)
        ys = np.linspace(y0 + my, y1 - my, ny)
        return np.meshgrid(xs, ys, indexing="ij")

    def manifold_defect(self, x, y):
        """Max violation of the target-manifold constraints at the given samples."""
        p = self.evaluate(x, y)
        d1 = np.abs(factor_constraint(p[..., :3], self.eps))
        if self.target == TARGET_PRODUCT:
            d2 = np.abs(factor_constraint(p[..., 3:], self.eps))
            return float(max(d1.max(), d2.max()))
        return float(d1.max())


def _require(which, clause, holds, got):
    """Refuse what the ``which`` chart cannot be built on, naming ``clause`` and the values it got."""
    if not holds:
        shown = ",".join(f"{v:.6g}" for v in np.atleast_1d(got))
        raise InfeasibleParameters(f"the {which} chart needs {clause}, got {shown}", clause)


def _extent(domain):
    """max |x| and max |y| over the rectangle."""
    return max(-domain[0], domain[1]), max(-domain[2], domain[3])


def _jet_dict(p, px, py, pxx, pxy, pyy):
    return {"p": p, "px": px, "py": py, "pxx": pxx, "pxy": pxy, "pyy": pyy}


def _product_jet(first, second):
    """The jet of a map into a product: the two factor jets concatenated key by key."""
    return {k: np.concatenate([first[k], second[k]], axis=-1) for k in first}


def _distinct(t):
    """The distinct values of ``t`` and the indices that gather them back onto t.shape.

    One-variable data evaluated on the distinct values and gathered with the
    indices is that data evaluated on every sample: values are told apart by
    their bit patterns (so -0.0 and 0.0 stay apart), and each result is the
    same elementwise function of the same float.
    """
    t = np.asarray(t, dtype=float)
    bits, inverse = np.unique(t.view(np.int64), return_inverse=True)
    return bits.view(np.float64), inverse.reshape(t.shape)


def _curve_factor(curve, t, gather, along):
    """3-block factor jet of a curve of x (``along="x"``) or of y (``along="y"``).

    The curve's jet is taken on the distinct coordinate values ``t`` and
    gathered onto the samples with ``gather`` (see ``_distinct``).
    """
    p, v, a = (w[gather] for w in curve.jet(t))
    zero = np.zeros_like(p)
    if along == "x":
        return _jet_dict(p, v, zero, a, zero, zero)
    return _jet_dict(p, zero, v, zero, zero, a)


def _with_height(jet3, eta, eta_x, eta_y, eta_xx):
    """Append the height column to a 3-block jet; the height is affine in y."""
    zero = np.zeros_like(eta)
    height = _jet_dict(eta, eta_x, eta_y, eta_xx, zero, zero)
    return _product_jet(jet3, {k: v[..., None] for k, v in height.items()})


# ---------------------------------------------------------------------------
# products of constant-curvature curves
# ---------------------------------------------------------------------------


def product_chart_from_curves(alpha, beta, eps, domain, name="curves_product", metadata=None, periods=None):
    """Chart (alpha(x), beta(y)) from two curves, each answering ``jet``.

    alpha is evaluated once per distinct x and beta once per distinct y.
    """

    def jet(x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return _product_jet(_curve_factor(alpha, *_distinct(x), "x"), _curve_factor(beta, *_distinct(y), "y"))

    return ImmersionChart(
        name=name,
        eps=eps,
        target=TARGET_PRODUCT,
        domain=domain,
        jet=jet,
        metadata=metadata or {},
        periods=periods,
    )


def _factor_reach(eps, k):
    """Largest |t| at which the canonical curve of curvature k keeps x3 <= cosh(GROWTH_BOUND).

    In H2 a circle has constant x3 = |k| / sqrt(k^2 - 1), the horocycle
    x3 = 1 + t^2/2 and a hypercycle x3 = cosh(mu t) / mu, mu = sqrt(1 - k^2).
    """
    top = np.cosh(GROWTH_BOUND)
    if eps == +1 or abs(k) > 1:
        return np.inf if eps == +1 or k * k <= top**2 * (k * k - 1) else 0.0
    if abs(k) == 1:
        return np.sqrt(2.0 * (top - 1.0))
    mu = np.sqrt(1.0 - k * k)
    return np.arccosh(max(mu * top, 1.0)) / mu


def _y_reach(rate, parabolic):
    """Largest |s| at which the H2 isometry by rate * s keeps its entries <= cosh(GROWTH_BOUND).

    A boost by rate * s has entries up to cosh(rate s), so |s| <= GROWTH_BOUND / rate.
    A parabolic translation by rate * s has entries up to 1 + (rate s)^2 / 2, as
    the horocycle of ``_factor_reach`` grows, so |s| <= sqrt(2 (cosh(GROWTH_BOUND) - 1)) / rate.
    """
    return (_factor_reach(-1, 1.0) if parabolic else GROWTH_BOUND) / rate


def product_of_curves(eps, k_alpha, k_beta, domain=None):
    """Flat PMC chart (alpha(x), beta(y)) from two constant-curvature curves.

    4 |H|^2 = k_alpha^2 + k_beta^2; both curvatures zero gives a minimal chart
    with null mean curvature, which is refused.  ``domain`` defaults to one
    period of each circle for eps = +1 and to [-2, 2]^2 for eps = -1; a
    hypercycle or horocycle factor takes |t| up to ``_factor_reach``.
    """
    eps = check_eps(eps)
    _require("product", "k_alpha != 0 or k_beta != 0", k_alpha != 0.0 or k_beta != 0.0, (k_alpha, k_beta))
    alpha = constant_curvature_curve(eps, k_alpha)
    beta = constant_curvature_curve(eps, k_beta)
    periods = None
    if eps == +1:
        periods = (2 * np.pi / np.sqrt(1 + k_alpha**2), 2 * np.pi / np.sqrt(1 + k_beta**2))
        if domain is None:
            domain = (0.0, periods[0], 0.0, periods[1])
    if domain is None:
        domain = (-2.0, 2.0, -2.0, 2.0)
    for axis, (t0, t1), k in (("x", domain[:2], k_alpha), ("y", domain[2:], k_beta)):
        reach = _factor_reach(eps, k)
        _require("product", f"|{axis}| <= {reach:.6g}", max(-t0, t1) <= reach, domain)
    return product_chart_from_curves(
        alpha,
        beta,
        eps,
        domain,
        metadata={"k_alpha": k_alpha, "k_beta": k_beta, "H_sq": (k_alpha**2 + k_beta**2) / 4.0},
        periods=periods,
    )


# ---------------------------------------------------------------------------
# the invariant PMC family (profile solutions)
# ---------------------------------------------------------------------------


def _first_factor_jet(params, h, xs, ix, ys, iy):
    """Analytic 2-jet of the first factor of the invariant PMC family.

    h, R and their derivatives are evaluated on the distinct abscissae ``xs``
    and the rotation on the distinct ordinates ``ys``; the gathers ``ix`` and
    ``iy`` carry them onto the samples, where only their products are formed.
    """
    eps, a = params.eps, params.a
    hv = h.h_at(xs)
    hp = h.hp_at(xs)
    hpp = h.hpp_at(xs)
    uc = eps * (a - hv**2)
    ucp = -2.0 * eps * hv * hp
    ucpp = -2.0 * eps * (hp**2 + hv * hpp)
    if np.any(uc <= 0):
        raise DomainError("eps (a - h^2) > 0 fails on the requested samples")
    R = np.sqrt(uc)
    Rp = ucp / (2.0 * R)
    Rpp = ucpp / (2.0 * R) - ucp**2 / (4.0 * R**3)

    if a > 0:
        w = np.sqrt(a)
        cw, sw = np.cos(w * ys)[iy], np.sin(w * ys)[iy]
        hv, hp, hpp, R, Rp, Rpp = (v[ix] for v in (hv, hp, hpp, R, Rp, Rpp))
        inv = 1.0 / w
        p = inv * np.stack([R * cw, R * sw, hv], axis=-1)
        px = inv * np.stack([Rp * cw, Rp * sw, hp], axis=-1)
        py = inv * np.stack([-R * w * sw, R * w * cw, np.zeros_like(hv)], axis=-1)
        pxx = inv * np.stack([Rpp * cw, Rpp * sw, hpp], axis=-1)
        pxy = inv * np.stack([-Rp * w * sw, Rp * w * cw, np.zeros_like(hv)], axis=-1)
        pyy = inv * np.stack([-R * w * w * cw, -R * w * w * sw, np.zeros_like(hv)], axis=-1)
    elif a < 0:
        m = np.sqrt(-a)
        ch, sh = np.cosh(m * ys)[iy], np.sinh(m * ys)[iy]
        hv, hp, hpp, R, Rp, Rpp = (v[ix] for v in (hv, hp, hpp, R, Rp, Rpp))
        inv = 1.0 / m
        zeros = np.zeros_like(hv)
        p = inv * np.stack([hv, R * sh, R * ch], axis=-1)
        px = inv * np.stack([hp, Rp * sh, Rp * ch], axis=-1)
        py = inv * np.stack([zeros, R * m * ch, R * m * sh], axis=-1)
        pxx = inv * np.stack([hpp, Rpp * sh, Rpp * ch], axis=-1)
        pxy = inv * np.stack([zeros, Rp * m * ch, Rp * m * sh], axis=-1)
        pyy = inv * np.stack([zeros, R * m * m * sh, R * m * m * ch], axis=-1)
    else:
        # a = 0 (eps = -1, h > 0): phi = ((y^2-1)h/2 + 1/(2h), y h, (y^2+1)h/2 + 1/(2h))
        g = 1.0 / (2.0 * hv)
        gp = -hp / (2.0 * hv**2)
        gpp = (-hpp + 2.0 * hp**2 / hv) / (2.0 * hv**2)
        hv, hp, hpp, g, gp, gpp = (v[ix] for v in (hv, hp, hpp, g, gp, gpp))
        y = ys[iy]
        y2 = y * y
        zeros = np.zeros_like(hv)
        p = np.stack([(y2 - 1) * hv / 2 + g, y * hv, (y2 + 1) * hv / 2 + g], axis=-1)
        px = np.stack([(y2 - 1) * hp / 2 + gp, y * hp, (y2 + 1) * hp / 2 + gp], axis=-1)
        py = np.stack([y * hv, hv, y * hv], axis=-1)
        pxx = np.stack([(y2 - 1) * hpp / 2 + gpp, y * hpp, (y2 + 1) * hpp / 2 + gpp], axis=-1)
        pxy = np.stack([y * hp, hp, y * hp], axis=-1)
        pyy = np.stack([hv, zeros, hv], axis=-1)
    return _jet_dict(p, px, py, pxx, pxy, pyy)


def _profile_psi_curve(params, h):
    """Second-factor curve of the invariant families: |psi'|^2 = b (1 + (h-c)^2)."""
    eps, b, c = params.eps, params.b, params.c

    def speed(x):
        return np.sqrt(b * (1.0 + (h.h_at(x) - c) ** 2))

    def speed_prime(x):
        return b * (h.h_at(x) - c) * h.hp_at(x) / speed(x)

    def curvature(x):
        return -eps * b * (params.a - h.h_at(x) ** 2) / speed(x) ** 3

    p0 = np.array([1.0, 0.0, 0.0]) if eps == +1 else np.array([0.0, 0.0, 1.0])
    T0 = np.array([0.0, 1.0, 0.0]) if eps == +1 else np.array([1.0, 0.0, 0.0])
    spec = CurveSpec(eps, speed, curvature, p0=p0, T0=T0, speed_prime=speed_prime)
    lo, hi = h.span
    return integrate_curve(spec, x_span=(lo, hi), step=min(1e-3, (hi - lo) / 2000.0))


def pmc_profile_family(params, h, y_span=(-1.0, 1.0), name="prop4"):
    """PMC chart of the invariant family built on a profile solution h.

    The chart has 4 |H|^2 = b, conformal factor eps (a - h^2), equal Kaehler
    functions with C1^2 = h'^2/(a - h^2)^2 and constant Hopf coefficients
    (eps b / 4)(a + 1 - c^2 + 2 (-1)^j i c).

    y moves the first factor by a rotation (a > 0), a boost by sqrt(-a) y
    (a < 0) or the parabolic translation by y that fixes the null direction
    (1, 0, 1) (a = 0); ``_y_reach`` bounds |y| in the last two.
    """
    if h.params != params:
        raise DomainError("profile solution was built for different parameters")
    if params.a <= 0 and params.eps != -1:
        raise DomainError("branches a <= 0 require eps = -1")
    if params.a == 0.0 and np.any(h.h <= 0):
        raise DomainError("the a = 0 branch needs h > 0 on the span")
    if np.any(params.eps * (params.a - h.h**2) <= 0):
        raise DomainError("profile solution leaves the admissible band eps (a - h^2) > 0")
    if params.a <= 0:
        parabolic = params.a == 0.0
        reach = _y_reach(1.0 if parabolic else np.sqrt(-params.a), parabolic)
        _require(name, f"|y| <= {reach:.6g}", max(-y_span[0], y_span[1]) <= reach, y_span)
    psi = _profile_psi_curve(params, h)

    def jet(x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        (xs, ix), (ys, iy) = _distinct(x), _distinct(y)
        return _product_jet(_first_factor_jet(params, h, xs, ix, ys, iy), _curve_factor(psi, xs, ix, "x"))

    lo, hi = h.span
    pad = 0.01 * (hi - lo)
    # constant Hopf pair; the j-labels follow the package orientation convention,
    # under which theta_1 carries +2ic for eps=+1 and -2ic for eps=-1
    hopf = [
        (params.eps * params.b / 4.0)
        * (params.a + 1 - params.c**2 + 2 * (-1) ** (j + 1) * params.eps * 1j * params.c)
        for j in (1, 2)
    ]
    return ImmersionChart(
        name=name,
        eps=params.eps,
        target=TARGET_PRODUCT,
        domain=(lo + pad, hi - pad, y_span[0], y_span[1]),
        jet=jet,
        metadata={
            "params": params,
            "H_sq": params.b / 4.0,
            "hopf_expected": hopf,
            # the curve factor is pinned only up to congruence; this chart uses
            # the canonical start (model center point, first tangent axis)
            "psi_frame": "canonical",
        },
    )


def pmc_phi0(h_abs, domain=None):
    """The complete PMC chart with vanishing Hopf differentials in H2 x H2.

    Defined for 0 < |H| < 1/2 on (-pi/2, pi/2) x R; induced metric
    (1 - 4|H|^2)^{-1} cos^{-2} x (dx^2 + dy^2), constant curvature 4|H|^2 - 1,
    C1^2 = C2^2 = 1 - 4|H|^2.

    The second factor is a curve marched from x = 0 in steps of 5e-4 over the
    x-range of ``domain``, extended to reach 0.  Its speed has a pole at
    |x| = pi/2 and the march can overrun the range by one step, so the x-range
    must keep |x| < pi/2 - 5e-4; the first factor is a boost by y / sqrt(1 - 4|H|^2),
    kept within GROWTH_BOUND.  The default rectangle is 0.98 of a march over
    |x| <= 0.6 pi/2, by |y| <= 1.5.
    """
    H = float(h_abs)
    _require("phi0", "0 < |H| < 1/2", 0.0 < H < 0.5, H)
    half = np.pi / 2.0
    step = 5e-4
    if domain is None:
        x_span = (-0.6 * half, 0.6 * half)
        domain = (0.98 * x_span[0], 0.98 * x_span[1], -1.5, 1.5)
    else:
        _require("phi0", f"|x| < pi/2 - {step:g}", _extent(domain)[0] < half - step, domain)
        x_span = (min(domain[0], 0.0), max(domain[1], 0.0))
    s = np.sqrt(1.0 - 4.0 * H * H)
    _require("phi0", f"|y| <= {GROWTH_BOUND * s:.6g}", _extent(domain)[1] <= GROWTH_BOUND * s, domain)

    def speed(x):
        return 2.0 * H / (s * np.cos(x))

    def speed_prime(x):
        return 2.0 * H * np.sin(x) / (s * np.cos(x) ** 2)

    def curvature(x):
        return -np.cos(x) / (2.0 * H)

    spec = CurveSpec(
        -1, speed, curvature, p0=np.array([0.0, 0.0, 1.0]), T0=np.array([1.0, 0.0, 0.0]), speed_prime=speed_prime
    )
    psi = integrate_curve(spec, x_span=x_span, step=step)

    def jet(x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        (xs, ix), (ys, iy) = _distinct(x), _distinct(y)
        sec = 1.0 / np.cos(xs)
        tn = np.tan(xs)
        Y = ys / s
        shY, chY = np.sinh(Y)[iy], np.cosh(Y)[iy]
        zeros = np.zeros_like(x)
        dsec = np.sin(xs) * sec**2  # d/dx sec x
        d2sec = (1.0 + np.sin(xs) ** 2) * sec**3  # d^2/dx^2 sec x
        dtan, d2tan = (sec**2)[ix], (2 * sec**2 * tn)[ix]
        sec, tn, dsec, d2sec = sec[ix], tn[ix], dsec[ix], d2sec[ix]
        first = _jet_dict(
            p=np.stack([tn, shY * sec, chY * sec], axis=-1),
            px=np.stack([dtan, shY * dsec, chY * dsec], axis=-1),
            py=np.stack([zeros, chY * sec / s, shY * sec / s], axis=-1),
            pxx=np.stack([d2tan, shY * d2sec, chY * d2sec], axis=-1),
            pxy=np.stack([zeros, chY * dsec / s, shY * dsec / s], axis=-1),
            pyy=np.stack([zeros, shY * sec / s**2, chY * sec / s**2], axis=-1),
        )
        return _product_jet(first, _curve_factor(psi, xs, ix, "x"))

    return ImmersionChart(
        name="phi0",
        eps=-1,
        target=TARGET_PRODUCT,
        domain=domain,
        jet=jet,
        metadata={
            "H": H,
            "H_sq": H * H,
            "K_expected": 4 * H * H - 1,
            "C_sq_expected": 1 - 4 * H * H,
            "hopf_expected": [0j, 0j],
        },
    )


# ---------------------------------------------------------------------------
# the invariant CMC family in M2(eps) x R (profile solutions)
# ---------------------------------------------------------------------------


def _truncate_admissible(params, h):
    """Largest x-interval around 0 where eps (a - h^2) > b + 1e-9 holds on h's grid."""
    ok = params.eps * (params.a - h.h**2) > params.b + 1e-9
    if not np.any(ok):
        raise DomainError("eps (a - h^2) > b holds nowhere on the profile span")
    i0 = np.searchsorted(h.x, 0.0)
    i0 = min(max(i0, 0), len(h.x) - 1)
    if not ok[i0]:
        raise DomainError("eps (a - h^2) > b fails at x = 0")
    lo = i0
    while lo > 0 and ok[lo - 1]:
        lo -= 1
    hi = i0
    while hi < len(ok) - 1 and ok[hi + 1]:
        hi += 1
    truncated = (lo > 0) or (hi < len(ok) - 1)
    return float(h.x[lo]), float(h.x[hi]), truncated


def cmc_profile_family(params, h, y_span=(-1.0, 1.0)):
    """CMC chart in M2(eps) x R built on a profile solution h.

    4 |H|^2 = b, conformal factor eps (a - h^2), Abresch-Rosenberg coefficient
    (eps b / 8)(a + 1 - c^2 - 2 i c).  The x-domain is truncated to the band
    where eps (a - h^2) > b, and the antiderivatives in the chart start at its
    left end.

    With f = y + F(x), the first factor moves by a rotation (E = a - eps b > 0),
    a boost by sqrt(-E) f (E < 0) or the parabolic translation by 2 f that
    fixes (1, 0, 1) (E = 0); ``_y_reach`` bounds |f| on the rectangle in the last two.
    """
    if h.params != params:
        raise DomainError("profile solution was built for different parameters")
    eps, a, b, c = params.eps, params.a, params.b, params.c
    E = a - eps * b
    if E < 0 and eps != -1:
        raise DomainError("the E < 0 branch requires eps = -1")
    lo, hi, truncated = _truncate_admissible(params, h)

    def f_integrand(t):
        ht = h.h_at(t)
        return b * (c - ht) / (eps * (E - ht**2))

    def eta_integrand(t):
        return h.h_at(t) - c

    F = CumulativeIntegral(f_integrand, lo, hi, x0=lo)
    G = CumulativeIntegral(eta_integrand, lo, hi, x0=lo)
    sqb = np.sqrt(b)
    pad = 0.01 * (hi - lo)
    if E <= 0:
        reach = _y_reach(2.0 if E == 0.0 else np.sqrt(-E), E == 0.0)
        Fr = F(np.clip(F.x, lo + pad, hi - pad))  # F on the rectangle's x-range
        f_max = max(-(y_span[0] + Fr.min()), y_span[1] + Fr.max())
        _require("prop6", f"|y + F(x)| <= {reach:.6g}", f_max <= reach, y_span)

    def jet(x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        hv, hp, hpp = h.h_at(x), h.hp_at(x), h.hpp_at(x)
        f = y + F(x)
        fx = f_integrand(x)
        # d/dx of the f-integrand
        den = eps * (E - hv**2)
        fxx = (-b * hp * den + b * (c - hv) * 2.0 * eps * hv * hp) / den**2
        W2 = eps * (E - hv**2)
        W = np.sqrt(W2)
        Wp = -eps * hv * hp / W
        Wpp = -eps * (hp**2 + hv * hpp) / W - Wp**2 / W
        zeros = np.zeros_like(hv)

        if E > 0:
            sE = np.sqrt(E)
            ang = sE * f
            Z = W * np.exp(1j * ang)
            Zx = (Wp + 1j * W * sE * fx) * np.exp(1j * ang)
            Zy = 1j * sE * Z
            Zxx = (Wpp + 2j * Wp * sE * fx + 1j * W * sE * fxx - W * E * fx**2) * np.exp(1j * ang)
            Zxy = 1j * sE * Zx
            Zyy = -E * Z
            inv = 1.0 / sE
            p = inv * np.stack([Z.real, Z.imag, hv], axis=-1)
            px = inv * np.stack([Zx.real, Zx.imag, hp], axis=-1)
            py = inv * np.stack([Zy.real, Zy.imag, zeros], axis=-1)
            pxx = inv * np.stack([Zxx.real, Zxx.imag, hpp], axis=-1)
            pxy = inv * np.stack([Zxy.real, Zxy.imag, zeros], axis=-1)
            pyy = inv * np.stack([Zyy.real, Zyy.imag, zeros], axis=-1)
        elif E < 0:
            m = np.sqrt(-E)
            # hyperbolic analogue through exponentials: A_pm = W exp(+-m f)
            Apl = W * np.exp(m * f)
            Ami = W * np.exp(-m * f)
            Apl_x = (Wp + W * m * fx) * np.exp(m * f)
            Ami_x = (Wp - W * m * fx) * np.exp(-m * f)
            Apl_xx = (Wpp + 2 * Wp * m * fx + W * m * fxx + W * m**2 * fx**2) * np.exp(m * f)
            Ami_xx = (Wpp - 2 * Wp * m * fx - W * m * fxx + W * m**2 * fx**2) * np.exp(-m * f)
            inv = 1.0 / m

            def assemble(ap, am, dh):
                return inv * np.stack([dh, 0.5 * (ap - am), 0.5 * (ap + am)], axis=-1)

            p = assemble(Apl, Ami, hv)
            px = assemble(Apl_x, Ami_x, hp)
            py = assemble(m * Apl, -m * Ami, zeros)
            pxx = assemble(Apl_xx, Ami_xx, hpp)
            pxy = assemble(m * Apl_x, -m * Ami_x, zeros)
            pyy = assemble(m**2 * Apl, m**2 * Ami, zeros)
        else:
            # E = 0 (eps = -1): psi = (h f^2 - h/4 + 1/h, h f, h f^2 + h/4 + 1/h)
            g = 1.0 / hv
            gp = -hp / hv**2
            gpp = -hpp / hv**2 + 2 * hp**2 / hv**3
            q = hv * f * f
            qx = hp * f * f + 2 * hv * f * fx
            qy = 2 * hv * f
            qxx = hpp * f * f + 4 * hp * f * fx + 2 * hv * fx**2 + 2 * hv * f * fxx
            qxy = 2 * hp * f + 2 * hv * fx
            qyy = 2 * hv
            p = np.stack([q - hv / 4 + g, hv * f, q + hv / 4 + g], axis=-1)
            px = np.stack([qx - hp / 4 + gp, hp * f + hv * fx, qx + hp / 4 + gp], axis=-1)
            py = np.stack([qy, hv, qy], axis=-1)
            pxx = np.stack([qxx - hpp / 4 + gpp, hpp * f + 2 * hp * fx + hv * fxx, qxx + hpp / 4 + gpp], axis=-1)
            pxy = np.stack([qxy, hp, qxy], axis=-1)
            pyy = np.stack([qyy, zeros, qyy], axis=-1)

        eta = sqb * (y + G(x))
        eta_x = sqb * (hv - c)
        eta_y = np.full_like(hv, sqb)
        eta_xx = sqb * hp
        return _with_height(_jet_dict(p, px, py, pxx, pxy, pyy), eta, eta_x, eta_y, eta_xx)

    theta_ar = (eps * b / 8.0) * (a + 1 - c**2 - 2j * c)
    return ImmersionChart(
        name="prop6",
        eps=eps,
        target=TARGET_LINE,
        domain=(lo + pad, hi - pad, y_span[0], y_span[1]),
        jet=jet,
        metadata={
            "params": params,
            "H_sq": b / 4.0,
            "theta_ar_expected": theta_ar,
            "height_range": (sqb * (y_span[0] + G.F.min()), sqb * (y_span[1] + G.F.max())),
            "truncated": truncated,
            "x0": lo,
        },
    )


# ---------------------------------------------------------------------------
# closed-form CMC charts (Examples 4 and 5)
# ---------------------------------------------------------------------------


def cmc_sinh_chart(lam, domain=None):
    """Closed-form CMC embedding of (R^2, (1+lam^2)/lam^2 cosh^2 x (dx^2+dy^2)) in H2 x R.

    H = 1/2 and the Abresch-Rosenberg coefficient is 1/8 for every lam > 0.
    The H2 coordinates outgrow the metric by e^(|x| + |y|), so the rectangle
    needs |x| + |y| <= GROWTH_BOUND; ``domain`` defaults to [-1.5, 1.5]^2.
    """
    lam = float(lam)
    _require("example4", "lam > 0", lam > 0, lam)
    r = np.sqrt(1.0 + lam * lam)
    domain = domain or (-1.5, 1.5, -1.5, 1.5)
    X, Y = _extent(domain)
    _require("example4", f"|x| + |y| <= {GROWTH_BOUND:g}", X + Y <= GROWTH_BOUND, domain)
    xm = max(0.0, domain[0], -domain[1])  # min |x| on the rectangle

    def jet(x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        chx, shx = np.cosh(x), np.sinh(x)
        chy, shy = np.cosh(y), np.sinh(y)
        k = r / lam
        zeros = np.zeros_like(x)
        p = k * np.stack([shx, chx * shy + chy / r, chx * chy + shy / r], axis=-1)
        px = k * np.stack([chx, shx * shy, shx * chy], axis=-1)
        py = k * np.stack([zeros, chx * chy + shy / r, chx * shy + chy / r], axis=-1)
        pxx = k * np.stack([shx, chx * shy, chx * chy], axis=-1)
        pxy = k * np.stack([zeros, shx * chy, shx * shy], axis=-1)
        pyy = k * np.stack([zeros, chx * shy + chy / r, chx * chy + shy / r], axis=-1)
        eta = (y + r * chx) / lam
        eta_x = r * shx / lam
        eta_y = np.full_like(x, 1.0 / lam)
        eta_xx = r * chx / lam
        return _with_height(_jet_dict(p, px, py, pxx, pxy, pyy), eta, eta_x, eta_y, eta_xx)

    return ImmersionChart(
        name="example4",
        eps=-1,
        target=TARGET_LINE,
        domain=domain,
        jet=jet,
        metadata={"lam": lam, "H_sq": 0.25, "theta_ar_expected": 0.125 + 0j,
                  "height_range": ((domain[2] + r * np.cosh(xm)) / lam, (domain[3] + r * np.cosh(X)) / lam)},
    )


def cmc_leite_chart(h_scalar, domain=None):
    """Closed-form CMC embedding of the hyperbolic plane of curvature 4H^2 - 1 in H2 x R.

    Vanishing Abresch-Rosenberg differential; defined for 0 < H < 1/2 on
    |x| < pi/2, where the height -log cos x has a value; y boosts the H2
    factor, so |y| <= GROWTH_BOUND.  ``domain`` defaults to |x| <= 0.88 pi/2
    by |y| <= 1.2.
    """
    H = float(h_scalar)
    _require("example5", "0 < H < 1/2", 0.0 < H < 0.5, H)
    s = np.sqrt(1.0 - 4.0 * H * H)
    half = np.pi / 2.0
    domain = domain or (-0.88 * half, 0.88 * half, -1.2, 1.2)
    X, Y = _extent(domain)
    _require("example5", "|x| < pi/2", X < half, domain)
    _require("example5", f"|y| <= {GROWTH_BOUND:g}", Y <= GROWTH_BOUND, domain)
    xm = max(0.0, domain[0], -domain[1])
    height_range = (2.0 * H / s * (domain[2] - np.log(np.cos(xm))), 2.0 * H / s * (domain[3] - np.log(np.cos(X))))

    def jet(x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        cx, sx = np.cos(x), np.sin(x)
        sec = 1.0 / cx
        dsec = sx * sec**2
        d2sec = (1.0 + sx**2) * sec**3
        tn = sx * sec
        shy, chy = np.sinh(y), np.cosh(y)
        e = 2.0 * H * H * np.exp(-y)
        zeros = np.zeros_like(x)
        inv = 1.0 / s
        p = inv * np.stack([tn, shy * sec + e * cx, chy * sec - e * cx], axis=-1)
        px = inv * np.stack([sec**2, shy * dsec - e * sx, chy * dsec + e * sx], axis=-1)
        py = inv * np.stack([zeros, chy * sec - e * cx, shy * sec + e * cx], axis=-1)
        pxx = inv * np.stack([2 * sec**2 * tn, shy * d2sec - e * cx, chy * d2sec + e * cx], axis=-1)
        pxy = inv * np.stack([zeros, chy * dsec + e * sx, shy * dsec - e * sx], axis=-1)
        pyy = inv * np.stack([zeros, shy * sec + e * cx, chy * sec - e * cx], axis=-1)
        eta = (2.0 * H / s) * (y - np.log(cx))
        eta_x = (2.0 * H / s) * tn
        eta_y = np.full_like(x, 2.0 * H / s)
        eta_xx = (2.0 * H / s) * sec**2
        return _with_height(_jet_dict(p, px, py, pxx, pxy, pyy), eta, eta_x, eta_y, eta_xx)

    return ImmersionChart(
        name="example5",
        eps=-1,
        target=TARGET_LINE,
        domain=domain,
        jet=jet,
        metadata={"H": H, "H_sq": H * H, "theta_ar_expected": 0j, "K_expected": 4 * H * H - 1,
                  "height_range": height_range},
    )


# ---------------------------------------------------------------------------
# the CMC torus family in S2 x S1
# ---------------------------------------------------------------------------


def cmc_torus(a, b, domain=None):
    """Doubly periodic CMC chart in S2 x S1(sqrt(b)/sqrt(a-b)) for 0 < b < a.

    kappa^2 = (a-b)/(a(1+b)); fundamental domain [0, 4K(kappa)] x [0, 2 pi/kappa];
    H = sqrt(b)/2 and the Abresch-Rosenberg coefficient is b(1+a)/(8a(1+b)).
    The fourth coordinate of ``evaluate`` is the multivalued height lift;
    ``embed_circle`` gives the genuine S1 embedding in R^5.  Any rectangle
    within PLANE is taken; ``domain`` defaults to the fundamental domain.
    """
    a, b = float(a), float(b)
    _require("torus", "0 < b < a", 0.0 < b < a, (a, b))
    kappa_sq = (a - b) / (a * (1.0 + b))
    kappa = np.sqrt(kappa_sq)
    Kk = complete_k(kappa)
    radius = np.sqrt(b) / np.sqrt(a - b)
    ca = 1.0 / np.sqrt(1.0 + a)
    cb = 1.0 / np.sqrt(1.0 + b)
    heta = np.sqrt(b) / np.sqrt(1.0 + b)
    slope = np.sqrt(b) / np.sqrt(a * (1.0 + b))

    def jet(x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        S, C, D = jacobi_sncndn(x, kappa)
        Sp = C * D
        Cp = -S * D
        Dp = -kappa_sq * S * C
        Z = np.sqrt(a) * D + 1j * C
        Zp = np.sqrt(a) * Dp + 1j * Cp
        Zpp = np.sqrt(a) * (-kappa_sq * D * (C * C - S * S)) + 1j * (-C * (D * D - kappa_sq * S * S))
        ph = np.exp(1j * kappa * y)
        W = Z * ph * ca
        Wx = Zp * ph * ca
        Wy = 1j * kappa * W
        Wxx = Zpp * ph * ca
        Wxy = 1j * kappa * Wx
        Wyy = -kappa_sq * W
        p3 = S * cb
        p3x = Sp * cb
        p3xx = -S * (D * D + kappa_sq * C * C) * cb
        zeros = np.zeros_like(x)
        eta = heta * np.log(D - kappa * C) + slope * y
        eta_x = heta * kappa * S
        eta_xx = heta * kappa * Sp
        eta_y = np.full_like(x, slope)

        def pack(w, third, e):
            return np.stack([w.real, w.imag, third, e], axis=-1)

        return _jet_dict(
            p=pack(W, p3, eta),
            px=pack(Wx, p3x, eta_x),
            py=pack(Wy, zeros, eta_y),
            pxx=pack(Wxx, p3xx, eta_xx),
            pxy=pack(Wxy, zeros, zeros),
            pyy=pack(Wyy, zeros, zeros),
        )

    def embed_circle(x, y):
        p = jet(x, y)["p"]
        ang = p[..., 3] / radius
        return np.concatenate(
            [p[..., :3], radius * np.cos(ang)[..., None], radius * np.sin(ang)[..., None]], axis=-1
        )

    periods = (4.0 * Kk, 2.0 * np.pi / kappa)
    theta_ar = b * (1.0 + a) / (8.0 * a * (1.0 + b))
    return ImmersionChart(
        name="torus",
        eps=+1,
        target=TARGET_CIRCLE,
        domain=domain or (0.0, periods[0], 0.0, periods[1]),
        jet=jet,
        metadata={
            "a": a,
            "b": b,
            "kappa_sq": kappa_sq,
            "H_sq": b / 4.0,
            "theta_ar_expected": theta_ar + 0j,
        },
        circle_radius=radius,
        periods=periods,
        embed_circle=embed_circle,
    )


# ---------------------------------------------------------------------------
# the totally geodesic inclusion M2(eps) x R -> M2(eps) x M2(eps)
# ---------------------------------------------------------------------------


def geodesic_inclusion(chart):
    """Compose a chart in M2(eps) x R with the totally geodesic inclusion.

    (p, t) maps to (p, (cos t, sin t, 0)) for eps = +1 and to
    (p, (0, sinh t, cosh t)) for eps = -1.  The composite is a PMC chart with
    C1 = C2 and Hopf differentials twice the Abresch-Rosenberg one.  For
    eps = -1 the height is a boost, so a chart that states its
    ``height_range`` needs |height| <= GROWTH_BOUND.
    """
    if chart.target not in (TARGET_LINE, TARGET_CIRCLE):
        raise DomainError("geodesic_inclusion expects a chart into M2(eps) x R")
    eps = chart.eps
    lo, hi = chart.metadata.get("height_range", (0.0, 0.0)) if eps == -1 else (0.0, 0.0)
    _require(f"incl({chart.name})", f"|height| <= {GROWTH_BOUND:g}", max(-lo, hi) <= GROWTH_BOUND, chart.domain)
    src = chart.jet

    def geodesic(t):
        """The factor geodesic at heights t, its velocity and its acceleration."""
        z = np.zeros_like(t)
        if eps == +1:
            g = np.stack([np.cos(t), np.sin(t), z], axis=-1)
            return g, np.stack([-np.sin(t), np.cos(t), z], axis=-1), -g
        g = np.stack([z, np.sinh(t), np.cosh(t)], axis=-1)
        return g, np.stack([z, np.cosh(t), np.sinh(t)], axis=-1), g

    def jet(x, y):
        J = src(x, y)
        t = J["p"][..., 3]
        tx, ty = J["px"][..., 3], J["py"][..., 3]
        txx, txy, tyy = J["pxx"][..., 3], J["pxy"][..., 3], J["pyy"][..., 3]
        g, gd, gdd = geodesic(t)
        second = _jet_dict(
            p=g,
            px=tx[..., None] * gd,
            py=ty[..., None] * gd,
            pxx=txx[..., None] * gd + (tx * tx)[..., None] * gdd,
            pxy=txy[..., None] * gd + (tx * ty)[..., None] * gdd,
            pyy=tyy[..., None] * gd + (ty * ty)[..., None] * gdd,
        )
        return _product_jet({k: v[..., :3] for k, v in J.items()}, second)

    meta = dict(chart.metadata)
    meta["included_from"] = chart.name
    return ImmersionChart(
        name=f"incl({chart.name})",
        eps=eps,
        target=TARGET_PRODUCT,
        domain=chart.domain,
        jet=jet,
        metadata=meta,
        periods=chart.periods,
    )


# ---------------------------------------------------------------------------
# convenience constructors for the named examples
# ---------------------------------------------------------------------------


def example1_chart(which, domain=None, **kw):
    """Product-of-curves charts of the catalog: T_{a,ahat}, C_{a,b}, Chat_a, P..., Ptilde.

    T needs |a| < 1 and |ahat| < 1, That |a| > 1 and |ahat| > 1, Chat |a| > 1:
    outside these the curvatures a/sqrt(1 - a^2) and a/sqrt(a^2 - 1) have no value.
    ``domain`` is passed to ``product_of_curves``.
    """
    if which == "T":
        a, ahat = kw["a"], kw["ahat"]
        _require(which, "|a| < 1", abs(a) < 1, a)
        _require(which, "|ahat| < 1", abs(ahat) < 1, ahat)
        return product_of_curves(+1, a / np.sqrt(1 - a * a), ahat / np.sqrt(1 - ahat * ahat), domain)
    if which == "That":
        a, ahat = kw["a"], kw["ahat"]
        _require(which, "|a| > 1", abs(a) > 1, a)
        _require(which, "|ahat| > 1", abs(ahat) > 1, ahat)
        return product_of_curves(-1, a / np.sqrt(a * a - 1), ahat / np.sqrt(ahat * ahat - 1), domain)
    if which == "Chat":
        a = kw["a"]
        _require(which, "|a| > 1", abs(a) > 1, a)
        return product_of_curves(-1, a / np.sqrt(a * a - 1), 1.0, domain)
    if which == "Ptilde":
        return product_of_curves(-1, 1.0, 1.0, domain)
    raise DomainError(f"unknown example-1 chart '{which}'")


def pmc_sinh_family(lam, domain=None):
    """The 1-parameter PMC family with 4|H|^2 = 1 and Hopf coefficient lam^2/4, lam > 0.

    The induced metric is (1+lam^2) cosh^2(lam x) (dx^2+dy^2), with curvature
    K = -lam^2 / ((1+lam^2) cosh^4(lam x)); so K(0) = -lam^2/(1+lam^2).
    The closed-form profile is taken on the x-span of ``domain`` (default
    [-1.2, 1.2]^2), which must contain 0, and padded by ``pmc_profile_family``.
    The second factor, of speed at most m cosh(lam x) with m = sqrt(1 + lam^2),
    is kept within GROWTH_BOUND; so is the boost by m y of the first, which
    ``pmc_profile_family`` bounds as for every a < 0.
    """
    lam = float(lam)
    _require("example2", "lam > 0", lam > 0, lam)
    params = ProfileParams(-1, a=-(1.0 + lam * lam), b=1.0, c=0.0)
    domain = domain or (-1.2, 1.2, -1.2, 1.2)
    m, X = np.sqrt(1.0 + lam * lam), _extent(domain)[0]
    x_reach = np.arcsinh(GROWTH_BOUND * lam / m) / lam
    _require("example2", f"|x| <= {x_reach:.6g}", X <= x_reach, domain)
    h = closed_form("sinh_family", params, x_span=domain[:2])
    chart = pmc_profile_family(params, h, y_span=domain[2:], name="example2")
    chart.metadata["lam"] = lam
    return chart
