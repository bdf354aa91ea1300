"""Constructors for every explicit surface family: PMC charts in M2(eps) x M2(eps)
and CMC charts in M2(eps) x R (or x S1).

Every constructor returns an ``ImmersionChart`` whose ``jet`` broadcasts over
coordinate arrays and supplies the point with its first and second partials;
the chart evaluates through the jet's ``p``, and a product chart's jet is its
two factor jets stacked by ``_product_jet``.  The first factor of every
invariant family is an orbit exp(f A) beta(x) of a one-parameter isometry
group, whose jet ``_orbit_jet`` forms from the base jet alone.
Charts backed by closed forms or by a profile solution (itself a closed form,
``profile.solve_profile``) carry exact jets; a factor that is an integrated
curve inherits the dense-output accuracy of the curve march, which is far
below the verification tolerances.

Conventions: product charts live in R^6 (two factor blocks), charts into
M2(eps) x R in R^4 with the height as fourth coordinate; every jet key is
shaped (dim, *samples), components first, as :mod:`pmcsurf.ambient` takes
them.  The height of the torus family is the multivalued lift;
``embed_circle`` provides the single-valued S1 embedding.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .ambient import check_eps, factor_constraint
from .curves import CurveSpec, _exp_coefficients, constant_curvature_curve, integrate_curve
from .elliptic import complete_k, jacobi_sncndn
from .errors import DomainError, InfeasibleParameters
from .profile import ProfileParams, closed_form
from .utils import CumulativeIntegral, require_step, span_from_zero

TARGET_PRODUCT = "product"
TARGET_LINE = "factor_times_line"
TARGET_CIRCLE = "factor_times_circle"

# Where the hyperboloid coordinates of a chart outgrow its metric scale by e^g,
# its invariants keep about 2.2e-16 e^(2g) relative accuracy, which the spectral
# differentiation of the verification then amplifies.  Each constructor
# refuses a rectangle past g = GROWTH_BOUND; on the rectangles tried at that
# edge the residuals stay below a fifth of their gates on 81x81 grids.  prop4
# and prop6 bound their x-span on the solved profile, prop4 also in closed
# form before the solve: |x| <= GROWTH_BOUND / sqrt(b) (``require_profile_x_span``).
GROWTH_BOUND = 6.0
PLANE = 1e6  # bound on |x| and |y| of every rectangle: float spacing there is 1.2e-10


@dataclass
class ImmersionChart:
    """A parametrized surface patch, given by its 2-jet.

    jet(x, y) -> dict with keys p, px, py, pxx, pxy, pyy, each a C-ordered
    (dim, *samples) array, components leading as :mod:`pmcsurf.ambient` takes
    them, with dim = 6 (product) or 4 (x R / x S1); the chart evaluates through
    the jet's ``p``.
    """

    name: str
    eps: int
    target: str
    domain: tuple
    jet: Callable
    metadata: dict = field(default_factory=dict)
    circle_radius: Optional[float] = None
    periods: Optional[tuple] = None
    embed_circle: Optional[Callable] = None

    def __post_init__(self):
        _require(self.name, f"|x|, |y| <= {PLANE:g}", max(map(abs, self.domain)) <= PLANE, self.domain)

    @property
    def dim(self):
        return 6 if self.target == TARGET_PRODUCT else 4

    def evaluate(self, x, y):
        """Points (dim, *samples) of the chart: the ``p`` of its current jet."""
        return self.jet(x, y)["p"]

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
        d1 = np.abs(factor_constraint(p[:3], self.eps))
        if self.target == TARGET_PRODUCT:
            d2 = np.abs(factor_constraint(p[3:], self.eps))
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
    """The jet of a map into a product: the factors' components (arrays or lists) stacked in one copy."""
    return {k: np.stack([*first[k], *second[k]]) for k in first}


def _distinct(t):
    """The distinct values of ``t`` and the indices that gather them back onto t.shape.

    One-variable data evaluated on the distinct values and gathered with the
    indices is that data evaluated on every sample: values are told apart by
    their bit patterns (so -0.0 and 0.0 stay apart), and each result is the
    same elementwise function of the same float.
    """
    bits = np.asarray(t, dtype=float).view(np.int64)
    ordered = np.sort(bits, axis=None)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    return distinct.view(np.float64), np.searchsorted(distinct, bits)


def _curve_factor(curve, t, gather, along):
    """3-block factor jet of a curve of x (``along="x"``) or of y (``along="y"``).

    The curve's jet is taken on the distinct coordinate values ``t`` and
    gathered onto the samples with ``gather`` (see ``_distinct``).
    """
    p, v, a = (np.take(w, gather, axis=1) for w in curve.jet(t))
    zero = np.zeros_like(p)
    if along == "x":
        return _jet_dict(p, v, zero, a, zero, zero)
    return _jet_dict(p, zero, v, zero, zero, a)


def _with_height(jet3, eta, eta_x, eta_y, eta_xx):
    """Append the height component to a 3-block jet; the height is affine in y."""
    zero = np.zeros_like(eta)
    return _product_jet(jet3, {k: [v] for k, v in _jet_dict(eta, eta_x, eta_y, eta_xx, zero, zero).items()})


# ---------------------------------------------------------------------------
# orbits of one-parameter isometry groups
# ---------------------------------------------------------------------------

# generators: the rotation about x3, the boost in the (x2, x3) plane, and the
# parabolic translation that fixes the null direction (1, 0, 1)
_ROTATION = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
_BOOST = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
_PARABOLIC = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


def _sum_terms(terms):
    """The sum of (coefficient, component) products in their order; None when every term vanishes.

    A term whose coefficient or component is None vanishes by construction and
    is skipped, so no exact zero is added (which would turn -0.0 into 0.0); a
    coefficient 1.0 takes its component as it is.
    """
    total = None
    for c, w in terms:
        if c is None or w is None:
            continue
        t = w if isinstance(c, float) and c == 1.0 else c * w
        total = t if total is None else total + t
    return total


def _entries(M):
    """A constant 3x3 matrix as rows of Python floats, None for each zero entry."""
    return [[float(m) if m != 0.0 else None for m in row] for row in M]


def _orbit_jet(A, nu_sq, base, f, gather, drift):
    """3-block jet of exp(f A) beta(x), each key a list of components: every invariant family's first factor.

    ``A`` is a constant generator with A^3 = -nu_sq A, so
    G = exp(f A) = I + S1 A + S2 A^2 with (S1, S2) from
    ``curves._exp_coefficients``.  ``base`` holds beta, beta_x and beta_xx on
    the samples, each a list of three components, None where a component
    vanishes by construction.  G is formed on the orbit parameters ``f`` and
    gathered onto the samples with ``gather`` (None when f is given on the
    samples).  f = y + F(x): ``drift`` is (f_x, f_xx) on the samples, or None
    where F = 0.

    G commutes with A and G_y = A G, so with p = G beta, q = G beta_x and
    r = G beta_xx the jet is p_x = q + f_x A p, p_y = A p,
    p_xx = r + 2 f_x A q + f_xx A p + f_x^2 A^2 p, p_xy = A q + f_x A^2 p and
    p_yy = A^2 p.  Each product is summed elementwise in column order over the
    entries that do not vanish (``_sum_terms``), with no BLAS call, so a
    sample's jet does not depend on its batch.
    """
    s1, s2 = _exp_coefficients(nu_sq, f)
    A, A2 = _entries(A), _entries(A @ A)

    def entry(i, j):
        """G_ij on the samples; None where it vanishes, 1.0 where only the identity adds to it."""
        g = _sum_terms([(A[i][j], s1), (A2[i][j], s2)])
        if i == j:
            g = 1.0 if g is None else 1.0 + g
        return g if gather is None or g is None or isinstance(g, float) else np.take(g, gather)

    G = [[entry(i, j) for j in range(3)] for i in range(3)]
    p, q, r = ([_sum_terms(zip(row, v)) for row in G] for v in base)
    Ap, Aq, A2p = ([_sum_terms(zip(row, v)) for row in M] for M, v in ((A, p), (A, q), (A2, p)))
    px, pxx, pxy = q, r, Aq
    if drift is not None:
        fx, fxx = drift

        def combine(*pairs):
            return [_sum_terms((c, v[i]) for c, v in pairs) for i in range(3)]

        px = combine((1.0, q), (fx, Ap))
        pxx = combine((1.0, r), (2.0 * fx, Aq), (fxx, Ap), (fx * fx, A2p))
        pxy = combine((1.0, Aq), (fx, A2p))
    zero = np.zeros(np.shape(f) if gather is None else gather.shape)
    return _jet_dict(*([zero if w is None else w for w in v] for v in (p, px, Ap, pxx, pxy, A2p)))


def _gather_base(base, ix):
    """The components of a base jet taken on distinct abscissae, gathered onto the samples."""
    return [[None if w is None else w[ix] for w in row] for row in base]


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


def require_profile_x_span(name, params, x_span):
    """Refuse an x-span of the prop4 chart past |x| = GROWTH_BOUND / sqrt(b).

    The second-factor curve has speed sqrt(b (1 + (h - c)^2)) >= sqrt(b), so
    past that reach its arclength exceeds GROWTH_BOUND, the arclength at which
    ``pmc_sinh_family`` stops its curve, whatever the profile.  The bound is
    closed form, so it holds before the profile is solved and the curve
    marched, with steps of at most 1e-3.  It is necessary, not sufficient:
    a fast profile can outgrow GROWTH_BOUND well inside it, which
    ``_require_profile_arclength`` refuses on the solved profile.
    """
    reach = GROWTH_BOUND / np.sqrt(params.b)
    _require(name, f"|x| <= {reach:.6g}", max(-x_span[0], x_span[1]) <= reach, x_span)


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


def _profile_orbit(eps, nu_sq, rate, h, hp, hpp):
    """Generator A and base jet (beta, beta_x, beta_xx) of the profile families' first factor exp(f A) beta(x).

    With W^2 = eps (nu_sq - h^2), beta is (W, 0, h) / sqrt(nu_sq), turned by
    the rotation sqrt(nu_sq) R_z, for nu_sq > 0; (h, 0, W) / sqrt(-nu_sq),
    moved by the boost sqrt(-nu_sq) B, for nu_sq < 0; and
    h (e3 - e1) / (2 rate) + rate (e1 + e3) / (2 h), moved by the parabolic
    translation rate P, for nu_sq = 0.  The base is on the abscissae of h.
    """
    if nu_sq == 0.0:
        u, v = 0.5 / rate, 0.5 * rate
        g, gp, gpp = v / h, -v * hp / h**2, v * (2.0 * hp**2 / h - hpp) / h**2
        return rate * _PARABOLIC, [[g - u * d, None, g + u * d] for d, g in ((h, g), (hp, gp), (hpp, gpp))]
    W = np.sqrt(eps * (nu_sq - h**2))
    Wp = -eps * h * hp / W
    Wpp = -eps * (hp**2 + h * hpp) / W - Wp**2 / W
    inv = 1.0 / np.sqrt(abs(nu_sq))
    rows = ((W, h), (Wp, hp), (Wpp, hpp)) if nu_sq > 0 else ((h, W), (hp, Wp), (hpp, Wpp))
    A = np.sqrt(abs(nu_sq)) * (_ROTATION if nu_sq > 0 else _BOOST)
    return A, [[inv * first, None, inv * third] for first, third in rows]


def _profile_psi_speed(params, h):
    """Speed |psi'| = sqrt(b (1 + (h - c)^2)) of the second-factor curve of the invariant families."""
    b, c = params.b, params.c

    def speed(x):
        return np.sqrt(b * (1.0 + (h.h_at(x) - c) ** 2))

    return speed


def _require_profile_arclength(name, params, h):
    """Refuse a profile span on which the H2 second-factor curve runs past arclength GROWTH_BOUND.

    The curve starts at the model centre (0, 0, 1) at x = 0, and at arclength
    s from there its hyperboloid coordinate x3 is at most cosh s.  So the
    arclength from 0 to each end of the span, the last node of the
    antiderivative of the speed from 0 on the solved profile
    (``CumulativeIntegral``), must stay within GROWTH_BOUND.  A last node
    needs no interpolation, so a span too short to divide gives arclength 0
    and is left to the curve march's refusal of its step.
    ``require_profile_x_span`` is the necessary half of this bound, in closed
    form; this one runs after the solve, before the curve march.  A curve in
    S2 (eps = +1) has bounded coordinates and is not refused.
    """
    if params.eps == +1:
        return
    speed = _profile_psi_speed(params, h)
    ends = span_from_zero(h.span, "curve march")
    lengths = [abs(float(CumulativeIntegral(speed, 0.0, end).F[-1])) for end in ends]
    _require(name, f"second-factor arclength from x = 0 <= {GROWTH_BOUND:g}", max(lengths) <= GROWTH_BOUND,
             lengths)


def _profile_psi_curve(params, h, x_range):
    """Second-factor curve of the invariant families: |psi'|^2 = b (1 + (h-c)^2).

    The curve is marched over the chart's x-range, extended to reach 0, in the
    steps the profile span sets; a march overruns its range by at most one
    step, which the chart's pad on the span (20 steps or more) keeps inside
    the span.  A span without 0 is refused as the march refuses it.
    """
    eps, b, c = params.eps, params.b, params.c
    speed = _profile_psi_speed(params, h)

    def speed_prime(x):
        return b * (h.h_at(x) - c) * h.hp_at(x) / speed(x)

    def curvature(x):
        return -eps * b * (params.a - h.h_at(x) ** 2) / speed(x) ** 3

    p0 = np.array([1.0, 0.0, 0.0]) if eps == +1 else np.array([0.0, 0.0, 1.0])
    T0 = np.array([0.0, 1.0, 0.0]) if eps == +1 else np.array([1.0, 0.0, 0.0])
    spec = CurveSpec(eps, speed, curvature, p0=p0, T0=T0, speed_prime=speed_prime)
    lo, hi = span_from_zero(h.span, "curve march")
    x_span = (min(x_range[0], 0.0), max(x_range[1], 0.0))
    return integrate_curve(spec, x_span=x_span, step=min(1e-3, (hi - lo) / 2000.0))


def pmc_profile_family(params, h, y_span=(-1.0, 1.0), name="prop4"):
    """PMC chart of the invariant family built on a profile solution h.

    The chart has 4 |H|^2 = b, conformal factor eps (a - h^2), equal Kaehler
    functions with C1^2 = h'^2/(a - h^2)^2 and constant Hopf coefficients
    (eps b / 4)(a + 1 - c^2 + 2 (-1)^j i c).

    The first factor is exp(y A) beta(x) (``_profile_orbit``): y moves it by a
    rotation (a > 0), a boost by sqrt(-a) y (a < 0) or the parabolic
    translation by y that fixes the null direction (1, 0, 1) (a = 0);
    ``_y_reach`` bounds |y| in the last two.
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
    require_profile_x_span(name, params, h.span)
    _require_profile_arclength(name, params, h)
    lo, hi = h.span
    pad = 0.01 * (hi - lo)
    x_range = (lo + pad, hi - pad)
    psi = _profile_psi_curve(params, h, x_range)

    def jet(x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        # the profile data on the distinct abscissae, the group on the distinct ordinates
        (xs, ix), (ys, iy) = _distinct(x), _distinct(y)
        hv, hp, hpp = h.h_at(xs), h.hp_at(xs), h.hpp_at(xs)
        if np.any(params.eps * (params.a - hv**2) <= 0):
            raise DomainError("eps (a - h^2) > 0 fails on the requested samples")
        A, base = _profile_orbit(params.eps, params.a, 1.0, hv, hp, hpp)
        first = _orbit_jet(A, params.a, _gather_base(base, ix), ys, iy, None)
        return _product_jet(first, _curve_factor(psi, xs, ix, "x"))

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
        domain=(*x_range, y_span[0], y_span[1]),
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
        dsec = np.sin(xs) * sec**2  # d/dx sec x
        d2sec = (1.0 + np.sin(xs) ** 2) * sec**3  # d^2/dx^2 sec x
        base = [[tn, None, sec], [sec**2, None, dsec], [2 * sec**2 * tn, None, d2sec]]
        first = _orbit_jet(_BOOST / s, -1.0 / s**2, _gather_base(base, ix), ys, iy, None)
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


def cmc_profile_family(params, h, y_span=(-1.0, 1.0)):
    """CMC chart in M2(eps) x R built on a profile solution h.

    4 |H|^2 = b, conformal factor eps (a - h^2), Abresch-Rosenberg coefficient
    (eps b / 8)(a + 1 - c^2 - 2 i c).  The profile must stay in the band
    eps (a - h^2) > b, which a solution started inside it never leaves: on
    its edge pq(h) = -b^2 (h - c)^2 <= 0.  So a profile outside it was not
    solved from the band, and is refused.  The antiderivatives in the chart
    start at the left end of the span.

    With f = y + F(x), the first factor is exp(f A) beta(x)
    (``_profile_orbit``), beta its value on the profile curve f = 0 below,
    moved by a rotation by sqrt(E) f (E = a - eps b > 0), a boost by
    sqrt(-E) f (E < 0) or the parabolic translation by 2 f that fixes
    (1, 0, 1) (E = 0); ``_y_reach`` bounds |f| on the rectangle in the last two.

    The x-span is bounded on the solved profile.  The profile curve is where f
    vanishes; there the first factor in H2 (eps = -1, W^2 = h^2 - E) is
    (h, 0, W) / sqrt(-E) (E < 0), (W, 0, h) / sqrt(E) (E > 0) or
    (1/h - h/4, 0, 1/h + h/4) (E = 0), so its hyperboloid coordinate x3, the
    cosh of its distance from the model centre, grows with |h|.  x3 must stay
    within cosh(GROWTH_BOUND) over the rectangle's x-range.  In S2, x3 <= 1.
    """
    if h.params != params:
        raise DomainError("profile solution was built for different parameters")
    eps, a, b, c = params.eps, params.a, params.b, params.c
    E = a - eps * b
    if E < 0 and eps != -1:
        raise DomainError("the E < 0 branch requires eps = -1")
    if np.any(eps * (a - h.h**2) <= b + 1e-9):
        raise DomainError("profile solution leaves the band eps (a - h^2) > b")
    lo, hi = h.span

    def f_integrand(t):
        ht = h.h_at(t)
        return b * (c - ht) / (eps * (E - ht**2))

    def eta_integrand(t):
        return h.h_at(t) - c

    F = CumulativeIntegral(f_integrand, lo, hi)
    G = CumulativeIntegral(eta_integrand, lo, hi)
    # F and G interpolate between nodes, which a span too short to divide cannot separate
    require_step(F.x[1] - F.x[0], "prop6 quadrature")
    sqb = np.sqrt(b)
    pad = 0.01 * (hi - lo)
    xr = np.clip(F.x, lo + pad, hi - pad)  # the rectangle's x-range on F's nodes
    if E <= 0:
        reach = _y_reach(2.0 if E == 0.0 else np.sqrt(-E), E == 0.0)
        Fr = F(xr)
        f_max = max(-(y_span[0] + Fr.min()), y_span[1] + Fr.max())
        _require("prop6", f"|y + F(x)| <= {reach:.6g}", f_max <= reach, y_span)

    def jet(x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        xs, ix = _distinct(x)
        hv, hp, hpp = h.h_at(xs), h.hp_at(xs), h.hpp_at(xs)
        fx = f_integrand(xs)
        # d/dx of the f-integrand
        den = eps * (E - hv**2)
        fxx = (-b * hp * den + b * (c - hv) * 2.0 * eps * hv * hp) / den**2
        A, base = _profile_orbit(eps, E, 2.0, hv, hp, hpp)
        first = _orbit_jet(A, E, _gather_base(base, ix), y + F(xs)[ix], None, (fx[ix], fxx[ix]))
        eta = sqb * (y + G(xs)[ix])
        return _with_height(first, eta, (sqb * (hv - c))[ix], np.full_like(eta, sqb), (sqb * hp)[ix])

    x3 = float(np.max(jet(xr, -F(xr))["p"][2]))  # on the profile curve f = 0
    _require("prop6", f"x3 <= cosh({GROWTH_BOUND:g}) on the profile curve", x3 <= np.cosh(GROWTH_BOUND), x3)

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
        k = r / lam
        # the boost by y of k (sinh x, 1 / r, cosh x), its group formed once per distinct y
        base = [[k * shx, np.full_like(x, k / r), k * chx], [k * chx, None, k * shx], [k * shx, None, k * chx]]
        first = _orbit_jet(_BOOST, -1.0, base, *_distinct(y), None)
        eta = (y + r * chx) / lam
        return _with_height(first, eta, r * shx / lam, np.full_like(x, 1.0 / lam), r * chx / lam)

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
        e = 2.0 * H * H
        inv = 1.0 / s
        # the boost by y of (tan x, e cos x, sec x - e cos x) / s, its group formed once per distinct y
        base = [
            [inv * tn, inv * (e * cx), inv * (sec - e * cx)],
            [inv * sec**2, inv * (-e * sx), inv * (dsec + e * sx)],
            [inv * (2 * sec**2 * tn), inv * (-e * cx), inv * (d2sec + e * cx)],
        ]
        first = _orbit_jet(_BOOST, -1.0, base, *_distinct(y), None)
        rate = 2.0 * H / s
        return _with_height(first, rate * (y - np.log(cx)), rate * tn, np.full_like(x, rate), rate * sec**2)

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
        (xs, ix), (ys, iy) = _distinct(x), _distinct(y)
        S, C, D = jacobi_sncndn(xs, kappa)
        Sp = C * D
        Cp = -S * D
        Dp = -kappa_sq * S * C
        # the rotation by kappa y of (sqrt(a) D ca, C ca, S cb)
        base = [
            [np.sqrt(a) * D * ca, C * ca, S * cb],
            [np.sqrt(a) * Dp * ca, Cp * ca, Sp * cb],
            [np.sqrt(a) * (-kappa_sq * D * (C * C - S * S)) * ca, -C * (D * D - kappa_sq * S * S) * ca,
             -S * (D * D + kappa_sq * C * C) * cb],
        ]
        first = _orbit_jet(kappa * _ROTATION, kappa_sq, _gather_base(base, ix), ys, iy, None)
        eta = heta * np.log(D - kappa * C)[ix] + slope * y
        return _with_height(first, eta, (heta * kappa * S)[ix], np.full_like(eta, slope), (heta * kappa * Sp)[ix])

    def embed_circle(x, y):
        p = jet(x, y)["p"]
        ang = p[3] / radius
        return np.stack([*p[:3], radius * np.cos(ang), radius * np.sin(ang)])

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
            g = np.stack([np.cos(t), np.sin(t), z])
            return g, np.stack([-np.sin(t), np.cos(t), z]), -g
        g = np.stack([z, np.sinh(t), np.cosh(t)])
        return g, np.stack([z, np.cosh(t), np.sinh(t)]), g

    def jet(x, y):
        J = src(x, y)
        t, tx, ty, txx, txy, tyy = (J[k][3] for k in ("p", "px", "py", "pxx", "pxy", "pyy"))
        g, gd, gdd = geodesic(t)
        second = _jet_dict(
            p=g,
            px=tx * gd,
            py=ty * gd,
            pxx=txx * gd + (tx * tx) * gdd,
            pxy=txy * gd + (tx * ty) * gdd,
            pyy=tyy * gd + (ty * ty) * gdd,
        )
        return _product_jet({k: v[:3] for k, v in J.items()}, second)

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
