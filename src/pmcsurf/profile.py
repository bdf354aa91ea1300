"""The profile equation (h')^2 = p(h) q(h) behind the invariant surface families.

Here p(t) = a - t^2 and q(t) = -(1 + eps*b) t^2 + 2 eps*b*c t - eps*b (1 + c^2) + a
for parameters (eps, a, b, c) with b > 0.  Solutions with eps (a - h^2) > 0 feed
the surface constructors; feasibility of the parameters is decided by
``check_restrictions``.  Besides the generic fourth-order integrator, the three
closed-form solution families (sinh, Jacobi sn, tan) are available with exact
derivatives.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .elliptic import complete_k, jacobi_sncndn
from .errors import DomainError, InfeasibleParameters
from .utils import hermite_interp, write_columns_csv

DRIFT_TOL = 1e-8
MAX_HALVINGS = 6  # step halvings ``solve_profile`` tries before it gives up
H_MAX = 1e3  # |h| past which a solution counts as escaped to infinity


@dataclass(frozen=True)
class ProfileParams:
    """Parameters (eps, a, b, c); p, q, pq and pq' take a Python float or an array.

    Squares are written t * t, which rounds the same on both (a float's t**2
    goes through libm pow).
    """

    eps: int
    a: float
    b: float
    c: float

    def __post_init__(self):
        if int(self.eps) not in (+1, -1):
            raise DomainError(f"eps must be +1 or -1, got {self.eps}")
        if not self.b > 0:
            raise DomainError(f"parameter b must be positive, got {self.b}")
        object.__setattr__(self, "eps", int(self.eps))
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "c", float(self.c))

    def p(self, t):
        return self.a - t * t

    def q(self, t):
        eb = self.eps * self.b
        return -(1.0 + eb) * (t * t) + 2.0 * eb * self.c * t - eb * (1.0 + self.c**2) + self.a

    def pq(self, t):
        return self.p(t) * self.q(t)

    def pq_prime(self, t):
        eb = self.eps * self.b
        qp = -2.0 * (1.0 + eb) * t + 2.0 * eb * self.c
        return -2.0 * t * self.q(t) + self.p(t) * qp


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    clause: str

    def __bool__(self):
        return self.feasible


def check_restrictions(params):
    """Feasibility of (eps, a, b, c) for the admissibility condition eps (a - h^2) > 0.

    Returns the verdict together with the clause that decided it.  The regime
    eps = -1, b < 1 carries no restriction and is tagged "unconstrained".
    """
    a, b, c = params.a, params.b, params.c
    if params.eps == +1:
        ok = (1.0 + b) * (a - b) >= b * c**2
        return FeasibilityVerdict(ok, "(1+b)(a-b) >= b*c^2")
    if b > 1.0:
        ok = b * c**2 >= (b - 1.0) * (a + b)
        return FeasibilityVerdict(ok, "b*c^2 >= (b-1)(a+b)")
    if b == 1.0:
        ok = (c != 0.0) or (a <= -1.0)
        return FeasibilityVerdict(ok, "c != 0 or a <= -1")
    return FeasibilityVerdict(True, "unconstrained")


def require_feasible(params):
    verdict = check_restrictions(params)
    if not verdict:
        raise InfeasibleParameters(
            f"parameters (eps={params.eps}, a={params.a}, b={params.b}, c={params.c}) "
            f"violate the restriction {verdict.clause}",
            verdict.clause,
        )
    return verdict


@dataclass
class ProfileSolution:
    """A sampled (and interpolable) solution h, h' of the profile equation."""

    params: ProfileParams
    x: np.ndarray
    h: np.ndarray
    hp: np.ndarray
    nonconstant: bool
    truncated: bool = False
    drift: float = 0.0
    _analytic: tuple = field(default=None, repr=False)

    @property
    def span(self):
        return float(self.x[0]), float(self.x[-1])

    def h_at(self, x):
        if self._analytic is not None:
            return self._analytic[0](np.asarray(x, dtype=float))
        return hermite_interp(self.x, self.h, self.hp, x)

    def hp_at(self, x):
        if not self.nonconstant:
            # constant solutions are singular solutions of the first-order
            # equation; they do not follow the second-order regularization
            return np.zeros_like(np.asarray(x, dtype=float))
        if self._analytic is not None:
            return self._analytic[1](np.asarray(x, dtype=float))
        hpp_nodes = 0.5 * self.params.pq_prime(self.h)
        return hermite_interp(self.x, self.hp, hpp_nodes, x)

    def hpp_at(self, x):
        if not self.nonconstant:
            return np.zeros_like(np.asarray(x, dtype=float))
        if self._analytic is not None and len(self._analytic) > 2:
            return self._analytic[2](np.asarray(x, dtype=float))
        return 0.5 * self.params.pq_prime(self.h_at(x))

    def conformal_factor(self, x):
        """eps (a - h(x)^2), the conformal factor of the associated surfaces."""
        return self.params.eps * (self.params.a - self.h_at(x) ** 2)

    def first_integral_drift(self):
        return float(np.max(np.abs(self.hp**2 - self.params.pq(self.h))))

    def to_csv(self, path):
        write_columns_csv(path, {"x": self.x, "h": self.h, "hprime": self.hp}, fmt=".16e")


def _rk4_profile(params, h0, v0, step, n_steps):
    """March (h, h') with the regularized second-order form h'' = (pq)'(h)/2.

    The march runs on Python floats: one pq' call costs a few float operations.
    """
    hs = np.empty(n_steps + 1)
    vs = np.empty(n_steps + 1)
    hs[0], vs[0] = h0, v0
    h, v = float(h0), float(v0)
    admissible = n_steps
    for k in range(n_steps):
        k1h, k1v = v, 0.5 * params.pq_prime(h)
        k2h = v + 0.5 * step * k1v
        k2v = 0.5 * params.pq_prime(h + 0.5 * step * k1h)
        k3h = v + 0.5 * step * k2v
        k3v = 0.5 * params.pq_prime(h + 0.5 * step * k2h)
        k4h = v + step * k3v
        k4v = 0.5 * params.pq_prime(h + step * k3h)
        h = h + (step / 6.0) * (k1h + 2 * k2h + 2 * k3h + k4h)
        v = v + (step / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        hs[k + 1], vs[k + 1] = h, v
        # stop past the admissible band or when the solution escapes to infinity
        if params.eps * params.p(h) <= 0 or not math.isfinite(h) or abs(h) > H_MAX:
            admissible = k + 1
            break
    return hs[: admissible + 1], vs[: admissible + 1], admissible < n_steps


def solve_profile(params, h0=0.0, sign0=+1, x_span=(-1.0, 1.0), drift_tol=DRIFT_TOL):
    """Integrate the profile equation with h(0) = h0, sign0 the initial sign of h'.

    The admissibility condition eps (a - h^2) > 0 must hold at h0 and
    p(h0) q(h0) >= 0.  The span is truncated at the first sample violating
    admissibility or escaping past |h| = H_MAX; the uniform step, (x1 - x0)/2000
    at first, is halved (at most MAX_HALVINGS times) until the first-integral
    drift |h'^2 - p(h) q(h)| stays below ``drift_tol`` relative to the
    first-integral scale of the span (floored at 1, so the criterion is
    absolute on order-one solutions).
    """
    x0, x1 = float(x_span[0]), float(x_span[1])
    if not (x0 <= 0.0 <= x1) or x1 <= x0:
        raise DomainError(f"x_span must contain 0, got {x_span}")
    if params.eps * params.p(h0) <= 0:
        raise DomainError(f"initial value h0={h0} violates eps (a - h0^2) > 0")
    pq0 = float(params.pq(h0))
    if pq0 < -1e-14 * max(1.0, abs(params.a)) ** 2:
        raise DomainError(f"initial value h0={h0} has p(h0) q(h0) = {pq0} < 0")
    pq0 = max(pq0, 0.0)

    if pq0 == 0.0 and abs(params.pq_prime(h0)) < 1e-13:
        # double root of p q: the constant solution
        step = (x1 - x0) / 400
        n0 = int(round(-x0 / step))
        n1 = int(round(x1 / step))
        x = step * np.arange(-n0, n1 + 1)
        return ProfileSolution(params, x, np.full_like(x, h0), np.zeros_like(x), nonconstant=False)

    step = (x1 - x0) / 2000.0
    for _ in range(MAX_HALVINGS + 1):
        v0 = sign0 * np.sqrt(pq0)
        n1 = int(np.ceil(x1 / step - 1e-12)) if x1 > 0 else 0
        n0 = int(np.ceil(-x0 / step - 1e-12)) if x0 < 0 else 0
        hf, vf, trunc_f = _rk4_profile(params, h0, v0, step, n1)
        hb, vb, trunc_b = _rk4_profile(params, h0, v0, -step, n0)
        x = np.concatenate([-step * np.arange(len(hb) - 1, 0, -1), step * np.arange(0, len(hf))])
        h = np.concatenate([hb[:0:-1], hf])
        hp = np.concatenate([vb[:0:-1], vf])
        sol = ProfileSolution(params, x, h, hp, nonconstant=True, truncated=trunc_f or trunc_b)
        sol.drift = sol.first_integral_drift()
        scale = max(1.0, float(np.max(np.abs(params.pq(h)))))
        if sol.drift <= drift_tol * scale:
            return sol
        step *= 0.5
    raise DomainError(
        f"profile integration did not reach drift <= {drift_tol} (last drift {sol.drift:.2e})"
    )


def closed_form(kind, params, x_span=None):
    """Exact solution families of the profile equation, with exact derivatives.

    kind = "sinh_family":  eps=-1, b=1, c=0, a <= -1, h = sqrt(-a) sinh(lam x)
    kind = "sn_family":    eps=+1, c=0, a > b,       h = m sn(om x; kappa)
    kind = "tan_family":   eps=-1, a=-1, c=0, b < 1, h = tan(mu x) on |x| < pi/(2 mu)
    """
    eps, a, b, c = params.eps, params.a, params.b, params.c
    if kind == "sinh_family":
        if not (eps == -1 and b == 1.0 and c == 0.0 and a <= -1.0):
            raise DomainError("sinh_family requires eps=-1, b=1, c=0, a <= -1")
        lam = np.sqrt(-(1.0 + a))
        amp = np.sqrt(-a)
        h_fn = lambda x: amp * np.sinh(lam * x)
        hp_fn = lambda x: amp * lam * np.cosh(lam * x)
        hpp_fn = lambda x: amp * lam**2 * np.sinh(lam * x)
        span = x_span or (-2.0, 2.0)
    elif kind == "sn_family":
        if not (eps == +1 and c == 0.0 and a > b):
            raise DomainError("sn_family requires eps=+1, c=0, a > b")
        amp = np.sqrt((a - b) / (1.0 + b))
        om = np.sqrt(a * (1.0 + b))
        kappa = np.sqrt((a - b) / (a * (1.0 + b)))

        def h_fn(x):
            sn, _, _ = jacobi_sncndn(om * x, kappa)
            return amp * sn

        def hp_fn(x):
            _, cn, dn = jacobi_sncndn(om * x, kappa)
            return amp * om * cn * dn

        def hpp_fn(x):
            sn, cn, dn = jacobi_sncndn(om * x, kappa)
            return -amp * om**2 * sn * (dn**2 + kappa**2 * cn**2)

        span = x_span or (-2.0 * complete_k(kappa) / om, 2.0 * complete_k(kappa) / om)
    elif kind == "tan_family":
        if not (eps == -1 and a == -1.0 and c == 0.0 and 0.0 < b < 1.0):
            raise DomainError("tan_family requires eps=-1, a=-1, c=0, 0 < b < 1")
        mu = np.sqrt(1.0 - b)
        h_fn = lambda x: np.tan(mu * x)
        hp_fn = lambda x: mu / np.cos(mu * x) ** 2
        hpp_fn = lambda x: 2.0 * mu**2 * np.tan(mu * x) / np.cos(mu * x) ** 2
        half = np.pi / (2.0 * mu)
        span = x_span or (-0.98 * half, 0.98 * half)
        if not (-half < span[0] < span[1] < half):
            raise DomainError(f"tan_family domain is |x| < {half:.6f}")
    else:
        raise DomainError(f"unknown closed form kind '{kind}'")

    x = np.linspace(span[0], span[1], 2001)
    h = h_fn(x)
    nonconstant = bool(np.max(np.abs(h - h[0])) > 0)
    return ProfileSolution(
        params, x, h, hp_fn(x), nonconstant=nonconstant, _analytic=(h_fn, hp_fn, hpp_fn)
    )


def sn_family_period(params):
    """Period of the sn_family profile solution, 4 K(kappa) / sqrt(a (1 + b))."""
    om = np.sqrt(params.a * (1.0 + params.b))
    kappa = np.sqrt((params.a - params.b) / (params.a * (1.0 + params.b)))
    return 4.0 * complete_k(kappa) / om
