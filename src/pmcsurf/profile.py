"""The profile equation (h')^2 = p(h) q(h) behind the invariant surface families.

Here p(t) = a - t^2 and q(t) = -(1 + eps*b) t^2 + 2 eps*b*c t - eps*b (1 + c^2) + a
for parameters (eps, a, b, c) with b > 0.  Solutions with eps (a - h^2) > 0 feed
the surface constructors; feasibility of the parameters is decided by
``check_restrictions``.

pq is a quartic, so every solution is one classical formula: Weierstrass's
solution of y'^2 = f(y) for a quartic f (Whittaker and Watson, *A Course of
Modern Analysis*, 20.6), written in the Weierstrass function P(x; g2, g3) of
the invariants of f.  P comes from the Jacobi functions of ``elliptic``
(Abramowitz and Stegun 18.9; DLMF 23.6), and the formula is multiplied through
so that it has no pole at x = 0; where it rounds badly, a second form of it
that rounds less is taken (``_Weierstrass``).  ``solve_profile`` returns it on
a span, with exact h and h' and h'' = (pq)'(h)/2, cut where the solution
escapes past H_MAX or leaves its band; ``closed_form`` is the same solution on
the spans of the sinh, Jacobi sn and tan families.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .elliptic import complete_k, jacobi_sncndn
from .errors import DomainError, InfeasibleParameters
from .utils import require_step, write_columns_csv

H_MAX = 1e3  # |h| past which a solution counts as escaped to infinity
NODES = 2001  # samples of a solution over its span
# A discriminant g2^3 - 27 g3^2 within this fraction of |g2|^3 + 27 g3^2 is
# taken as 0: the cubic 4 t^3 - g2 t - g3 has a double root (as for the sinh
# and tan families), and the Jacobi modulus is exactly 1 or 0, whose limits
# tanh and sin are taken.  Taking it as 0 moves P by about this fraction.
DISCRIMINANT_TOL = 1e-12
EPS = np.finfo(float).eps


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
        for name, cast in (("eps", int), ("a", float), ("b", float), ("c", float)):
            object.__setattr__(self, name, cast(getattr(self, name)))

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
        return FeasibilityVerdict((1.0 + b) * (a - b) >= b * c**2, "(1+b)(a-b) >= b*c^2")
    if b > 1.0:
        return FeasibilityVerdict(b * c**2 >= (b - 1.0) * (a + b), "b*c^2 >= (b-1)(a+b)")
    if b == 1.0:
        return FeasibilityVerdict((c != 0.0) or (a <= -1.0), "c != 0 or a <= -1")
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


def require_start(params, h0, band=0.0):
    """Refuse an initial value h0 outside the band eps (a - h0^2) > band or with p(h0) q(h0) < 0.

    The band is 0 for the PMC family and b for the CMC family.  Raises
    ``InfeasibleParameters`` with the clause that fails; returns p(h0) q(h0),
    a rounding-sized negative value floored at 0.
    """
    clause = f"eps (a - h0^2) > {band:g}"
    if not params.eps * params.p(h0) > band:
        raise InfeasibleParameters(f"initial value h0={h0} violates {clause}", clause)
    pq0 = float(params.pq(h0))
    if pq0 < -1e-14 * max(1.0, abs(params.a)) ** 2:
        raise InfeasibleParameters(f"initial value h0={h0} violates p(h0) q(h0) >= 0: it is {pq0}", "p(h0) q(h0) >= 0")
    return max(pq0, 0.0)


def _lattice(g2, g3, delta):
    """P(x; g2, g3) as e0 + 1/w(x): (e0, rate, k2, from_cn), the data ``_pole_free`` takes to give w.

    k2 is the parameter k^2 of the Jacobi functions.  delta is
    Delta = g2^3 - 27 g3^2, which the caller computes with less rounding than
    that difference; within DISCRIMINANT_TOL of 0 it is taken as 0.  Delta >= 0: the cubic 4 t^3 - g2 t - g3 has the real roots
    e1 >= e2 >= e3 = 2 r cos(t - 2 pi j/3), r = sqrt(g2/12),
    t = atan2(sqrt(Delta), sqrt(27) g3) / 3, and P = e3 + m / sn^2(sqrt(m) x)
    with m = e1 - e3 = 2 sqrt(3) r sin(t + pi/3) and k^2 = (e2 - e3) / m =
    sin t / sin(t + pi/3): w = sn^2(rate x) / rate^2, rate = sqrt(m).  At
    Delta = 0 the modulus is 1 (g3 < 0: sn = tanh) or 0 (g3 > 0: sn = sin).
    Delta < 0: one real root e2 (Cardano), and P = e2 + H (1 + cn) / (1 - cn)
    of argument 2 sqrt(H) x, with H^2 = 3 e2^2 - g2/4 and
    k^2 = 1/2 - 3 e2 / (4 H) (A&S 18.9.11): w = (1 - cn) / (2 H), e0 = e2 - H.
    Each w is x^2 + O(x^4); rate 0 is the triple root g2 = g3 = 0, P = 1/x^2.
    """
    if abs(delta) <= DISCRIMINANT_TOL * (abs(g2) ** 3 + 27.0 * g3 * g3):
        delta = 0.0
    if delta >= 0.0:
        r = math.sqrt(g2 / 12.0)
        t = math.atan2(math.sqrt(delta), math.sqrt(27.0) * g3) / 3.0
        k2 = math.sin(t) / math.sin(t + math.pi / 3.0) if delta > 0.0 else float(g3 < 0.0)
        m = 2.0 * math.sqrt(3.0) * r * math.sin(t + math.pi / 3.0)
        return 2.0 * r * math.cos(t + 2.0 * math.pi / 3.0), math.sqrt(m), k2, False
    # Cardano's real root, with the cube root taken where its two terms add
    cube = math.copysign(math.pow(abs(g3) / 8.0 + math.sqrt(-delta / 1728.0), 1.0 / 3.0), g3)
    e2 = cube + g2 / (12.0 * cube)
    H = math.sqrt(3.0 * e2 * e2 - g2 / 4.0)
    return e2 - H, 2.0 * math.sqrt(H), 0.5 - 3.0 * e2 / (4.0 * H), True


def _pole_free(x, rate, k2, from_cn):
    """w, w' and w'' at x for the data of ``_lattice``: P = e0 + 1/w and P' = -w'/w^2.

    At modulus 1, sn and cn are tanh and sech, with sech written through
    exp(-|z|), which underflows where cosh would overflow.  dn is
    sqrt(cn^2 + (1 - k^2) sn^2), with k^2 as given, which keeps its digits at
    the quarter periods.
    """
    if rate == 0.0:
        return x * x, 2.0 * x, np.full_like(x, 2.0)
    z = rate * x
    if k2 == 1.0:
        decay = np.exp(-np.abs(z))
        sn, cn = np.tanh(z), 2.0 * decay / (1.0 + decay * decay)
    else:
        sn, cn, _ = jacobi_sncndn(z, math.sqrt(k2))
    dn = np.sqrt(cn * cn + (1.0 - k2) * (sn * sn))
    if from_cn:
        # 1 - cn, as sn^2 / (1 + cn) where cn > 0, so that it keeps its digits near x = 0
        one_minus_cn = np.where(cn > 0.0, sn * sn / (1.0 + np.abs(cn)), 1.0 - cn)
        return one_minus_cn * (2.0 / rate**2), sn * dn * (2.0 / rate), 2.0 * cn * (dn * dn - k2 * sn * sn)
    w2 = 2.0 * (cn * cn * dn * dn - sn * sn * (dn * dn + k2 * cn * cn))
    return sn * sn / rate**2, 2.0 * sn * cn * dn / rate, w2


class _Weierstrass:
    """h = h0 + u, the solution of (h')^2 = p(h) q(h) with h(0) = h0 and h'(0) = s.

    With pq = c0 + c1 u + c2 u^2 + c3 u^3 + c4 u^4 in u = h - h0 (so s^2 = c0)
    and P = P(x; g2, g3) for the invariants g2, g3 of that quartic,
        u = (-s P' + c1/2 (P - c2/12) + c0 c3/4) / (2 (P - c2/12)^2 - c0 c4/2)
    (Whittaker and Watson 20.6).  Times its conjugate -s P' -> +s P', whose
    product with the numerator is -4 c0 (P - q0) times the denominator, it reads
        u = (c1^2/8 - c0 c2/3 - 2 c0 P) / (s P' + c1/2 (P - c2/12) + c0 c3/4).
    With P = e0 + 1/w (``_lattice``), both forms times w^2 lose the pole of P
    at x = 0: u = N/D = M/R with alpha = e0 - c2/12 and
        N, R = +-s w' + (c1/2 (alpha w + 1) + c0 c3/4 w) w,
        D = 2 (alpha w + 1)^2 - c0 c4/2 w^2,
        M = ((c1^2/8 - c0 c2/3 - 2 c0 e0) w - 2 c0) w.
    P is even, so each value of it is met at two points, mirror images through
    x = 0: D vanishes at each pole of h and at its mirror image, where N
    vanishes too; R at each pole and at the mirror image of each point where h
    returns to h0, where M vanishes too (and both wherever w = 0, x = 0
    among them).  Near such a common zero a quotient keeps few digits, so N/D
    is taken unless rounding moves it by more than 8 eps (1 + |h - h0|), and
    then M/R if rounding moves that less.  A double root of pq at h0 (pq and
    its slope below 1e-13) is the constant solution, the formula of f = 0.
    Every constant is computed once, on Python floats.
    """

    def __init__(self, params, h0, s):
        self.params, self.h0, self.s = params, float(h0), float(s)
        a, eb = params.a, params.eps * params.b
        q2, q1, q0 = -(1.0 + eb), 2.0 * eb * params.c, -eb * (1.0 + params.c**2) + a  # q in t
        p0, p1, Q0 = a - self.h0 * self.h0, -2.0 * self.h0, float(params.q(h0))
        Q1 = 2.0 * q2 * self.h0 + q1
        c = (s * s, p0 * Q1 + p1 * Q0, p0 * q2 + p1 * Q1 - Q0, p1 * q2 - Q1, -q2)
        # the invariants are those of pq in t, which round less than those of its expansion about h0,
        # and g2^3 - 27 g3^2 = disc(pq) / 256 = disc(p) disc(q) Res(p, q)^2 / 256, which rounds less
        # than that difference near a double root (5x less in h'^2 - pq(h) on members with k^2 > 0.99)
        f = (a * q0, a * q1, a * q2 - q0, -q1, -q2)
        delta = 4.0 * a * (q1 * q1 - 4.0 * q2 * q0) * ((q2 * a + q0) ** 2 - q1 * q1 * a) ** 2 / 256.0
        self.nonconstant = not (s == 0.0 and abs(c[1]) < 1e-13)
        if not self.nonconstant:
            c, f, delta = (0.0,) * 5, (0.0,) * 5, 0.0
        a0, a1, a2, a3, a4 = f[4], f[3] / 4.0, f[2] / 6.0, f[1] / 4.0, f[0]
        g2 = a0 * a4 - 4.0 * a1 * a3 + 3.0 * a2 * a2
        g3 = a0 * a2 * a4 + 2.0 * a1 * a2 * a3 - a2**3 - a0 * a3 * a3 - a1 * a1 * a4
        e0, self.rate, self.k2, self.from_cn = _lattice(g2, g3, delta)
        # the real period of P, and so of h: that of sn^2 or of cn; none at modulus 1 or at a triple root
        self.period = math.inf
        if self.rate > 0.0 and self.k2 < 1.0:
            self.period = (4.0 if self.from_cn else 2.0) * complete_k(math.sqrt(self.k2)) / self.rate
        self.alpha = e0 - c[2] / 12.0
        self.n1, self.n2, self.d2 = 0.5 * c[1], 0.25 * c[0] * c[3], 0.5 * c[0] * c[4]
        self.m1, self.m0 = c[1] * c[1] / 8.0 - c[0] * c[2] / 3.0 - 2.0 * c[0] * e0, -2.0 * c[0]

    def terms(self, x):
        """Numerator, denominator and their slopes at x: of N/D, or of M/R where N/D rounds badly and M/R less."""
        w, w1, w2 = _pole_free(x, self.rate, self.k2, self.from_cn)
        L = self.alpha * w + 1.0
        shared = (self.n1 * L + self.n2 * w) * w
        shared1 = (self.n1 * (L + self.alpha * w) + 2.0 * self.n2 * w) * w1
        num, den = shared + self.s * w1, 2.0 * L * L - self.d2 * w * w
        num1, den1 = shared1 + self.s * w2, (4.0 * self.alpha * L - 2.0 * self.d2 * w) * w1
        # rounding moves num/den by about eps (|num|' + |num| |den|' / |den|) / |den|, with |.|'
        # the sum of a sum's terms' magnitudes and |den| less the 4 eps |den|' it may be off by
        L_size = np.abs(self.alpha) * w + 1.0
        shared_size = np.abs(self.s * w1) + (np.abs(self.n1) * L_size + np.abs(self.n2) * w) * w
        D_size = 2.0 * L_size**2 + np.abs(self.d2) * w * w
        left = np.maximum(np.abs(den) - 4.0 * EPS * D_size, 0.0)
        # N/D rounds badly, by more than 8 eps (1 + |h - h0|), about its common zeros and its poles
        poor = shared_size * left + np.abs(num) * D_size >= 8.0 * left * (left + np.abs(num))
        if np.any(poor):
            w, w1, w2, L_size, shared, shared1, shared_size, D_size = (
                v[poor] for v in (w, w1, w2, L_size, shared, shared1, shared_size, D_size))
            R = shared - self.s * w1
            M = (self.m1 * w + self.m0) * w
            R_left = np.maximum(np.abs(R) - 4.0 * EPS * shared_size, 0.0)
            M_size = (np.abs(self.m1) * w + np.abs(self.m0)) * w
            # both estimates compared times the two denominators squared; ties go to N/D
            second = (M_size * R_left + np.abs(M) * shared_size) * left[poor] ** 2 < (
                shared_size * left[poor] + np.abs(num[poor]) * D_size) * R_left**2
            M1, R1 = (2.0 * self.m1 * w + self.m0) * w1, shared1 - self.s * w2
            for mine, theirs in ((num, M), (den, R), (num1, M1), (den1, R1)):
                mine[poor] = np.where(second, theirs, mine[poor])
        return num, den, num1, den1

    def __call__(self, x):
        """h and h' at x, of x's shape."""
        x = np.asarray(x, dtype=float)
        return tuple(v.reshape(x.shape) for v in self.values(*self.terms(x.ravel())))

    def values(self, num, den, num1, den1):
        """h and h' from a numerator, its denominator and their slopes."""
        return self.h0 + num / den, (num1 * den - num * den1) / (den * den)

    def failures(self, num, den):
        """Where h has escaped past H_MAX (or to a pole: den = 0) and where it has left the band."""
        hden, eps, a = self.h0 * den + num, self.params.eps, self.params.a
        return ~((np.abs(hden) <= H_MAX * np.abs(den)) & (den != 0.0)), ~(eps * (a * den * den - hden * hden) > 0.0)


@dataclass
class ProfileSolution:
    """A solution h of the profile equation on its span, as a formula and NODES samples of it.

    ``formula`` maps x to (h(x), h'(x)); ``truncated`` names the condition that
    cut the span short of the one asked for, and is empty when none did.
    """

    params: ProfileParams
    x: np.ndarray
    h: np.ndarray
    hp: np.ndarray
    nonconstant: bool
    truncated: str
    formula: Callable

    def __post_init__(self):
        self._last = None  # the abscissae of the last evaluation, and (h, h') there

    @property
    def span(self):
        return float(self.x[0]), float(self.x[-1])

    def _at(self, x):
        """(h, h') at x, as read-only arrays; ``DomainError`` past the span by more than 1e-9 node spacings.

        The jets and the curve march ask for h and h' on the same abscissae in
        turn, so the last ones asked for are answered without the formula.
        """
        x = np.asarray(x, dtype=float)
        key = (x.shape, x.tobytes())
        if self._last is not None and self._last[0] == key:
            return self._last[1]
        lo, hi = self.span
        slack = 1e-9 * (hi - lo) / (len(self.x) - 1)
        if np.any(x < lo - slack) or np.any(x > hi + slack):
            raise DomainError(f"the profile is evaluated outside its span [{lo:.6g}, {hi:.6g}]")
        values = self.formula(x)
        for v in values:
            v.setflags(write=False)
        self._last = (key, values)
        return values

    def h_at(self, x):
        return self._at(x)[0]

    def hp_at(self, x):
        return self._at(x)[1]

    def hpp_at(self, x):
        h = self.h_at(x)
        if not self.nonconstant:
            # constant solutions are singular solutions of the first-order
            # equation; they do not follow the second-order regularization
            return np.zeros_like(h)
        return 0.5 * self.params.pq_prime(h)

    def to_csv(self, path):
        write_columns_csv(path, {"x": self.x, "h": self.h, "hprime": self.hp}, fmt=".16e")


def _reach(formula, grid):
    """The two ends of a solution on ``grid``, outward from x = 0, each with the condition that set it.

    An end is -inf or inf, with the condition "", unless, going out from 0 on
    its side, h escapes past H_MAX or leaves the band (``_Weierstrass.failures``)
    at a grid point, or meets a simple pole between two points that pass:
    there h changes sign against its slope at both.  The end is bisected between
    the first such point (or pair) and the point before it to the last point
    where h has done none of this, nor changed sign across the pair.  A double
    pole (pq a cubic, with leading coefficient c3 > 0) is met only where
    |h| > H_MAX about it, over a width of about 0.13 / sqrt(c3) that the grid
    must resolve.  Returns (lo, why), (hi, why).
    """

    def fails(x, sign):
        num, den, _, _ = formula.terms(np.array([x]))
        escaped, outside = formula.failures(num, den)
        return escaped[0] or outside[0] or sign * (formula.h0 * den[0] + num[0]) * den[0] < 0.0, escaped[0]

    ends = []
    for side, far in ((grid[grid < 0.0][::-1], -math.inf), (grid[grid > 0.0], math.inf)):
        x = np.r_[0.0, side]
        num, den, num1, den1 = formula.terms(x)
        bad = np.logical_or(*formula.failures(num, den))
        h, hp = formula.values(num, np.where(bad, 1.0, den), num1, den1)
        along = np.diff(h) * np.diff(x)  # the change of h times the step, which a slope would match
        pole = ~bad[:-1] & (h[:-1] * h[1:] < 0.0) & (along * hp[:-1] < 0.0) & (along * hp[1:] < 0.0)
        hits = np.flatnonzero(bad[1:] | pole)
        if not hits.size:
            ends.append((far, ""))
            continue
        i = int(hits[0])
        good, past = float(x[i]), float(x[i + 1])
        sign = 0.0 if bad[i + 1] else float(np.sign(h[i]))
        for _ in range(128):
            mid = 0.5 * (good + past)
            if mid in (good, past):
                break
            if fails(mid, sign)[0]:
                past = mid
            else:
                good = mid
        ends.append((good, f"|h| <= {H_MAX:g}" if sign or fails(past, sign)[1] else "eps (a - h^2) > 0"))
    return ends


def solve_profile(params, h0=0.0, sign0=+1, x_span=(-1.0, 1.0)):
    """The solution with h(0) = h0 and sign0 the sign of h'(0), on x_span: Weierstrass's formula.

    h0 must lie in the band eps (a - h0^2) > 0 with p(h0) q(h0) >= 0, and the
    span must divide into NODES - 1 positive steps (``InfeasibleParameters``
    otherwise).  The span is cut at each end that ``_reach`` finds on it,
    searched from x = 0 (over the span, extended to 0 if needed and cut to a
    period of h each way); ``truncated`` names what cut it, and a span cut
    away whole is refused.  x, h and h' are NODES samples of the formula on
    the span kept; h'' is (pq)'(h)/2.
    """
    x0, x1 = float(x_span[0]), float(x_span[1])
    require_step((x1 - x0) / (NODES - 1), "profile sampling")
    formula = _Weierstrass(params, h0, sign0 * math.sqrt(require_start(params, h0)))
    x = np.linspace(x0, x1, NODES)
    # h repeats with the period of P, so it escapes or leaves its band within a period of 0 or never
    search = max(min(x0, 0.0), -formula.period), min(max(x1, 0.0), formula.period)
    (lo, lo_why), (hi, hi_why) = _reach(formula, x if search == (x0, x1) else np.linspace(*search, NODES))
    why = [w for w, kept in ((lo_why, lo <= x0), (hi_why, hi >= x1)) if not kept]
    if why:
        if not max(lo, x0) < min(hi, x1):
            msg = f"the profile from h(0) = {h0:g} leaves {why[0]} before the span [{x0:.6g}, {x1:.6g}]"
            raise InfeasibleParameters(msg, why[0])
        x = np.linspace(max(lo, x0), min(hi, x1), NODES)
    h, hp = formula(x)
    return ProfileSolution(params, x, h, hp, formula.nonconstant, " and ".join(dict.fromkeys(why)), formula)


def require_whole_span(name, sol, x_span):
    """Refuse a solution whose span was cut short of ``x_span``: the clause names its reach and what cut it."""
    if not sol.truncated:
        return
    lo, hi = sol.span
    ends = [f"x >= {lo:.6g}"] * (lo > x_span[0]) + [f"x <= {hi:.6g}"] * (hi < x_span[1])
    clause = f"|x| <= {hi:.6g}" if f"{-lo:.6g}" == f"{hi:.6g}" else " and ".join(ends)
    msg = f"the {name} profile needs {clause} ({sol.truncated}), got {x_span[0]:.6g},{x_span[1]:.6g}"
    raise InfeasibleParameters(msg, clause)


def closed_form(kind, params, x_span=None):
    """``solve_profile`` from h(0) = 0 for a family with a classical closed form, on its span.

    kind = "sinh_family":  eps=-1, b=1, c=0, a <= -1, h = sqrt(-a) sinh(lam x), lam = sqrt(-1 - a)
    kind = "sn_family":    eps=+1, c=0, a > b,       h = m sn(om x; kappa)
    kind = "tan_family":   eps=-1, a=-1, c=0, b < 1, h = tan(mu x) on |x| < pi/(2 mu)

    The tests hold the solution to these expressions.  The default spans are
    [-2, 2], one period of sn and 0.98 of the interval between the poles of
    tan, which a span must stay within.  A span the solution does not cover
    is refused (``require_whole_span``): the sinh family passes H_MAX past
    |x| = arcsinh(H_MAX / sqrt(-a)) / lam.
    """
    eps, a, b, c = params.eps, params.a, params.b, params.c
    if kind == "sinh_family":
        if not (eps == -1 and b == 1.0 and c == 0.0 and a <= -1.0):
            raise DomainError("sinh_family requires eps=-1, b=1, c=0, a <= -1")
        span = x_span or (-2.0, 2.0)
    elif kind == "sn_family":
        if not (eps == +1 and c == 0.0 and a > b):
            raise DomainError("sn_family requires eps=+1, c=0, a > b")
        om = np.sqrt(a * (1.0 + b))
        kappa = np.sqrt((a - b) / (a * (1.0 + b)))
        span = x_span or (-2.0 * complete_k(kappa) / om, 2.0 * complete_k(kappa) / om)
    elif kind == "tan_family":
        if not (eps == -1 and a == -1.0 and c == 0.0 and 0.0 < b < 1.0):
            raise DomainError("tan_family requires eps=-1, a=-1, c=0, 0 < b < 1")
        half = np.pi / (2.0 * np.sqrt(1.0 - b))
        span = x_span or (-0.98 * half, 0.98 * half)
        if not (-half < span[0] < span[1] < half):
            raise DomainError(f"tan_family domain is |x| < {half:.6f}")
    else:
        raise DomainError(f"unknown closed form kind '{kind}'")
    sol = solve_profile(params, 0.0, +1, span)
    require_whole_span(kind, sol, span)
    return sol
