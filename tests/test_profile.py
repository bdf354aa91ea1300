import math

import numpy as np
import pytest

from pmcsurf.elliptic import complete_k, jacobi_sncndn
from pmcsurf.errors import DomainError, InfeasibleParameters
from pmcsurf.profile import (
    DISCRIMINANT_TOL,
    H_MAX,
    NODES,
    ProfileParams,
    _lattice,
    _pole_free,
    check_restrictions,
    closed_form,
    require_feasible,
    require_whole_span,
    solve_profile,
)

# --- the oracles: the three closed forms and the RK4 march -------------------


def sinh_closed(params, x):
    """eps=-1, b=1, c=0, a <= -1: h = sqrt(-a) sinh(lam x), lam = sqrt(-1 - a)."""
    lam, amp = np.sqrt(-(1.0 + params.a)), np.sqrt(-params.a)
    return amp * np.sinh(lam * x), amp * lam * np.cosh(lam * x)


def sn_closed(params, x):
    """eps=+1, c=0, a > b: h = m sn(om x; kappa)."""
    a, b = params.a, params.b
    amp, om = np.sqrt((a - b) / (1.0 + b)), np.sqrt(a * (1.0 + b))
    sn, cn, dn = jacobi_sncndn(om * x, np.sqrt((a - b) / (a * (1.0 + b))))
    return amp * sn, amp * om * cn * dn


def tan_closed(params, x):
    """eps=-1, a=-1, c=0, b < 1: h = tan(mu x), mu = sqrt(1 - b)."""
    mu = np.sqrt(1.0 - params.b)
    return np.tan(mu * x), mu / np.cos(mu * x) ** 2


CLOSED = {
    "sinh_family": (sinh_closed, ProfileParams(-1, a=-2.0, b=1.0, c=0.0)),
    "sn_family": (sn_closed, ProfileParams(+1, a=2.0, b=1.0, c=0.0)),
    "tan_family": (tan_closed, ProfileParams(-1, a=-1.0, b=0.25, c=0.0)),
}


def rk4_profile(params, h0, v0, xs):
    """RK4 march of the regularized form h'' = (pq)'(h)/2 over the uniform abscissae xs, xs[0] = 0."""
    h, v, step = float(h0), float(v0), float(xs[1] - xs[0])
    hs, vs = [h], [v]
    for _ in range(len(xs) - 1):
        k1h, k1v = v, 0.5 * params.pq_prime(h)
        k2h, k2v = v + 0.5 * step * k1v, 0.5 * params.pq_prime(h + 0.5 * step * k1h)
        k3h, k3v = v + 0.5 * step * k2v, 0.5 * params.pq_prime(h + 0.5 * step * k2h)
        k4h, k4v = v + step * k3v, 0.5 * params.pq_prime(h + step * k3h)
        h += (step / 6.0) * (k1h + 2 * k2h + 2 * k3h + k4h)
        v += (step / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        hs.append(h)
        vs.append(v)
    return np.array(hs), np.array(vs)


def relative(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


# --- parameters ---------------------------------------------------------------


def test_params_validation():
    with pytest.raises(DomainError):
        ProfileParams(eps=-1, a=0.0, b=0.0, c=0.0)
    with pytest.raises(DomainError):
        ProfileParams(eps=2, a=0.0, b=1.0, c=0.0)


def test_restrictions_sphere_clause():
    v = check_restrictions(ProfileParams(+1, a=3.0, b=1.0, c=1.0))
    assert v.feasible  # (1+1)(3-1) = 4 >= 1
    assert "(1+b)(a-b)" in v.clause
    assert check_restrictions(ProfileParams(+1, a=1.0, b=1.0, c=0.0)).feasible  # boundary a = b
    assert not check_restrictions(ProfileParams(+1, a=1.0, b=2.0, c=0.0)).feasible


def test_restrictions_hyperbolic_clauses():
    assert check_restrictions(ProfileParams(-1, a=-2.0, b=1.0, c=0.0)).feasible  # a <= -1
    assert not check_restrictions(ProfileParams(-1, a=0.0, b=1.0, c=0.0)).feasible
    assert check_restrictions(ProfileParams(-1, a=0.0, b=1.0, c=0.5)).feasible  # c != 0
    v = check_restrictions(ProfileParams(-1, a=0.0, b=0.5, c=0.0))
    assert v.feasible and v.clause == "unconstrained"
    assert check_restrictions(ProfileParams(-1, a=-4.0, b=2.0, c=0.0)).feasible  # 0 >= (b-1)(a+b)
    assert not check_restrictions(ProfileParams(-1, a=4.0, b=2.0, c=0.0)).feasible
    with pytest.raises(InfeasibleParameters) as err:
        require_feasible(ProfileParams(+1, a=1.0, b=2.0, c=0.0))
    assert "(1+b)(a-b)" in err.value.clause


# --- the formula against the closed forms -------------------------------------


@pytest.mark.parametrize("kind", sorted(CLOSED))
def test_formula_matches_the_closed_forms(kind):
    # the sinh and tan families sit at a double root of the cubic, sn inside
    closed, params = CLOSED[kind]
    sol = solve_profile(params, x_span=(-1.2, 1.2))
    x = np.linspace(-1.2, 1.2, 241)
    h, hp = closed(params, x)
    assert relative(sol.h_at(x), h) <= 1e-14
    assert relative(sol.hp_at(x), hp) <= 1e-14
    # closed_form is the same solution
    same = closed_form(kind, params, x_span=(-1.2, 1.2))
    assert np.array_equal(same.h, sol.h) and np.array_equal(same.hp, sol.hp)


def test_solve_matches_sinh_closed_form():
    # eps=-1, a=-2, b=1, c=0: h(x) = sqrt(2) sinh(x)
    params = ProfileParams(-1, a=-2.0, b=1.0, c=0.0)
    sol = solve_profile(params, h0=0.0, sign0=+1, x_span=(-1.5, 1.5))
    assert sol.nonconstant and sol.truncated == ""
    assert sol.h_at(1.0) == pytest.approx(1.66200, abs=2e-5)  # sqrt(2) sinh 1 = 1.661985...
    h, hp = sinh_closed(params, sol.x)
    assert relative(sol.h, h) <= 1e-14 and relative(sol.hp, hp) <= 1e-14


def test_solve_matches_sn_closed_form():
    # eps=+1, a=2, b=1, c=0: h = sqrt(1/2) sn(2x) with kappa^2 = 1/4
    params = ProfileParams(+1, a=2.0, b=1.0, c=0.0)
    sol = solve_profile(params, x_span=(-3.0, 3.0))
    x = np.linspace(-2.9, 2.9, 201)
    h, hp = sn_closed(params, x)
    assert relative(sol.h_at(x), h) <= 1e-14 and relative(sol.hp_at(x), hp) <= 1e-14
    # turning points are crossed: h' changes sign while admissibility holds
    assert sol.hp_at(x).min() < 0 < sol.hp_at(x).max()
    assert np.min(params.eps * (params.a - sol.h_at(x) ** 2)) > 0


def test_tan_family_example():
    # 4|H|^2 = 1/4: h = tan(sqrt(3)/2 x) on |x| < pi/sqrt(3); up to |h| = 31.8 on the default span
    params = ProfileParams(-1, a=-1.0, b=0.25, c=0.0)
    sol = closed_form("tan_family", params)
    x = np.linspace(-0.9 * np.pi / np.sqrt(3.0), 0.9 * np.pi / np.sqrt(3.0), 101)
    h, hp = tan_closed(params, x)
    assert np.max(np.abs(sol.h_at(x) - h) / np.abs(hp)) <= 1e-14
    assert relative(sol.hp_at(x), hp) <= 1e-13
    assert np.max(np.abs(sol.hp_at(x) ** 2 - params.pq(sol.h_at(x))) / hp**2) <= 1e-13


def test_closed_form_residuals():
    for kind, (_, params) in CLOSED.items():
        sol = closed_form(kind, params)
        x = np.linspace(sol.span[0] * 0.95, sol.span[1] * 0.95, 301)
        resid = np.abs(sol.hp_at(x) ** 2 - params.pq(sol.h_at(x)))
        assert np.max(resid) < 1e-9, (kind, np.max(resid))
        # second derivative consistency with the regularized form
        resid2 = np.abs(sol.hpp_at(x) - 0.5 * params.pq_prime(sol.h_at(x)))
        assert np.max(resid2) < 1e-8


def test_sinh_family_degenerate_lambda_zero():
    params = ProfileParams(-1, a=-1.0, b=1.0, c=0.0)
    sol = closed_form("sinh_family", params)
    assert not sol.nonconstant
    assert np.allclose(sol.h, 0.0)


def test_sn_family_period():
    # the sn profile is periodic with period 4 K(kappa) / sqrt(a (1 + b))
    params = ProfileParams(+1, a=2.0, b=1.0, c=0.0)
    kappa = np.sqrt((params.a - params.b) / (params.a * (1.0 + params.b)))
    period = 4.0 * complete_k(kappa) / np.sqrt(params.a * (1.0 + params.b))
    assert period == pytest.approx(4.0 * complete_k(0.5) / 2.0, abs=1e-12)
    sol = closed_form("sn_family", params, x_span=(-8.0, 8.0))
    x = np.linspace(-2.0, 2.0, 64)
    assert np.max(np.abs(sol.h_at(x + period) - sol.h_at(x))) < 1e-13


# --- the Weierstrass function and its branches ----------------------------------


def weierstrass_laurent(g2, g3, z, terms=30):
    """P(z; g2, g3) from its Laurent series at 0 (DLMF 23.9.2, 23.9.3)."""
    c = {2: g2 / 20.0, 3: g3 / 28.0}
    for k in range(4, terms):
        c[k] = 3.0 / ((2 * k + 1) * (k - 3)) * sum(c[m] * c[k - m] for m in range(2, k - 1))
    return 1.0 / z**2 + sum(c[k] * z ** (2 * k - 2) for k in range(2, terms))


@pytest.mark.parametrize("side", [+1, -1])
@pytest.mark.parametrize("g3_sign", [+1, -1])
@pytest.mark.parametrize("factor", [0.999, 1.001, 0.0, 1e11])
def test_weierstrass_function_at_the_discriminant_tolerance(factor, g3_sign, side):
    # g2 = 12 and g3 chosen so that Delta / (|g2|^3 + 27 g3^2) = side * factor * DISCRIMINANT_TOL:
    # inside the tolerance Delta is taken as 0 (modulus exactly 0 or 1), outside it is not
    rho = side * factor * DISCRIMINANT_TOL
    g2, g3 = 12.0, g3_sign * math.sqrt(64.0 * (1.0 - rho) / (1.0 + rho))
    e0, rate, k2, from_cn = _lattice(g2, g3, g2**3 - 27.0 * g3 * g3)
    if factor < 1.0:
        assert k2 == (1.0 if g3 < 0 else 0.0) and not from_cn
    else:
        assert 0.0 < k2 < 1.0 and from_cn == (side < 0)
    z = np.linspace(0.05, 0.6, 12)
    w, w1, _ = _pole_free(z, rate, k2, from_cn)
    assert relative(e0 + 1.0 / w, weierstrass_laurent(g2, g3, z)) <= 1e-13
    # P'^2 = 4 P^3 - g2 P - g3 with P' = -w'/w^2
    P, Pp = e0 + 1.0 / w, -w1 / w**2
    assert relative(Pp**2, 4.0 * P**3 - g2 * P - g3) <= 1e-13


# --- the formula against the RK4 march ------------------------------------------

# members with a discriminant of each sign, the solved prop4 member among them
DELTA_POSITIVE = (-1, -2.0, 0.5, 0.3, 0.0, 1)
DELTA_NEGATIVE = (-1, -1.4859619670225228, 0.6783349323071052, -0.9845745357917621, -2.9350461503062797, 1)


@pytest.mark.parametrize("member, cubic_branch", [(DELTA_POSITIVE, False), (DELTA_NEGATIVE, True)])
def test_property_examples_cover_both_discriminant_signs(member, cubic_branch):
    eps, a, b, c, h0, sign0 = member
    assert solve_profile(ProfileParams(eps, a, b, c), h0, sign0, (-0.5, 0.5)).formula.from_cn == cubic_branch


def test_formula_matches_the_rk4_march():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, database=None,
                         suppress_health_check=[hypothesis.HealthCheck.filter_too_much])
    @hypothesis.example(*DELTA_POSITIVE)
    @hypothesis.example(*DELTA_NEGATIVE)
    @hypothesis.given(eps=st.sampled_from([1, -1]), a=st.floats(-3.0, 3.0), b=st.floats(0.1, 2.5),
                      c=st.floats(-1.0, 1.0), h0=st.floats(-3.0, 3.0), sign0=st.sampled_from([1, -1]))
    def check(eps, a, b, c, h0, sign0):
        params = ProfileParams(eps, a, b, c)
        hypothesis.assume(check_restrictions(params) and eps * params.p(h0) > 1e-6 and params.pq(h0) >= 0.0)
        sol = solve_profile(params, h0, sign0, (-0.5, 0.5))
        # the nodes are the formula's samples, and h'^2 = pq(h) holds to round-off: to 1e-12 of
        # the product of the sums of the magnitudes of p's and q's terms
        assert np.array_equal(sol.h, sol.h_at(sol.x)) and np.array_equal(sol.hp, sol.hp_at(sol.x))
        h, eb = sol.h, eps * b
        size = (abs(a) + h * h) * (abs(1.0 + eb) * h * h + abs(2.0 * eb * c * h) + abs(eb * (1.0 + c * c)) + abs(a))
        assert np.max(np.abs(sol.hp**2 - params.pq(h)) / np.maximum(1.0, size)) <= 1e-12
        if sol.truncated:
            end = sol.h[[0, -1]][np.array(sol.span) != (-0.5, 0.5)]
            assert np.all((np.abs(np.abs(end) - H_MAX) <= 1e-6) | (eps * (a - end**2) <= 1e-6))
        # on each side of 0, within the oracle's own step error: the march at step d/2 errs by
        # about a fifteenth of its largest distance from the march at step d; RK4 is compared
        # where it is in its asymptotic range, |h| <= 10 and |h'| <= 100
        v0 = sign0 * math.sqrt(max(float(params.pq(h0)), 0.0))
        for end in sol.span:
            xs = np.linspace(0.0, end, 201)
            coarse, fine = rk4_profile(params, h0, v0, xs), rk4_profile(params, h0, v0, np.linspace(0.0, end, 401))
            h, hp = sol.h_at(xs), sol.hp_at(xs)
            keep = (np.abs(h) <= 10.0) & (np.abs(hp) <= 100.0)
            step_error = np.maximum(np.abs(coarse[0] - fine[0][::2]), np.abs(coarse[1] - fine[1][::2]))
            error = np.maximum(np.abs(h - fine[0][::2]), np.abs(hp - fine[1][::2]))
            assert np.max(error[keep]) <= np.max(step_error[keep]) + 1e-12 * np.max((1.0 + np.abs(h) + np.abs(hp))[keep])

    check()


@pytest.mark.parametrize("a, b, c, h0", [(2.0, 0.18, 0.94, 2.54), (2.0, 0.2, 1.0, 2.5), (2.0, 0.25, 1.0, 3.0)])
def test_first_integral_next_to_a_double_root(a, b, c, h0):
    # k^2 > 0.99: the cubic's discriminant is small, and taken from the factors of pq it keeps
    # h'^2 = pq(h) within 2e-12 of pq's term sizes over +-3 (g2^3 - 27 g3^2 left 4e-12 to 7e-12)
    params = ProfileParams(-1, a, b, c)
    sol = solve_profile(params, h0=h0, x_span=(-3.0, 3.0))
    assert sol.formula.k2 > 0.99
    h, eb = sol.h, -b
    size = (abs(a) + h * h) * (abs(1.0 + eb) * h * h + abs(2.0 * eb * c * h) + abs(eb * (1.0 + c * c)) + abs(a))
    assert np.max(np.abs(sol.hp**2 - params.pq(h)) / np.maximum(1.0, size)) <= 2e-12


def test_first_integral_conservation():
    for params, span in [
        (ProfileParams(-1, a=-2.0, b=1.0, c=0.0), (-1.5, 1.5)),
        (ProfileParams(+1, a=2.0, b=1.0, c=0.0), (-3.0, 3.0)),
        (ProfileParams(-1, a=-2.0, b=1.0, c=0.5), (-1.0, 1.0)),
        (ProfileParams(+1, a=3.0, b=1.0, c=1.0), (-2.0, 2.0)),
    ]:
        sol = solve_profile(params, x_span=span)
        assert np.max(np.abs(sol.hp**2 - params.pq(sol.h))) <= 1e-13 * max(1.0, np.max(sol.hp**2))


def test_sign0_mirrors_odd_solution():
    params = ProfileParams(-1, a=-2.0, b=1.0, c=0.0)
    plus = solve_profile(params, sign0=+1, x_span=(-1.0, 1.0))
    minus = solve_profile(params, sign0=-1, x_span=(-1.0, 1.0))
    x = np.linspace(-0.9, 0.9, 33)
    assert np.max(np.abs(minus.h_at(x) + plus.h_at(x))) < 1e-14


def test_start_at_turning_point():
    # h0 at a simple root of q: h'(0) = 0 but the solution is not constant
    params = ProfileParams(+1, a=2.0, b=1.0, c=0.0)
    amp = np.sqrt((params.a - params.b) / (1 + params.b))
    sol = solve_profile(params, h0=amp, x_span=(-1.0, 1.0))
    assert sol.nonconstant
    assert sol.hp_at(np.array([0.0]))[0] == 0.0
    # the quarter-period-shifted closed form solves the same initial data
    om = np.sqrt(params.a * (1 + params.b))
    kappa = np.sqrt((params.a - params.b) / (params.a * (1 + params.b)))
    x = np.linspace(-0.9, 0.9, 41)
    sn, _, _ = jacobi_sncndn(om * x + complete_k(kappa), kappa)
    assert np.max(np.abs(sol.h_at(x) - amp * sn)) < 1e-14


def test_constant_solution_detected():
    # a double root of pq at h0: eps=+1, c=0, a=b gives q(t) = -(1+b) t^2, a double root at 0
    params = ProfileParams(+1, a=1.0, b=1.0, c=0.0)
    sol = solve_profile(params, h0=0.0, x_span=(-1.0, 1.0))
    assert not sol.nonconstant
    assert np.all(sol.h == 0.0) and np.all(sol.hp == 0.0)
    assert np.all(sol.hpp_at(sol.x) == 0.0)


def test_infeasible_initial_data():
    params = ProfileParams(+1, a=2.0, b=1.0, c=0.0)
    with pytest.raises(DomainError):
        solve_profile(params, h0=2.0, x_span=(-1.0, 1.0))  # a - h0^2 < 0
    with pytest.raises(DomainError):
        solve_profile(params, h0=0.9, x_span=(-1.0, 1.0))  # p q < 0 there


# --- spans ----------------------------------------------------------------------


def test_solved_profile_refuses_points_past_its_span():
    # the formula is not continued past the span, a closed-form member's neither
    solved = solve_profile(ProfileParams(-1, a=-2.0, b=0.5, c=0.3), x_span=(-0.5, 0.5))
    closed = closed_form("sinh_family", ProfileParams(-1, a=-2.0, b=1.0, c=0.0), x_span=(-0.5, 0.5))
    for sol in (solved, closed):
        step = sol.x[1] - sol.x[0]
        assert np.all(np.isfinite(sol.h_at(sol.x[[0, -1]])))
        for x in (sol.x[-1] + step, sol.x[0] - step):
            for at in (sol.h_at, sol.hp_at, sol.hpp_at):
                with pytest.raises(DomainError, match="outside its span"):
                    at(x)


@pytest.mark.parametrize("span", [(-3.0, 3.0), (-1e9, 1e9)])
def test_escape_between_nodes_is_found(span):
    # tan reaches its poles at +-1.8138; |h| passes 1000 within 1.2e-3 of them, between two
    # nodes of the span on +-3 and far inside the first step on +-1e9
    params = ProfileParams(-1, a=-1.0, b=0.25, c=0.0)
    sol = solve_profile(params, x_span=span)
    reach = math.atan(H_MAX) / math.sqrt(1.0 - params.b)
    assert sol.truncated == "|h| <= 1000"
    assert sol.span == pytest.approx((-reach, reach), abs=1e-12)
    assert len(sol.x) == NODES and np.max(np.abs(sol.h)) <= H_MAX
    # a point, where the formula rounds badly, gives what it gives in an array
    assert sol.h_at(sol.x[-1]) == sol.h[-1] and np.shape(sol.h_at(sol.x[-1])) == ()
    with pytest.raises(InfeasibleParameters) as err:
        require_whole_span("prop4", sol, span)
    assert err.value.clause == f"|x| <= {reach:.6g}"


def test_sinh_escape_on_a_huge_span_is_the_closed_form_reach():
    # sinh's exp(-|x|) underflows far out, without a warning, and its reach is arcsinh(1000 / sqrt(2))
    params = ProfileParams(-1, a=-2.0, b=1.0, c=0.0)
    sol = solve_profile(params, x_span=(-1e9, 1e9))
    assert sol.span == pytest.approx((-np.arcsinh(H_MAX / np.sqrt(2.0)), np.arcsinh(H_MAX / np.sqrt(2.0))), abs=1e-12)
    with pytest.raises(InfeasibleParameters, match=r"needs \|x\| <= 7.25433 \(\|h\| <= 1000\)"):
        closed_form("sinh_family", params, x_span=(-20.0, 20.0))


def test_feasible_band_gives_nonempty_span():
    rng = np.random.default_rng(21)
    count = 0
    while count < 20:
        eps = int(rng.choice([-1, 1]))
        a = float(rng.uniform(-3, 3))
        b = float(rng.uniform(0.1, 2.5))
        c = float(rng.uniform(-1, 1))
        try:
            params = ProfileParams(eps, a, b, c)
        except DomainError:
            continue
        if not check_restrictions(params):
            continue
        # admissible band: eps(a - h^2) > 0 and p q >= 0; sample h0 by scanning
        ts = np.linspace(-3, 3, 601)
        ok = (eps * params.p(ts) > 1e-6) & (params.pq(ts) >= 0)
        if not np.any(ok):
            continue
        h0 = float(ts[np.argmax(ok)])
        sol = solve_profile(params, h0=h0, x_span=(-0.5, 0.5))
        assert len(sol.x) == NODES and sol.span[0] < 0.0 < sol.span[1]
        count += 1


def test_one_formula_evaluation_per_set_of_abscissae():
    # the jets ask h, h' and h'' on the same abscissae in turn, the curve march speed and curvature
    params = ProfileParams(-1, a=-2.0, b=0.5, c=0.3)
    sol = solve_profile(params, x_span=(-1.0, 1.0))
    calls, formula = [], sol.formula
    sol.formula = lambda x: calls.append(x.size) or formula(x)
    x = np.linspace(-0.9, 0.9, 7)
    h, hp, hpp = sol.h_at(x), sol.hp_at(x), sol.hpp_at(x)
    assert calls == [7] and not h.flags.writeable and not hp.flags.writeable
    sol.h_at(x[::-1])
    assert calls == [7, 7]


def test_csv_export(tmp_path):
    params = ProfileParams(-1, a=-2.0, b=1.0, c=0.0)
    sol = solve_profile(params, x_span=(-0.5, 0.5))
    out = tmp_path / "profile.csv"
    sol.to_csv(out)
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "x,h,hprime"
    assert len(rows) == len(sol.x) + 1
