import numpy as np
import pytest

from pmcsurf.elliptic import complete_k
from pmcsurf.errors import DomainError, InfeasibleParameters
from pmcsurf.profile import (
    ProfileParams,
    check_restrictions,
    closed_form,
    require_feasible,
    solve_profile,
)


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


def test_solve_matches_sinh_closed_form():
    # eps=-1, a=-2, b=1, c=0: h(x) = sqrt(2) sinh(x)
    params = ProfileParams(-1, a=-2.0, b=1.0, c=0.0)
    sol = solve_profile(params, h0=0.0, sign0=+1, x_span=(-1.5, 1.5))
    assert sol.nonconstant
    assert sol.h_at(1.0) == pytest.approx(np.sqrt(2.0) * np.sinh(1.0), abs=1e-8)
    assert sol.h_at(1.0) == pytest.approx(1.66200, abs=2e-5)  # sqrt(2) sinh 1 = 1.661985...
    x = np.linspace(-1.4, 1.4, 57)
    assert np.max(np.abs(sol.h_at(x) - np.sqrt(2) * np.sinh(x))) < 1e-8
    assert np.max(np.abs(sol.hp_at(x) - np.sqrt(2) * np.cosh(x))) < 1e-8


def test_solved_profile_refuses_points_past_its_span():
    # the Hermite end cubics are not continued past the last node
    params = ProfileParams(-1, a=-2.0, b=1.0, c=0.0)
    sol = solve_profile(params, x_span=(-0.5, 0.5))
    step = sol.x[1] - sol.x[0]
    assert np.all(np.isfinite(sol.h_at(sol.x[[0, -1]])))
    for x in (sol.x[-1] + step, sol.x[0] - step):
        for at in (sol.h_at, sol.hp_at):
            with pytest.raises(DomainError, match="outside the node span"):
                at(x)


def test_solve_matches_sn_closed_form():
    # eps=+1, a=2, b=1, c=0: h = sqrt(1/2) sn(2x) with kappa^2 = 1/4
    params = ProfileParams(+1, a=2.0, b=1.0, c=0.0)
    sol = solve_profile(params, x_span=(-3.0, 3.0))
    ref = closed_form("sn_family", params)
    x = np.linspace(-2.9, 2.9, 201)
    assert np.max(np.abs(sol.h_at(x) - ref.h_at(x))) < 1e-7
    # turning points are crossed: h' changes sign while admissibility holds
    hp = sol.hp_at(x)
    assert hp.min() < 0 < hp.max()
    assert np.min(sol.conformal_factor(x)) > 0


def test_first_integral_conservation():
    for params, span in [
        (ProfileParams(-1, a=-2.0, b=1.0, c=0.0), (-1.5, 1.5)),
        (ProfileParams(+1, a=2.0, b=1.0, c=0.0), (-3.0, 3.0)),
        (ProfileParams(-1, a=-2.0, b=1.0, c=0.5), (-1.0, 1.0)),
        (ProfileParams(+1, a=3.0, b=1.0, c=1.0), (-2.0, 2.0)),
    ]:
        sol = solve_profile(params, x_span=span)
        assert sol.first_integral_drift() <= 1e-8


def test_sign0_mirrors_odd_solution():
    params = ProfileParams(-1, a=-2.0, b=1.0, c=0.0)
    plus = solve_profile(params, sign0=+1, x_span=(-1.0, 1.0))
    minus = solve_profile(params, sign0=-1, x_span=(-1.0, 1.0))
    x = np.linspace(-0.9, 0.9, 33)
    assert np.max(np.abs(minus.h_at(x) + plus.h_at(x))) < 1e-12


def test_start_at_turning_point():
    # h0 at a simple root of q: h'(0) = 0 but the solution is not constant
    params = ProfileParams(+1, a=2.0, b=1.0, c=0.0)
    amp = np.sqrt((params.a - params.b) / (1 + params.b))
    sol = solve_profile(params, h0=amp, x_span=(-1.0, 1.0))
    assert sol.nonconstant
    assert abs(sol.hp_at(np.array([0.0]))[0]) < 1e-9
    # the quarter-period-shifted closed form solves the same initial data
    from pmcsurf.elliptic import jacobi_sncndn
    om = np.sqrt(params.a * (1 + params.b))
    kappa = np.sqrt((params.a - params.b) / (params.a * (1 + params.b)))
    shift = complete_k(kappa)
    x = np.linspace(-0.9, 0.9, 41)
    sn, _, _ = jacobi_sncndn(om * x + shift, kappa)
    assert np.max(np.abs(sol.h_at(x) - amp * sn)) < 1e-7


def test_constant_solution_detected():
    # q has a root at h0 = sqrt((a-b)/(1+b)) when c=0; there p(h0) != 0 but
    # pq has a simple root, so the solver integrates through it.
    # A genuine double root needs p and q to share a root or q a double root:
    # take eps=+1, a=b (then q(0)=a-b... use c=0, a=b: q(t) = -(1+b)t^2 + 0 + a-b = -(1+b)t^2)
    params = ProfileParams(+1, a=1.0, b=1.0, c=0.0)
    sol = solve_profile(params, h0=0.0, x_span=(-1.0, 1.0))
    assert not sol.nonconstant
    assert np.allclose(sol.h, 0.0)
    assert np.allclose(sol.hp, 0.0)


def test_infeasible_initial_data():
    params = ProfileParams(+1, a=2.0, b=1.0, c=0.0)
    with pytest.raises(DomainError):
        solve_profile(params, h0=2.0, x_span=(-1.0, 1.0))  # a - h0^2 < 0
    with pytest.raises(DomainError):
        solve_profile(params, h0=0.9, x_span=(-1.0, 1.0))  # p q < 0 there


def test_closed_form_residuals():
    cases = [
        ("sinh_family", ProfileParams(-1, a=-2.0, b=1.0, c=0.0)),
        ("sn_family", ProfileParams(+1, a=2.0, b=1.0, c=0.0)),
        ("tan_family", ProfileParams(-1, a=-1.0, b=0.25, c=0.0)),
    ]
    for kind, params in cases:
        sol = closed_form(kind, params)
        x = np.linspace(sol.span[0] * 0.95, sol.span[1] * 0.95, 301)
        resid = np.abs(sol.hp_at(x) ** 2 - params.pq(sol.h_at(x)))
        assert np.max(resid) < 1e-9, (kind, np.max(resid))
        # second derivative consistency with the regularized form
        resid2 = np.abs(sol.hpp_at(x) - 0.5 * params.pq_prime(sol.h_at(x)))
        assert np.max(resid2) < 1e-8


def test_tan_family_example():
    # 4|H|^2 = 1/4: h = tan(sqrt(3)/2 x) on |x| < pi/sqrt(3)
    params = ProfileParams(-1, a=-1.0, b=0.25, c=0.0)
    sol = closed_form("tan_family", params)
    x = np.linspace(-0.9 * np.pi / np.sqrt(3.0), 0.9 * np.pi / np.sqrt(3.0), 101)
    assert np.max(np.abs(sol.h_at(x) - np.tan(np.sqrt(3.0) / 2.0 * x))) < 1e-12
    resid = np.abs(sol.hp_at(x) ** 2 - params.pq(sol.h_at(x)))
    assert np.max(resid) < 1e-10


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
    assert np.max(np.abs(sol.h_at(x + period) - sol.h_at(x))) < 1e-9


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
        sol = solve_profile(params, h0=h0, x_span=(-0.5, 0.5), drift_tol=1e-6)
        assert len(sol.x) > 1
        count += 1


def test_csv_export(tmp_path):
    params = ProfileParams(-1, a=-2.0, b=1.0, c=0.0)
    sol = solve_profile(params, x_span=(-0.5, 0.5))
    out = tmp_path / "profile.csv"
    sol.to_csv(out)
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "x,h,hprime"
    assert len(rows) == len(sol.x) + 1
