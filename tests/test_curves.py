import re

import numpy as np
import pytest

from pmcsurf import curves
from pmcsurf import families as fam
from pmcsurf.ambient import (
    cross_eps,
    factor_constraint,
    inner,
    norm3,
    project_to_factor,
    tangent_project3,
)
from pmcsurf.curves import (
    CurveSpec,
    _line_propagators,
    _prefix_products,
    constant_curvature_curve,
    integrate_curve,
)
from pmcsurf.errors import DomainError, InfeasibleParameters, PreconditionError
from pmcsurf.profile import ProfileParams, closed_form, solve_profile


def extract_curvature(vel, acc, point, eps):
    """Geodesic curvature <psi'', J psi'> / |psi'|^3 from a 2-jet of the curve."""
    return inner(acc, cross_eps(point, vel, eps), eps) / norm3(vel, eps) ** 3


def fd_curvature(curve, x, eps, d=2e-4):
    """Curvature through centered differences of the curve's points alone (independent path)."""

    def point_fn(t):
        return curve.jet(t)[0]

    p = point_fn(x)
    v = (point_fn(x + d) - point_fn(x - d)) / (2 * d)
    a = (point_fn(x + d) - 2 * p + point_fn(x - d)) / d**2
    return extract_curvature(v, a, p, eps)


def test_latitude_circle():
    # k = a / sqrt(1 - a^2) with a = 0.6 gives the circle x3 = 0.6 in S2
    k = 0.6 / 0.8
    curve = constant_curvature_curve(+1, k)
    t = np.linspace(0, 7, 40)
    pts = curve.jet(t)[0]
    assert np.allclose(pts[2], 0.6, atol=1e-12)
    assert np.max(np.abs(factor_constraint(pts, +1))) < 1e-12
    assert fd_curvature(curve, 0.3, +1) == pytest.approx(k, abs=1e-7)


def test_geodesics():
    for eps in (+1, -1):
        curve = constant_curvature_curve(eps, 0.0)
        assert curve.kind == "geodesic"
        assert fd_curvature(curve, 0.2, eps) == pytest.approx(0.0, abs=1e-7)
    # the spherical geodesic through (1,0,0) with tangent (0,1,0) is the equator
    eq = constant_curvature_curve(+1, 0.0)
    t = np.linspace(0, 2 * np.pi, 9)
    assert np.allclose(eq.jet(t)[0], np.stack([np.cos(t), np.sin(t), 0 * t]), atol=1e-12)


def test_horocycle_on_null_plane():
    curve = constant_curvature_curve(-1, 1.0)
    assert curve.kind == "horocycle"
    t = np.linspace(-3, 3, 25)
    pts = curve.jet(t)[0]
    vals = pts[0] - pts[2]
    assert np.allclose(vals, vals[0], atol=1e-12)  # x1 - x3 constant
    assert np.max(np.abs(factor_constraint(pts, -1))) < 1e-12
    assert fd_curvature(curve, 0.7, -1) == pytest.approx(1.0, abs=1e-7)
    mirrored = constant_curvature_curve(-1, -1.0)
    assert fd_curvature(mirrored, 0.7, -1) == pytest.approx(-1.0, abs=1e-7)


def test_hyperbolic_circle_and_hypercycle():
    circle = constant_curvature_curve(-1, np.sqrt(2.0))
    t = np.linspace(0, 5, 23)
    pts = circle.jet(t)[0]
    assert np.allclose(pts[2], pts[2, 0], atol=1e-12)  # x3 = const
    assert fd_curvature(circle, 0.4, -1) == pytest.approx(np.sqrt(2.0), abs=1e-7)

    hyper = constant_curvature_curve(-1, 0.5)
    pts = hyper.jet(t)[0]
    assert np.allclose(pts[0], 0.5 / np.sqrt(0.75), atol=1e-12)  # x1 = const
    assert fd_curvature(hyper, 0.4, -1) == pytest.approx(0.5, abs=1e-7)
    assert np.max(np.abs(factor_constraint(pts, -1))) < 1e-11


def test_constant_speed_unit():
    rng = np.random.default_rng(3)
    for eps in (+1, -1):
        for k in rng.uniform(-2, 2, size=8):
            curve = constant_curvature_curve(eps, float(k))
            t = np.linspace(-2, 2, 17)
            sp = norm3(curve.jet(t)[1], eps)
            assert np.allclose(sp, 1.0, atol=1e-11)


def test_integrate_great_circle():
    spec = CurveSpec(
        +1,
        speed=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        curvature=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        p0=np.array([1.0, 0.0, 0.0]),
        T0=np.array([0.0, 1.0, 0.0]),
        speed_prime=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )
    curve = integrate_curve(spec, x_span=(-0.5, 3.0), step=(3.0 - -0.5) / 4000)
    x = np.linspace(-0.4, 2.9, 43)
    ref = np.stack([np.cos(x), np.sin(x), 0 * x])
    assert np.max(np.abs(curve.jet(x)[0] - ref)) < 1e-9
    assert curve.constraint_defect() < 1e-10


def test_integrate_prop4_psi_curve():
    # second-factor curve of the profile family (eps=-1, a=-2, b=1, c=0)
    params = ProfileParams(-1, a=-2.0, b=1.0, c=0.0)
    sol = solve_profile(params, x_span=(-1.2, 1.2))
    b, c, eps = params.b, params.c, params.eps

    def speed(x):
        return np.sqrt(b * (1.0 + (sol.h_at(x) - c) ** 2))

    def speed_prime(x):
        return b * (sol.h_at(x) - c) * sol.hp_at(x) / speed(x)

    def curvature(x):
        return -eps * b * (params.a - sol.h_at(x) ** 2) / speed(x) ** 3

    spec = CurveSpec(-1, speed, curvature, p0=np.array([0.0, 0.0, 1.0]), T0=np.array([1.0, 0.0, 0.0]),
                     speed_prime=speed_prime)
    curve = integrate_curve(spec, x_span=(-1.2, 1.2), step=1e-3)
    x = np.linspace(-1.1, 1.1, 37)
    # |psi'|^2 = 1 + 2 sinh^2 x for these parameters
    v = curve.jet(x)[1]
    assert np.max(np.abs(inner(v, v, -1) - (1.0 + 2.0 * np.sinh(x) ** 2))) < 1e-7
    # curvature recovered by finite differences matches the prescription
    rec = fd_curvature(curve, 0.35, -1)
    assert rec == pytest.approx(float(curvature(0.35)), abs=1e-6)
    assert np.max(np.abs(factor_constraint(curve.jet(x)[0], -1))) < 1e-8


def test_curvature_roundtrip_randomized():
    rng = np.random.default_rng(8)
    for trial in range(20):
        eps = int(rng.choice([-1, 1]))
        a0, a1 = rng.uniform(0.3, 1.5), rng.uniform(-0.8, 0.8)
        b0, b1 = rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5)

        def speed(x, a0=a0, a1=a1):
            return a0 + 0.2 * np.sin(a1 + x)

        def speed_prime(x, a1=a1):
            return 0.2 * np.cos(a1 + x)

        def curvature(x, b0=b0, b1=b1):
            return b0 + 0.5 * np.cos(b1 + 2 * x)

        p0 = np.array([1.0, 0.0, 0.0]) if eps == 1 else np.array([0.0, 0.0, 1.0])
        T0 = np.array([0.0, 1.0, 0.0])
        spec = CurveSpec(eps, speed, curvature, p0=p0, T0=T0, speed_prime=speed_prime)
        curve = integrate_curve(spec, x_span=(-1.0, 1.0), step=2e-3)
        xs = rng.uniform(-0.9, 0.9, size=5)
        for x in xs:
            rec = fd_curvature(curve, float(x), eps)
            assert rec == pytest.approx(float(curvature(x)), abs=1e-5)


def test_frame_gram_stays_orthonormal():
    spec = CurveSpec(
        -1,
        speed=lambda x: 1.0 + 0.3 * np.cos(np.asarray(x, dtype=float)),
        curvature=lambda x: 0.8 * np.sin(np.asarray(x, dtype=float)),
        p0=np.array([0.0, 0.0, 1.0]),
        T0=np.array([0.0, 1.0, 0.0]),
        speed_prime=lambda x: -0.3 * np.sin(np.asarray(x, dtype=float)),
    )
    curve = integrate_curve(spec, x_span=(-2.0, 2.0), step=2e-3)
    assert curve.constraint_defect() < 1e-12


def test_speed_positive_required():
    spec = CurveSpec(
        +1,
        speed=lambda x: np.asarray(x, dtype=float),  # vanishes at 0
        curvature=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        p0=np.array([1.0, 0.0, 0.0]),
        T0=np.array([0.0, 1.0, 0.0]),
        speed_prime=lambda x: np.ones_like(np.asarray(x, dtype=float)),
    )
    with pytest.raises(DomainError):
        integrate_curve(spec, x_span=(-0.1, 1.0), step=(1.0 - -0.1) / 4000)


def _named_x(excinfo):
    return float(re.search(r"at x=(\S+)$", str(excinfo.value)).group(1))


def test_integrate_curve_rejects_non_finite_data():
    # a NaN speed would otherwise fill psi with NaN without a word
    step = 2e-3
    spec = CurveSpec(
        +1,
        speed=lambda x: np.where(np.asarray(x) > 0.5, np.nan, 1.0),
        curvature=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        p0=np.array([1.0, 0.0, 0.0]),
        T0=np.array([0.0, 1.0, 0.0]),
        speed_prime=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )
    with pytest.raises(DomainError, match="speed") as excinfo:
        integrate_curve(spec, x_span=(-1.0, 1.0), step=step)
    # the first offending stage abscissa of the forward march is named
    assert 0.5 < _named_x(excinfo) <= 0.5 + step / 2

    spec.speed = lambda x: np.ones_like(np.asarray(x, dtype=float))
    spec.curvature = lambda x: np.where(np.asarray(x) < -0.25, np.inf, 0.0)
    with pytest.raises(DomainError, match="curvature") as excinfo:
        integrate_curve(spec, x_span=(-1.0, 1.0), step=step)
    assert -0.25 - step / 2 <= _named_x(excinfo) < -0.25


def test_integrate_curve_rejects_speed_crossing_zero():
    step = 2e-3
    spec = CurveSpec(
        -1,
        speed=lambda x: 0.3 - np.asarray(x, dtype=float),
        curvature=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        p0=np.array([0.0, 0.0, 1.0]),
        T0=np.array([1.0, 0.0, 0.0]),
        speed_prime=lambda x: -np.ones_like(np.asarray(x, dtype=float)),
    )
    with pytest.raises(DomainError, match="speed") as excinfo:
        integrate_curve(spec, x_span=(-1.0, 1.0), step=step)
    assert 0.3 <= _named_x(excinfo) <= 0.3 + step / 2


def test_integrate_curve_samples_speed_and_curvature_once_per_direction():
    calls = {"speed": 0, "curvature": 0}

    def counting(name, fn):
        def wrapped(x):
            calls[name] += 1
            return fn(np.asarray(x, dtype=float))

        return wrapped

    spec = CurveSpec(
        -1,
        speed=counting("speed", lambda x: 1.0 + 0.3 * np.cos(x)),
        curvature=counting("curvature", lambda x: 0.8 * np.sin(x)),
        p0=np.array([0.0, 0.0, 1.0]),
        T0=np.array([0.0, 1.0, 0.0]),
        speed_prime=lambda x: -0.3 * np.sin(np.asarray(x, dtype=float)),
    )
    curve = integrate_curve(spec, x_span=(-1.0, 1.0), step=2e-3)
    assert len(curve.x) == 1001
    assert calls["speed"] <= 2 and calls["curvature"] <= 2


def test_curve_csv_export(tmp_path):
    curve = integrate_curve(
        CurveSpec(
            +1,
            speed=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            curvature=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            p0=np.array([1.0, 0.0, 0.0]),
            T0=np.array([0.0, 1.0, 0.0]),
            speed_prime=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        ),
        x_span=(0.0, 1.0),
        step=0.01,
    )
    out = tmp_path / "curve.csv"
    curve.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "x,p1,p2,p3"
    assert len(lines) == len(curve.x) + 1


def test_spec_validation():
    ones = lambda x: np.ones_like(np.asarray(x, dtype=float))
    zeros = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    with pytest.raises(PreconditionError):
        CurveSpec(+1, ones, ones, p0=np.array([1.0, 0.0, 0.1]), T0=np.array([0.0, 1.0, 0.0]), speed_prime=zeros)
    with pytest.raises(PreconditionError):
        CurveSpec(+1, ones, ones, p0=np.array([1.0, 0.0, 0.0]), T0=np.array([0.1, 1.0, 0.0]), speed_prime=zeros)


# --- the prefix march against the array march it replaced ----------------
#
# The reference below is the numpy RK4 step on (psi, T), projected after
# every step, that integrate_curve used before it marched the frame as a
# prefix product of group steps.  It is the oracle: the prefix march must
# agree with it at the same step, and be no less accurate against it at a
# quarter of the step.


def _sample_stages(spec, n, h):
    """Speed and curvature at i h, i h + h/2 and i h + h (row i), one call each.

    These are the RK4 stage abscissae of step i: ``i h + h`` is kept apart
    from ``(i + 1) h``, which can differ from it by one rounding.
    """
    xi = np.arange(n) * h
    xs = np.stack([xi, xi + 0.5 * h, xi + h], axis=-1).ravel()
    return np.asarray(spec.speed(xs)).reshape(n, 3), np.asarray(spec.curvature(xs)).reshape(n, 3)


def _reference_rhs(spec, s, k, y):
    psi, T = y[:3], y[3:]
    N = cross_eps(psi, T, spec.eps)
    return np.concatenate([s * T, s * (k * N - spec.eps * psi)])


def _reference_renormalize(spec, y):
    psi = project_to_factor(y[:3], spec.eps)
    T = tangent_project3(psi, y[3:], spec.eps)
    T = T / norm3(T, spec.eps)
    return np.concatenate([psi, T])


def _reference_integrate(spec, x_span, step):
    """(x, psi, T) from the array RK4 march, forward from 0 and then backward."""
    x0, x1 = float(x_span[0]), float(x_span[1])
    y0 = np.concatenate([spec.p0, spec.T0])

    def march(n, h):
        ys = np.empty((n + 1, 6))
        ys[0] = y0
        y = y0.copy()
        speeds, curvatures = _sample_stages(spec, n, h)
        for i, ((s1, s2, s4), (c1, c2, c4)) in enumerate(zip(speeds, curvatures)):
            k1 = _reference_rhs(spec, s1, c1, y)
            k2 = _reference_rhs(spec, s2, c2, y + 0.5 * h * k1)
            k3 = _reference_rhs(spec, s2, c2, y + 0.5 * h * k2)
            k4 = _reference_rhs(spec, s4, c4, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            y = _reference_renormalize(spec, y)
            ys[i + 1] = y
        return ys

    n1 = int(np.ceil(x1 / step - 1e-12)) if x1 > 0 else 0
    n0 = int(np.ceil(-x0 / step - 1e-12)) if x0 < 0 else 0
    fwd = march(n1, step)
    bwd = march(n0, -step)
    x = np.concatenate([-step * np.arange(n0, 0, -1), step * np.arange(0, n1 + 1)])
    y = np.vstack([bwd[:0:-1], fwd])
    return x, y[:, :3], y[:, 3:]


def _family_curve(build):
    """The (spec, x_span, step) with which a family builder integrates its curve."""
    calls = []
    original = fam.integrate_curve

    def recording(spec, x_span=(-1.0, 1.0), step=None):
        calls.append((spec, x_span, step))
        return original(spec, x_span=x_span, step=step)

    fam.integrate_curve = recording
    try:
        build()
    finally:
        fam.integrate_curve = original
    assert len(calls) == 1
    return calls[0]


def _profile_member(eps, a, b, c, kind, x_span=(-1.2, 1.2)):
    params = ProfileParams(eps, a, b, c)
    h = closed_form(kind, params, x_span=x_span) if kind else solve_profile(params, x_span=x_span)
    return lambda: fam.pmc_profile_family(params, h)


def _random_spec(eps, seed):
    rng = np.random.default_rng(seed)
    a0, a1, b0, b1 = rng.uniform(0.3, 1.5), rng.uniform(-0.8, 0.8), rng.uniform(-1, 1), rng.uniform(-0.5, 0.5)
    p0 = np.array([1.0, 0.0, 0.0]) if eps == 1 else np.array([0.0, 0.0, 1.0])
    return CurveSpec(
        eps,
        speed=lambda x: a0 + 0.2 * np.sin(a1 + x),
        curvature=lambda x: b0 + 0.5 * np.cos(b1 + 2 * x),
        p0=p0,
        T0=np.array([0.0, 1.0, 0.0]),
        speed_prime=lambda x: 0.2 * np.cos(a1 + x),
    )


ORACLE_CASES = {
    # the report battery's sinh, sn (--domain=-1.6,1.6) and phi0 curves
    "sinh": lambda: _family_curve(_profile_member(-1, -2.0, 1.0, 0.0, "sinh_family")),
    "sn": lambda: _family_curve(_profile_member(1, 2.0, 1.0, 0.0, "sn_family", (-1.6, 1.6))),
    "phi0": lambda: _family_curve(lambda: fam.pmc_phi0(0.25)),
    "solved": lambda: _family_curve(_profile_member(-1, -2.0, 0.5, 0.3, None)),
    "tan": lambda: _family_curve(_profile_member(-1, -1.0, 0.5, 0.0, "tan_family")),
    "random_sphere": lambda: (_random_spec(1, 11), (-1.0, 1.0), 2e-3),
    "random_hyperbolic": lambda: (_random_spec(-1, 12), (-1.0, 1.0), 2e-3),
    # neither end is a multiple of the step
    "ragged_span": lambda: (_random_spec(-1, 13), (-0.3717, 0.8123), 3e-3),
}


def _shared_nodes(x_coarse, x_fine, ratio):
    """Indices (coarse, fine) of the nodes the coarse march shares with one at step / ratio."""
    j = np.arange(len(x_coarse)) - int(np.argmax(x_coarse == 0.0))
    i = int(np.argmax(x_fine == 0.0)) + ratio * j
    keep = (i >= 0) & (i < len(x_fine))
    return np.flatnonzero(keep), i[keep]


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_prefix_march_matches_array_march(case):
    spec, x_span, step = ORACLE_CASES[case]()
    if step is None:
        step = (x_span[1] - x_span[0]) / 4000.0
    curve = integrate_curve(spec, x_span=x_span, step=step)
    x, psi, T = _reference_integrate(spec, x_span, step)
    assert np.array_equal(curve.x, x)
    # the same step: the two marches differ by the RK4 march's fourth-order error
    # the curve holds its nodes components first, (3, n); the reference holds them as rows
    assert np.max(np.abs(curve.psi.T - psi)) <= 1e-10
    assert np.max(np.abs(curve.T.T - T)) <= 1e-10
    # a quarter of the step: the sixth-order march is no less accurate than the RK4 march
    x4, psi4, T4 = _reference_integrate(spec, x_span, step / 4.0)
    c, f = _shared_nodes(x, x4, 4)
    assert np.array_equal(x[c], x4[f])

    def error(p, t):
        return max(np.max(np.abs(p[c] - psi4[f])), np.max(np.abs(t[c] - T4[f])))

    assert error(curve.psi.T, curve.T.T) <= max(2.0 * error(psi, T), 1e-13)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 1000, 1601])
def test_prefix_products_match_sequential_products(n):
    # the doubling scan against a left-multiplication loop, on the group
    # steps of a curve, forward and backward, and on perturbed identities
    stacks = [
        _line_propagators(_random_spec(-1, 15), 2e-3 * np.arange(n + 1)),
        _line_propagators(_random_spec(1, 16), -2e-3 * np.arange(n + 1)),
        np.eye(3)[:, :, None] + 0.05 * np.random.default_rng(n).standard_normal((3, 3, n)),
    ]
    for R in stacks:
        P = _prefix_products(R)
        Q = np.empty_like(R)
        acc = np.eye(3)
        for i in range(n):
            acc = R[:, :, i] @ acc
            Q[:, :, i] = acc
        scale = np.max(np.abs(Q), axis=(0, 1))
        assert np.max(np.max(np.abs(P - Q), axis=(0, 1)) / scale) <= 1e-13


def test_curve_march_makes_no_blas_call():
    # the nodes' bits do not depend on the BLAS kernel: no @, matmul, dot,
    # tensordot, einsum or linalg anywhere in the module
    import ast
    import inspect

    banned = ("matmul", "dot", "tensordot", "einsum", "linalg")
    for node in ast.walk(ast.parse(inspect.getsource(curves))):
        assert not isinstance(node, ast.MatMult)
        assert getattr(node, "attr", None) not in banned and getattr(node, "id", None) not in banned


def test_sampled_curve_refuses_points_outside_its_span():
    spec = _random_spec(-1, 14)
    curve = integrate_curve(spec, x_span=(-0.5, 0.5), step=1e-2)
    ends = np.array([curve.x[0], curve.x[-1]])
    assert all(np.all(np.isfinite(w)) for w in curve.jet(ends))
    for outside in (curve.x[0] - 1e-3, curve.x[-1] + 1e-3):
        with pytest.raises(DomainError, match="outside the node span"):
            curve.jet(np.array([0.0, outside]))
        with pytest.raises(DomainError, match="outside the node span"):
            curve.jet(outside)



def test_span_end_next_to_zero_gets_one_step():
    # x1 / step is below the 1e-12 slack of the node count, yet x1 > 0 must be covered
    curve = integrate_curve(_random_spec(-1, 14), x_span=(0.0, 1e-20), step=1e-2)
    assert curve.x.tolist() == [0.0, 1e-2]
    assert np.all(np.isfinite(curve.jet(np.array([0.0, 1e-20]))[0]))

# --- constant speed and curvature: the march against the exact propagator ----

PROPERTY_STEP = 2e-3
# Sixth order: on constant data the march errs on x in [-1, 1] by at most
# 1.4e-12 over a 7 x 13 grid of (s, k) on the strategy's box, both signs of
# eps (worst at s = 2, k = 0, eps = -1); the bound allows 1e-11.
PROPERTY_BOUND = 1e-11


@pytest.mark.parametrize("k", [0.9999999, 0.999999, 0.99999, 1.0, 1.00001, 1.0000001, -0.999999, -1.0, -1.000001])
def test_constant_curvature_curve_is_the_exact_propagator(k):
    # the frame F = (psi, T, N) as rows solves F' = A F, so F(t) = expm(t A) F0; from both
    # sides of the horocycles k = +-1, where nu^2 = k^2 - 1 passes 0 (exactly 0 at k = +-1),
    # the closed form keeps every digit
    expm = pytest.importorskip("scipy.linalg").expm
    p0, T0 = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
    t = np.linspace(-1.0, 1.0, 41)
    A = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, k], [0.0, -k, 0.0]])
    F = expm(np.multiply.outer(t, A)) @ np.stack([p0, T0, cross_eps(p0, T0, -1)])
    p, v, acc = constant_curvature_curve(-1, k, p0=p0, T0=T0).jet(t)
    for got, want in ((p, F[:, 0].T), (v, F[:, 1].T), (acc, k * F[:, 2].T + F[:, 0].T)):
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_stumpff_series_meets_the_closed_forms():
    # the series on |z| < 1 and the trigonometric and hyperbolic forms past it agree at |z| = 1
    z = np.array([-1.0 - 1e-15, -1.0, -1.0 + 1e-15, 1.0 - 1e-15, 1.0, 1.0 + 1e-15, 0.0])
    c1, c2 = curves._stumpff(z)
    r = np.sqrt(np.abs(z[:-1]))
    trig1 = np.where(z[:-1] > 0, np.sin(r), np.sinh(r)) / r
    trig2 = np.where(z[:-1] > 0, 1.0 - np.cos(r), np.cosh(r) - 1.0) / r**2
    assert np.max(np.abs(c1[:-1] - trig1)) <= 4e-16 and np.max(np.abs(c2[:-1] - trig2)) <= 4e-16
    assert (c1[-1], c2[-1]) == (1.0, 0.5)


def test_constant_data_march_matches_closed_form():
    # the oracle is the closed-form curve, at arclength s x: at s = 1, k = 0.99999, eps = -1,
    # next to the horocycle, it is the exact propagator to 4.4e-16
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.example(s=1.0, k=0.99999, eps=-1)
    @hypothesis.given(s=st.floats(0.5, 2.0), k=st.floats(-3.0, 3.0), eps=st.sampled_from([1, -1]))
    def check(s, k, eps):
        p0 = np.array([1.0, 0.0, 0.0]) if eps == 1 else np.array([0.0, 0.0, 1.0])
        T0 = np.array([0.0, 1.0, 0.0]) if eps == 1 else np.array([1.0, 0.0, 0.0])
        spec = CurveSpec(
            eps,
            speed=lambda x: np.full(np.shape(x), s),
            curvature=lambda x: np.full(np.shape(x), k),
            p0=p0,
            T0=T0,
            speed_prime=lambda x: np.zeros(np.shape(x)),
        )
        curve = integrate_curve(spec, x_span=(-1.0, 1.0), step=PROPERTY_STEP)
        assert curve.constraint_defect() <= 1e-12
        exact = constant_curvature_curve(eps, k, p0=p0, T0=T0).jet(s * curve.x)[0]
        assert np.max(np.abs(curve.psi - exact)) <= PROPERTY_BOUND

    check()


@pytest.mark.parametrize("step", [5e-324 / 2000.0, -1e-3, np.nan, np.inf])
def test_step_must_be_positive_and_finite(step):
    # a subnormal span divided into 2000 steps rounds to a zero step
    with pytest.raises(InfeasibleParameters, match="positive finite step"):
        integrate_curve(_random_spec(-1, 14), x_span=(0.0, 5e-324), step=step)
