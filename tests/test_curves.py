import re

import numpy as np
import pytest

from pmcsurf.ambient import factor_constraint, inner, norm3
from pmcsurf.curves import (
    CurveSpec,
    constant_curvature_curve,
    extract_curvature,
    integrate_curve,
)
from pmcsurf.errors import DomainError, PreconditionError
from pmcsurf.profile import ProfileParams, solve_profile


def fd_curvature(point_fn, x, eps, d=2e-4):
    """Curvature through centered differences of the curve alone (independent path)."""
    p = point_fn(x)
    v = (point_fn(x + d) - point_fn(x - d)) / (2 * d)
    a = (point_fn(x + d) - 2 * p + point_fn(x - d)) / d**2
    return extract_curvature(v, a, p, eps)


def test_latitude_circle():
    # k = a / sqrt(1 - a^2) with a = 0.6 gives the circle x3 = 0.6 in S2
    k = 0.6 / 0.8
    curve = constant_curvature_curve(+1, k)
    t = np.linspace(0, 7, 40)
    pts = curve.point(t)
    assert np.allclose(pts[:, 2], 0.6, atol=1e-12)
    assert np.max(np.abs(factor_constraint(pts, +1))) < 1e-12
    assert fd_curvature(curve.point, 0.3, +1) == pytest.approx(k, abs=1e-7)


def test_geodesics():
    for eps in (+1, -1):
        curve = constant_curvature_curve(eps, 0.0)
        assert curve.kind == "geodesic"
        assert fd_curvature(curve.point, 0.2, eps) == pytest.approx(0.0, abs=1e-7)
    # the spherical geodesic through (1,0,0) with tangent (0,1,0) is the equator
    eq = constant_curvature_curve(+1, 0.0)
    t = np.linspace(0, 2 * np.pi, 9)
    assert np.allclose(eq.point(t), np.stack([np.cos(t), np.sin(t), 0 * t], axis=-1), atol=1e-12)


def test_horocycle_on_null_plane():
    curve = constant_curvature_curve(-1, 1.0)
    assert curve.kind == "horocycle"
    t = np.linspace(-3, 3, 25)
    pts = curve.point(t)
    vals = pts[:, 0] - pts[:, 2]
    assert np.allclose(vals, vals[0], atol=1e-12)  # x1 - x3 constant
    assert np.max(np.abs(factor_constraint(pts, -1))) < 1e-12
    assert fd_curvature(curve.point, 0.7, -1) == pytest.approx(1.0, abs=1e-7)
    mirrored = constant_curvature_curve(-1, -1.0)
    assert fd_curvature(mirrored.point, 0.7, -1) == pytest.approx(-1.0, abs=1e-7)


def test_hyperbolic_circle_and_hypercycle():
    circle = constant_curvature_curve(-1, np.sqrt(2.0))
    t = np.linspace(0, 5, 23)
    pts = circle.point(t)
    assert np.allclose(pts[:, 2], pts[0, 2], atol=1e-12)  # x3 = const
    assert fd_curvature(circle.point, 0.4, -1) == pytest.approx(np.sqrt(2.0), abs=1e-7)

    hyper = constant_curvature_curve(-1, 0.5)
    pts = hyper.point(t)
    assert np.allclose(pts[:, 0], 0.5 / np.sqrt(0.75), atol=1e-12)  # x1 = const
    assert fd_curvature(hyper.point, 0.4, -1) == pytest.approx(0.5, abs=1e-7)
    assert np.max(np.abs(factor_constraint(pts, -1))) < 1e-11


def test_constant_speed_unit():
    rng = np.random.default_rng(3)
    for eps in (+1, -1):
        for k in rng.uniform(-2, 2, size=8):
            curve = constant_curvature_curve(eps, float(k))
            t = np.linspace(-2, 2, 17)
            sp = norm3(curve.velocity(t), eps)
            assert np.allclose(sp, 1.0, atol=1e-11)


def test_integrate_great_circle():
    spec = CurveSpec(
        +1,
        speed=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        curvature=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        p0=np.array([1.0, 0.0, 0.0]),
        T0=np.array([0.0, 1.0, 0.0]),
    )
    curve = integrate_curve(spec, x_span=(-0.5, 3.0))
    x = np.linspace(-0.4, 2.9, 43)
    ref = np.stack([np.cos(x), np.sin(x), 0 * x], axis=-1)
    assert np.max(np.abs(curve.point(x) - ref)) < 1e-9
    assert curve.constraint_defect() < 1e-10


def test_integrate_prop4_psi_curve():
    # second-factor curve of the profile family (eps=-1, a=-2, b=1, c=0)
    params = ProfileParams(-1, a=-2.0, b=1.0, c=0.0)
    sol = solve_profile(params, x_span=(-1.2, 1.2))
    b, c, eps = params.b, params.c, params.eps

    def speed(x):
        return np.sqrt(b * (1.0 + (sol.h_at(x) - c) ** 2))

    def curvature(x):
        return -eps * b * (params.a - sol.h_at(x) ** 2) / speed(x) ** 3

    spec = CurveSpec(-1, speed, curvature, p0=np.array([0.0, 0.0, 1.0]), T0=np.array([1.0, 0.0, 0.0]))
    curve = integrate_curve(spec, x_span=(-1.2, 1.2), step=1e-3)
    x = np.linspace(-1.1, 1.1, 37)
    # |psi'|^2 = 1 + 2 sinh^2 x for these parameters
    v = curve.velocity(x)
    assert np.max(np.abs(inner(v, v, -1) - (1.0 + 2.0 * np.sinh(x) ** 2))) < 1e-7
    # curvature recovered by finite differences matches the prescription
    rec = fd_curvature(curve.point, 0.35, -1)
    assert rec == pytest.approx(float(curvature(0.35)), abs=1e-6)
    assert np.max(np.abs(factor_constraint(curve.point(x), -1))) < 1e-8


def test_curvature_roundtrip_randomized():
    rng = np.random.default_rng(8)
    for trial in range(20):
        eps = int(rng.choice([-1, 1]))
        a0, a1 = rng.uniform(0.3, 1.5), rng.uniform(-0.8, 0.8)
        b0, b1 = rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5)

        def speed(x, a0=a0, a1=a1):
            return a0 + 0.2 * np.sin(a1 + x)

        def curvature(x, b0=b0, b1=b1):
            return b0 + 0.5 * np.cos(b1 + 2 * x)

        p0 = np.array([1.0, 0.0, 0.0]) if eps == 1 else np.array([0.0, 0.0, 1.0])
        T0 = np.array([0.0, 1.0, 0.0])
        spec = CurveSpec(eps, speed, curvature, p0=p0, T0=T0)
        curve = integrate_curve(spec, x_span=(-1.0, 1.0), step=2e-3)
        xs = rng.uniform(-0.9, 0.9, size=5)
        for x in xs:
            rec = fd_curvature(curve.point, float(x), eps)
            assert rec == pytest.approx(float(curvature(x)), abs=1e-5)


def test_frame_gram_stays_orthonormal():
    spec = CurveSpec(
        -1,
        speed=lambda x: 1.0 + 0.3 * np.cos(np.asarray(x, dtype=float)),
        curvature=lambda x: 0.8 * np.sin(np.asarray(x, dtype=float)),
        p0=np.array([0.0, 0.0, 1.0]),
        T0=np.array([0.0, 1.0, 0.0]),
    )
    curve = integrate_curve(spec, x_span=(-2.0, 2.0), step=2e-3)
    assert curve.constraint_defect() < 1e-8


def test_speed_positive_required():
    spec = CurveSpec(
        +1,
        speed=lambda x: np.asarray(x, dtype=float),  # vanishes at 0
        curvature=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        p0=np.array([1.0, 0.0, 0.0]),
        T0=np.array([0.0, 1.0, 0.0]),
    )
    with pytest.raises(DomainError):
        integrate_curve(spec, x_span=(-0.1, 1.0))


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
    with pytest.raises(PreconditionError):
        CurveSpec(+1, ones, ones, p0=np.array([1.0, 0.0, 0.1]), T0=np.array([0.0, 1.0, 0.0]))
    with pytest.raises(PreconditionError):
        CurveSpec(+1, ones, ones, p0=np.array([1.0, 0.0, 0.0]), T0=np.array([0.1, 1.0, 0.0]))
