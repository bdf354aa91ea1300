import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pmcsurf import diffgeo
from pmcsurf.ambient import factor_j, metric_diag, orientation_form
from pmcsurf.cli import BATTERY, build_chart, build_parser
from pmcsurf.curves import CurveSpec, constant_curvature_curve, integrate_curve
from pmcsurf.diffgeo import (
    Check,
    _pointwise_block,
    abresch_rosenberg,
    apply_along,
    certify_cmc,
    certify_product,
    chebyshev,
    conformal_data,
    curvature_bound_excess,
    hopf_coefficients,
    hopf_definitional,
    kaehler_functions,
    normal_frame,
    normalized_mismatch,
    parallelism_residual,
    sample_jet,
    surface_invariants,
    torus_integrals,
)
from pmcsurf.errors import DomainError, VerificationError
from pmcsurf.families import (
    TARGET_PRODUCT,
    ImmersionChart,
    cmc_leite_chart,
    cmc_profile_family,
    cmc_sinh_chart,
    cmc_torus,
    example1_chart,
    geodesic_inclusion,
    pmc_phi0,
    pmc_profile_family,
    pmc_sinh_family,
    product_chart_from_curves,
    product_of_curves,
)
from pmcsurf.profile import ProfileParams, closed_form

from conformal_chart import conformal_chart, exp_map
from numeric_jet import fd_chart, holomorphy_residual

# charts reused across tests (construction is the expensive part)
CHARTS = {}


def chart(key):
    if key not in CHARTS:
        if key == "prop4_hyp":
            p = ProfileParams(-1, -2.0, 1.0, 0.0)
            CHARTS[key] = pmc_profile_family(p, closed_form("sinh_family", p, x_span=(-1.2, 1.2)))
        elif key == "prop4_sph":
            p = ProfileParams(+1, 2.0, 1.0, 0.0)
            CHARTS[key] = pmc_profile_family(p, closed_form("sn_family", p, x_span=(-1.6, 1.6)))
        elif key == "phi0":
            CHARTS[key] = pmc_phi0(0.25)
        elif key == "example2":
            CHARTS[key] = pmc_sinh_family(1.0)
        elif key == "circ11":
            CHARTS[key] = product_of_curves(+1, 1.0, 1.0)
        elif key == "T68":
            CHARTS[key] = product_of_curves(+1, 0.75, 4.0 / 3.0)
        elif key == "torus":
            CHARTS[key] = cmc_torus(2.0, 1.0)
        elif key == "incl_torus":
            CHARTS[key] = geodesic_inclusion(chart("torus"))
        elif key == "prop6_hyp":
            p = ProfileParams(-1, -2.0, 1.0, 0.0)
            CHARTS[key] = cmc_profile_family(p, closed_form("sinh_family", p, x_span=(-1.2, 1.2)))
        else:
            raise KeyError(key)
    return CHARTS[key]


def small_inv(key, nx=33, ny=33, **kw):
    tag = (key, nx, ny, tuple(sorted(kw.items())))
    if tag not in CHARTS:
        CHARTS[tag] = surface_invariants(chart(key), nx=nx, ny=ny, **kw)
    return CHARTS[tag]


def test_conformal_data_examples():
    inv = small_inv("example2")
    row = np.argmin(np.abs(inv.y[0, :]))  # y closest to 0
    assert np.max(np.abs(np.exp(2 * inv.u[:, row]) - 2.0 * np.cosh(inv.x[:, row]) ** 2)) < 1e-7
    inv = small_inv("T68")
    assert np.max(np.abs(inv.u)) < 1e-12
    for key in ("prop4_hyp", "prop4_sph", "phi0", "example2", "incl_torus"):
        assert np.max(small_inv(key).conformal_defect) < 1e-7


def test_normal_frame_product_formula():
    ka, kb = 0.75, 4.0 / 3.0
    ch = chart("T68")
    X, Y = ch.grid(7, 7, shrink=0.1)
    jet = sample_jet(ch, X, Y)
    frame = normal_frame(jet)
    assert np.max(np.abs(frame.Hnorm**2 - 2.340278 / 4)) < 1e-6
    alpha = constant_curvature_curve(+1, ka)
    beta = constant_curvature_curve(+1, kb)
    H_ref = np.concatenate(
        [
            0.5 * ka * factor_j(*alpha.jet(X)[:2], +1, check=False),
            0.5 * kb * factor_j(*beta.jet(Y)[:2], +1, check=False),
        ],
    )
    assert np.max(np.abs(frame.H - H_ref)) < 1e-7
    # normality of H
    for vec in (jet.px, jet.py, jet.p, np.concatenate([jet.p[:3], -jet.p[3:]])):
        assert np.max(np.abs(jet.ip(frame.H, vec))) < 1e-7
    # Htilde structure
    assert np.max(np.abs(jet.ip(frame.Htilde, frame.Htilde) - frame.Hnorm**2)) < 1e-7
    assert np.max(np.abs(jet.ip(frame.H, frame.Htilde))) < 1e-7
    xi = frame.xi
    assert np.max(np.abs(jet.ip(xi, np.conj(xi)) - 1.0)) < 1e-10
    assert np.max(np.abs(jet.ip(xi, xi))) < 1e-10


def determinant_htilde(jet, frame):
    """Htilde by six 5x5 determinants: the oracle of the orientation-dual normal.

    n is g-orthogonal to (e1, e2, H/|H|, P, Phat), with <n, w> = det([e1, e2, h, P, Phat, w]),
    then signed by the orientation form so that {e1, e2, Htilde/|H|, H/|H|} is positive.
    """
    e1, e2, Hnorm = frame.e1, frame.e2, frame.Hnorm
    h = frame.H / Hnorm
    P = jet.p
    Phat = np.concatenate([P[:3], -P[3:]])
    # the 5x6 matrices of the five vectors at each sample, for linalg.det
    A = np.stack([np.moveaxis(v, 0, -1) for v in (e1, e2, h, P, Phat)], axis=-2)
    cols = np.arange(6)
    n = np.empty((6,) + A.shape[:-2])
    for i in range(6):
        n[i] = (-1) ** (i + 1) * np.linalg.det(A[..., :, cols != i])
    n = n * metric_diag(jet.eps, 6).reshape((6,) + (1,) * (n.ndim - 1))
    n = n / np.sqrt(jet.ip(n, n))
    sign = np.where(orientation_form(P, e1, e2, n, h, jet.eps) >= 0, 1.0, -1.0)
    return sign * Hnorm * n


def test_htilde_matches_the_determinant_path_on_the_battery():
    parser = build_parser()
    product = [c for c in (build_chart(parser.parse_args(["verify", *extra])) for extra in BATTERY)
               if c.target == TARGET_PRODUCT]
    assert len(product) == 7
    for ch in product:
        X, Y = ch.grid(41, 41, shrink=diffgeo.SHRINK)
        jet = sample_jet(ch, X, Y)
        frame = normal_frame(jet)
        oracle = determinant_htilde(jet, frame)
        err = np.max(np.abs(frame.Htilde - oracle)) / np.max(np.abs(oracle))
        assert err < 1e-13, (ch.name, err)
        orient = orientation_form(jet.p, frame.e1, frame.e2, frame.Htilde / frame.Hnorm,
                                  frame.H / frame.Hnorm, jet.eps)
        assert np.all(orient > 0), ch.name


def test_normal_frame_rejects_minimal():
    # two great circles: product_of_curves refuses this minimal chart, so it is built directly
    geodesic = constant_curvature_curve(+1, 0.0)
    ch = product_chart_from_curves(geodesic, geodesic, +1, (0.0, 2 * np.pi, 0.0, 2 * np.pi))
    X, Y = ch.grid(5, 5, shrink=0.1)
    with pytest.raises(DomainError):
        normal_frame(sample_jet(ch, X, Y))


def test_kaehler_functions():
    inv = small_inv("T68")
    assert np.max(np.abs(inv.C1)) < 1e-12
    assert np.max(np.abs(inv.C2)) < 1e-12
    inv = small_inv("prop4_hyp")
    assert np.max(np.abs(inv.C1 - inv.C2)) < 1e-9
    inv = small_inv("phi0")
    assert np.max(np.abs(inv.C1**2 - 0.75)) < 1e-6


def test_curvatures():
    # example2 lam=1: K(x) = -lam^2 / ((1+lam^2) cosh^4(lam x)); K(0) = -1/2
    inv = small_inv("example2", nx=81, ny=41)
    i0 = np.argmin(np.abs(inv.x[:, 0]))
    j0 = np.argmin(np.abs(inv.y[0, :]))
    assert inv.K[i0, j0] == pytest.approx(-0.5, abs=2e-4)
    Kref = -1.0 / (2.0 * np.cosh(inv.x) ** 4)
    assert np.nanmax(np.abs(inv.K - Kref)) < 5e-4
    # flat products
    inv = small_inv("T68")
    assert np.nanmax(np.abs(inv.K)) < 1e-9
    assert np.max(np.abs(inv.Kbar)) < 1e-12
    assert np.max(np.abs(inv.Kbar_perp)) < 1e-12
    # phi0: Kbar = eps C1^2 = -0.75, Kbar_perp = 0
    inv = small_inv("phi0")
    assert np.max(np.abs(inv.Kbar + 0.75)) < 1e-6
    assert np.max(np.abs(inv.Kbar_perp)) < 1e-9
    # two-path agreement across families
    for key in ("prop4_hyp", "prop4_sph", "phi0", "example2", "incl_torus", "T68"):
        assert small_inv(key).identity_residuals["kbar_paths"] < 1e-5, key


def test_frenet_scalars_laws():
    for key in ("prop4_hyp", "prop4_sph", "phi0", "example2", "incl_torus"):
        res = small_inv(key, nx=81, ny=81).identity_residuals
        assert res["frame_gamma1"] < 1e-6, key
        assert res["frame_gamma2"] < 1e-6, key
        assert res["eq5_j1"] < 1e-5, key
        assert res["eq5_j2"] < 1e-5, key
    # products: |gamma_j|^2 = e^{2u}/2 since C_j = 0
    inv = small_inv("T68")
    assert np.max(np.abs(np.abs(inv.gamma1) ** 2 - np.exp(2 * inv.u) / 2)) < 1e-9
    # prop4: |gamma_1|^2 = b (1 + (h - c)^2) / 2, phase fixed up to orientation
    p = ProfileParams(-1, -2.0, 1.0, 0.0)
    h = closed_form("sinh_family", p, x_span=(-1.2, 1.2))
    inv = small_inv("prop4_hyp")
    hv = h.h_at(inv.x)
    assert np.max(np.abs(np.abs(inv.gamma1) ** 2 - p.b * (1 + hv**2) / 2.0)) < 1e-6
    # and the relations gamma2 = -conj(gamma1), f2 = conj(f1) of this family
    assert np.max(np.abs(inv.gamma2 + np.conj(inv.gamma1))) < 1e-9
    assert np.max(np.abs(inv.f2 - np.conj(inv.f1))) < 1e-9


def test_hopf_coefficients_product_circles():
    ch = chart("circ11")
    X, Y = ch.grid(7, 7, shrink=0.1)
    jet = sample_jet(ch, X, Y)
    frame = normal_frame(jet)
    t1, t2 = hopf_coefficients(jet, frame)
    assert np.max(np.abs(t1 + 0.75j)) < 1e-10  # (3/8)(1-i)^2
    assert np.max(np.abs(t2 - 0.75j)) < 1e-10  # (3/8)(1+i)^2
    d1, d2 = hopf_definitional(jet, frame)
    assert np.max(np.abs(t1 - d1)) < 1e-10
    assert np.max(np.abs(t2 - d2)) < 1e-10


def test_hopf_constants_on_families():
    inv = small_inv("example2")
    assert np.max(np.abs(inv.theta1 - 0.25)) < 1e-5
    assert np.max(np.abs(inv.theta2 - 0.25)) < 1e-5
    inv = small_inv("phi0")
    assert np.max(np.abs(inv.theta1)) < 1e-7
    assert np.max(np.abs(inv.theta2)) < 1e-7
    for key in ("prop4_hyp", "prop4_sph", "example2", "incl_torus"):
        assert small_inv(key).identity_residuals["hopf_paths"] < 1e-6, key


def test_holomorphy_residual_witnesses():
    xs = np.linspace(-1.0, 1.0, 41)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    dx = xs[1] - xs[0]
    const = np.full_like(X, 0.7 + 0.2j, dtype=complex)
    absolute, normalized = holomorphy_residual(const, dx, dx)
    assert absolute == 0.0
    zbar = X - 1j * Y
    absolute, normalized = holomorphy_residual(zbar, dx, dx)
    assert absolute == pytest.approx(1.0, abs=1e-12)  # d/dzbar of zbar is 1
    assert normalized > 0.5
    z = X + 1j * Y
    absolute, _ = holomorphy_residual(z, dx, dx)
    assert absolute < 1e-12
    with pytest.raises(DomainError):
        holomorphy_residual(np.zeros((4, 4)), 0.1, 0.1)


def test_spectral_dzbar_witnesses():
    # on the Chebyshev grid d/dz-bar is exact to round-off for analytic fields: a holomorphic
    # polynomial or exponential reads 0 relative to its size, and z-bar reads its derivative 1
    x, Dx = chebyshev(-1.0, 0.6)
    y, Dy = chebyshev(-0.4, 0.9)
    X, Y = np.meshgrid(x, y, indexing="ij")
    z = X + 1j * Y
    fields = {"poly": z**3 - 2j * z + 0.3, "exp": np.exp(z), "zbar": np.conj(z), "const": np.full_like(z, 0.7j)}
    ones = {k: 0.0 for k in fields}
    res = diffgeo.dzbar_residuals(fields, ones, Dx, Dy)
    for k in ("poly", "exp", "const"):
        assert res[f"dzbar_{k}_norm"] < 1e-12, (k, res[f"dzbar_{k}_norm"])
    assert res["dzbar_zbar_abs"] == pytest.approx(1.0, abs=1e-12)
    # the scaled key divides by the field and its ingredients
    scaled = diffgeo.dzbar_residuals({"zbar": fields["zbar"]}, {"zbar": 2.0}, Dx, Dy)["dzbar_zbar_scaled"]
    assert scaled == pytest.approx(res["dzbar_zbar_abs"] / (np.max(np.abs(fields["zbar"])) + 2.0 + diffgeo.EPS_FLOOR))


def test_chebyshev_interpolation_is_exact_on_polynomials():
    # the barycentric interpolant reproduces a polynomial of degree CHEB_N anywhere in the
    # interval, and a target on a Chebyshev point takes that point's value exactly
    x, _ = chebyshev(-0.3, 1.7)
    t = np.concatenate([np.linspace(-0.3, 1.7, 37), x[[5, 24]]])
    poly = np.polynomial.Polynomial(np.random.default_rng(3).normal(size=diffgeo.CHEB_N + 1), domain=(-0.3, 1.7))
    L = diffgeo.chebyshev_interpolation(x, t)
    assert np.max(np.abs(L @ poly(x) - poly(t))) < 1e-12 * np.max(np.abs(poly(x)))
    assert np.array_equal(L[-2:], np.eye(len(x))[[5, 24]])


def test_record_curvature_is_the_spectral_K():
    # the record's K is the Chebyshev interpolant of the spectral K: no NaN ring, and
    # example2's closed form K = -lam^2 / ((1 + lam^2) cosh^4(lam x)) at every point
    inv = small_inv("example2", nx=81, ny=41)
    assert not np.any(np.isnan(inv.K))
    assert np.max(np.abs(inv.K + 1.0 / (2.0 * np.cosh(inv.x) ** 4))) < 1e-9
    for n in (2, 5):
        inv = small_inv("example2", nx=n, ny=n)
        assert np.max(np.abs(inv.K + 1.0 / (2.0 * np.cosh(inv.x) ** 4))) < 1e-9, n


def _reparametrised(name, k):
    """An example-1 chart composed with z = (e^{kw} - 1)/k on [-0.5, 0.5]^2; T on a rectangle
    centred at 0 that holds the image."""
    kw = {"T": dict(a=0.6, ahat=0.8, domain=(-1.5, 1.5, -1.5, 1.5)), "Chat": dict(a=np.sqrt(2.0)), "Ptilde": {}}[name]
    return conformal_chart(example1_chart(name, **kw), exp_map(k), (-0.5, 0.5, -0.5, 0.5))


@pytest.mark.parametrize("name, k", [("T", 1.0), ("Chat", 1.0), ("Ptilde", 1.0), ("T", 1.5), ("T", 2.0)])
def test_reparametrised_example1_charts_verify(name, k):
    # a conformal reparametrisation is the same surface: verify passes it at 41^2, though its
    # Hopf differentials vary in both variables and Kbar = 0 at every point
    ch = _reparametrised(name, k)
    failed = [(c.name, c.value) for c in certify_product(ch, 41, 41) if c.status == "FAIL"]
    assert not failed, failed


def test_reparametrised_chart_follows_the_transformation_laws():
    # u goes to u(g) + log|g'|, C_j and |H| stay, theta_j goes to theta_j(g) g'^2
    k = 1.5
    g, dg, _ = exp_map(k)
    parent = example1_chart("T", a=0.6, ahat=0.8, domain=(-1.5, 1.5, -1.5, 1.5))
    ch = conformal_chart(parent, exp_map(k), (-0.5, 0.5, -0.5, 0.5))
    S, T = ch.grid(9, 9)
    w = S + 1j * T
    z = g(w)
    new, old = (_pointwise_block(jet, normal_frame(jet))
                for jet in (sample_jet(ch, S, T), sample_jet(parent, z.real, z.imag)))
    assert np.max(np.abs(new["u"] - old["u"] - np.log(np.abs(dg(w))))) < 1e-13
    for key in ("C1", "C2", "Hnorm"):
        assert np.max(np.abs(new[key] - old[key])) < 1e-13, key
    for key in ("theta1", "theta2"):
        assert np.max(np.abs(new[key] - old[key] * dg(w) ** 2)) < 1e-12, key
    assert np.ptp(np.abs(new["theta1"])) > 0.1  # two-variable data
    with pytest.raises(DomainError):
        conformal_chart(parent, exp_map(k), (-1.0, 1.0, -1.0, 1.0))


def test_holomorphy_decay_numeric_jets():
    # second-order decay of the numeric-jet theta residual under refinement
    ch = chart("incl_torus")
    levels = []
    for n in (41, 81):
        # a margin of 0.03 keeps the step-sized stencil inside the domain
        X, Y = ch.grid(n, n, shrink=0.03)
        dx = X[1, 0] - X[0, 0]
        dy = Y[0, 1] - Y[0, 0]
        jet = sample_jet(fd_chart(ch, min(dx, dy)), X, Y)
        frame = normal_frame(jet)
        t1, _ = hopf_coefficients(jet, frame)
        levels.append(holomorphy_residual(t1, dx, dy)[0])
    assert levels[1] < levels[0] / 3.5
    # absolute sizes in the expected second-order range
    assert levels[0] < 1e-2
    assert levels[1] < 3e-3


def test_parallelism_residuals():
    X, Y = chart("prop4_hyp").grid(21, 21, shrink=0.05)
    assert parallelism_residual(chart("prop4_hyp"), X, Y) < 1e-5
    X, Y = chart("T68").grid(21, 21, shrink=0.05)
    assert parallelism_residual(chart("T68"), X, Y) < 1e-6
    # negative control: a product with non-constant curvature is not PMC
    spec = CurveSpec(
        +1,
        speed=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        curvature=lambda x: np.asarray(x, dtype=float),
        p0=np.array([1.0, 0.0, 0.0]),
        T0=np.array([0.0, 1.0, 0.0]),
        speed_prime=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )
    alpha = integrate_curve(spec, x_span=(-1.0, 1.0), step=1e-3)
    beta = constant_curvature_curve(+1, 1.0)
    bad = product_chart_from_curves(alpha, beta, +1, (-0.9, 0.9, -0.9, 0.9), name="bad")
    X, Y = bad.grid(15, 15, shrink=0.1)
    assert parallelism_residual(bad, X, Y) > 1e-2


def test_identity_residuals_battery():
    # the full invariant suite at the standard 81x81 working grid
    for key in ("prop4_hyp", "prop4_sph", "phi0", "example2", "incl_torus", "T68", "circ11"):
        inv = small_inv(key, nx=81, ny=81)
        for name, val in inv.identity_residuals.items():
            assert val < 1e-4, (key, name, val)
            # the spectral differentiation resolves the identities to the round-off floor
            assert val < 1e-9, (key, name, val)
        assert inv.parallelism_residual < 1e-5, key
        assert np.max(inv.conformal_defect) < 1e-6, key
        # record-level invariants
        assert max(np.max(inv.C1**2), np.max(inv.C2**2)) <= 1 + 1e-8, key
        jet = sample_jet(inv.chart, inv.x, inv.y)
        H, Htilde = inv.H, inv.Htilde
        assert np.max(np.abs(jet.ip(Htilde, Htilde) - inv.Hnorm**2)) < 1e-7, key
        assert np.max(np.abs(jet.ip(H, Htilde))) < 1e-7, key


def test_chebyshev_differentiates_polynomials_exactly():
    # D and D @ D are exact on polynomials of degree <= N, up to round-off
    a, b = -0.3, 1.7
    x, D = chebyshev(a, b)
    n = diffgeo.CHEB_N
    assert x.shape == (n + 1,) and D.shape == (n + 1, n + 1)
    assert x[0] == a and x[-1] == b and np.all(np.diff(x) > 0)
    rng = np.random.default_rng(0)
    poly = np.polynomial.Polynomial(rng.standard_normal(n + 1) / np.arange(1, n + 2), domain=[a, b])
    for d, f in ((1, D @ poly(x)), (2, D @ D @ poly(x))):
        exact = poly.deriv(d)(x)
        assert np.max(np.abs(f - exact)) < 1e-11 * np.max(np.abs(exact)), d
    # on a 2-D field, apply_along differentiates along the axis it is given
    F = poly(x)[:, None] * np.cos(x)[None, :]
    assert np.allclose(apply_along(D, F, 0), poly.deriv()(x)[:, None] * np.cos(x)[None, :], rtol=0, atol=1e-9)
    assert np.allclose(apply_along(D, F, 1), poly(x)[:, None] * -np.sin(x)[None, :], rtol=0, atol=1e-9)
    # and on a stack, each component along the axis it is given: the products
    # p_c(x) q_c(y) of two polynomials of degree <= N, real and complex, and D @ D
    polys = [np.polynomial.Polynomial(rng.standard_normal(n + 1) / np.arange(1, n + 2), domain=[a, b])
             for _ in range(6)]
    pairs = [(polys[0], polys[1]), (polys[2], polys[3]), (polys[4], polys[5] * 1j + polys[0])]

    def stack(dx, dy):
        return np.stack([p.deriv(dx)(x)[:, None] * q.deriv(dy)(x)[None, :] for p, q in pairs], axis=-1)

    F = stack(0, 0)
    DD = apply_along(D, D, 0)
    for got, exact in ((apply_along(D, F, 0), stack(1, 0)), (apply_along(D, F, 1), stack(0, 1)),
                       (apply_along(DD, F, 0), stack(2, 0)), (apply_along(DD, F, 1), stack(0, 2))):
        assert got.shape == F.shape
        assert np.max(np.abs(got - exact)) < 1e-10 * np.max(np.abs(exact))


def _broadcast_apply_along(D, f, axis):
    """D along ``axis`` of a 2-D field, as one broadcast product summed over the
    middle axis of an (n, n, n) temporary: the oracle of ``apply_along``."""
    if axis == 1:
        return _broadcast_apply_along(D, f.T, 0).T
    return np.sum(D[:, :, None] * f[None], axis=1)


def test_apply_along_matches_the_broadcast_sum():
    # the stacked einsum against the broadcast sum, one component at a time, on
    # random stacks and rectangles: bitwise along axis 0; along axis 1 the
    # broadcast sum reduces a transposed temporary in another order
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    n = diffgeo.CHEB_N + 1

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(a=st.floats(-10, 10), width=st.floats(1e-3, 10), components=st.sampled_from([1, 2, 6]),
                      complex_=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def check(a, width, components, complex_, seed):
        _, D = chebyshev(a, a + width)
        rng = np.random.default_rng(seed)
        F = rng.standard_normal((n, n, components))
        if complex_:
            F = F + 1j * rng.standard_normal(F.shape)
        for axis in (0, 1):
            got = apply_along(D, F, axis)
            oracle = np.stack([_broadcast_apply_along(D, F[..., c], axis) for c in range(components)], axis=-1)
            assert got.shape == oracle.shape and got.dtype == oracle.dtype
            if axis == 0:
                assert np.array_equal(got, oracle)
            else:
                assert np.max(np.abs(got - oracle)) <= 1e-13 * np.max(np.abs(oracle))

    check()


def test_spectral_layer_makes_no_blas_call():
    # the spectral residuals' bits do not depend on the BLAS kernel: no @,
    # matmul, dot, tensordot or linalg, and no einsum path optimization, which
    # may hand a contraction to tensordot
    import ast
    import inspect

    banned = ("matmul", "dot", "tensordot", "linalg")
    for fn in (apply_along, diffgeo._parallelism, parallelism_residual, diffgeo.identity_residuals):
        for node in ast.walk(ast.parse(inspect.getsource(fn))):
            assert not isinstance(node, ast.MatMult), fn.__name__
            assert getattr(node, "attr", None) not in banned and getattr(node, "id", None) not in banned, fn.__name__
            assert not (isinstance(node, ast.keyword) and node.arg == "optimize"), fn.__name__


DERIVATIVE_CHECKS = ("eq5", "eq6", "eq7", "eq12", "eq14")


@pytest.mark.parametrize("argv", [
    ["--family", "prop4", "--eps", "1", "--a", "2", "--b", "1", "--c", "0", "--domain=-1.6,1.6,-1,1"],
    ["--family", "torus", "--a", "2", "--b", "1", "--lift"],
], ids=["sn", "torus_lift"])
def test_chebyshev_residuals_converge_spectrally(monkeypatch, argv):
    # the derivative identities are truncation-limited at N = 32 and at the
    # round-off floor at the default N: the worst of them falls at least 100x
    ch = build_chart(build_parser().parse_args(["verify", *argv]))

    def worst():
        res = surface_invariants(ch, nx=9, ny=9).identity_residuals
        return max(v for k, v in res.items() if k.startswith(DERIVATIVE_CHECKS))

    default = worst()
    monkeypatch.setattr(diffgeo, "CHEB_N", 32)
    coarse = worst()
    assert default < coarse / 100, (coarse, default)


def test_parallelism_converges_spectrally_and_a_defect_does_not(monkeypatch):
    # phi0 near the pole is truncation-limited at N = 24 and falls more than 100x by
    # the default N; the x1.01 control is not PMC, and its residual is the defect
    # itself, the same at both degrees
    def mk(argv):
        return build_chart(build_parser().parse_args(["verify", *argv]))

    phi0 = mk(["--family", "phi0", "--hnorm", "0.25", "--domain=-1.5,1.5,-1,1"])
    control = scaled_chart(mk(["--family", "prop4", "--eps", "-1", "--a", "-2", "--b", "1", "--c", "0"]))

    def residuals():
        return [parallelism_residual(ch, *ch.grid(9, 9, shrink=diffgeo.SHRINK)) for ch in (phi0, control)]

    default = residuals()
    monkeypatch.setattr(diffgeo, "CHEB_N", 24)
    coarse = residuals()
    assert default[0] < coarse[0] / 100, (coarse[0], default[0])
    assert default[0] < 1e-5
    assert default[1] == pytest.approx(coarse[1], rel=1e-6) and default[1] > 1e-2, (coarse[1], default[1])


def test_one_chart_pass_per_record(monkeypatch):
    # one jet call on the requested 33x33 grid and one on the Chebyshev grid of the
    # same rectangle, which serves both the identity and the parallelism residuals
    ch = chart("prop4_hyp")
    jet = ch.jet
    calls = []

    def counted(x, y):
        calls.append((np.copy(x), np.copy(y)))
        return jet(x, y)

    monkeypatch.setattr(ch, "jet", counted)
    inv = surface_invariants(ch, nx=33, ny=33)
    assert len(calls) == 2
    X, Y = ch.grid(33, 33, shrink=diffgeo.SHRINK)
    assert np.array_equal(calls[0][0], X) and np.array_equal(calls[0][1], Y)
    n = diffgeo.CHEB_N + 1
    xs, _ = chebyshev(X[0, 0], X[-1, 0])
    ys, _ = chebyshev(Y[0, 0], Y[0, -1])
    for x, y in calls[1:]:
        assert np.shape(x) == (n, n)
        assert np.array_equal(x[:, 0], xs) and np.array_equal(y[0], ys)
    assert np.array_equal(inv.x, X) and np.array_equal(inv.y, Y)


def scaled_chart(base):
    """The chart with its second factor scaled by 1.01: its jet is the scaled jet of ``base``."""
    scale = np.array([1.0, 1.0, 1.0, 1.01, 1.01, 1.01])
    return dataclasses.replace(
        base, name="corrupted",
        jet=lambda x, y: {k: v * scale.reshape((6,) + (1,) * (v.ndim - 1)) for k, v in base.jet(x, y).items()},
    )


def test_surface_invariants_peak_memory():
    # two passes of a few thousand samples each, the Chebyshev jet and frame dropped
    # after their last use: about 10 MB on this call
    p = ProfileParams(+1, 2.0, 1.0, 0.0)
    ch = pmc_profile_family(p, closed_form("sn_family", p, x_span=(-1.5, 1.5)), y_span=(-1.0, 1.0))
    tracemalloc.start()
    try:
        surface_invariants(ch, nx=81, ny=81)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6, peak / 1e6


def test_record_is_the_pointwise_pass_of_the_requested_grid():
    # the record is one pointwise pass over the requested grid, with its residuals
    corrupted = scaled_chart(chart("prop4_hyp"))
    cases = [chart(key) for key in ("prop4_hyp", "prop4_sph", "phi0")]
    for ch in cases + [fd_chart(corrupted, 1e-3)]:
        inv = surface_invariants(ch, nx=33, ny=33)
        X, Y = ch.grid(33, 33, shrink=diffgeo.SHRINK)
        jet = sample_jet(ch, X, Y)
        block = _pointwise_block(jet, normal_frame(jet))
        assert np.array_equal(inv.x, X) and np.array_equal(inv.y, Y), ch.name
        for f in dataclasses.fields(inv):
            if f.name in block:
                assert np.array_equal(getattr(inv, f.name), block[f.name], equal_nan=True), (ch.name, f.name)
        assert inv.parallelism_residual == parallelism_residual(ch, X, Y), ch.name
        # the holomorphy residuals are those of the Chebyshev pass of the same rectangle,
        # its theta_j differentiated here as complex fields, at every point
        Xc, Yc, Dx, Dy = diffgeo._chebyshev_grid(X, Y)
        jet = sample_jet(ch, Xc, Yc)
        cheb = _pointwise_block(jet, normal_frame(jet))
        for j in (1, 2):
            theta = cheb[f"theta{j}"]
            absolute = float(np.max(np.abs(0.5 * (apply_along(Dx, theta, 0) + 1j * apply_along(Dy, theta, 1)))))
            assert inv.holomorphy[f"dzbar_theta{j}_abs"] == pytest.approx(absolute, rel=1e-12, abs=1e-300), ch.name
            normalized = absolute / (float(np.max(np.abs(theta))) + diffgeo.EPS_FLOOR)
            assert inv.holomorphy[f"dzbar_theta{j}_norm"] == pytest.approx(normalized, rel=1e-12, abs=1e-300), ch.name


def nine_point_jet(ev, X, Y, d):
    """The centered second-order differences of ``ev`` with step d, written out."""
    p = ev(X, Y)
    return {
        "p": p,
        "px": (ev(X + d, Y) - ev(X - d, Y)) / (2 * d),
        "py": (ev(X, Y + d) - ev(X, Y - d)) / (2 * d),
        "pxx": (ev(X + d, Y) - 2 * p + ev(X - d, Y)) / d**2,
        "pyy": (ev(X, Y + d) - 2 * p + ev(X, Y - d)) / d**2,
        "pxy": (ev(X + d, Y + d) - ev(X + d, Y - d) - ev(X - d, Y + d) + ev(X - d, Y - d)) / (4 * d**2),
    }


def test_numeric_jet_takes_nine_evaluations():
    # each axis shift serves both its first and its second difference
    base = chart("prop4_hyp")
    calls = []

    def counted(x, y):
        calls.append(1)
        return base.jet(x, y)

    ch = dataclasses.replace(base, name="counted", jet=counted)
    X, Y = ch.grid(9, 9, shrink=0.05)
    d = 1e-3
    jet = sample_jet(fd_chart(ch, d), X, Y)
    assert len(calls) == 9
    for key, value in nine_point_jet(base.evaluate, X, Y, d).items():
        assert np.array_equal(getattr(jet, key), value), key


def test_fd_chart_jet_is_the_nine_point_formula():
    # the numeric jet is a chart: its jet is the written-out differences of the
    # parent's points, and it is the parent in name, domain and metadata
    ch = chart("prop4_hyp")
    X, Y = ch.grid(9, 7, shrink=0.05)
    d = 1e-3
    numeric = fd_chart(ch, d)
    jet = numeric.jet(X, Y)
    oracle = nine_point_jet(ch.evaluate, X, Y, d)
    assert set(jet) == set(oracle)
    for key, value in oracle.items():
        assert np.array_equal(jet[key], value), key
    assert numeric.name == ch.name and numeric.domain == ch.domain
    assert numeric.metadata is ch.metadata and numeric.metadata


def test_fd_step_selects_the_numeric_jet_on_a_jet_chart():
    # the fd_chart of a chart differences its evaluate, even where an analytic jet exists
    ch = chart("prop4_hyp")
    X, Y = ch.grid(9, 9, shrink=0.05)
    d = 1e-3
    jet = sample_jet(fd_chart(ch, d), X, Y)
    for key, value in nine_point_jet(ch.evaluate, X, Y, d).items():
        assert np.array_equal(getattr(jet, key), value), key
    assert not np.array_equal(jet.pxx, sample_jet(ch, X, Y).pxx)


@pytest.mark.parametrize("fd_step", [0.0, -1e-3, np.nan, np.inf])
@pytest.mark.parametrize("jet", ["analytic", "scaled"])
def test_fd_step_must_be_positive_and_finite(fd_step, jet):
    base = chart("prop4_hyp")
    ch = base if jet == "analytic" else scaled_chart(base)
    X, Y = ch.grid(5, 5, shrink=0.05)
    with pytest.raises(DomainError, match="fd_step must be positive and finite"):
        sample_jet(fd_chart(ch, fd_step), X, Y)


def test_curvature_bounds():
    for key in ("prop4_sph", "T68", "circ11"):
        inv = small_inv(key)
        assert curvature_bound_excess(inv) < 1e-6, key  # K <= |H|^2 + 1 on eps = +1
    for key in ("prop4_hyp", "phi0", "example2"):
        inv = small_inv(key)
        assert curvature_bound_excess(inv) < 1e-6, key  # K <= |H|^2 on eps = -1


def test_torus_integrals():
    lifted = chart("incl_torus")
    vals = torus_integrals(lifted, nx=96, ny=96)
    inv = small_inv("incl_torus")
    assert np.max(np.abs(inv.C1)) > 0.3  # the integrand is not trivially zero
    assert abs(vals["intC1"]) < 1e-3 * vals["area"]
    assert abs(vals["intC2"]) < 1e-3 * vals["area"]
    assert abs(vals["deg_phi"]) < 1e-3
    assert abs(vals["deg_psi"]) < 1e-3
    assert vals["eq15_j1"] < 1e-4 and vals["eq15_j2"] < 1e-4
    # product torus: integrand identically zero
    vals = torus_integrals(chart("T68"), nx=32, ny=32)
    assert vals["intC1"] == 0.0 and vals["intC2"] == 0.0
    assert vals["deg_phi"] == 0.0 and vals["deg_psi"] == 0.0
    with pytest.raises(DomainError):
        torus_integrals(chart("prop4_hyp"))


def test_abresch_rosenberg_values():
    ar = abresch_rosenberg(chart("torus"), nx=33, ny=33)
    assert np.max(np.abs(ar.theta_ar - 3.0 / 32.0)) < 1e-5
    assert np.max(np.abs(ar.H_scalar - 0.5)) < 1e-9
    ar = abresch_rosenberg(cmc_sinh_chart(1.0), nx=33, ny=33)
    assert np.max(np.abs(ar.theta_ar - 0.125)) < 1e-5
    ar = abresch_rosenberg(cmc_leite_chart(0.25), nx=33, ny=33)
    assert np.max(np.abs(ar.theta_ar)) < 1e-6
    assert np.max(np.abs(ar.H_scalar - 0.25)) < 1e-9
    ar = abresch_rosenberg(chart("prop6_hyp"), nx=33, ny=33)
    assert np.max(np.abs(ar.theta_ar - 0.125)) < 1e-5
    assert ar.residuals["eta_z_law"] < 1e-8
    assert ar.residuals["dzbar_theta_ar_norm"] < 1e-8


def test_abresch_rosenberg_rejects_non_cmc():
    base = chart("torus")

    def bad_jet(x, y):
        out = {k: v.copy() for k, v in base.jet(x, y).items()}
        for v in out.values():
            v[3] *= 1.01  # scaled height: no longer CMC
        return out

    bad = ImmersionChart(
        name="corrupted",
        eps=+1,
        target=base.target,
        domain=base.domain,
        jet=bad_jet,
        circle_radius=base.circle_radius,
        periods=base.periods,
    )
    # the record measures the spread of |H|; the caller's gate refuses it
    ar = abresch_rosenberg(bad, nx=17, ny=17)
    assert ar.residuals["H_spread"] > 1e-6
    with pytest.raises(VerificationError, match=r"^\|H\| varies by [0-9.]+e-0[0-9] > 1\.0e-06: chart is not CMC$"):
        ar.require_cmc(1e-6)
    with pytest.raises(DomainError):
        abresch_rosenberg(chart("prop4_hyp"))


def test_inclusion_hopf_relations():
    inv = small_inv("incl_torus")
    assert np.max(np.abs(inv.theta1 - inv.theta2)) < 1e-6
    ar = abresch_rosenberg(chart("torus"), nx=33, ny=33)
    assert np.max(np.abs(inv.theta1 - 2.0 * ar.theta_ar.ravel()[0])) < 1e-5
    assert np.max(np.abs(inv.theta1 - 0.1875)) < 1e-6


def test_jet_richardson_and_boundary():
    ch = chart("torus")
    X, Y = ch.grid(5, 5, shrink=0.2)
    ana = sample_jet(ch, X, Y)
    devs = []
    for d in (1e-2, 5e-3):
        num = sample_jet(fd_chart(ch, d), X, Y)
        devs.append(max(np.max(np.abs(getattr(num, k) - getattr(ana, k))) for k in ("px", "py", "pxx", "pxy", "pyy")))
    assert devs[0] < 5e-4  # second-order error at fd_step 1e-2
    assert devs[1] < devs[0] / 3.0
    with pytest.raises(DomainError):
        sample_jet(ch, np.array([-1.0]), np.array([0.0]))  # outside domain


def test_product_separated_mixed_partial():
    ch = chart("T68")
    X, Y = ch.grid(7, 7, shrink=0.1)
    jet = sample_jet(ch, X, Y)
    assert np.max(np.abs(jet.pxy)) == 0.0


def test_degenerate_chart_rejected():
    # a rank-deficient chart fails the conformality machinery upstream
    point = np.array([1.0, 0, 0, 0, 0, 1.0])

    def const_jet(x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        p = np.broadcast_to(point, x.shape + (6,)).copy()
        zero = np.zeros_like(p)
        return {"p": p, "px": zero, "py": zero, "pxx": zero, "pxy": zero, "pyy": zero}

    const = ImmersionChart("const", +1, "product", (-1, 1, -1, 1), const_jet)
    X, Y = const.grid(5, 5, shrink=0.2)
    jet = sample_jet(fd_chart(const, 1e-3), X, Y)
    with pytest.raises(DomainError):
        conformal_data(jet)


def test_normalized_mismatch_scales():
    a = np.zeros((4, 4))
    b = np.full((4, 4), 1e-15)
    assert normalized_mismatch(a, b) < 1e-2  # the floor keeps it small: 1e-15 / (1e-15 + 1e-12)
    assert normalized_mismatch(a, b, terms=(np.ones((4, 4)),)) < 1e-14


def test_check_status_and_margin():
    # PASS exactly when value <= tol, so a value at its tolerance passes and NaN fails
    assert Check("at", 1e-4, 1e-4, "s").status == "PASS"
    assert Check("past", np.nextafter(1e-4, 1.0), 1e-4, "s").status == "FAIL"
    assert Check("nan", float("nan"), 1e-4, "s").status == "FAIL"
    assert Check("half", 0.5e-6, 1e-6, "s").margin == 0.5e-6 / 1e-6
    assert np.isnan(Check("nan", float("nan"), 1e-4, "s").margin)


def test_every_gate_names_its_source():
    # a gate's tolerance is the bound of a test that exists: Check.source names its file and function.
    # the prop4 member carries nonzero Hopf values, phi0 vanishing ones and example4 a theta_AR value
    root = Path(__file__).resolve().parent.parent
    checks = certify_product(chart("prop4_hyp"), 9, 9) + certify_product(chart("phi0"), 9, 9)
    checks += certify_cmc(cmc_sinh_chart(1.0), 9, 9)
    assert {c.name for c in checks} >= {"hopf_values", "theta_ar_value", "eq5_j1", "curvature_bound", "H_spread"}
    for c in checks:
        path, function = c.source.split("::")
        assert path.startswith("tests/") and f"\ndef {function}(" in (root / path).read_text(), (c.name, c.source)


def _same_record(ref, got):
    """Two records of a dataclass hold the same values, arrays bit for bit."""
    for f in dataclasses.fields(ref):
        a, b = getattr(ref, f.name), getattr(got, f.name)
        if isinstance(a, np.ndarray):
            assert a.shape == b.shape and a.tobytes() == np.ascontiguousarray(b).tobytes(), f.name
        elif f.name != "chart":
            assert a == b, f.name


def test_record_bits_do_not_depend_on_the_jet_layout():
    # sample_jet hands the chart's arrays to the engine as they come, and the engine works
    # elementwise on whole components: a jet of Fortran-ordered arrays gives the record of
    # the same jet with C-ordered arrays, bit for bit
    base = chart("prop4_sph")
    fortran = dataclasses.replace(base, jet=lambda x, y: {k: np.asfortranarray(v) for k, v in base.jet(x, y).items()})
    X, Y = base.grid(33, 33, shrink=diffgeo.SHRINK)
    assert all(v.flags.f_contiguous and not v.flags.c_contiguous for v in fortran.jet(X, Y).values())
    _same_record(surface_invariants(base, nx=33, ny=33), surface_invariants(fortran, nx=33, ny=33))


def test_engine_writes_into_no_jet():
    # sample_jet hands the chart's arrays to the JetSample without a copy, so nothing
    # downstream may write into them: on a chart whose jet answers read-only arrays the
    # three record builders run unchanged and give the same record, bit for bit
    def read_only(base):
        def jet(x, y):
            out = base.jet(x, y)
            for v in out.values():
                v.flags.writeable = False
            return out

        return dataclasses.replace(base, jet=jet)

    product, torus, lifted = chart("prop4_hyp"), chart("torus"), chart("incl_torus")
    X, Y = product.grid(5, 5)
    assert not any(v.flags.writeable for v in read_only(product).jet(X, Y).values())
    _same_record(surface_invariants(product, nx=21, ny=21), surface_invariants(read_only(product), nx=21, ny=21))
    _same_record(abresch_rosenberg(torus, nx=21, ny=21), abresch_rosenberg(read_only(torus), nx=21, ny=21))
    assert torus_integrals(lifted, nx=32, ny=32) == torus_integrals(read_only(lifted), nx=32, ny=32)
