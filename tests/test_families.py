import numpy as np
import pytest

from pmcsurf.ambient import inner
from pmcsurf.diffgeo import normal_frame, sample_jet
from pmcsurf.errors import DomainError, InfeasibleParameters
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
    product_of_curves,
)
from pmcsurf.profile import ProfileParams, ProfileSolution, closed_form, solve_profile


def chart_Hsq(chart, nx=7, ny=7):
    X, Y = chart.grid(nx, ny, shrink=0.1)
    jet = sample_jet(chart, X, Y)
    frame = normal_frame(jet)
    return frame.Hnorm**2


def fd_jet(chart, x, y, d):
    ev = chart.evaluate
    p = ev(x, y)
    return {
        "px": (ev(x + d, y) - ev(x - d, y)) / (2 * d),
        "py": (ev(x, y + d) - ev(x, y - d)) / (2 * d),
        "pxx": (ev(x + d, y) - 2 * p + ev(x - d, y)) / d**2,
        "pyy": (ev(x, y + d) - 2 * p + ev(x, y - d)) / d**2,
        "pxy": (ev(x + d, y + d) - ev(x + d, y - d) - ev(x - d, y + d) + ev(x - d, y - d))
        / (4 * d**2),
    }


ALL_CHARTS = {}


def get_chart(key):
    if key in ALL_CHARTS:
        return ALL_CHARTS[key]
    if key == "T_0.6_0.8":
        ch = example1_chart("T", a=0.6, ahat=0.8)
    elif key == "Chat_sqrt2":
        ch = example1_chart("Chat", a=np.sqrt(2.0))
    elif key == "Ptilde":
        ch = example1_chart("Ptilde")
    elif key == "prop4_hyp":
        params = ProfileParams(-1, -2.0, 1.0, 0.0)
        h = closed_form("sinh_family", params, x_span=(-1.2, 1.2))
        ch = pmc_profile_family(params, h)
    elif key == "prop4_sph":
        params = ProfileParams(+1, 2.0, 1.0, 0.0)
        h = closed_form("sn_family", params, x_span=(-1.6, 1.6))
        ch = pmc_profile_family(params, h)
    elif key == "phi0":
        ch = pmc_phi0(0.25)
    elif key == "torus":
        ch = cmc_torus(2.0, 1.0)
    elif key == "prop6_hyp":
        params = ProfileParams(-1, -2.0, 1.0, 0.0)
        h = closed_form("sinh_family", params, x_span=(-1.2, 1.2))
        ch = cmc_profile_family(params, h)
    else:
        raise KeyError(key)
    ALL_CHARTS[key] = ch
    return ch


def test_example1_mean_curvature_constants():
    hsq = chart_Hsq(get_chart("T_0.6_0.8"))
    assert np.allclose(4 * hsq, 0.36 / 0.64 + 0.64 / 0.36, atol=1e-10)
    assert np.allclose(4 * hsq, 2.340278, atol=1e-5)
    hsq = chart_Hsq(get_chart("Chat_sqrt2"))
    assert np.allclose(4 * hsq, 3.0, atol=1e-10)  # (2 a^2 - 1)/(a^2 - 1) at a = sqrt(2)
    hsq = chart_Hsq(get_chart("Ptilde"))
    assert np.allclose(hsq, 0.5, atol=1e-10)


def test_product_minimal_rejected():
    with pytest.raises(DomainError):
        product_of_curves(+1, 0.0, 0.0)


@pytest.mark.parametrize("k", [0.0, 0.5, -0.9, 1.0, -1.0, 1.2])
def test_factor_reach_is_where_the_curve_reaches_the_growth_bound(k):
    from pmcsurf.curves import constant_curvature_curve
    from pmcsurf.families import GROWTH_BOUND, _factor_reach

    curve, top = constant_curvature_curve(-1, k), np.cosh(GROWTH_BOUND)
    reach = _factor_reach(-1, k)
    if abs(k) > 1:
        # a circle keeps its x3; this one stays far inside the bound
        assert reach == np.inf and np.ptp(curve.jet(np.linspace(-50, 50, 101))[0][:, 2]) < 1e-9
        return
    x3 = curve.jet(np.array([-reach, 0.999 * reach, reach]))[0][:, 2]
    assert np.allclose(x3[[0, 2]], top, rtol=1e-12) and x3[1] < top
    assert _factor_reach(+1, k) == np.inf


def test_product_manifold_and_flatness():
    for key in ("T_0.6_0.8", "Chat_sqrt2", "Ptilde"):
        ch = get_chart(key)
        X, Y = ch.grid(9, 9)
        assert ch.manifold_defect(X, Y) < 1e-9
        jet = sample_jet(ch, X, Y)
        gxx = jet.ip(jet.px, jet.px)
        assert np.allclose(gxx, 1.0, atol=1e-10)  # unit-speed curves: u = 0


@pytest.mark.parametrize("key", ["prop4_hyp", "prop4_sph", "phi0", "torus", "prop6_hyp"])
def test_analytic_jets_match_fd(key):
    # numeric jets converge at second order to the analytic ones
    ch = get_chart(key)
    X, Y = ch.grid(6, 6, shrink=0.1)
    J = ch.jet(X, Y)
    devs = []
    for d in (2e-3, 1e-3):
        F = fd_jet(ch, X, Y, d)
        devs.append(max(np.max(np.abs(J[k] - F[k])) for k in F))
    assert devs[0] < 1e-4
    assert devs[1] < devs[0] / 2.5  # near factor 4 for second order


def test_prop4_branch_validation():
    params = ProfileParams(-1, -2.0, 1.0, 0.0)
    h = closed_form("sinh_family", params, x_span=(-1.0, 1.0))
    other = ProfileParams(-1, -2.0, 2.0, 0.0)
    with pytest.raises(DomainError):
        pmc_profile_family(other, h)  # mismatched parameters


def test_prop4_conformal_factor_and_kaehler():
    params = ProfileParams(-1, -2.0, 1.0, 0.0)
    h = closed_form("sinh_family", params, x_span=(-1.2, 1.2))
    ch = pmc_profile_family(params, h)
    X, Y = ch.grid(11, 11, shrink=0.03)
    jet = sample_jet(ch, X, Y)
    gxx = jet.ip(jet.px, jet.px)
    assert np.max(np.abs(gxx - 2.0 * np.cosh(X) ** 2)) < 1e-10
    from pmcsurf.diffgeo import kaehler_functions

    C1, C2, _, _ = kaehler_functions(jet)
    assert np.max(np.abs(C1 - C2)) < 1e-12
    hv, hp = h.h_at(X), h.hp_at(X)
    assert np.max(np.abs(C1**2 - hp**2 / (params.a - hv**2) ** 2)) < 1e-10


def test_prop4_hopf_constants_both_labels():
    # constant Hopf pair {(eps b/4)(a+1-c^2 +- 2ic)}; label order is orientation
    # dependent, so compare as a set
    params = ProfileParams(+1, 3.0, 1.0, 1.0)
    h = solve_profile(params, x_span=(-0.9, 0.9))
    ch = pmc_profile_family(params, h)
    X, Y = ch.grid(9, 9, shrink=0.05)
    jet = sample_jet(ch, X, Y)
    frame = normal_frame(jet)
    from pmcsurf.diffgeo import hopf_coefficients

    t1, t2 = hopf_coefficients(jet, frame)
    assert np.max(np.abs(t1 - t1.ravel()[0])) < 1e-8
    assert np.max(np.abs(t2 - t2.ravel()[0])) < 1e-8
    expected = {0.75 + 0.5j, 0.75 - 0.5j}
    got = {complex(np.round(t1.ravel()[0], 9)), complex(np.round(t2.ravel()[0], 9))}
    assert got == expected
    # metadata records the same pair
    assert set(np.round(ch.metadata["hopf_expected"], 9)) == expected


def test_prop4_constant_profile_reduces_to_products():
    # a constant root of q gives C1 = C2 = 0 (a product of curves)
    params = ProfileParams(+1, 2.0, 1.0, 0.0)
    h0 = np.sqrt((params.a - params.b) / (1 + params.b))
    x = np.linspace(-1.0, 1.0, 201)
    h = ProfileSolution(params, x, np.full_like(x, h0), np.zeros_like(x), nonconstant=False)
    ch = pmc_profile_family(params, h)
    X, Y = ch.grid(7, 7, shrink=0.05)
    from pmcsurf.diffgeo import kaehler_functions

    jet = sample_jet(ch, X, Y)
    C1, C2, _, _ = kaehler_functions(jet)
    assert np.max(np.abs(C1)) < 1e-10
    assert np.max(np.abs(C2)) < 1e-10
    assert np.allclose(chart_Hsq(ch), params.b / 4.0, atol=1e-9)


def test_prop4_isometry_invariance():
    # the one-parameter isometry group I(theta) x Id matches shifting y by
    # theta / sqrt(|a|) (theta itself for a = 0)
    theta = 0.3
    cases = []
    params = ProfileParams(+1, 2.0, 1.0, 0.0)
    cases.append((params, closed_form("sn_family", params, x_span=(-1.2, 1.2))))
    params = ProfileParams(-1, -2.0, 1.0, 0.0)
    cases.append((params, closed_form("sinh_family", params, x_span=(-1.2, 1.2))))
    params = ProfileParams(-1, 0.0, 1.0, 0.5)
    cases.append((params, solve_profile(params, h0=1.5, x_span=(-0.25, 0.25), drift_tol=1e-10)))

    for params, h in cases:
        a = params.a
        ch = pmc_profile_family(params, h, y_span=(-1.0, 1.0))
        if a > 0:
            w = np.sqrt(a)
            M = np.array([[np.cos(theta), -np.sin(theta), 0], [np.sin(theta), np.cos(theta), 0], [0, 0, 1]])
            shift = theta / w
        elif a < 0:
            w = np.sqrt(-a)
            M = np.array([[1, 0, 0], [0, np.cosh(theta), np.sinh(theta)], [0, np.sinh(theta), np.cosh(theta)]])
            shift = theta / w
        else:
            M = np.array(
                [
                    [1 - theta**2 / 2, theta, theta**2 / 2],
                    [-theta, 1, theta],
                    [-theta**2 / 2, theta, 1 + theta**2 / 2],
                ]
            )
            shift = theta
        X, Y = ch.grid(9, 9, shrink=0.3)
        P = ch.evaluate(X, Y)
        moved = np.einsum("ij,...j->...i", M, P[..., :3])
        shifted = ch.evaluate(X, Y + shift)
        assert np.max(np.abs(moved - shifted[..., :3])) < 1e-9
        assert np.max(np.abs(P[..., 3:] - shifted[..., 3:])) < 1e-9  # psi factor unchanged


def test_phi0_invariants():
    ch = get_chart("phi0")
    X, Y = ch.grid(9, 9)
    jet = sample_jet(ch, X, Y)
    gxx = jet.ip(jet.px, jet.px)
    assert np.max(np.abs(gxx - 1.0 / (0.75 * np.cos(X) ** 2))) < 1e-9
    from pmcsurf.diffgeo import hopf_coefficients, kaehler_functions

    C1, C2, _, _ = kaehler_functions(jet)
    assert np.max(np.abs(C1**2 - 0.75)) < 1e-9
    assert np.max(np.abs(C2**2 - 0.75)) < 1e-9
    frame = normal_frame(jet)
    t1, t2 = hopf_coefficients(jet, frame)
    assert np.max(np.abs(t1)) < 1e-7
    assert np.max(np.abs(t2)) < 1e-7
    with pytest.raises(DomainError):
        pmc_phi0(0.5)
    with pytest.raises(DomainError):
        pmc_phi0(0.0)


def test_example2_family_constants():
    lam = 1.0
    ch = pmc_sinh_family(lam)
    X, Y = ch.grid(9, 9, shrink=0.05)
    jet = sample_jet(ch, X, Y)
    gxx = jet.ip(jet.px, jet.px)
    assert np.max(np.abs(gxx - (1 + lam**2) * np.cosh(lam * X) ** 2)) < 1e-9
    frame = normal_frame(jet)
    from pmcsurf.diffgeo import hopf_coefficients

    t1, t2 = hopf_coefficients(jet, frame)
    assert np.max(np.abs(t1 - lam**2 / 4)) < 1e-9
    assert np.max(np.abs(t2 - lam**2 / 4)) < 1e-9
    assert np.allclose(4 * frame.Hnorm**2, 1.0, atol=1e-9)


def test_torus_parameters_and_closure():
    ch = get_chart("torus")
    assert ch.metadata["kappa_sq"] == pytest.approx(0.25, abs=0)
    assert ch.circle_radius == pytest.approx(1.0, abs=1e-15)
    rng = np.random.default_rng(5)
    x = rng.uniform(0, ch.periods[0], size=1000)
    y = rng.uniform(0, ch.periods[1], size=1000)
    p = ch.evaluate(x, y)
    assert np.max(np.abs(inner(p[..., :3], p[..., :3], +1) - 1.0)) < 1e-12
    # seam closure in the S1 embedding
    e0 = ch.embed_circle(x, y)
    assert np.max(np.abs(e0 - ch.embed_circle(x + ch.periods[0], y))) < 1e-8
    assert np.max(np.abs(e0 - ch.embed_circle(x, y + ch.periods[1]))) < 1e-8
    with pytest.raises(DomainError):
        cmc_torus(1.0, 2.0)


def test_torus_antipodal_symmetry_spot_check():
    # optional spot check: (x, y) -> (-x, y + pi/kappa) reverses the embedding
    ch = get_chart("torus")
    kappa = np.sqrt(ch.metadata["kappa_sq"])
    rng = np.random.default_rng(11)
    x = rng.uniform(0.5, 3.0, size=50)
    y = rng.uniform(0.0, 4.0, size=50)
    a = ch.embed_circle(x, y)
    b = ch.embed_circle(-x, y + np.pi / kappa)
    assert np.max(np.abs(a + b)) < 1e-12


def test_cmc_profile_truncates_to_admissible_band():
    params = ProfileParams(+1, 2.0, 1.0, 0.0)
    h = closed_form("sn_family", params, x_span=(-1.6, 1.6))
    ch = cmc_profile_family(params, h)
    X, Y = ch.grid(15, 7)
    factor = params.eps * (params.a - h.h_at(X) ** 2)
    assert np.min(factor) > params.b  # inside the admissible band


def test_cmc_profile_matches_metric():
    ch = get_chart("prop6_hyp")
    X, Y = ch.grid(9, 9, shrink=0.03)
    jet = sample_jet(ch, X, Y)
    gxx = jet.ip(jet.px, jet.px)
    assert np.max(np.abs(gxx - 2.0 * np.cosh(X) ** 2)) < 1e-7


def test_geodesic_inclusion_basics():
    # base curve t = 0 goes to the canonical geodesic point
    flat = cmc_sinh_chart(1.0)
    lifted = geodesic_inclusion(flat)
    X, Y = lifted.grid(7, 7)
    p4 = flat.evaluate(X, Y)
    p6 = lifted.evaluate(X, Y)
    assert np.allclose(p6[..., :3], p4[..., :3], atol=1e-14)  # first factor passes through
    t = p4[..., 3]
    assert np.allclose(p6[..., 3:], np.stack([0 * t, np.sinh(t), np.cosh(t)], axis=-1), atol=1e-12)
    # the lift is isometric: same conformal factor
    j4 = sample_jet(flat, X, Y)
    j6 = sample_jet(lifted, X, Y)
    assert np.max(np.abs(j4.ip(j4.px, j4.px) - j6.ip(j6.px, j6.px))) < 1e-11
    with pytest.raises(DomainError):
        geodesic_inclusion(lifted)

    sphere_lift = geodesic_inclusion(get_chart("torus"))
    X, Y = sphere_lift.grid(7, 7)
    t = get_chart("torus").evaluate(X, Y)[..., 3]
    q = sphere_lift.evaluate(X, Y)[..., 3:]
    assert np.allclose(q, np.stack([np.cos(t), np.sin(t), 0 * t], axis=-1), atol=1e-12)


def test_leite_chart_constant_curvature_metric():
    # induced metric of the H = 1/4 chart has constant curvature 4H^2 - 1
    ch = cmc_leite_chart(0.25, domain=(-np.pi / 4, np.pi / 4, -1.2, 1.2))
    from pmcsurf.diffgeo import abresch_rosenberg, grid_laplacian_richardson

    ar = abresch_rosenberg(ch, nx=81, ny=81)
    dx = ar.x[1, 0] - ar.x[0, 0]
    dy = ar.y[0, 1] - ar.y[0, 0]
    K = -np.exp(-2 * ar.u) * grid_laplacian_richardson(ar.u, dx, dy)
    assert np.nanmax(np.abs(K + 0.75)) < 1e-6


def test_pmc_and_cmc_share_conformal_factor():
    # the two constructions on one profile solution induce the same metric
    params = ProfileParams(-1, -2.0, 1.0, 0.0)
    h = closed_form("sinh_family", params, x_span=(-1.2, 1.2))
    pmc = pmc_profile_family(params, h)
    cmc = cmc_profile_family(params, h)
    x0 = max(pmc.domain[0], cmc.domain[0]) + 0.01
    x1 = min(pmc.domain[1], cmc.domain[1]) - 0.01
    xs = np.linspace(x0, x1, 31)
    ys = np.zeros_like(xs) + 0.2
    jp = sample_jet(pmc, xs, ys)
    jc = sample_jet(cmc, xs, ys)
    assert np.max(np.abs(jp.ip(jp.px, jp.px) - jc.ip(jc.px, jc.px))) < 1e-9


def test_chart_grid_and_domain():
    ch = get_chart("prop4_hyp")
    X, Y = ch.grid(5, 9)
    assert X.shape == (5, 9)
    x0, x1, y0, y1 = ch.domain
    assert X.min() == pytest.approx(x0) and X.max() == pytest.approx(x1)
    assert Y.min() == pytest.approx(y0) and Y.max() == pytest.approx(y1)


def test_evaluate_is_the_jet_point_for_every_family():
    params = ProfileParams(-1, -2.0, 1.0, 0.0)
    h = closed_form("sinh_family", params, x_span=(-1.2, 1.2))
    charts = [
        product_of_curves(-1, 1.0, 1.0),
        example1_chart("T", a=0.6, ahat=0.8),
        pmc_profile_family(params, h),
        pmc_phi0(0.25),
        pmc_sinh_family(1.0),
        cmc_profile_family(params, h),
        cmc_sinh_chart(1.0),
        cmc_leite_chart(0.25),
        cmc_torus(2.0, 1.0),
        geodesic_inclusion(cmc_sinh_chart(1.0, domain=(-1.0, 1.0, -1.0, 1.0))),
    ]
    for ch in charts:
        X, Y = ch.grid(7, 5, shrink=0.05)
        assert np.array_equal(ch.evaluate(X, Y), ch.jet(X, Y)["p"]), ch.name


def test_chart_needs_evaluate_or_jet():
    with pytest.raises(DomainError):
        ImmersionChart(name="empty", eps=-1, target=TARGET_PRODUCT, domain=(0.0, 1.0, 0.0, 1.0))
    # the derived evaluate keeps the jet the chart was built with
    ch = cmc_sinh_chart(1.0)
    jet, calls = ch.jet, []
    ch.jet = lambda x, y: calls.append(1) or jet(x, y)
    ch.evaluate(0.0, 0.0)
    assert calls == []


@pytest.mark.parametrize("key", ["prop4_hyp", "prop4_sph", "phi0", "example2", "T_0.6_0.8"])
def test_grid_jet_equals_single_point_jets(key):
    # one-variable data are evaluated once per grid line and gathered: each
    # node must carry bitwise the jet of that node alone
    ch = pmc_sinh_family(1.0) if key == "example2" else get_chart(key)
    X, Y = ch.grid(9, 7, shrink=0.05)
    J = ch.jet(X, Y)
    for i, j in [(0, 0), (0, 6), (8, 0), (8, 6), (3, 2), (4, 5), (7, 1)]:
        single = ch.jet(X[i, j], Y[i, j])
        for k in J:
            assert np.array_equal(J[k][i, j], single[k]), (key, k, i, j)


def test_signed_zero_abscissae_stay_apart():
    # distinct values are told apart by bit pattern: tan(-0.0) = -0.0
    ch = get_chart("phi0")
    J = ch.jet(np.array([0.0, -0.0, 0.0]), np.array([0.1, 0.1, -0.0]))
    assert np.signbit(J["p"][:, 0]).tolist() == [False, True, False]
    assert np.signbit(J["p"][:, 1]).tolist() == [False, False, True]


@pytest.mark.parametrize("solved", [False, True])
def test_profile_data_evaluated_once_per_grid_line(monkeypatch, solved):
    params = ProfileParams(-1, -2.0, 0.5, 0.3) if solved else ProfileParams(-1, -2.0, 1.0, 0.0)
    if solved:
        h = solve_profile(params, x_span=(-1.0, 1.0))
    else:
        h = closed_form("sinh_family", params, x_span=(-1.2, 1.2))
    ch = pmc_profile_family(params, h)
    ch.jet(0.0, 0.0)  # the curve factor computes its node slopes on first use
    sizes = []
    for name in ("h_at", "hp_at", "hpp_at"):
        fn = getattr(h, name)

        def counted(x, fn=fn):
            sizes.append(np.size(x))
            return fn(x)

        monkeypatch.setattr(h, name, counted)
    X, Y = ch.grid(129, 129, shrink=0.02)
    ch.jet(X, Y)
    assert sizes and max(sizes) <= 129


def test_parabolic_branches_bound_y_as_the_horocycle():
    # a = 0 (prop4) and E = a - eps b = 0 (prop6): y moves the H2 factor by a
    # parabolic translation, of parameter y and 2 (y + F(x)), whose entries
    # 1 + s^2/2 reach cosh(GROWTH_BOUND) where the horocycle of _factor_reach does
    from pmcsurf.families import GROWTH_BOUND, _factor_reach, _y_reach

    horo = _factor_reach(-1, 1.0)
    assert _y_reach(1.0, True) == horo and 1.0 + horo**2 / 2.0 == pytest.approx(np.cosh(GROWTH_BOUND))
    assert _y_reach(np.sqrt(2.0), False) == GROWTH_BOUND / np.sqrt(2.0)

    params = ProfileParams(-1, 0.0, 1.0, 0.5)
    h = solve_profile(params, h0=1.5, x_span=(-0.3, 0.3))
    assert pmc_profile_family(params, h, y_span=(-20.0, 20.0)).domain[2:] == (-20.0, 20.0)
    with pytest.raises(InfeasibleParameters) as exc:
        pmc_profile_family(params, h, y_span=(-20.1, 1.0))
    assert exc.value.clause == f"|y| <= {horo:.6g}"

    params = ProfileParams(-1, -1.0, 1.0, 0.5)
    h = solve_profile(params, h0=0.5, x_span=(-0.3, 0.3))
    assert cmc_profile_family(params, h, y_span=(-9.0, 9.0)).domain[2:] == (-9.0, 9.0)
    with pytest.raises(InfeasibleParameters) as exc:
        cmc_profile_family(params, h, y_span=(-10.1, 9.0))
    assert exc.value.clause == f"|y + F(x)| <= {horo / 2.0:.6g}"
