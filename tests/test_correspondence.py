import numpy as np
import pytest

from pmcsurf.correspondence import (
    PARALLELISM_GATE,
    CmcFrenetData,
    cmc_to_pmc,
    extract_pmc_data,
    integrate_cmc_frenet,
    integrate_pmc_frenet,
    initial_pmc_state,
    pmc_to_cmc,
    product_alignment_distance,
    weak_congruence_check,
)
from pmcsurf.ambient import cross_eps, inner, norm3
from pmcsurf.diffgeo import abresch_rosenberg, parallelism_residual, sample_jet
from pmcsurf.errors import DomainError, PreconditionError, VerificationError
from pmcsurf.families import (
    ImmersionChart,
    cmc_profile_family,
    cmc_sinh_chart,
    geodesic_inclusion,
    pmc_profile_family,
    product_of_curves,
)
from pmcsurf.profile import ProfileParams, closed_form

CACHE = {}


def prop4_chart():
    if "prop4" not in CACHE:
        CACHE["prop4"] = fresh_prop4_chart()
    return CACHE["prop4"]


def fresh_prop4_chart():
    p = ProfileParams(-1, -2.0, 1.0, 0.0)
    return pmc_profile_family(p, closed_form("sinh_family", p, x_span=(-1.2, 1.2)), y_span=(-1.0, 1.0))


def prop4_data(nx=41, ny=41):
    key = ("data", nx, ny)
    if key not in CACHE:
        CACHE[key] = extract_pmc_data(prop4_chart(), nx=nx, ny=ny)
    return CACHE[key]


def lifted_chart():
    if "lift" not in CACHE:
        flat = cmc_sinh_chart(1.0, domain=(-1.0, 1.0, -1.0, 1.0))
        CACHE["lift"] = geodesic_inclusion(flat)
    return CACHE["lift"]


def test_extraction_relations_prop4():
    data = prop4_data()
    assert np.max(np.abs(data.C1 - data.C2)) < 1e-10
    assert np.max(np.abs(data.f2 - np.conj(data.f1))) < 1e-10
    assert np.max(np.abs(data.gamma2 + np.conj(data.gamma1))) < 1e-10
    assert data.Hnorm == pytest.approx(0.5, abs=1e-9)
    for key, val in data.residuals.items():
        assert val < 1e-3, (key, val)


def test_extraction_relations_inclusion():
    data = extract_pmc_data(lifted_chart(), nx=33, ny=33)
    assert np.max(np.abs(data.f1 - data.f2)) < 1e-12
    assert np.max(np.abs(data.gamma1 - data.gamma2)) < 1e-12
    assert np.max(np.abs(data.C1 - data.C2)) < 1e-12


def test_extraction_product_of_curves():
    data = extract_pmc_data(product_of_curves(-1, 1.0, 1.0), nx=17, ny=17)
    assert np.max(np.abs(data.C1)) < 1e-12
    assert np.max(np.abs(data.C2)) < 1e-12


def test_extract_refuses_non_pmc():
    from pmcsurf.curves import CurveSpec, constant_curvature_curve, integrate_curve
    from pmcsurf.families import product_chart_from_curves

    spec = CurveSpec(
        +1,
        speed=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        curvature=lambda x: np.asarray(x, dtype=float),
        p0=np.array([1.0, 0.0, 0.0]),
        T0=np.array([0.0, 1.0, 0.0]),
        speed_prime=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )
    alpha = integrate_curve(spec, x_span=(-1.0, 1.0), step=2e-3)
    beta = constant_curvature_curve(+1, 1.0)
    bad = product_chart_from_curves(alpha, beta, +1, (-0.9, 0.9, -0.9, 0.9))
    with pytest.raises(PreconditionError):
        extract_pmc_data(bad, nx=17, ny=17)


def test_extract_checks_parallelism_on_the_sampled_rectangle(monkeypatch):
    # the parallelism gate's Chebyshev grid is built from the corners of the grid it
    # is given, so those must be the sampled rectangle's; at 50 nodes a stride of
    # nx // 16 = 3 would end at index 48 and leave out its last row and column.  The
    # compatibility residuals read the same grid
    import pmcsurf.correspondence as corr

    grid = corr._chebyshev_grid
    corners = []

    def recorded(X, Y):
        corners.append((X[0, 0], X[-1, 0], Y[0, 0], Y[0, -1]))
        return grid(X, Y)

    monkeypatch.setattr(corr, "_chebyshev_grid", recorded)
    data = extract_pmc_data(prop4_chart(), nx=50, ny=50)
    assert corners == [(data.x[0, 0], data.x[-1, 0], data.y[0, 0], data.y[0, -1])] * 2
    assert data.residuals["parallelism"] == parallelism_residual(prop4_chart(), data.x, data.y)


def test_extract_samples_the_chebyshev_grid_once(monkeypatch):
    # the parallelism gate's jet gives the Frenet data that the data gate reads on the
    # Chebyshev grid: one jet there and one on the nodes
    from pmcsurf.diffgeo import CHEB_N

    chart = fresh_prop4_chart()
    jet = chart.jet
    sizes = []

    def counted(x, y):
        sizes.append(np.size(x))
        return jet(x, y)

    monkeypatch.setattr(chart, "jet", counted)
    extract_pmc_data(chart, nx=33, ny=33)
    assert sorted(sizes) == [33 * 33, (CHEB_N + 1) ** 2]


def test_pmc_to_cmc_eta_matches_family_display():
    # eta_j = s (-2|H|) (+-y + int_0^x h dt) for an overall orientation sign s
    data = prop4_data()
    for j, sgn_y in ((1, +1), (2, -1)):
        d = pmc_to_cmc(data, j)
        ref = -2.0 * data.Hnorm * (sgn_y * d.y + np.sqrt(2.0) * (np.cosh(d.x) - 1.0))
        devs = []
        for s in (+1.0, -1.0):
            cand = s * ref
            cand = cand - cand[0, 0] + d.eta[0, 0]
            devs.append(np.max(np.abs(d.eta - cand)))
        assert min(devs) < 1e-5, (j, devs)
        assert d.Hval == pytest.approx(0.5, abs=1e-9)
        assert np.max(np.abs(d.nu - (data.C1 if j == 1 else data.C2))) == 0.0
        assert np.max(np.abs(d.p - np.sqrt(2) * (data.f1 if j == 1 else data.f2))) == 0.0


def test_residual_propagation_bound():
    data = prop4_data()
    worst_in = max(v for k, v in data.residuals.items() if k not in ("H_spread", "parallelism"))
    for j in (1, 2):
        d = pmc_to_cmc(data, j)
        worst_out = max(v for k, v in d.residuals.items())
        assert worst_out <= 2.0 * worst_in + 1e-12


def test_data_roundtrip_identity():
    data = prop4_data()
    d1 = pmc_to_cmc(data, 1)
    d2 = pmc_to_cmc(data, 2)
    back = cmc_to_pmc(d1, d2)
    for name in ("u", "C1", "C2", "gamma1", "gamma2", "f1", "f2"):
        assert np.max(np.abs(getattr(back, name) - getattr(data, name))) < 1e-6, name
    assert back.Hnorm == pytest.approx(data.Hnorm, abs=1e-12)


def test_cmc_to_pmc_rejects_mismatched_metric():
    data = prop4_data()
    d1 = pmc_to_cmc(data, 1)
    d2 = pmc_to_cmc(data, 2)
    bad = CmcFrenetData(
        eps=d2.eps, Hval=d2.Hval, x=d2.x, y=d2.y, u=d2.u + 0.05,
        nu=d2.nu, p=d2.p, eta=d2.eta, eta_x=d2.eta_x, eta_y=d2.eta_y,
    )
    with pytest.raises(DomainError):
        cmc_to_pmc(d1, bad)
    bad2 = CmcFrenetData(
        eps=d2.eps, Hval=d2.Hval + 0.1, x=d2.x, y=d2.y, u=d2.u,
        nu=d2.nu, p=d2.p, eta=d2.eta, eta_x=d2.eta_x, eta_y=d2.eta_y,
    )
    with pytest.raises(DomainError):
        cmc_to_pmc(d1, bad2)


def test_factorizing_case_same_cmc_data():
    data = extract_pmc_data(lifted_chart(), nx=25, ny=25)
    d1 = pmc_to_cmc(data, 1)
    d2 = pmc_to_cmc(data, 2)
    assert np.max(np.abs(d1.nu - d2.nu)) < 1e-12
    assert np.max(np.abs(d1.p - d2.p)) < 1e-12
    assert np.max(np.abs(d1.eta - d2.eta)) < 1e-12


def test_duplicate_cmc_data_gives_factorizing_pmc_data():
    data = prop4_data()
    d1 = pmc_to_cmc(data, 1)
    back = cmc_to_pmc(d1, d1)
    assert np.max(np.abs(back.gamma1 - back.gamma2)) == 0.0
    assert np.max(np.abs(back.f1 - back.f2)) == 0.0
    assert np.max(np.abs(back.C1 - back.C2)) == 0.0


def test_cmc_reconstruction_roundtrip():
    data = prop4_data()
    d1 = pmc_to_cmc(data, 1)
    rec, rep = integrate_cmc_frenet(d1)
    assert rep["H_match"] < 1e-6
    assert rep["theta_ar_match"] < 1e-6
    assert rep["loop_closure"] < 1e-4
    # congruent to the closed-form invariant CMC family member
    p = ProfileParams(-1, -2.0, 1.0, 0.0)
    h = closed_form("sinh_family", p, x_span=(-1.2, 1.2))
    family = cmc_profile_family(p, h, y_span=(-1.0, 1.0))
    verdict = weak_congruence_check(rec, family, nx=17, ny=17)
    assert verdict.congruent and verdict.distance < 1e-4


def test_two_cmc_charts_weakly_congruent():
    data = prop4_data()
    rec1, _ = integrate_cmc_frenet(pmc_to_cmc(data, 1))
    rec2, _ = integrate_cmc_frenet(pmc_to_cmc(data, 2))
    verdict = weak_congruence_check(rec1, rec2, nx=17, ny=17)
    assert verdict.congruent
    assert verdict.distance < 1e-3
    # the pairing needs the domain reflection: the two charts differ by z -> zbar
    assert verdict.domain_map == "conj"
    # 2 theta_AR = theta_j against the source Hopf coefficients (both 1/4 here)
    for rec in (rec1, rec2):
        ar = abresch_rosenberg(rec, nx=21, ny=21, shrink=0.05)
        assert np.max(np.abs(2.0 * ar.theta_ar - 0.25)) < 1e-4


def test_factorizing_reconstructions_congruent():
    data = extract_pmc_data(lifted_chart(), nx=25, ny=25)
    rec1, _ = integrate_cmc_frenet(pmc_to_cmc(data, 1))
    rec2, _ = integrate_cmc_frenet(pmc_to_cmc(data, 2))
    verdict = weak_congruence_check(rec1, rec2, nx=13, ny=13)
    assert verdict.congruent and verdict.domain_map == "id"
    assert verdict.distance < 1e-8


def test_pmc_reconstruction_roundtrip():
    data = prop4_data()
    rec, rep = integrate_pmc_frenet(data)
    assert rep["parallelism"] < 1e-4
    assert rep["theta_match"] < 1e-4
    assert rep["H_match"] < 1e-6
    assert product_alignment_distance(rec, prop4_chart(), nx=15, ny=15) < 1e-4


def test_pmc_reconstruction_factorizing_geodesic_psi():
    data = extract_pmc_data(lifted_chart(), nx=25, ny=25)
    rec, _ = integrate_pmc_frenet(data)
    X, Y = rec.grid(13, 13, shrink=0.05)
    psi = rec.evaluate(X, Y)[3:]
    M = psi.reshape(3, -1).T @ np.diag([1.0, 1.0, -1.0])
    sv = np.linalg.svd(M, compute_uv=False)
    assert sv[-1] / sv[0] < 1e-8  # psi stays on a geodesic <psi, A2> = 0


def test_pmc_reconstruction_product_data_separates():
    data = extract_pmc_data(product_of_curves(-1, 1.0, 0.5, domain=(-1.0, 1.0, -1.0, 1.0)), nx=25, ny=25)
    rec, _ = integrate_pmc_frenet(data)
    X, Y = rec.grid(11, 11, shrink=0.1)
    jet = sample_jet(rec, X, Y)
    assert np.max(np.abs(jet.pxy)) < 1e-5  # separated variables


def test_flat_data_reconstructs_cylinder():
    # u = 0, nu = 0, constant p: the cylinder over a constant-curvature curve
    n = 33
    xs = np.linspace(0.0, 1.5, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    H = 0.7
    alpha, beta = 0.6, 0.8  # alpha^2 + beta^2 = 1
    eta = alpha * X + beta * Y
    eta_z = (alpha - 1j * beta) / 2.0
    p = -H * eta_z / (2.0 * np.conj(eta_z)) * 2.0 * np.abs(eta_z) ** 2 / np.abs(eta_z) ** 2
    p = -H * eta_z / np.conj(eta_z) / 2.0
    data = CmcFrenetData(
        eps=+1, Hval=H, x=X, y=Y,
        u=np.zeros_like(X), nu=np.zeros_like(X),
        p=np.full_like(X, p, dtype=complex), eta=eta,
        eta_x=np.full_like(X, alpha), eta_y=np.full_like(X, beta),
    )
    from pmcsurf.correspondence import cmc_compatibility_residuals

    data.residuals = cmc_compatibility_residuals(data)
    assert max(data.residuals.values()) < 1e-10
    rec, rep = integrate_cmc_frenet(data)
    assert rep["H_match"] < 1e-6
    # eta is linear and the factor image is a curve of constant curvature 2H
    X2, Y2 = rec.grid(15, 15, shrink=0.05)
    pts = rec.evaluate(X2, Y2)
    assert np.max(np.abs(pts[3] - (alpha * X2 + beta * Y2 + pts[3, 0, 0] - (alpha * X2[0, 0] + beta * Y2[0, 0])))) < 1e-6
    # move along the curve direction (-beta, alpha) in the domain: factor point moves
    jet = sample_jet(rec, X2, Y2)
    vel = -beta * jet.px[:3] + alpha * jet.py[:3]
    acc = (
        beta**2 * jet.pxx[:3]
        - 2 * alpha * beta * jet.pxy[:3]
        + alpha**2 * jet.pyy[:3]
    )
    # geodesic curvature <psi'', J psi'> / |psi'|^3 of the factor image
    k = inner(acc, cross_eps(jet.p[:3], vel, +1), +1) / norm3(vel, +1) ** 3
    assert np.max(np.abs(np.abs(k) - 2.0 * H)) < 1e-6


def test_spherical_member_roundtrip():
    # the eps = +1 member
    p = ProfileParams(+1, 2.0, 1.0, 0.0)
    h = closed_form("sn_family", p, x_span=(-1.5, 1.5))
    ch = pmc_profile_family(p, h, y_span=(-1.0, 1.0))
    data = extract_pmc_data(ch, nx=61, ny=61)
    rec1, rep1 = integrate_cmc_frenet(pmc_to_cmc(data, 1))
    rec2, _ = integrate_cmc_frenet(pmc_to_cmc(data, 2))
    assert rep1["H_match"] < 1e-6
    verdict = weak_congruence_check(rec1, rec2, nx=17, ny=17)
    assert verdict.congruent and verdict.domain_map == "conj"
    recP, repP = integrate_pmc_frenet(data)
    assert repP["parallelism"] < 1e-4
    assert product_alignment_distance(recP, ch, nx=15, ny=15) < 1e-4


def test_complex_hopf_pair_under_correspondence():
    # c != 0: the two reconstructions carry conjugate Hopf coefficients
    p = ProfileParams(-1, -2.0, 1.0, 0.5)
    from pmcsurf.profile import solve_profile

    h = solve_profile(p, x_span=(-0.9, 0.9))
    ch = pmc_profile_family(p, h, y_span=(-0.9, 0.9))
    data = extract_pmc_data(ch, nx=41, ny=41)
    expected = {1: 0.3125 + 0.25j, 2: 0.3125 - 0.25j}
    for j in (1, 2):
        rec, _ = integrate_cmc_frenet(pmc_to_cmc(data, j))
        ar = abresch_rosenberg(rec, nx=21, ny=21, shrink=0.05)
        assert np.max(np.abs(2.0 * ar.theta_ar - expected[j])) < 1e-4


def test_loop_closure_decays_with_refinement():
    # the sixth-order march closes its loops 64x better per halving of the step here
    closes = {"cmc": [], "pmc": []}
    for n in (21, 41):
        data = prop4_data(nx=n, ny=n)
        closes["cmc"].append(integrate_cmc_frenet(pmc_to_cmc(data, 1))[1]["loop_closure"])
        closes["pmc"].append(integrate_pmc_frenet(data)[1]["loop_closure"])
    for name, (coarse, fine) in closes.items():
        assert fine < coarse / 32.0, (name, coarse, fine)


def test_initial_pmc_state_satisfies_frame_relations():
    # the closed-form canonical frame solves the J-relations for generic data
    from pmcsurf.ambient import inner, product_j_pair

    rng = np.random.default_rng(3)
    for eps in (+1, -1):
        for _ in range(25):
            u0 = rng.uniform(-0.4, 0.4)
            C1, C2 = rng.uniform(-0.9, 0.9, size=2)
            e2u = np.exp(2 * u0)
            g1 = np.sqrt(e2u * (1 - C1**2) / 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            g2 = np.sqrt(e2u * (1 - C2**2) / 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            Phi, Px, Py, xi = initial_pmc_state(eps, u0, C1, C2, g1, g2)
            Phi_z = 0.5 * (Px - 1j * Py)
            # conformality and normalization
            assert abs(inner(Phi_z, Phi_z, eps)) < 1e-12
            assert abs(inner(Phi_z, np.conj(Phi_z), eps) - e2u / 2.0) < 1e-12
            assert abs(inner(xi, xi, eps)) < 1e-12
            assert abs(inner(xi, np.conj(xi), eps) - 1.0) < 1e-12
            assert abs(inner(xi, Phi_z, eps)) < 1e-12
            assert abs(inner(xi, np.conj(Phi_z), eps)) < 1e-12
            # the frame relations J_j Phi_z = i C_j Phi_z + gamma_j xi(bar)
            J1phi_z, J2phi_z = product_j_pair(Phi, Phi_z, eps)
            r1 = J1phi_z - 1j * C1 * Phi_z - g1 * xi
            r2 = J2phi_z - 1j * C2 * Phi_z - g2 * np.conj(xi)
            assert np.max(np.abs(r1)) < 1e-12
            assert np.max(np.abs(r2)) < 1e-12


def test_integrators_refuse_bad_data():
    data = prop4_data()
    d1 = pmc_to_cmc(data, 1)
    noisy = CmcFrenetData(
        eps=d1.eps, Hval=d1.Hval, x=d1.x, y=d1.y, u=d1.u,
        nu=np.clip(d1.nu + 0.2, -1, 1), p=d1.p, eta=d1.eta, eta_x=d1.eta_x, eta_y=d1.eta_y,
    )
    from pmcsurf.correspondence import cmc_compatibility_residuals

    noisy.residuals = cmc_compatibility_residuals(noisy)
    with pytest.raises(PreconditionError):
        integrate_cmc_frenet(noisy)


def test_integrators_refuse_bad_dense_data():
    # the gate reads the dense data the march reads, not the node arrays alone:
    # here the nodes are the true data and only the fields carry nu + 0.2
    from pmcsurf.correspondence import cmc_compatibility_residuals

    d1 = pmc_to_cmc(prop4_data(), 1)
    source = d1.fields

    def shifted(X, Y):
        F = source(X, Y)
        return {**F, "nu": F["nu"] + 0.2}

    bad = CmcFrenetData(
        eps=d1.eps, Hval=d1.Hval, x=d1.x, y=d1.y, u=d1.u, nu=d1.nu, p=d1.p, eta=d1.eta,
        eta_x=d1.eta_x, eta_y=d1.eta_y, fields=shifted,
    )
    bad.residuals = cmc_compatibility_residuals(bad)
    assert bad.residuals["p_zbar"] > 1e-2
    with pytest.raises(PreconditionError, match="data residuals too large to integrate"):
        integrate_cmc_frenet(bad)


def test_cmc_reconstruction_refuses_an_h_spread_past_its_gate(monkeypatch):
    # abresch_rosenberg measures the spread of |H|; integrate_cmc_frenet gates it at 1e-3
    import pmcsurf.correspondence as corr

    measure = corr.abresch_rosenberg

    def spread(chart, **kw):
        ar = measure(chart, **kw)
        ar.residuals["H_spread"] = 2e-3
        return ar

    monkeypatch.setattr(corr, "abresch_rosenberg", spread)
    with pytest.raises(VerificationError, match=r"^\|H\| varies by 2\.000e-03 > 1\.0e-03: chart is not CMC$"):
        integrate_cmc_frenet(pmc_to_cmc(prop4_data(), 1))


def test_initial_cmc_state_consistency_gate():
    from pmcsurf.correspondence import initial_cmc_state

    # consistent data: |eta_z|^2 = e^{2u}(1 - nu^2)/4 with u = 0
    state = initial_cmc_state(-1, 0.0, 0.6, 0.8, 0.0)
    assert state.shape == (16,)
    with pytest.raises(DomainError):
        initial_cmc_state(-1, 0.0, 0.2, 0.8, 0.0)  # nu inconsistent with eta_z


def test_weak_congruence_identity_and_negative():
    ch = cmc_sinh_chart(1.0)
    verdict = weak_congruence_check(ch, ch, nx=15, ny=15)
    assert verdict.congruent and verdict.distance < 1e-10
    from pmcsurf.families import cmc_leite_chart

    other = cmc_leite_chart(0.25)
    verdict = weak_congruence_check(ch, other, nx=15, ny=15)
    assert not verdict.congruent


def test_frame_isometry_is_exact_off_the_quadric():
    # a rebuilt chart's centre point is a spline value, off the quadric: moved
    # 1e-9 off it, the matched frames still give an isometry of the ambient metric
    from pmcsurf.ambient import metric_diag, tangent_project3
    from pmcsurf.correspondence import factor_isometry_from_frames

    rng = np.random.default_rng(5)
    for eps, pA, pB in ((-1, [0.3, -0.4, np.sqrt(1.25)], [-1.1, 0.2, np.sqrt(2.25)]),
                        (1, [0.6, 0.0, 0.8], [0.0, -0.28, 0.96])):
        pA, pB = np.array(pA), np.array(pB)
        vA, vB = (tangent_project3(p, rng.standard_normal(3), eps) for p in (pA, pB))
        pA, pB = pA * (1.0 + 1e-9), pB * (1.0 + 1e-9)
        G = np.diag(metric_diag(eps))
        for reflect in (False, True):
            L = factor_isometry_from_frames(pA, vA, pB, vB, eps, reflect=reflect)
            assert np.max(np.abs(L.T @ G @ L - G)) <= 1e-13


def test_vanishing_hopf_chart_maps_to_leite_recorded():
    # recorded observation (not a stated identity): both CMC charts produced
    # from the vanishing-Hopf PMC chart land on the Leite-type chart
    from pmcsurf.families import cmc_leite_chart, pmc_phi0

    phi0 = pmc_phi0(0.25, domain=(-0.92, 0.92, -1.2, 1.2))
    data = extract_pmc_data(phi0, nx=81, ny=81)
    leite = cmc_leite_chart(0.25, domain=(-0.88 * np.pi / 2, 0.88 * np.pi / 2, -1.6, 1.6))
    for j in (1, 2):
        rec, _ = integrate_cmc_frenet(pmc_to_cmc(data, j))
        verdict = weak_congruence_check(rec, leite, nx=17, ny=17)
        print(f"\n[recorded] correspondence image j={j} vs Leite chart: "
              f"congruent={verdict.congruent} distance={verdict.distance:.3e} ({verdict.domain_map})")
        assert np.isfinite(verdict.distance)


def test_data_csv_exports(tmp_path):
    data = prop4_data(nx=21, ny=21)
    f1 = tmp_path / "pmc.csv"
    data.to_csv(f1)
    assert f1.read_text().splitlines()[0].startswith("x,y,u,C1,C2,gamma1_re")
    d1 = pmc_to_cmc(data, 1)
    f2 = tmp_path / "cmc.csv"
    d1.to_csv(f2)
    assert f2.read_text().splitlines()[0] == "x,y,u,nu,p_re,p_im,eta,eta_x,eta_y"


def test_gauss_sampler_points_and_node_only_fields(monkeypatch):
    import dataclasses

    import pmcsurf.correspondence as corr

    # each step is read at the three Gauss-Legendre points of its interval
    t = np.linspace(-1.2, 1.2, 9)
    roots, _ = np.polynomial.legendre.leggauss(3)
    want = (t[:-1, None] + 0.5 * (roots + 1.0) * (t[1] - t[0])).ravel()
    assert np.max(np.abs(corr._gauss_points(t) - want)) < 1e-15
    # the march reads its data at nodes and Gauss points only: Gauss points
    # along x on the bottom and top rows, along y on the node columns
    data = prop4_data(33, 33)
    xs, ys = data.x[:, 0], data.y[0, :]
    seen = []
    source = data.fields
    monkeypatch.setattr(data, "fields", lambda X, Y: seen.append((X, Y)) or source(X, Y))
    integrate_pmc_frenet(data)
    xg, yg = corr._gauss_points(xs), corr._gauss_points(ys)
    samples = [(np.unique(X), np.unique(Y)) for X, Y in seen]
    assert any(np.array_equal(X, xg) and np.array_equal(Y, ys[[0, -1]]) for X, Y in samples)
    columns = [X for X, Y in samples if np.array_equal(Y, yg)]
    assert np.array_equal(np.concatenate(columns), xs)
    # node-only data are sampled from quintic splines through the nodes
    nodes_only = dataclasses.replace(data, fields=None)
    S = corr._grid_fields(nodes_only)(data.x, data.y)
    for key, arr in data.grids().items():
        assert np.max(np.abs(S[key] - arr)) < 1e-12, key
    _, rep = integrate_pmc_frenet(nodes_only)
    assert rep["loop_closure"] < 0.1


def test_node_only_eta_reads_its_midpoints_from_splines():
    # trapezoid increments on node-only data put eta 2.7e-4 off the dense eta here
    import dataclasses

    data = prop4_data()
    for j in (1, 2):
        dense = pmc_to_cmc(data, j)
        nodes_only = pmc_to_cmc(dataclasses.replace(data, fields=None), j)
        assert np.max(np.abs(nodes_only.eta - dense.eta)) < 1e-8, j


def test_round_trip_fields_at_the_nodes_are_the_node_arrays():
    # node arrays and dense fields come from one map per direction: a formula
    # copied into a closure and changed there fails here by name
    data = prop4_data()
    d1, d2 = pmc_to_cmc(data, 1), pmc_to_cmc(data, 2)
    for name, rec in (("pmc_to_cmc j=1", d1), ("pmc_to_cmc j=2", d2), ("cmc_to_pmc", cmc_to_pmc(d1, d2))):
        F = rec.fields(rec.x, rec.y)
        for key, arr in rec.grids().items():
            assert np.array_equal(F[key], arr), (name, key)


def test_node_only_reconstruction_differentiates_the_spline_of_u():
    # u_x, u_y from splined second-order grid differences gave loop closure
    # 4.3e-2 and parallelism 1.8e-3 here
    import dataclasses

    nodes_only = dataclasses.replace(prop4_data(33, 33), fields=None)
    _, rep = integrate_pmc_frenet(nodes_only)
    assert rep["loop_closure"] < 1e-3
    assert rep["parallelism"] < PARALLELISM_GATE


def test_round_trip_evaluates_the_chart_once_per_row_block(monkeypatch):
    # every Magnus step reads the Gauss-point samples of its line, evaluated
    # a block of node columns at a time, not one chart evaluation per step.
    # The chart and record are the test's own: the records CACHE shares carry
    # a fields memo that earlier tests have filled
    chart = fresh_prop4_chart()
    data = extract_pmc_data(chart, nx=33, ny=33)
    jet = chart.jet
    calls = []

    def counted(x, y):
        calls.append(np.size(x))
        return jet(x, y)

    monkeypatch.setattr(chart, "jet", counted)
    d1, d2 = pmc_to_cmc(data, 1), pmc_to_cmc(data, 2)
    # the Simpson midpoints of j = 1, answered from the memo for j = 2
    assert len(calls) == 2
    counts = []
    for run in (lambda: integrate_cmc_frenet(d1), lambda: integrate_cmc_frenet(d2),
                lambda: integrate_pmc_frenet(cmc_to_pmc(d1, d2))):
        before = len(calls)
        run()
        counts.append(len(calls) - before)
    # one jet for the Gauss points of the bottom and top rows, one per block of
    # 8 of the 33 node columns, and one for the recertification grid of the
    # first CMC record (the nodes were read by the extraction); the second CMC
    # record and the assembled PMC record read the same sample sets
    assert counts == [7, 0, 0]


def test_memoised_fields_are_those_of_a_fresh_closure():
    # the memo answers a repeated sample set with what the chart would give again
    from pmcsurf.correspondence import _pmc_point_fields

    chart = fresh_prop4_chart()
    data = extract_pmc_data(chart, nx=33, ny=33)
    source = data.fields
    answered = []

    def recorded(x, y):
        out = source(x, y)
        answered.append((np.array(x), np.array(y), out))
        return out

    data.fields = recorded
    d1, d2 = pmc_to_cmc(data, 1), pmc_to_cmc(data, 2)
    integrate_cmc_frenet(d1)
    integrate_cmc_frenet(d2)
    integrate_pmc_frenet(cmc_to_pmc(d1, d2))
    distinct = {(x.tobytes(), y.tobytes()) for x, y, _ in answered}
    assert len(distinct) < len(answered)
    for x, y, out in answered:
        fresh = _pmc_point_fields(chart, {})(x, y)
        assert out.keys() == fresh.keys()
        for key, arr in fresh.items():
            assert np.array_equal(out[key], arr) and out[key].dtype == arr.dtype, key


def test_memoised_fields_are_read_only():
    chart = fresh_prop4_chart()
    data = extract_pmc_data(chart, nx=9, ny=9)
    F = data.fields(data.x, data.y)
    for arr in F.values():
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0
    # the record's node arrays are the memoised ones
    with pytest.raises(ValueError):
        data.u[0, 0] = 0.0
    with pytest.raises(ValueError):
        pmc_to_cmc(data, 1).nu[0, 0] = 0.0
    assert np.array_equal(data.fields(data.x, data.y)["u"], data.u)


def test_congruence_checks_read_their_points_from_the_jets(monkeypatch):
    # one evaluation path: the distances take the points of the jets they sample
    sinh = cmc_sinh_chart(1.0)
    prod = product_of_curves(-1, 1.0, 1.0)
    expected = weak_congruence_check(sinh, sinh, nx=15, ny=15).distance
    aligned = product_alignment_distance(prod, prod, nx=9, ny=9)

    def no_evaluate(self, x, y):
        raise AssertionError("evaluate called")

    monkeypatch.setattr(ImmersionChart, "evaluate", no_evaluate)
    assert weak_congruence_check(sinh, sinh, nx=15, ny=15).distance == expected
    assert product_alignment_distance(prod, prod, nx=9, ny=9) == aligned


@pytest.mark.parametrize("nx, ny", [(41, 29), (5, 12)], ids=["41x29", "five-node-axis"])
def test_spline_matches_per_component_rect_bivariate_splines(nx, ny):
    # one tensor spline carries a stack of components; the reference fits each
    # component alone.  The fit runs along x, then along y, and a non-square grid
    # catches the coefficient axes of the two passes left swapped
    from scipy.interpolate import RectBivariateSpline

    from pmcsurf.correspondence import _spline

    xs, ys = np.linspace(-1.2, 1.0, nx), np.linspace(-0.5, 0.7, ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    v = np.stack([np.sin(2 * X + Y), np.exp(X * Y), X**2 * Y + 1.0])
    sp = _spline(xs, ys, v)
    px, py = np.random.default_rng(0).uniform([xs[0], ys[0]], [xs[-1], ys[-1]], (200, 2)).T
    for nu in ((0, 0), (1, 0), (0, 1)):
        ref = np.stack([
            RectBivariateSpline(xs, ys, component, kx=min(5, nx - 1), ky=min(5, ny - 1)).ev(
                px, py, dx=nu[0], dy=nu[1])
            for component in v
        ])
        assert np.max(np.abs(sp(px, py, nu=nu) - ref)) <= 1e-12 * np.max(np.abs(ref)), nu


@pytest.mark.parametrize("nx, ny", [(41, 29), (5, 12)], ids=["41x29", "five-node-axis"])
def test_spline_matches_scipy_on_a_tensor_grid(nx, ny):
    # the round trip queries tensor grids only: the nodes and the midpoints
    # between them, ends included, against scipy's fit along x, then along y,
    # on the same knots
    from scipy.interpolate import NdBSpline, make_interp_spline

    from pmcsurf.correspondence import _spline

    xs, ys = np.linspace(-1.2, 1.0, nx), np.linspace(-0.5, 0.7, ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    v = np.stack([np.sin(2 * X + Y), np.exp(X * Y), X**2 * Y + 1.0])

    def fit(t, c, axis):
        k = min(5, len(t) - 1)
        return make_interp_spline(t, c, k=k, t=np.r_[[t[0]] * (k + 1), t[3:-3], [t[-1]] * (k + 1)], axis=axis)

    # scipy's coefficients lead with the axis fitted last: (y, x, components) after both passes
    bx = fit(xs, v, 1)
    by = fit(ys, bx.c, 2)
    ref = NdBSpline((bx.t, by.t), np.moveaxis(by.c, 0, 1), (bx.k, by.k))
    xh, yh = (np.sort(np.r_[t, t[:-1] + 0.5 * np.diff(t)]) for t in (xs, ys))
    Xh, Yh = np.meshgrid(xh, yh, indexing="ij")
    sp = _spline(xs, ys, v)
    for nu, tol in (((0, 0), 1e-13), ((1, 0), 1e-12), ((0, 1), 1e-12)):
        want = np.stack([ref(np.stack([Xh, Yh], axis=-1), nu=nu)[..., i] for i in range(len(v))])
        assert np.max(np.abs(sp(Xh, Yh, nu=nu) - want)) <= tol * np.max(np.abs(want)), nu


def test_spline_refuses_a_query_outside_its_knot_span():
    # a spline would extrapolate there silently; the ends themselves are in the span
    from pmcsurf.correspondence import _spline

    xs, ys = np.linspace(-1.2, 1.0, 9), np.linspace(-0.5, 0.7, 7)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    sp = _spline(xs, ys, np.sin(X) * np.cos(Y))
    cx, cy = np.array([xs[0], xs[-1]]), np.array([ys[0], ys[-1]])
    assert np.allclose(sp(cx, cy), np.sin(cx) * np.cos(cy), rtol=0, atol=1e-14)
    for point in ([xs[0] - 1e-9, 0.0], [xs[-1] + 1e-9, 0.0], [0.0, ys[0] - 1e-9], [0.0, ys[-1] + 1e-9]):
        for nu in ((0, 0), (1, 0), (0, 1)):
            with pytest.raises(DomainError, match="knot span"):
                sp(np.array([point[0], 0.0]), np.array([point[1], 0.0]), nu=nu)


# ---------------------------------------------------------------------------
# the Frenet march: the frame algebra and the Magnus march against oracles
# ---------------------------------------------------------------------------


def sn_chart():
    if "sn" not in CACHE:
        p = ProfileParams(+1, 2.0, 1.0, 0.0)
        CACHE["sn"] = pmc_profile_family(p, closed_form("sn_family", p, x_span=(-1.5, 1.5)), y_span=(-1.0, 1.0))
    return CACHE["sn"]


# the sinh member (eps = -1) and the sn member (eps = +1)
MEMBERS = {"sinh": prop4_chart, "sn": sn_chart}


def _canonical_frame_algebras(name, data, points):
    """A_x and A_y of the canonical frames at the points, by the ambient oracle.

    At each point the frame that ``initial_cmc_state`` or ``initial_pmc_state``
    builds from the data there is differentiated in ambient coordinates: the
    slots by the Frenet blocks, the hat row as the factor part (CMC) or the
    reflection (PMC) of P_x, P_y.  Since F G F^T = D on the group rows,
    dF G F^T D^-1 writes dF in the frame.  Returns the system, the data at
    the points and the oracle algebras, shape (points, 2, rows, group rows).
    """
    import pmcsurf.correspondence as corr
    from pmcsurf.ambient import metric_diag
    from pmcsurf.correspondence import initial_cmc_state

    X, Y = points
    F = data.fields(X, Y)
    eps = data.eps
    if name == "cmc":
        F = corr._cmc_map(F, 1)
        system = corr._cmc_system(eps, data.Hnorm)
    else:
        system = corr._pmc_system(eps, data.Hnorm)
    c = system.coefficients(F)
    oracles = []
    for i in range(len(X)):
        ci = {k: v[i] for k, v in c.items()}
        u, ux, uy = F["u"][i], F["ux"][i], F["uy"][i]
        e = np.exp(-u)
        if name == "cmc":
            S = initial_cmc_state(eps, u, F["nu"][i], F["eta_x"][i], F["eta_y"][i])
            Psi, Px, Py, N = S[:4], S[4:8], S[8:12], S[12:]
            hat = np.r_[Psi[:3], 0.0]
            frame = np.stack([hat, e * Px, e * Py, N, Psi])
            Pxx, Pxy, Pyy, Nx, Ny = corr._cmc_rhs_blocks(S, hat, ci)
            dx = np.stack([np.r_[Px[:3], 0.0], e * (Pxx - ux * Px), e * (Pxy - ux * Py), Nx, Px])
            dy = np.stack([np.r_[Py[:3], 0.0], e * (Pxy - uy * Px), e * (Pyy - uy * Py), Ny, Py])
        else:
            Phi, Px, Py, xi = initial_pmc_state(
                eps, u, F["C1"][i], F["C2"][i], F["gamma1"][i], F["gamma2"][i]
            )
            hat = np.r_[Phi[:3], -Phi[3:]]
            r = np.sqrt(2.0)
            frame = np.stack([Phi, hat, e * Px, e * Py, r * xi.real, r * xi.imag])
            S = np.concatenate([Phi, Px, Py, xi.real, xi.imag])
            Pxx, Pxy, Pyy, Nx, Ny = corr._pmc_rhs_blocks(S, hat, ci)
            dx = np.stack([Px, np.r_[Px[:3], -Px[3:]], e * (Pxx - ux * Px), e * (Pxy - ux * Py), r * Nx[:6], r * Nx[6:]])
            dy = np.stack([Py, np.r_[Py[:3], -Py[3:]], e * (Pxy - uy * Px), e * (Pyy - uy * Py), r * Ny[:6], r * Ny[6:]])
        k = len(system.gram)
        inverse = (frame[:k] * metric_diag(eps, frame.shape[1])).T / np.array(system.gram)
        oracles.append((dx @ inverse, dy @ inverse))
    return system, F, np.array(oracles)


def test_frame_algebra_matches_the_canonical_frame_probe():
    # the blocks on the frame-coordinate basis, rescaled by e^u and completed by
    # skew-symmetry, against the derivative of the canonical frames in ambient
    # coordinates, on both members and both systems
    import pmcsurf.correspondence as corr

    rng = np.random.default_rng(3)
    for member, chart in MEMBERS.items():
        data = extract_pmc_data(chart(), nx=9, ny=9)
        x0, x1, y0, y1 = chart().domain
        points = (rng.uniform(x0 + 0.1, x1 - 0.1, 6), rng.uniform(y0 + 0.1, y1 - 0.1, 6))
        for name in ("cmc", "pmc"):
            system, F, oracle = _canonical_frame_algebras(name, data, points)
            operators = corr._algebra_operators(system, system.coefficients(F))
            for axis in (0, 1):
                ours = np.moveaxis(corr._algebra(system, operators, F, axis), -1, 0)  # (points, rows, rows)
                k = len(system.gram)
                assert np.all(ours[:, :, k:] == 0.0), (member, name)
                err = np.max(np.abs(ours[:, :, :k] - oracle[:, axis]), axis=(1, 2))
                assert np.max(err / np.max(np.abs(oracle[:, axis]), axis=(1, 2))) < 1e-12, (member, name, axis, err)


def _marches(monkeypatch, data):
    """The arguments and results of the ``_march_grid`` calls of both integrators on data."""
    import pmcsurf.correspondence as corr

    march = corr._march_grid
    seen = []

    def recorded(*args):
        out = march(*args)
        seen.append((args, out))
        return out

    monkeypatch.setattr(corr, "_march_grid", recorded)
    integrate_cmc_frenet(pmc_to_cmc(data, 1))
    integrate_pmc_frenet(data)
    return dict(zip(("cmc", "pmc"), seen))


def test_marched_frames_stay_on_their_group(monkeypatch):
    # no projection: every frame keeps Gram = D by the Pade map alone
    from pmcsurf.ambient import metric_diag

    for member, chart in MEMBERS.items():
        data = extract_pmc_data(chart(), nx=41, ny=41)
        for name, (args, (frames, _)) in _marches(monkeypatch, data).items():
            system = args[0]
            k = len(system.gram)
            group = frames[:k]  # (rows, dim, nx, ny)
            gram = np.einsum("id...,jd...->...ij", group * metric_diag(data.eps, system.dim)[:, None, None], group)
            assert np.max(np.abs(gram - np.diag(system.gram))) < 1e-10, (member, name)


def _expm_march_line(system, operators, fields, F, X, Y, axis, t):
    """The frames of the lines of the sample grid (X, Y) from their first frames F, step by step.

    The oracle of the prefix march: per step, the sixth-order Magnus exponent
    by matrix products and scipy's expm of it, applied in a Python loop.
    """
    import pmcsurf.correspondence as corr
    from scipy.linalg import expm

    A = np.moveaxis(corr._algebra(system, operators, fields(X, Y), axis), (0, 1), (-2, -1))
    out = [F]
    for i, h in enumerate(np.diff(t)):
        A1, A2, A3 = A[..., 3 * i, :, :], A[..., 3 * i + 1, :, :], A[..., 3 * i + 2, :, :]
        a1, a2, a3 = h * A2, np.sqrt(15.0) * h / 3.0 * (A3 - A1), 10.0 * h / 3.0 * (A3 - 2.0 * A2 + A1)
        C1 = a1 @ a2 - a2 @ a1
        B = 2.0 * a3 + C1
        C2 = -(a1 @ B - B @ a1) / 60.0
        P, Q = -20.0 * a1 - a3 + C1, a2 + C2
        F = expm(a1 + a3 / 12.0 + (P @ Q - Q @ P) / 240.0) @ F
        out.append(F)
    return np.stack(out, axis=-3)


def test_prefix_magnus_march_matches_a_stepwise_expm_march(monkeypatch):
    import pmcsurf.correspondence as corr

    for name, (args, (frames, closure)) in _marches(monkeypatch, prop4_data()).items():
        system, operators, F0, fields, x, y = args
        xs, ys = x[:, 0], y[0, :]
        def line(F, X, Y, axis, t):
            return _expm_march_line(system, operators, fields, F, X, Y, axis, t)

        row = line(F0[None], *np.meshgrid(corr._gauss_points(xs), ys[:1]), 0, xs)[0]
        cols = line(row, *np.meshgrid(xs, corr._gauss_points(ys), indexing="ij"), 1, ys)
        top = line(cols[None, 0, -1], *np.meshgrid(corr._gauss_points(xs), ys[-1:]), 0, xs)[0]
        # the oracle's frames are (..., rows, dim) matrices; the march's lead with (rows, dim)
        cols, top = (np.moveaxis(f, (-2, -1), (0, 1)) for f in (cols, top))
        oracle_closure = np.max(np.linalg.norm(system.point(top) - system.point(cols[..., -1]), axis=0))
        # the Pade map and expm differ at seventh order per step: 7.0e-11 on
        # the PMC frames here, 4.9e-12 on the CMC frames.  A closure is a
        # distance between two marched points, so it moves by at most twice that
        assert np.max(np.abs(frames - cols)) < 1e-10, name
        assert abs(closure - oracle_closure) < 2e-10, name


def test_rebuilt_pmc_chart_is_as_parallel_as_a_spline_of_the_exact_jet():
    # the march adds no error the spline of the chart does not already make:
    # a quintic spline through the source chart's exact jet on the same nodes,
    # with no march, is the floor of the rebuilt chart's parallelism
    from pmcsurf.correspondence import _spline_chart
    from pmcsurf.diffgeo import parallelism_residual
    from pmcsurf.families import TARGET_PRODUCT

    data = prop4_data()
    jet = sample_jet(prop4_chart(), data.x, data.y)
    spline = _spline_chart(
        data.x, data.y, {k: getattr(jet, k) for k in ("p", "px", "py", "pxx", "pxy", "pyy")},
        data.eps, TARGET_PRODUCT, "exact_jet_spline", {},
    )
    floor = parallelism_residual(spline, *spline.grid(33, 33, shrink=0.03))
    _, rep = integrate_pmc_frenet(data)
    assert rep["parallelism"] <= 1.01 * floor, (rep["parallelism"], floor)


def test_rebuilt_charts_answer_components_first_jets():
    # a rebuilt chart's jet is one spline evaluation, handed out as one C-ordered
    # (dim, *x.shape) block per key, as every family's jet
    data = prop4_data()
    for rec, _ in (integrate_cmc_frenet(pmc_to_cmc(data, 1)), integrate_pmc_frenet(data)):
        X, Y = rec.grid(7, 5, shrink=0.05)
        jet = rec.jet(X, Y)
        assert sorted(jet) == sorted(("p", "px", "py", "pxx", "pxy", "pyy")), rec.name
        for key, v in jet.items():
            assert v.shape == (rec.dim, 7, 5) and v.flags.c_contiguous, (rec.name, key, v.shape)


def test_sample_jet_refuses_points_just_past_the_domain():
    # a closed-form chart and a rebuilt chart, whose jet is a spline, refuse
    # the same points: the domain has no slack.  The ends are accepted
    rec, _ = integrate_cmc_frenet(pmc_to_cmc(prop4_data(), 1))
    for chart in (prop4_chart(), rec):
        x0, x1, y0, y1 = chart.domain
        jet = sample_jet(chart, np.array([x0, x1]), np.array([y0, y1]))
        assert np.all(np.isfinite(jet.p))
        for x, y in ((x0 - 5e-13, y0), (x1 + 5e-13, y0), (x0, y0 - 5e-13), (x0, y1 + 5e-13)):
            with pytest.raises(DomainError, match="outside the chart domain"):
                sample_jet(chart, np.array([x]), np.array([y]))


def test_both_marches_take_one_group_step():
    # the curve march and the Frenet march share one kernel: correspondence
    # defines none of the group step's pieces and reads the ones of curves
    import ast
    import inspect

    import pmcsurf.correspondence as corr
    from pmcsurf import curves

    for name in ("_magnus_propagators", "_gauss_points", "_GAUSS", "_mul", "_prefix_products"):
        assert getattr(corr, name) is getattr(curves, name), name
    nodes = list(ast.walk(ast.parse(inspect.getsource(corr))))
    defined = {node.name for node in nodes if isinstance(node, ast.FunctionDef)}
    defined |= {t.id for node in nodes if isinstance(node, ast.Assign) for t in node.targets if isinstance(t, ast.Name)}
    assert not defined & {"_GAUSS", "_gauss_points", "_commutator", "_solve", "_magnus_propagators"}


def test_march_calls_no_formula_per_stage(monkeypatch):
    # the blocks are called to probe the frame algebra and for the nodes'
    # second derivatives, a number of calls that does not grow with the grid
    import ast
    import inspect

    import pmcsurf.correspondence as corr

    counts = {}
    for name in ("_cmc_rhs_blocks", "_pmc_rhs_blocks"):
        def counted(S, hat, c, blocks=getattr(corr, name), name=name):
            counts[name] = counts.get(name, 0) + 1
            return blocks(S, hat, c)

        monkeypatch.setattr(corr, name, counted)
    per_grid = []
    for n in (21, 41):
        counts.clear()
        data = prop4_data(n, n)
        integrate_cmc_frenet(pmc_to_cmc(data, 1))
        integrate_pmc_frenet(data)
        per_grid.append(dict(counts))
    assert per_grid[0] == per_grid[1] == {"_cmc_rhs_blocks": 2, "_pmc_rhs_blocks": 2}
    # and neither the march nor the frame matching makes a BLAS call: no @,
    # matmul, dot, tensordot or inverse
    # (the group step comes from curves, whose whole source
    # test_curve_march_makes_no_blas_call checks)
    march = (corr._integrate_frenet, corr._march_grid, corr._algebra_operators, corr._algebra, corr._state,
             corr._frame, corr.factor_isometry_from_frames, corr._factor_frame_matrix)
    for fn in march:
        for node in ast.walk(ast.parse(inspect.getsource(fn))):
            assert not isinstance(node, ast.MatMult), fn.__name__
            assert not (isinstance(node, ast.Attribute) and node.attr in ("matmul", "dot", "tensordot", "inv")), fn.__name__
