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
from pmcsurf.curves import extract_curvature
from pmcsurf.diffgeo import abresch_rosenberg, sample_jet
from pmcsurf.errors import DomainError, PreconditionError
from pmcsurf.families import (
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
        p = ProfileParams(-1, -2.0, 1.0, 0.0)
        h = closed_form("sinh_family", p, x_span=(-1.2, 1.2))
        CACHE["prop4"] = pmc_profile_family(p, h, y_span=(-1.0, 1.0))
    return CACHE["prop4"]


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
    )
    alpha = integrate_curve(spec, x_span=(-1.0, 1.0), step=2e-3)
    beta = constant_curvature_curve(+1, 1.0)
    bad = product_chart_from_curves(alpha, beta, +1, (-0.9, 0.9, -0.9, 0.9))
    with pytest.raises(PreconditionError):
        extract_pmc_data(bad, nx=17, ny=17)


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
        ar = abresch_rosenberg(rec, nx=21, ny=21, shrink=0.05, h_const_tol=1e-3)
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
    psi = rec.evaluate(X, Y)[..., 3:]
    M = psi.reshape(-1, 3) @ np.diag([1.0, 1.0, -1.0])
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
    assert np.max(np.abs(pts[..., 3] - (alpha * X2 + beta * Y2 + pts[0, 0, 3] - (alpha * X2[0, 0] + beta * Y2[0, 0])))) < 1e-6
    # move along the curve direction (-beta, alpha) in the domain: factor point moves
    jet = sample_jet(rec, X2, Y2)
    vel = -beta * jet.px[..., :3] + alpha * jet.py[..., :3]
    acc = (
        beta**2 * jet.pxx[..., :3]
        - 2 * alpha * beta * jet.pxy[..., :3]
        + alpha**2 * jet.pyy[..., :3]
    )
    k = extract_curvature(vel, acc, pts[..., :3], +1)
    assert np.max(np.abs(np.abs(k) - 2.0 * H)) < 1e-6


def test_spherical_member_roundtrip():
    # the eps = +1 member: data consistency reports are coarser on the
    # oscillatory profile, so the gate uses the documented tolerance knob
    p = ProfileParams(+1, 2.0, 1.0, 0.0)
    h = closed_form("sn_family", p, x_span=(-1.5, 1.5))
    ch = pmc_profile_family(p, h, y_span=(-1.0, 1.0))
    data = extract_pmc_data(ch, nx=61, ny=61)
    rec1, rep1 = integrate_cmc_frenet(pmc_to_cmc(data, 1), resid_tol=5e-3)
    rec2, _ = integrate_cmc_frenet(pmc_to_cmc(data, 2), resid_tol=5e-3)
    assert rep1["H_match"] < 1e-6
    verdict = weak_congruence_check(rec1, rec2, nx=17, ny=17)
    assert verdict.congruent and verdict.domain_map == "conj"
    recP, repP = integrate_pmc_frenet(data, resid_tol=5e-3)
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
        rec, _ = integrate_cmc_frenet(pmc_to_cmc(data, j), resid_tol=5e-3)
        ar = abresch_rosenberg(rec, nx=21, ny=21, shrink=0.05, h_const_tol=1e-3)
        assert np.max(np.abs(2.0 * ar.theta_ar - expected[j])) < 1e-4


def test_loop_closure_decays_with_refinement():
    # the compatibility-residual gate is relaxed: those residuals are grid-FD
    # consistency estimates and themselves shrink at second order
    closes = []
    for n in (21, 41):
        data = prop4_data(nx=n, ny=n)
        _, rep = integrate_cmc_frenet(pmc_to_cmc(data, 1), resid_tol=1e-2)
        closes.append(rep["loop_closure"])
    assert closes[1] < closes[0] / 3.5


def test_initial_pmc_state_satisfies_frame_relations():
    # the closed-form canonical frame solves the J-relations for generic data
    from pmcsurf.ambient import inner, product_j

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
            r1 = product_j(1, Phi, Phi_z, eps, check=False) - 1j * C1 * Phi_z - g1 * xi
            r2 = product_j(2, Phi, Phi_z, eps, check=False) - 1j * C2 * Phi_z - g2 * np.conj(xi)
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


def test_vanishing_hopf_chart_maps_to_leite_recorded():
    # recorded observation (not a stated identity): both CMC charts produced
    # from the vanishing-Hopf PMC chart land on the Leite-type chart
    from pmcsurf.families import cmc_leite_chart, pmc_phi0

    phi0 = pmc_phi0(0.25, domain=(-0.92, 0.92, -1.2, 1.2))
    data = extract_pmc_data(phi0, nx=81, ny=81)
    leite = cmc_leite_chart(0.25, domain=(-0.88 * np.pi / 2, 0.88 * np.pi / 2, -1.6, 1.6))
    for j in (1, 2):
        rec, _ = integrate_cmc_frenet(pmc_to_cmc(data, j), resid_tol=2e-3)
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


def test_half_step_sampler_nodes_and_midpoints():
    import dataclasses

    from pmcsurf.correspondence import _grid_fields, _path_integrate, _sample_half_step

    data = prop4_data(33, 33)
    G = _sample_half_step(data.fields, data.x, data.y)
    assert G["u"].shape == (65, 65)
    for key, arr in data.grids().items():
        assert np.array_equal(G[key][::2, ::2], arr), key
    # the odd entries are the points _path_integrate evaluates for its Simpson increments
    seen = []

    def record(xs, ys):
        seen.append((xs, ys))
        return {"eta_x": np.zeros(np.shape(xs)), "eta_y": np.zeros(np.shape(xs))}

    _path_integrate(data.x, data.y, np.zeros_like(data.u), np.zeros_like(data.u), record)
    coords = _sample_half_step(lambda X, Y: {"x": X, "y": Y}, data.x, data.y)
    for (xs, ys), at in zip(seen, [(slice(1, None, 2), 0), (slice(None, None, 2), slice(1, None, 2))]):
        assert np.array_equal(coords["x"][at], xs) and np.array_equal(coords["y"][at], ys)
        F = data.fields(xs, ys)
        for key in data.grids():
            assert np.array_equal(G[key][at], F[key]), key
    # node-only data are sampled from quintic splines through the nodes
    nodes_only = dataclasses.replace(data, fields=None)
    S = _sample_half_step(_grid_fields(nodes_only), data.x, data.y)
    for key, arr in data.grids().items():
        assert np.max(np.abs(S[key][::2, ::2] - arr)) < 1e-12, key
    _, rep = integrate_pmc_frenet(nodes_only, recertify=False)
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
    # every RK4 stage reads the half-step samples; evaluating the chart per
    # stage instead takes 1,932 jet calls on this round trip
    chart = prop4_chart()
    data = prop4_data(33, 33)
    jet = chart.jet
    calls = []

    def counted(x, y):
        calls.append(np.size(x))
        return jet(x, y)

    monkeypatch.setattr(chart, "jet", counted)
    d1, d2 = pmc_to_cmc(data, 1), pmc_to_cmc(data, 2)
    integrate_cmc_frenet(d1, recertify=False)
    integrate_cmc_frenet(d2, recertify=False)
    before = len(calls)
    integrate_pmc_frenet(cmc_to_pmc(d1, d2), recertify=False)
    assert len(calls) < 100
    # both CMC closures read each row block; one jet answers the two (18 without)
    assert len(calls) - before == 9


def test_congruence_checks_read_their_points_from_the_jets():
    # one evaluation path: the distances take the points of the jets they sample
    import dataclasses

    def no_evaluate(x, y):
        raise AssertionError("evaluate called")

    sinh = cmc_sinh_chart(1.0)
    ch = dataclasses.replace(sinh, evaluate=no_evaluate)
    expected = weak_congruence_check(sinh, sinh, nx=15, ny=15).distance
    assert weak_congruence_check(ch, ch, nx=15, ny=15).distance == expected
    prod = product_of_curves(-1, 1.0, 1.0)
    pc = dataclasses.replace(prod, evaluate=no_evaluate)
    assert product_alignment_distance(pc, pc, nx=9, ny=9) == product_alignment_distance(prod, prod, nx=9, ny=9)
