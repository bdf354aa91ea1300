import dataclasses
import tracemalloc

import numpy as np
import pytest

from pmcsurf import diffgeo
from pmcsurf.ambient import factor_j
from pmcsurf.curves import CurveSpec, constant_curvature_curve, integrate_curve
from pmcsurf.diffgeo import (
    abresch_rosenberg,
    conformal_data,
    curvature_bound_excess,
    holomorphy_residual,
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
    ImmersionChart,
    cmc_leite_chart,
    cmc_profile_family,
    cmc_sinh_chart,
    cmc_torus,
    geodesic_inclusion,
    pmc_phi0,
    pmc_profile_family,
    pmc_sinh_family,
    product_chart_from_curves,
    product_of_curves,
)
from pmcsurf.profile import ProfileParams, closed_form

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
        axis=-1,
    )
    assert np.max(np.abs(frame.H - H_ref)) < 1e-7
    # normality of H
    for vec in (jet.px, jet.py, jet.p, np.concatenate([jet.p[..., :3], -jet.p[..., 3:]], axis=-1)):
        assert np.max(np.abs(jet.ip(frame.H, vec))) < 1e-7
    # Htilde structure
    assert np.max(np.abs(jet.ip(frame.Htilde, frame.Htilde) - frame.Hnorm**2)) < 1e-7
    assert np.max(np.abs(jet.ip(frame.H, frame.Htilde))) < 1e-7
    xi = frame.xi
    assert np.max(np.abs(jet.ip(xi, np.conj(xi)) - 1.0)) < 1e-10
    assert np.max(np.abs(jet.ip(xi, xi))) < 1e-10


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


def test_holomorphy_decay_numeric_jets():
    # second-order decay of the numeric-jet theta residual under refinement
    ch = chart("incl_torus")
    levels = []
    for n in (41, 81):
        # a margin of 0.03 keeps the step-sized stencil inside the domain
        X, Y = ch.grid(n, n, shrink=0.03)
        dx = X[1, 0] - X[0, 0]
        dy = Y[0, 1] - Y[0, 0]
        jet = sample_jet(ch, X, Y, fd_step=min(dx, dy))
        frame = normal_frame(jet)
        t1, _ = hopf_coefficients(jet, frame)
        levels.append(holomorphy_residual(t1, dx, dy)[0])
    assert levels[1] < levels[0] / 3.5
    # absolute sizes in the expected second-order range
    assert levels[0] < 1e-2
    assert levels[1] < 3e-3


def test_parallelism_residuals():
    X, Y = chart("prop4_hyp").grid(21, 21, shrink=0.05)
    assert parallelism_residual(chart("prop4_hyp"), X, Y, 5e-4) < 1e-5
    X, Y = chart("T68").grid(21, 21, shrink=0.05)
    assert parallelism_residual(chart("T68"), X, Y, 5e-4) < 1e-6
    # negative control: a product with non-constant curvature is not PMC
    spec = CurveSpec(
        +1,
        speed=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        curvature=lambda x: np.asarray(x, dtype=float),
        p0=np.array([1.0, 0.0, 0.0]),
        T0=np.array([0.0, 1.0, 0.0]),
    )
    alpha = integrate_curve(spec, x_span=(-1.0, 1.0), step=1e-3)
    beta = constant_curvature_curve(+1, 1.0)
    bad = product_chart_from_curves(alpha, beta, +1, (-0.9, 0.9, -0.9, 0.9), name="bad")
    X, Y = bad.grid(15, 15, shrink=0.1)
    assert parallelism_residual(bad, X, Y, 5e-4) > 1e-2


def test_identity_residuals_battery():
    # the full invariant suite at the standard 81x81 working grid
    for key in ("prop4_hyp", "prop4_sph", "phi0", "example2", "incl_torus", "T68", "circ11"):
        inv = small_inv(key, nx=81, ny=81)
        for name, val in inv.identity_residuals.items():
            assert val < 1e-4, (key, name, val)
        assert inv.parallelism_residual < 1e-5, key
        assert np.max(inv.conformal_defect) < 1e-6, key
        # record-level invariants
        assert max(np.max(inv.C1**2), np.max(inv.C2**2)) <= 1 + 1e-8, key
        jet = sample_jet(inv.chart, inv.x, inv.y)
        assert np.max(np.abs(jet.ip(inv.Htilde, inv.Htilde) - inv.Hnorm**2)) < 1e-7, key
        assert np.max(np.abs(jet.ip(inv.H, inv.Htilde))) < 1e-7, key


def test_one_chart_pass_per_record(monkeypatch):
    # the refined pass walks the 129x129 grid once, in blocks of whole rows,
    # then parallelism takes its centre and four shifted jets on 33x33
    ch = chart("prop4_hyp")
    jet = ch.jet
    calls = []

    def counted(x, y):
        calls.append((np.copy(x), np.copy(y)))
        return jet(x, y)

    monkeypatch.setattr(ch, "jet", counted)
    inv = surface_invariants(ch, nx=33, ny=33)
    blocks, parallelism = calls[:-5], calls[-5:]
    assert len(blocks) > 1 and all(len(x) % 4 == 0 for x, _ in blocks[:-1])
    Xr, Yr = ch.grid(129, 129, shrink=0.02)
    assert np.array_equal(np.concatenate([x for x, _ in blocks]), Xr)
    assert np.array_equal(np.concatenate([y for _, y in blocks]), Yr)
    assert all(np.shape(x) == (33, 33) for x, _ in parallelism)
    X, Y = ch.grid(33, 33, shrink=0.02)
    assert np.array_equal(inv.x, X) and np.array_equal(inv.y, Y)


def _assert_records_equal(a, b, label):
    for f in dataclasses.fields(a):
        value = getattr(a, f.name)
        if isinstance(value, np.ndarray):
            assert np.array_equal(getattr(b, f.name), value, equal_nan=True), (label, f.name)
    assert a.identity_residuals == b.identity_residuals, label
    assert a.holomorphy == b.holomorphy, label
    assert a.parallelism_residual == b.parallelism_residual, label


def test_blocked_pass_is_bitwise_the_whole_grid(monkeypatch):
    # every pointwise operation acts per sample, so the block size moves no bit:
    # the default blocks, one block of r rows at a time and one block for the
    # whole refined grid give the same record
    base = chart("prop4_hyp")
    scale = np.array([1.0, 1.0, 1.0, 1.01, 1.01, 1.01])
    corrupted = dataclasses.replace(
        base, name="corrupted", jet=None, evaluate=lambda x, y: base.evaluate(x, y) * scale
    )
    cases = [(chart(key), {}) for key in ("prop4_hyp", "prop4_sph", "phi0", "incl_torus")]
    for ch, kw in cases + [(corrupted, {"fd_step": 1e-3})]:
        blocked = surface_invariants(ch, nx=33, ny=33, **kw)
        monkeypatch.setattr(diffgeo, "BLOCK_POINTS", 1)
        rows = surface_invariants(ch, nx=33, ny=33, **kw)
        monkeypatch.setattr(diffgeo, "BLOCK_POINTS", 10**9)
        whole = surface_invariants(ch, nx=33, ny=33, **kw)
        monkeypatch.undo()
        _assert_records_equal(whole, blocked, (ch.name, "default blocks"))
        _assert_records_equal(whole, rows, (ch.name, "blocks of r rows"))


def test_surface_invariants_peak_memory():
    # blocks keep one block's jet, frame and determinant stacks alive at a time;
    # the whole-grid pass peaked at 141.5 MB on this call
    p = ProfileParams(+1, 2.0, 1.0, 0.0)
    ch = pmc_profile_family(p, closed_form("sn_family", p, x_span=(-1.5, 1.5)), y_span=(-1.0, 1.0))
    tracemalloc.start()
    try:
        surface_invariants(ch, nx=81, ny=81)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 70e6, peak / 1e6


def test_refined_record_slices_to_the_unrefined_one():
    base = chart("prop4_hyp")
    scale = np.array([1.0, 1.0, 1.0, 1.01, 1.01, 1.01])
    corrupted = dataclasses.replace(
        base, name="corrupted", jet=None, evaluate=lambda x, y: base.evaluate(x, y) * scale
    )
    cases = [(chart(key), {}) for key in ("prop4_hyp", "prop4_sph", "phi0")]
    for ch, kw in cases + [(corrupted, {"fd_step": 1e-3})]:
        refined = surface_invariants(ch, nx=33, ny=33, resid_refine=4, **kw)
        plain = surface_invariants(ch, nx=33, ny=33, resid_refine=1, **kw)
        for f in dataclasses.fields(plain):
            value = getattr(plain, f.name)
            if isinstance(value, np.ndarray):
                assert np.array_equal(getattr(refined, f.name), value, equal_nan=True), (ch.name, f.name)
        assert refined.holomorphy == plain.holomorphy, ch.name
        assert refined.parallelism_residual == plain.parallelism_residual, ch.name
    # linspace over 3(n-1) intervals does not hit the n-point grid exactly
    with pytest.raises(DomainError):
        surface_invariants(base, nx=9, ny=9, resid_refine=3)


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
        return base.evaluate(x, y)

    ch = dataclasses.replace(base, name="evaluate-only", jet=None, evaluate=counted)
    X, Y = ch.grid(9, 9, shrink=0.05)
    d = 1e-3
    jet = sample_jet(ch, X, Y, fd_step=d)
    assert len(calls) == 9
    for key, value in nine_point_jet(base.evaluate, X, Y, d).items():
        assert np.array_equal(getattr(jet, key), value), key


def test_fd_step_selects_the_numeric_jet_on_a_jet_chart():
    # a given fd_step means differences of evaluate, even where an analytic jet exists
    ch = chart("prop4_hyp")
    X, Y = ch.grid(9, 9, shrink=0.05)
    d = 1e-3
    jet = sample_jet(ch, X, Y, fd_step=d)
    for key, value in nine_point_jet(ch.evaluate, X, Y, d).items():
        assert np.array_equal(getattr(jet, key), value), key
    assert not np.array_equal(jet.pxx, sample_jet(ch, X, Y).pxx)


@pytest.mark.parametrize("fd_step", [0.0, -1e-3, np.nan, np.inf])
@pytest.mark.parametrize("jet", ["analytic", "none"])
def test_fd_step_must_be_positive_and_finite(fd_step, jet):
    base = chart("prop4_hyp")
    ch = base if jet == "analytic" else dataclasses.replace(base, jet=None)
    X, Y = ch.grid(5, 5, shrink=0.05)
    with pytest.raises(DomainError, match="fd_step must be positive and finite"):
        sample_jet(ch, X, Y, fd_step=fd_step)


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

    def bad_evaluate(x, y):
        p = base.evaluate(x, y)
        q = p.copy()
        q[..., 3] = p[..., 3] * 1.01  # scaled height: no longer CMC
        return q

    bad = ImmersionChart(
        name="corrupted",
        eps=+1,
        target=base.target,
        domain=base.domain,
        evaluate=bad_evaluate,
        jet=None,
        circle_radius=base.circle_radius,
        periods=base.periods,
    )
    with pytest.raises((VerificationError, DomainError)):
        abresch_rosenberg(bad, nx=17, ny=17, fd_step=1e-3)
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
        num = sample_jet(ch, X, Y, fd_step=d)
        devs.append(max(np.max(np.abs(getattr(num, k) - getattr(ana, k))) for k in ("px", "py", "pxx", "pxy", "pyy")))
    assert devs[0] < 5e-4  # second-order error at fd_step 1e-2
    assert devs[1] < devs[0] / 3.0
    with pytest.raises(DomainError):
        sample_jet(ch, np.array([-1.0]), np.array([0.0]))  # outside domain
    with pytest.raises(DomainError, match="need an explicit fd_step"):
        sample_jet(dataclasses.replace(ch, jet=None), X, Y)  # an evaluate-only chart needs fd_step


def test_product_separated_mixed_partial():
    ch = chart("T68")
    X, Y = ch.grid(7, 7, shrink=0.1)
    jet = sample_jet(ch, X, Y)
    assert np.max(np.abs(jet.pxy)) == 0.0


def test_degenerate_chart_rejected():
    # a rank-deficient chart fails the conformality machinery upstream
    point = np.array([1.0, 0, 0, 0, 0, 1.0])

    def evaluate(x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        return np.broadcast_to(point, x.shape + (6,)).copy()

    const = ImmersionChart("const", +1, "product", (-1, 1, -1, 1), evaluate, jet=None)
    X, Y = const.grid(5, 5, shrink=0.2)
    jet = sample_jet(const, X, Y, fd_step=1e-3)
    with pytest.raises(DomainError):
        conformal_data(jet)


def test_normalized_mismatch_scales():
    a = np.zeros((4, 4))
    b = np.full((4, 4), 1e-15)
    assert normalized_mismatch(a, b) < 1e-2  # the floor keeps it small: 1e-15 / (1e-15 + 1e-12)
    assert normalized_mismatch(a, b, terms=(np.ones((4, 4)),)) < 1e-14


def test_invariants_csv_and_summary(tmp_path):
    inv = small_inv("prop4_hyp")
    out = tmp_path / "inv.csv"
    inv.to_csv(out)
    header = out.read_text().splitlines()[0]
    assert header.startswith("x,y,u,conformal_defect,C1,C2,K")
    text = inv.summary()
    assert "parallelism" in text and "eq7_j1" in text
