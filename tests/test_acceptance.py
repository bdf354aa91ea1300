"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Tolerances are fixed here and nowhere else.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from pmcsurf.cli import EXIT_INFEASIBLE, EXIT_VERIFICATION, main as cli_main
from pmcsurf.correspondence import (
    cmc_to_pmc,
    extract_pmc_data,
    integrate_cmc_frenet,
    pmc_to_cmc,
    weak_congruence_check,
)
from pmcsurf.diffgeo import (
    abresch_rosenberg,
    curvature_bound_excess,
    hopf_coefficients,
    normal_frame,
    sample_jet,
    surface_invariants,
    torus_integrals,
)
from pmcsurf.elliptic import complete_k, jacobi_sncndn
from pmcsurf.families import (
    cmc_sinh_chart,
    cmc_torus,
    example1_chart,
    geodesic_inclusion,
    pmc_phi0,
    pmc_profile_family,
    pmc_sinh_family,
)
from pmcsurf.profile import ProfileParams, closed_form

from numeric_jet import fd_chart, holomorphy_residual

STATE = {}


def record(num, name, checks):
    ok_all = all(ok for _, ok, _ in checks)
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok_all else 'FAIL'}")
    for label, ok, detail in checks:
        print(f"    {'ok  ' if ok else 'FAIL'} {label}: {detail}")
    for label, ok, detail in checks:
        assert ok, f"criterion {num} ({name}) - {label}: {detail}"


def get(key):
    if key in STATE:
        return STATE[key]
    if key == "prop4_hyp":
        p = ProfileParams(-1, -2.0, 1.0, 0.0)
        h = closed_form("sinh_family", p, x_span=(-1.2, 1.2))
        val = pmc_profile_family(p, h, y_span=(-1.0, 1.0))
    elif key == "prop4_sph":
        p = ProfileParams(+1, 2.0, 1.0, 0.0)
        h = closed_form("sn_family", p, x_span=(-1.6, 1.6))
        val = pmc_profile_family(p, h, y_span=(-1.0, 1.0))
    elif key == "torus":
        val = cmc_torus(2.0, 1.0)
    elif key == "lifted_torus":
        val = geodesic_inclusion(get("torus"))
    elif key == "sinh":
        val = pmc_sinh_family(1.0)
    elif key == "prop4_hyp_data":
        val = extract_pmc_data(get("prop4_hyp"), nx=41, ny=41)
    elif key.startswith("inv81:"):
        # the 81x81 records of criteria 02-05, read again by criterion 08
        val = surface_invariants(get(key[len("inv81:"):]), nx=81, ny=81)
    else:
        raise KeyError(key)
    STATE[key] = val
    return val


def mean_hsq(chart):
    X, Y = chart.grid(9, 9, shrink=0.1)
    frame = normal_frame(sample_jet(chart, X, Y))
    return float(np.mean(frame.Hnorm**2)), float(np.max(np.abs(frame.Hnorm**2 - np.mean(frame.Hnorm**2))))


def test_criterion_01_example1_constants():
    h1, s1 = mean_hsq(example1_chart("T", a=0.6, ahat=0.8))
    h2, s2 = mean_hsq(example1_chart("Chat", a=np.sqrt(2.0)))
    h3, s3 = mean_hsq(example1_chart("Ptilde"))
    record(1, "product-family mean curvature constants", [
        ("4|H|^2 of T(0.6,0.8) = 2.340278 +- 1e-5", abs(4 * h1 - 2.340278) < 1e-5 and s1 < 1e-9,
         f"got {4 * h1:.7f}"),
        ("4|H|^2 of Chat(sqrt2) = 3 +- 1e-5", abs(4 * h2 - 3.0) < 1e-5 and s2 < 1e-9, f"got {4 * h2:.7f}"),
        ("|H|^2 of Ptilde = 0.5 +- 1e-6", abs(h3 - 0.5) < 1e-6 and s3 < 1e-9, f"got {h3:.8f}"),
    ])


@pytest.mark.parametrize("key,eps,a,b,c", [("prop4_hyp", -1, -2.0, 1.0, 0.0), ("prop4_sph", +1, 2.0, 1.0, 0.0)])
def test_criterion_02_invariant_family_certification(key, eps, a, b, c):
    inv = get(f"inv81:{key}")
    hopf_expected = eps * b / 4.0 * (a + 1 - c * c)  # c = 0: both labels coincide
    checks = [
        ("conformal defect <= 1e-6", float(np.max(inv.conformal_defect)) <= 1e-6,
         f"{np.max(inv.conformal_defect):.2e}"),
        ("parallelism residual <= 1e-5", inv.parallelism_residual <= 1e-5,
         f"{inv.parallelism_residual:.2e}"),
        ("|H|^2 = b/4 +- 1e-6", float(np.max(np.abs(inv.Hnorm**2 - b / 4.0))) <= 1e-6,
         f"max dev {np.max(np.abs(inv.Hnorm**2 - b / 4)):.2e}"),
        ("C1 = C2 pointwise +- 1e-6", float(np.max(np.abs(inv.C1 - inv.C2))) <= 1e-6,
         f"{np.max(np.abs(inv.C1 - inv.C2)):.2e}"),
        ("theta_j constant (eps b/4)(a+1-c^2) +- 1e-5",
         max(float(np.max(np.abs(inv.theta1 - hopf_expected))),
             float(np.max(np.abs(inv.theta2 - hopf_expected)))) <= 1e-5,
         f"expected {hopf_expected}"),
    ]
    record(2, f"invariant PMC family ({eps},{a},{b},{c})", checks)


def test_criterion_03_sinh_member_curvature():
    lam = 1.0
    inv = get("inv81:sinh")
    i0 = np.argmin(np.abs(inv.x[:, 0]))
    j0 = np.argmin(np.abs(inv.y[0, :]))
    K0 = float(inv.K[i0, j0])
    # The induced metric is e^{2u}|dz|^2 = (1+lam^2) cosh^2(lam x)|dz|^2, so
    # K = -e^{-2u} Delta u = -lam^2 / ((1+lam^2) cosh^4(lam x)), and
    # K(0) = -lam^2/(1+lam^2), which is -1/2 at lam = 1.
    K0_expected = -lam**2 / (1.0 + lam**2)
    t_dev = max(float(np.max(np.abs(inv.theta1 - 0.25))), float(np.max(np.abs(inv.theta2 - 0.25))))
    record(3, "sinh-member curvature and Hopf constants", [
        ("K(0) = -lam^2/(1+lam^2) +- 1e-3", abs(K0 - K0_expected) <= 1e-3,
         f"got K(0) = {K0:.6f}, expected {K0_expected:.6f}"),
        ("theta_1 = theta_2 = 0.25 +- 1e-5", t_dev <= 1e-5, f"max dev {t_dev:.2e}"),
    ])


def test_criterion_04_vanishing_hopf_chart():
    chart = pmc_phi0(0.25, domain=(-0.646, 0.646, -1.5, 1.5))
    inv = surface_invariants(chart, nx=81, ny=81)
    K_dev = float(np.nanmax(np.abs(inv.K + 0.75)))
    C_dev = max(float(np.max(np.abs(inv.C1**2 - 0.75))), float(np.max(np.abs(inv.C2**2 - 0.75))))
    t_max = max(float(np.max(np.abs(inv.theta1))), float(np.max(np.abs(inv.theta2))))
    record(4, "complete chart with vanishing Hopf differentials (|H| = 1/4)", [
        ("K = -0.75 +- 1e-4 across the grid", K_dev <= 1e-4, f"max dev {K_dev:.2e}"),
        ("C1^2 = 0.75 +- 1e-5", C_dev <= 1e-5, f"max dev {C_dev:.2e}"),
        ("max |theta_j| <= 1e-7", t_max <= 1e-7, f"{t_max:.2e}"),
    ])


def test_criterion_05_torus_family():
    torus = get("torus")
    kappa_sq = torus.metadata["kappa_sq"]
    ar = abresch_rosenberg(torus, nx=81, ny=81)
    t_dev = float(np.max(np.abs(ar.theta_ar - 0.09375)))
    rng = np.random.default_rng(0)
    xs = rng.uniform(0, torus.periods[0], 400)
    ys = rng.uniform(0, torus.periods[1], 400)
    seam = max(
        float(np.max(np.abs(torus.embed_circle(xs, ys) - torus.embed_circle(xs + torus.periods[0], ys)))),
        float(np.max(np.abs(torus.embed_circle(xs, ys) - torus.embed_circle(xs, ys + torus.periods[1])))),
    )
    lifted = get("lifted_torus")
    inv = get("inv81:lifted_torus")
    lift_dev = max(float(np.max(np.abs(inv.theta1 - 0.1875))), float(np.max(np.abs(inv.theta2 - 0.1875))))
    ints = torus_integrals(lifted, nx=128, ny=128)
    record(5, "torus family (a, b) = (2, 1)", [
        ("kappa^2 = 0.25 exactly", kappa_sq == 0.25, f"{kappa_sq}"),
        ("theta_AR = 0.09375 +- 1e-5 constant", t_dev <= 1e-5, f"max dev {t_dev:.2e}"),
        ("seam closure <= 1e-8", seam <= 1e-8, f"{seam:.2e}"),
        ("lifted chart theta_j = 0.1875 +- 1e-4", lift_dev <= 1e-4, f"max dev {lift_dev:.2e}"),
        ("int C_j dA = 0 +- 1e-3 Area",
         max(abs(ints["intC1"]), abs(ints["intC2"])) <= 1e-3 * ints["area"],
         f"{ints['intC1']:.2e}, {ints['intC2']:.2e}, area {ints['area']:.3f}"),
        ("deg(phi) = deg(psi) = 0 +- 1e-3",
         max(abs(ints["deg_phi"]), abs(ints["deg_psi"])) <= 1e-3,
         f"{ints['deg_phi']:.2e}, {ints['deg_psi']:.2e}"),
    ])


def test_criterion_06_correspondence_roundtrip():
    data = get("prop4_hyp_data")
    d1 = pmc_to_cmc(data, 1)
    d2 = pmc_to_cmc(data, 2)
    back = cmc_to_pmc(d1, d2)
    identity_dev = max(
        float(np.max(np.abs(getattr(back, k) - getattr(data, k))))
        for k in ("u", "C1", "C2", "gamma1", "gamma2", "f1", "f2")
    )
    rec1, rep1 = integrate_cmc_frenet(d1)
    rec2, rep2 = integrate_cmc_frenet(d2)
    h_dev = 0.0
    theta_dev = 0.0
    for j, rec in ((1, rec1), (2, rec2)):
        ar = abresch_rosenberg(rec, nx=33, ny=33, shrink=0.04)
        h_dev = max(h_dev, float(np.max(np.abs(ar.H_scalar - 0.5))))
        F = data.fields(ar.x, ar.y)
        theta_src = 2 * np.sqrt(2) * data.Hnorm * F[f"f{j}"] - 0.5 * F[f"gamma{j}"] ** 2
        theta_dev = max(theta_dev, float(np.max(np.abs(2.0 * ar.theta_ar - theta_src))))
    verdict = weak_congruence_check(rec1, rec2, nx=17, ny=17)

    # factorizing input: both reconstructions coincide up to congruence
    lift = geodesic_inclusion(cmc_sinh_chart(1.0, domain=(-1.0, 1.0, -1.0, 1.0)))
    dl = extract_pmc_data(lift, nx=25, ny=25)
    r1, _ = integrate_cmc_frenet(pmc_to_cmc(dl, 1))
    r2, _ = integrate_cmc_frenet(pmc_to_cmc(dl, 2))
    fact = weak_congruence_check(r1, r2, nx=13, ny=13)

    record(6, "correspondence round trip on the (-1,-2,1,0) member", [
        ("data round trip identity <= 1e-6", identity_dev <= 1e-6, f"{identity_dev:.2e}"),
        ("reconstructed |H| = 0.5 +- 1e-4", h_dev <= 1e-4, f"max dev {h_dev:.2e}"),
        ("weakly congruent, aligned distance <= 1e-3",
         verdict.congruent and verdict.distance <= 1e-3, f"{verdict.distance:.2e} ({verdict.domain_map})"),
        ("2 theta_AR = theta_j +- 1e-4", theta_dev <= 1e-4, f"{theta_dev:.2e}"),
        ("factorizing case: reconstructions congruent",
         fact.congruent and fact.domain_map == "id" and fact.distance <= 1e-6,
         f"{fact.distance:.2e}"),
    ])


def test_criterion_07_holomorphy_decay():
    families = {
        "T(0.6,0.8)": example1_chart("T", a=0.6, ahat=0.8),
        "Chat(sqrt2)": example1_chart("Chat", a=np.sqrt(2.0)),
        "Ptilde": example1_chart("Ptilde"),
        "invariant family (-1,-2,1,0)": get("prop4_hyp"),
        "invariant family (+1,2,1,0)": get("prop4_sph"),
        "vanishing-Hopf chart": pmc_phi0(0.25, domain=(-0.646, 0.646, -1.5, 1.5)),
        "lifted torus": get("lifted_torus"),
        "sinh member": pmc_sinh_family(1.0),
    }
    checks = []
    floor = 1e-11  # residuals already at machine level have nothing left to decay
    for name, chart in families.items():
        levels = []
        for n in (41, 81):
            # a margin of 0.03 keeps the step-sized stencil inside the domain
            X, Y = chart.grid(n, n, shrink=0.03)
            dx = X[1, 0] - X[0, 0]
            dy = Y[0, 1] - Y[0, 0]
            jet = sample_jet(fd_chart(chart, min(dx, dy)), X, Y)
            frame = normal_frame(jet)
            t1, t2 = hopf_coefficients(jet, frame)
            levels.append(max(holomorphy_residual(t1, dx, dy)[0], holomorphy_residual(t2, dx, dy)[0]))
        ratio = levels[0] / max(levels[1], 1e-300)
        ok = ratio >= 3.5 or levels[0] <= floor
        note = "at machine floor" if levels[0] <= floor else f"x{ratio:.2f}"
        checks.append((f"{name}: decay factor >= 3.5 (or at floor)", ok,
                       f"{levels[0]:.2e} -> {levels[1]:.2e} ({note})"))
    record(7, "second-order decay of the Hopf holomorphy residual", checks)


def test_criterion_08_curvature_bounds():
    checks = []
    for name, inv in (
        ("invariant family (+1,2,1,0)", get("inv81:prop4_sph")),
        ("T(0.6,0.8)", surface_invariants(example1_chart("T", a=0.6, ahat=0.8), nx=81, ny=81)),
        ("lifted torus", get("inv81:lifted_torus")),
        ("invariant family (-1,-2,1,0)", get("inv81:prop4_hyp")),
        ("vanishing-Hopf chart", surface_invariants(pmc_phi0(0.25), nx=81, ny=81)),
        ("sinh member", get("inv81:sinh")),
        ("Ptilde", surface_invariants(example1_chart("Ptilde"), nx=81, ny=81)),
    ):
        excess = curvature_bound_excess(inv)
        bound = "|H|^2+1" if inv.chart.eps == +1 else "|H|^2"
        checks.append((f"{name}: K <= {bound} + 1e-6", excess <= 1e-6, f"max excess {excess:.2e}"))
    record(8, "curvature upper bounds at every grid point", checks)


def test_criterion_09_elliptic_kernel():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-30.0, 30.0, size=10000)
    ks = rng.uniform(0.0, 0.99, size=10000)
    worst1 = worst2 = 0.0
    for kappa in np.unique(np.round(ks, 2)):
        sel = np.abs(ks - kappa) < 0.005
        sn, cn, dn = jacobi_sncndn(xs[sel], kappa)
        worst1 = max(worst1, float(np.max(np.abs(sn**2 + cn**2 - 1.0))))
        worst2 = max(worst2, float(np.max(np.abs(dn**2 + kappa**2 * sn**2 - 1.0))))
    agm_dev = 0.0
    for kappa in np.arange(0.1, 0.95, 0.1):
        oracle, _ = quad(lambda t: 1.0 / np.sqrt(1.0 - (kappa * np.sin(t)) ** 2), 0, np.pi / 2,
                         epsabs=1e-14, epsrel=1e-13)
        agm_dev = max(agm_dev, abs(complete_k(kappa) - oracle))
    record(9, "elliptic kernel identities and AGM against quadrature", [
        ("sn^2 + cn^2 - 1 <= 1e-10 on 1e4 samples", worst1 <= 1e-10, f"{worst1:.2e}"),
        ("dn^2 + kappa^2 sn^2 - 1 <= 1e-10", worst2 <= 1e-10, f"{worst2:.2e}"),
        ("K(kappa) AGM vs quadrature <= 1e-10 for kappa in 0.1..0.9", agm_dev <= 1e-10, f"{agm_dev:.2e}"),
    ])


def test_criterion_10_negative_controls(tmp_path):
    code = cli_main([
        "verify", "--family", "prop4", "--eps", "-1", "--a", "-2", "--b", "1", "--c", "0",
        "--corrupt-height", "1.01", "--nx", "25", "--ny", "25", "--out", str(tmp_path),
    ])
    report = next(tmp_path.glob("verify_*.txt")).read_text()
    par_line = [l for l in report.splitlines() if l.startswith("parallelism")][0]
    par_value = float(par_line.split("=")[1].split()[0])
    code2 = cli_main(["verify", "--family", "prop4", "--eps", "1", "--a", "0.5", "--b", "1",
                      "--c", "0", "--out", str(tmp_path)])
    record(10, "negative controls", [
        ("perturbed chart fails with exit 1", code == EXIT_VERIFICATION, f"exit {code}"),
        ("perturbed chart parallelism >= 1e-2", par_value >= 1e-2, f"{par_value:.2e}"),
        ("infeasible (eps=+1, a<b, c=0) rejected with exit 2", code2 == EXIT_INFEASIBLE, f"exit {code2}"),
    ])
