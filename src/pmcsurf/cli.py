"""Command line front end: build families, verify invariants, run correspondences.

Subcommands
  generate    write OBJ meshes and a metadata side-car for a family chart
  verify      run the invariant suite, write a report, exit 0 only if all pass
  correspond  run the PMC -> (CMC, CMC) correspondence with reconstructions
  report      verify a standard battery of families into one combined report

Exit codes: 0 success, 1 verification failure, 2 infeasible parameters,
3 I/O error.  Outputs are deterministic: identical configuration gives
byte-identical files.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import families as fam
from .correspondence import (
    extract_pmc_data,
    integrate_cmc_frenet,
    pmc_to_cmc,
    weak_congruence_check,
)
from .diffgeo import (
    SHRINK,
    abresch_rosenberg,
    conformal_data,
    curvature_bound_excess,
    hopf_theta,
    normal_frame,
    parallelism_residual,
    sample_jet,
    surface_invariants,
)
from .errors import DomainError, InfeasibleParameters, PreconditionError, VerificationError
from .profile import ProfileParams, require_feasible, require_start, require_whole_span, solve_profile

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3

# the gate of verify's identity residuals (eq5-eq14, frame_gamma, the two-path checks) and of eta_z_law
IDENTITY_TOL = 1e-4


# ---------------------------------------------------------------------------
# chart construction from CLI parameters
# ---------------------------------------------------------------------------


def _profile_chart(args, construct, band, require_x_span=None):
    """prop4 or prop6 member (eps, a, b, c): its profile h from h(0) = 0 on the --domain x-span.

    Before the profile is solved, its start must lie in the chart's band
    eps (a - h^2) > ``band`` with p(0) q(0) >= 0 (the parabolic branches, a = 0
    of prop4 and E = a - eps b = 0 of prop6, never do), and the x-span must
    pass ``require_x_span`` where the family bounds it.  A profile that
    escapes or leaves its band inside the x-span is refused, with its reach.
    """
    params = ProfileParams(args.eps, args.a, args.b, args.c)
    require_feasible(params)
    require_start(params, 0.0, band)
    dom = args.domain or (-1.2, 1.2, -1.0, 1.0)
    if require_x_span is not None:
        require_x_span(args.family, params, dom[:2])
    h = solve_profile(params, 0.0, +1, dom[:2])
    require_whole_span(args.family, h, dom[:2])
    chart = construct(params, h, y_span=dom[2:])
    chart.metadata["profile"] = h
    return chart


# each constructor takes the --domain rectangle (None: its own default) and is
# looked up in ``fam`` at call time, so that a wrapper installed on the module
# attribute sees every build
_CHARTS = {
    "product": lambda a: fam.product_of_curves(a.eps, a.a, a.b, domain=a.domain),
    "T": lambda a: fam.example1_chart("T", a=a.a, ahat=a.b, domain=a.domain),
    "That": lambda a: fam.example1_chart("That", a=a.a, ahat=a.b, domain=a.domain),
    "Chat": lambda a: fam.example1_chart("Chat", a=a.a, domain=a.domain),
    "Ptilde": lambda a: fam.example1_chart("Ptilde", domain=a.domain),
    "prop4": lambda a: _profile_chart(a, fam.pmc_profile_family, 0.0, fam.require_profile_x_span),
    "prop6": lambda a: _profile_chart(a, fam.cmc_profile_family, a.b),
    "example2": lambda a: fam.pmc_sinh_family(a.lam, domain=a.domain),
    "example4": lambda a: fam.cmc_sinh_chart(a.lam, domain=a.domain),
    "example5": lambda a: fam.cmc_leite_chart(a.hnorm, domain=a.domain),
    "phi0": lambda a: fam.pmc_phi0(a.hnorm, domain=a.domain),
    "torus": lambda a: fam.cmc_torus(a.a, a.b, domain=a.domain),
}


def build_chart(args):
    """Construct the requested family chart on its --domain, validating feasibility."""
    chart = _CHARTS[args.family](args)
    return fam.geodesic_inclusion(chart) if args.lift else chart


def _corrupt_chart(chart, factor):
    """Scale the second factor (or the height) of a chart: a negative control.

    The scaling is linear, so the control's 2-jet is the parent's jet with
    every key scaled on the same components: 3: (the second factor of a
    product, the height of a chart into M2 x R).
    """

    def jet(x, y):
        return {key: np.concatenate([v[:3], v[3:] * factor]) for key, v in chart.jet(x, y).items()}

    return dataclasses.replace(
        chart,
        name=f"{chart.name}(corrupted x{factor})",
        jet=jet,
        metadata=dict(chart.metadata),
        embed_circle=None,
    )


# ---------------------------------------------------------------------------
# mesh and metadata output
# ---------------------------------------------------------------------------


def write_obj(path, vertices, nx, ny):
    """ASCII OBJ of a structured grid of vertices (3, nx, ny), quads split in two.

    Each vertex is one row of the file, so the components are interleaved
    point by point.  Quad (i, j) has the corners a = i ny + j + 1, b = a + ny,
    b + 1 and a + 1 (1-based), written as the faces (a, b, b + 1) and
    (a, b + 1, a + 1).  The text comes from one format template per section,
    filled with Python floats and ints.
    """
    i, j = np.meshgrid(np.arange(nx - 1), np.arange(ny - 1), indexing="ij")
    a = (i * ny + j + 1).ravel()
    b = a + ny
    faces = np.stack([a, b, b + 1, a, b + 1, a + 1], axis=-1).ravel().tolist()
    coords = np.asarray(vertices).reshape(3, -1).T.ravel().tolist()
    text = ("v %.12e %.12e %.12e\n" * (len(coords) // 3)) % tuple(coords)
    Path(path).write_text(text + ("f %d %d %d\n" * (len(faces) // 3)) % tuple(faces))


def _disk_projection(pts3, poincare):
    """2D picture of factor points (3, ...): Poincare disk / stereographic projection."""
    if not poincare:
        return pts3
    denom = 1.0 + pts3[2:3]
    return np.concatenate([pts3[:2] / denom, np.zeros_like(denom)])


def _write_cmc_obj(path, P, nx, ny):
    """OBJ of a chart into M2(eps) x R: the factor's disk picture, lifted by the height."""
    flat = _disk_projection(P[:3], True)
    write_obj(path, np.concatenate([flat[:2], P[3:4]]), nx, ny)


def write_metadata(path, entries):
    lines = [f"{key}={entries[key]}" for key in sorted(entries)]
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_generate(args):
    chart = build_chart(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    nx, ny = args.nx, args.ny
    X, Y = chart.grid(nx, ny)
    P = chart.evaluate(X, Y)
    meta = {
        "family": chart.name,
        "eps": chart.eps,
        "target": chart.target,
        "nx": nx,
        "ny": ny,
        "domain": ",".join(f"{v:.12g}" for v in chart.domain),
    }
    for key, val in chart.metadata.items():
        if isinstance(val, (int, float, complex, str)):
            meta[f"param_{key}"] = val
    stem = chart.name.replace("(", "_").replace(")", "")
    files = []
    if chart.target == fam.TARGET_PRODUCT:
        first = _disk_projection(P[:3], args.poincare and chart.eps == -1)
        second = _disk_projection(P[3:], args.poincare and chart.eps == -1)
        for tag, pts in (("factor1", first), ("factor2", second)):
            path = out / f"{stem}_{tag}.obj"
            write_obj(path, pts, nx, ny)
            files.append(path)
    else:
        path = out / f"{stem}.obj"
        _write_cmc_obj(path, P, nx, ny)
        files.append(path)
        if chart.target == fam.TARGET_CIRCLE:
            meta["circle_radius"] = f"{chart.circle_radius:.12g}"
            # the factor component closes over the fundamental domain seams
            path = out / f"{stem}_factor.obj"
            write_obj(path, P[:3], nx, ny)
            files.append(path)
    if chart.periods is not None:
        meta["period_x"] = f"{chart.periods[0]:.12g}"
        meta["period_y"] = f"{chart.periods[1]:.12g}"
    # a one-line invariant summary in the side-car
    try:
        if chart.target == fam.TARGET_PRODUCT:
            # the fields of surface_invariants' record that the side-car reads, on its grid
            Xs, Ys = chart.grid(min(nx, 41), min(ny, 41), shrink=SHRINK)
            jet = sample_jet(chart, Xs, Ys)
            _, defect = conformal_data(jet)
            hnorm = normal_frame(jet).Hnorm
            meta["H_sq"] = f"{float(np.mean(hnorm**2)):.12g}"
            meta["max_conformal_defect"] = f"{float(np.max(defect)):.3e}"
            meta["parallelism_residual"] = f"{parallelism_residual(chart, Xs, Ys):.3e}"
        else:
            ar = abresch_rosenberg(chart, nx=min(nx, 41), ny=min(ny, 41)).require_cmc(1e-6)
            meta["H"] = f"{float(np.mean(ar.H_scalar)):.12g}"
            meta["theta_ar_mean_re"] = f"{float(np.mean(ar.theta_ar.real)):.12g}"
            meta["theta_ar_mean_im"] = f"{float(np.mean(ar.theta_ar.imag)):.12g}"
    except (DomainError, VerificationError) as exc:
        meta["invariants_error"] = str(exc)
    profile = chart.metadata.get("profile")
    if profile is not None:
        profile_path = out / f"{stem}_profile.csv"
        profile.to_csv(profile_path)
        files.append(profile_path)
    meta_path = out / f"{stem}_metadata.txt"
    write_metadata(meta_path, meta)
    files.append(meta_path)
    for f in files:
        print(f)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def _verify_product(chart, args):
    checks = []
    inv = surface_invariants(chart, nx=args.nx, ny=args.ny)
    checks.append(("conformal_defect", float(np.max(inv.conformal_defect)), 1e-6))
    checks.append(("parallelism", inv.parallelism_residual, 1e-5))
    for key in sorted(inv.identity_residuals):
        checks.append((key, inv.identity_residuals[key], IDENTITY_TOL))
    checks.append(("dzbar_theta1", inv.holomorphy["dzbar_theta1_scaled"], 1e-3))
    checks.append(("dzbar_theta2", inv.holomorphy["dzbar_theta2_scaled"], 1e-3))
    checks.append(("curvature_bound", max(curvature_bound_excess(inv), 0.0), 1e-6))
    expected = chart.metadata.get("hopf_expected")
    if expected is not None:
        # compare as an unordered pair: the labels are orientation-gauge
        distance = min(
            max(float(np.max(np.abs(inv.theta1 - e1))), float(np.max(np.abs(inv.theta2 - e2))))
            for e1, e2 in (expected, expected[::-1])
        )
        tol = 1e-7 if expected[0] == 0 and expected[1] == 0 else 1e-5
        checks.append(("hopf_values", distance, tol))
    return checks


def _verify_cmc(chart, args):
    ar = abresch_rosenberg(chart, nx=args.nx, ny=args.ny)
    checks = [
        ("conformal_defect", ar.residuals["conformal_defect"], 1e-6),
        ("H_spread", ar.residuals["H_spread"], 1e-6),
        ("eta_z_law", ar.residuals["eta_z_law"], IDENTITY_TOL),
        ("dzbar_theta_ar", ar.residuals["dzbar_theta_ar_scaled"], 1e-3),
    ]
    expected = chart.metadata.get("theta_ar_expected")
    if expected is not None:
        checks.append(
            ("theta_ar_value", float(np.max(np.abs(ar.theta_ar - expected))), 1e-4)
        )
    return checks


def _config_slug(args):
    bits = [args.family] + [f"{key}{getattr(args, key):g}" for key in ("eps", "a", "b", "c", "lam", "hnorm")]
    if args.lift:
        bits.append("lift")
    return "_".join(bits)


def cmd_verify(args):
    chart = build_chart(args)
    if args.corrupt_height != 1.0:
        chart = _corrupt_chart(chart, args.corrupt_height)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = [f"family={chart.name}", f"config={_config_slug(args)}", f"grid={args.nx}x{args.ny}"]
    try:
        checks = (_verify_product if chart.target == fam.TARGET_PRODUCT else _verify_cmc)(chart, args)
    except DomainError as exc:
        lines.append(f"FAIL construction: {exc}")
        code = EXIT_VERIFICATION
    else:
        failed = []
        for name, value, tol in checks:
            status = "PASS" if value <= tol else "FAIL"
            if status == "FAIL":
                failed.append(name)
            lines.append(f"{name} = {value:.6e}  tol = {tol:.1e}  {status}")
        lines.append("verdict=" + ("PASS" if not failed else "FAIL: " + ", ".join(failed)))
        code = EXIT_VERIFICATION if failed else EXIT_OK
    (out / f"verify_{_config_slug(args)}.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return code


# ---------------------------------------------------------------------------
# correspondence
# ---------------------------------------------------------------------------


def cmd_correspond(args):
    chart = build_chart(args)
    if chart.target != fam.TARGET_PRODUCT:
        raise DomainError("correspond needs a PMC chart (product target); try --lift for CMC families")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data = extract_pmc_data(chart, nx=args.nx, ny=args.ny)
    report = [f"source={chart.name}", f"Hnorm={data.Hnorm:.12g}"]
    for key in sorted(data.residuals):
        report.append(f"data_{key}={data.residuals[key]:.3e}")
    recs = []
    for j in (1, 2):
        dj = pmc_to_cmc(data, j)
        rec, rep = integrate_cmc_frenet(dj)
        recs.append(rec)
        dj.to_csv(out / f"cmc_data_j{j}.csv")
        ar = abresch_rosenberg(rec, nx=min(args.nx, 41), ny=min(args.ny, 41), shrink=0.04).require_cmc(1e-3)
        X, Y = rec.grid(args.nx, args.ny, shrink=0.02)
        _write_cmc_obj(out / f"cmc_chart_j{j}.obj", rec.evaluate(X, Y), args.nx, args.ny)
        report.append(f"reconstruction_{j}_H={float(np.mean(ar.H_scalar)):.12g}")
        report += [f"reconstruction_{j}_{key}={rep[key]:.3e}" for key in ("loop_closure", "H_match", "theta_ar_match")]
        # 2 Theta_AR against the source Hopf coefficient
        F = data.fields(ar.x, ar.y)
        theta_j = hopf_theta(data.Hnorm, F[f"f{j}"], F[f"gamma{j}"], chart.eps)
        mismatch = float(np.max(np.abs(2.0 * ar.theta_ar - theta_j)))
        report.append(f"two_theta_ar_vs_theta_{j}={mismatch:.3e}")
    verdict = weak_congruence_check(recs[0], recs[1], nx=min(args.nx, 21), ny=min(args.ny, 21))
    report += [f"weak_congruence={verdict.congruent}", f"weak_congruence_distance={verdict.distance:.3e}",
               f"weak_congruence_domain_map={verdict.domain_map}"]
    text = "\n".join(report)
    (out / "correspondence_report.txt").write_text(text + "\n")
    print(text)
    return EXIT_OK if verdict.congruent else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# battery report
# ---------------------------------------------------------------------------

BATTERY = [
    ["--family", "T", "--a", "0.6", "--b", "0.8"],
    ["--family", "Chat", "--a", "1.4142135623730951"],
    ["--family", "Ptilde"],
    ["--family", "prop4", "--eps", "-1", "--a", "-2", "--b", "1", "--c", "0"],
    ["--family", "prop4", "--eps", "1", "--a", "2", "--b", "1", "--c", "0", "--domain=-1.6,1.6,-1,1"],
    ["--family", "phi0", "--hnorm", "0.25"],
    ["--family", "prop6", "--eps", "-1", "--a", "-2", "--b", "1", "--c", "0"],
    ["--family", "example4", "--lambda", "1"],
    ["--family", "example5", "--hnorm", "0.25"],
    ["--family", "torus", "--a", "2", "--b", "1"],
    ["--family", "torus", "--a", "2", "--b", "1", "--lift"],
]


def cmd_report(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    parser = build_parser()
    statuses = []
    for extra in BATTERY:
        sub = parser.parse_args(["verify", *extra, "--out", str(out), "--nx", str(args.nx), "--ny", str(args.ny)])
        code = sub.func(sub)
        statuses.append((" ".join(extra), code))
    lines = [f"{'PASS' if code == 0 else 'FAIL'}  {name}" for name, code in statuses]
    (out / "battery_report.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK if all(code == 0 for _, code in statuses) else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_chart_options(sub):
    sub.add_argument("--family", default="prop4", choices=_CHARTS)
    sub.add_argument("--eps", type=int, default=-1, choices=(-1, 1))
    sub.add_argument("--a", type=_finite, default=-2.0)
    sub.add_argument("--b", type=_finite, default=1.0)
    sub.add_argument("--c", type=_finite, default=0.0)
    sub.add_argument("--lambda", dest="lam", type=_finite, default=1.0)
    sub.add_argument("--hnorm", type=_finite, default=0.25)
    sub.add_argument("--lift", action="store_true", help="compose with the totally geodesic inclusion")
    sub.add_argument(
        "--domain", type=_parse_domain, default=None, metavar="x0,x1,y0,y1",
        help="chart rectangle; use --domain=-1,1,-1,1 when values start with a minus sign",
    )


def _grid_size(text):
    """Points per grid axis: two, the ends of the rectangle whose Chebyshev grid is differentiated."""
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError(f"a grid needs at least 2 points per axis, got {n}")
    return n


def _finite(text):
    """A chart parameter: any finite number."""
    v = float(text)
    if not np.isfinite(v):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return v


def _positive(text):
    """The --corrupt-height control's scale factor: a positive, finite number."""
    v = float(text)
    if not (np.isfinite(v) and v > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return v


def _parse_domain(text):
    """Rectangle x0,x1,y0,y1 with finite ends, x0 < x1 and y0 < y1."""
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("domain needs four numbers x0,x1,y0,y1")
    x0, x1, y0, y1 = parts
    if not np.all(np.isfinite(parts)):
        raise argparse.ArgumentTypeError(f"domain ends must be finite, got {text}")
    if not x0 < x1:
        raise argparse.ArgumentTypeError(f"domain needs x0 < x1, got {text}")
    if not y0 < y1:
        raise argparse.ArgumentTypeError(f"domain needs y0 < y1, got {text}")
    return tuple(parts)


def build_parser():
    parser = argparse.ArgumentParser(prog="pmcsurf", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("generate", cmd_generate),
        ("verify", cmd_verify),
        ("correspond", cmd_correspond),
        ("report", cmd_report),
    ):
        sub = subs.add_parser(name)
        if name != "report":
            _add_chart_options(sub)
        sub.add_argument("--nx", type=_grid_size, default=81)
        sub.add_argument("--ny", type=_grid_size, default=81)
        sub.add_argument("--out", default="out")
        if name == "generate":
            sub.add_argument("--poincare", action="store_true")
        if name == "verify":
            sub.add_argument("--corrupt-height", dest="corrupt_height", type=_positive, default=1.0)
        sub.set_defaults(func=fn)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleParameters as exc:
        print(f"infeasible parameters: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (DomainError, PreconditionError, VerificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
