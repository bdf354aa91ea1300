import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pmcsurf
from pmcsurf.cli import (
    _CHARTS,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_VERIFICATION,
    _corrupt_chart,
    build_chart,
    build_parser,
    main,
    write_obj,
)
from pmcsurf.diffgeo import surface_invariants
from pmcsurf.families import TARGET_PRODUCT


def read_obj_vertices(path):
    verts = []
    for line in path.read_text().splitlines():
        if line.startswith("v "):
            verts.append([float(t) for t in line.split()[1:]])
    return np.array(verts)


def _loop_write_obj(path, vertices, nx, ny):
    """The OBJ writer write_obj replaced: one formatted line per vertex and per face."""
    lines = []
    for v in vertices:
        lines.append(f"v {v[0]:.12e} {v[1]:.12e} {v[2]:.12e}")
    for i in range(nx - 1):
        for j in range(ny - 1):
            a = i * ny + j + 1
            b = (i + 1) * ny + j + 1
            c = (i + 1) * ny + j + 2
            d = i * ny + j + 2
            lines.append(f"f {a} {b} {c}")
            lines.append(f"f {a} {c} {d}")
    Path(path).write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("nx, ny", [(7, 4), (3, 9), (2, 2)])
def test_write_obj_bytes_match_the_loop_writer(tmp_path, nx, ny):
    rng = np.random.default_rng(nx * ny)
    v = rng.standard_normal((nx * ny, 3)) * 10.0 ** rng.integers(-5, 6, size=(nx * ny, 3))
    v.flat[:7] = [-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324]
    write_obj(tmp_path / "new.obj", v.T.reshape(3, nx, ny), nx, ny)  # components first, as a chart's points
    _loop_write_obj(tmp_path / "old.obj", v, nx, ny)
    assert (tmp_path / "new.obj").read_bytes() == (tmp_path / "old.obj").read_bytes()


def test_generate_product_writes_two_factors(tmp_path):
    code = main([
        "generate", "--family", "prop4", "--eps", "-1", "--a", "-2", "--b", "1", "--c", "0",
        "--nx", "17", "--ny", "17", "--out", str(tmp_path),
    ])
    assert code == EXIT_OK
    f1 = tmp_path / "prop4_factor1.obj"
    f2 = tmp_path / "prop4_factor2.obj"
    meta = tmp_path / "prop4_metadata.txt"
    assert f1.exists() and f2.exists() and meta.exists()
    v1 = read_obj_vertices(f1)
    assert v1.shape == (17 * 17, 3)
    # first factor lies on the hyperboloid
    assert np.max(np.abs(v1[:, 0] ** 2 + v1[:, 1] ** 2 - v1[:, 2] ** 2 + 1.0)) < 1e-8
    text = meta.read_text()
    assert "family=prop4" in text
    assert "param_H_sq=0.25" in text
    profile = tmp_path / "prop4_profile.csv"
    assert profile.exists()
    assert profile.read_text().splitlines()[0] == "x,h,hprime"


def test_generate_torus_seam_closure(tmp_path):
    code = main(["generate", "--family", "torus", "--a", "2", "--b", "1",
                 "--nx", "25", "--ny", "25", "--out", str(tmp_path)])
    assert code == EXIT_OK
    v = read_obj_vertices(tmp_path / "torus_factor.obj").reshape(25, 25, 3)
    assert np.max(np.abs(v[0, :, :] - v[-1, :, :])) < 1e-8  # x seam
    assert np.max(np.abs(v[:, 0, :] - v[:, -1, :])) < 1e-8  # y seam
    cover = read_obj_vertices(tmp_path / "torus.obj").reshape(25, 25, 3)
    assert np.max(np.abs(cover[0, :, :] - cover[-1, :, :])) < 1e-8  # x seam closes with height
    meta = (tmp_path / "torus_metadata.txt").read_text()
    assert "circle_radius=1" in meta
    assert "param_kappa_sq=0.25" in meta


def test_generate_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        code = main(["generate", "--family", "example4", "--lambda", "1",
                     "--nx", "13", "--ny", "13", "--out", str(out)])
        assert code == EXIT_OK
    assert (a / "example4.obj").read_bytes() == (b / "example4.obj").read_bytes()
    assert (a / "example4_metadata.txt").read_bytes() == (b / "example4_metadata.txt").read_bytes()


@pytest.mark.parametrize(
    "family",
    [["--family", "phi0"], ["--family", "T", "--a", "0.6", "--b", "0.8"],
     ["--family", "torus", "--a", "2", "--b", "1", "--lift"]],
    ids=["phi0", "T", "torus-lift"],
)
def test_generate_sidecar_reads_the_invariant_record(tmp_path, family):
    # the side-car's three invariants are those of surface_invariants' record at 41x41
    assert main(["generate", *family, "--out", str(tmp_path)]) == EXIT_OK
    meta = dict(line.split("=", 1) for line in next(tmp_path.glob("*_metadata.txt")).read_text().splitlines())
    inv = surface_invariants(build_chart(build_parser().parse_args(["generate", *family])), nx=41, ny=41)
    assert meta["H_sq"] == f"{float(np.mean(inv.Hnorm**2)):.12g}"
    assert meta["max_conformal_defect"] == f"{float(np.max(inv.conformal_defect)):.3e}"
    assert meta["parallelism_residual"] == f"{inv.parallelism_residual:.3e}"


def test_generate_samples_no_chebyshev_grid_on_a_cmc_chart(tmp_path, monkeypatch):
    # the CMC side-car reads H and theta_AR on the requested-grid record alone, so
    # generate takes no Chebyshev pass: no jet call on a (CHEB_N + 1)^2 grid
    from pmcsurf import diffgeo
    from pmcsurf import families as fam

    shapes = []
    build = fam.cmc_sinh_chart

    def recorded(*args, **kw):
        chart = build(*args, **kw)
        jet = chart.jet

        def sampled(x, y):
            shapes.append(np.shape(x))
            return jet(x, y)

        chart.jet = sampled
        return chart

    monkeypatch.setattr(fam, "cmc_sinh_chart", recorded)
    assert main(["generate", "--family", "example4", "--out", str(tmp_path)]) == EXIT_OK
    assert (41, 41) in shapes and (diffgeo.CHEB_N + 1,) * 2 not in shapes, shapes
    meta = (tmp_path / "example4_metadata.txt").read_text()
    assert "theta_ar_mean_re=" in meta and "invariants_error" not in meta


def test_generate_poincare_projection(tmp_path):
    code = main(["generate", "--family", "Ptilde", "--poincare",
                 "--nx", "9", "--ny", "9", "--out", str(tmp_path)])
    assert code == EXIT_OK
    v = read_obj_vertices(tmp_path / "curves_product_factor1.obj")
    assert np.max(np.hypot(v[:, 0], v[:, 1])) < 1.0  # inside the unit disk
    assert np.max(np.abs(v[:, 2])) == 0.0


def test_verify_passes_on_valid_family(tmp_path):
    code = main(["verify", "--family", "prop6", "--eps", "-1", "--a", "-2", "--b", "1", "--c", "0",
                 "--nx", "33", "--ny", "33", "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = (tmp_path / "verify_prop6_eps-1_a-2_b1_c0_lam1_hnorm0.25.txt").read_text()
    assert "verdict=PASS" in report
    assert "theta_ar_value" in report


def test_verify_rejects_infeasible_parameters(tmp_path, capsys):
    code = main(["verify", "--family", "prop4", "--eps", "1", "--a", "1", "--b", "2", "--c", "0",
                 "--out", str(tmp_path)])
    assert code == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert "(1+b)(a-b) >= b*c^2" in err


def test_generate_rejects_infeasible_parameters(tmp_path):
    code = main(["generate", "--family", "prop4", "--eps", "1", "--a", "1", "--b", "2", "--c", "0",
                 "--out", str(tmp_path)])
    assert code == EXIT_INFEASIBLE


def test_verify_corrupted_chart_fails_parallelism(tmp_path):
    code = main(["verify", "--family", "prop4", "--eps", "-1", "--a", "-2", "--b", "1", "--c", "0",
                 "--corrupt-height", "1.01", "--nx", "25", "--ny", "25", "--out", str(tmp_path)])
    assert code == EXIT_VERIFICATION
    report = next(tmp_path.glob("verify_*.txt")).read_text()
    line = [l for l in report.splitlines() if l.startswith("parallelism")][0]
    assert "FAIL" in line
    assert float(line.split("=")[1].split()[0]) >= 1e-2


@pytest.mark.parametrize("factor", ["1.01", "1.05"])
def test_verify_corrupted_height_fails_h_spread(tmp_path, factor):
    # the height branch of the control: a chart into M2 x R whose height is scaled.
    # Its |H| spread is a check line at every factor, not a construction failure
    code = main(["verify", "--family", "example4", "--corrupt-height", factor, "--nx", "25", "--ny", "25",
                 "--out", str(tmp_path)])
    assert code == EXIT_VERIFICATION
    report = next(tmp_path.glob("verify_*.txt")).read_text().splitlines()
    assert not [l for l in report if l.startswith("FAIL construction")]
    checks = {l.split(" = ")[0]: l for l in report if " = " in l}
    assert list(checks) == ["conformal_defect", "H_spread", "eta_z_law", "dzbar_theta_ar", "theta_ar_value"]
    assert all(line.endswith("FAIL") for line in checks.values())
    assert report[-1] == "verdict=FAIL: " + ", ".join(checks)


@pytest.mark.parametrize(
    "family",
    [["--family", "prop4", "--eps", "-1", "--a", "-2", "--b", "1", "--c", "0"], ["--family", "example4"]],
    ids=["product", "times-line"],
)
def test_control_jet_is_the_parent_jet_with_the_block_scaled(family):
    parent = build_chart(build_parser().parse_args(["verify", *family]))
    control = _corrupt_chart(parent, 1.01)
    X, Y = parent.grid(9, 7, shrink=0.05)
    J, Jc = parent.jet(X, Y), control.jet(X, Y)
    assert set(Jc) == set(J)
    for key, v in J.items():
        # the first factor is kept; the second factor (or the height) is scaled
        assert np.array_equal(Jc[key][:3], v[:3]), key
        assert np.array_equal(Jc[key][3:], 1.01 * v[3:]), key

    def closure(x, y):
        """The control as a closure over the parent's points, as it was written before it had a jet."""
        p = parent.evaluate(x, y).copy()
        if parent.target == TARGET_PRODUCT:
            p[3:] = 1.01 * p[3:]
        else:
            p[3] = 1.01 * p[3]
        return p

    assert np.array_equal(control.evaluate(X, Y), closure(X, Y))


# the families that have no chart at the CLI's default options, and options that build one
FEASIBLE = {"T": ["--a", "0.6", "--b", "0.8"], "That": ["--a", "2", "--b", "3"], "torus": ["--a", "2", "--b", "1"]}


@pytest.mark.parametrize("family", sorted(_CHARTS))
def test_every_family_answers_a_components_first_jet(family):
    # one layout: each key of a chart's jet is one C-ordered (dim, *x.shape) array, for
    # every family, its --lift where it has one and its --corrupt-height control
    parser = build_parser()
    chart = build_chart(parser.parse_args(["verify", "--family", family, *FEASIBLE.get(family, [])]))
    charts = [chart, _corrupt_chart(chart, 1.01)]
    if chart.target != TARGET_PRODUCT:
        lifted = build_chart(parser.parse_args(["verify", "--family", family, *FEASIBLE.get(family, []), "--lift"]))
        charts += [lifted, _corrupt_chart(lifted, 1.01)]
    for ch in charts:
        X, Y = ch.grid(7, 5, shrink=0.05)
        jet = ch.jet(X, Y)
        assert sorted(jet) == sorted(("p", "px", "py", "pxx", "pxy", "pyy")), ch.name
        for key, v in jet.items():
            assert v.shape == (ch.dim, 7, 5) and v.flags.c_contiguous, (ch.name, key, v.shape)


NARROW_T = ["--family", "T", "--a", "0.6", "--b", "0.8", "--nx", "9", "--ny", "9"]


def test_narrow_rectangle_verifies_and_corresponds(tmp_path):
    # the parallelism residual differentiates H on the Chebyshev grid of the sampled
    # rectangle, so it needs no margin beyond it: a 0.02-wide rectangle PASSes (4.4e-11)
    code = main(["verify", *NARROW_T, "--domain=0,0.02,0,0.02", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert "verdict=PASS" in next(tmp_path.glob("verify_*.txt")).read_text()
    code = main(["correspond", *NARROW_T, "--domain=0,0.02,0,0.02", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert (tmp_path / "correspondence_report.txt").exists()


def test_control_on_a_narrow_rectangle_writes_a_report(tmp_path):
    # the control samples its own scaled jet, so it takes no difference stencil that
    # could leave the rectangle: a report, whose verdict names the conformal defect
    # (a scaled product of curves keeps H parallel, so parallelism PASSes here)
    code = main(["verify", *NARROW_T, "--domain=0,0.02,0,0.02", "--corrupt-height", "1.01", "--out", str(tmp_path)])
    assert code == EXIT_VERIFICATION
    verdict = next(tmp_path.glob("verify_*.txt")).read_text().splitlines()[-1]
    assert verdict.startswith("verdict=FAIL: ") and "conformal_defect" in verdict


def test_generate_and_correspond_gate_the_h_spread_they_read(tmp_path, monkeypatch, capsys):
    # cmc_record measures the |H| spread; generate gates it at diffgeo.H_SPREAD_TOL
    # (the side-car's invariants_error) and correspond, on each reconstruction's
    # record, at correspondence.REBUILT_CMC_TOL
    import pmcsurf.cli as cli

    def spread(value):
        measure = cli.cmc_record

        def measured(*args, **kw):
            ar = measure(*args, **kw)
            ar.residuals["H_spread"] = value
            return ar

        return measured

    monkeypatch.setattr(cli, "cmc_record", spread(2e-6))
    assert main(["generate", "--family", "example4", "--nx", "9", "--ny", "9", "--out", str(tmp_path)]) == EXIT_OK
    meta = next(tmp_path.glob("*_metadata.txt")).read_text().splitlines()
    assert "invariants_error=|H| varies by 2.000e-06 > 1.0e-06: chart is not CMC" in meta
    monkeypatch.undo()
    monkeypatch.setattr(cli, "cmc_record", spread(2e-3))
    code = main(["correspond", *NARROW_T, "--domain=0,0.02,0,0.02", "--out", str(tmp_path)])
    assert code == EXIT_VERIFICATION
    assert "error: |H| varies by 2.000e-03 > 1.0e-03: chart is not CMC" in capsys.readouterr().err


def test_correspond_writes_bundles(tmp_path):
    code = main(["correspond", "--family", "prop4", "--eps", "-1", "--a", "-2", "--b", "1",
                 "--c", "0", "--nx", "33", "--ny", "33", "--out", str(tmp_path)])
    assert code == EXIT_OK
    for j in (1, 2):
        assert (tmp_path / f"cmc_data_j{j}.csv").exists()
        assert (tmp_path / f"cmc_chart_j{j}.obj").exists()
    report = (tmp_path / "correspondence_report.txt").read_text()
    assert "weak_congruence=True" in report
    assert "Hnorm=0.5" in report
    two = [l for l in report.splitlines() if l.startswith("two_theta_ar_vs_theta")]
    assert len(two) == 2
    for line in two:
        assert float(line.split("=")[1]) < 1e-4


def test_correspond_cylinder_case(tmp_path):
    # a product of constant-curvature curves maps to cylinders
    code = main(["correspond", "--family", "product", "--eps", "1", "--a", "1", "--b", "1",
                 "--nx", "25", "--ny", "25", "--domain=0,1.5,0,1.5", "--out", str(tmp_path)])
    assert code == EXIT_OK
    data = np.genfromtxt(tmp_path / "cmc_data_j1.csv", delimiter=",", names=True)
    assert np.max(np.abs(data["nu"])) < 1e-10  # nu = 0
    # eta is linear: second differences along the flattened grid vanish
    eta = data["eta"].reshape(25, 25)
    assert np.max(np.abs(np.diff(eta, n=2, axis=0))) < 1e-8
    assert np.max(np.abs(np.diff(eta, n=2, axis=1))) < 1e-8


def test_correspond_lifted_torus_factorizes(tmp_path):
    # the fundamental domain is large: the default 81x81 grid keeps the
    # data-consistency gates honest
    code = main(["correspond", "--family", "torus", "--a", "2", "--b", "1", "--lift",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = (tmp_path / "correspondence_report.txt").read_text()
    assert "weak_congruence=True" in report
    assert "weak_congruence_domain_map=id" in report  # the two charts coincide
    dist = [l for l in report.splitlines() if l.startswith("weak_congruence_distance")][0]
    assert float(dist.split("=")[1]) < 1e-8


def test_correspond_requires_product_chart(tmp_path):
    code = main(["correspond", "--family", "example4", "--lambda", "1", "--out", str(tmp_path)])
    assert code == EXIT_VERIFICATION


def test_report_battery(tmp_path):
    code = main(["report", "--out", str(tmp_path)])
    assert code == EXIT_OK
    lines = (tmp_path / "battery_report.txt").read_text().strip().splitlines()
    assert len(lines) == 11
    assert all(line.startswith("PASS") for line in lines)


def test_grids_below_two_points_are_rejected(tmp_path, capsys):
    for command in ("verify", "generate"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--family", "T", "--a", "0.6", "--b", "0.8", "--nx", "1", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "at least 2 points" in capsys.readouterr().err


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("family", [["T", "--a", "0.6", "--b", "0.8"], ["prop4"], ["example4"]])
def test_verify_passes_on_grids_of_two_to_four_points(tmp_path, family, n):
    # every derivative is taken on the Chebyshev grid of the rectangle, so a grid needs
    # only its two ends per axis
    assert main(["verify", "--family", *family, "--nx", str(n), "--ny", str(n), "--out", str(tmp_path)]) == EXIT_OK


def test_failed_precondition_is_a_typed_exit(tmp_path, capsys, monkeypatch):
    # the data gate of integrate_cmc_frenet, held below the data's own residuals
    import pmcsurf.correspondence as corr

    monkeypatch.setattr(corr, "DATA_TOL", 1e-15)
    code = main(["correspond", "--nx", "9", "--ny", "9", "--out", str(tmp_path)])
    assert code == EXIT_VERIFICATION
    assert "error: data residuals too large to integrate" in capsys.readouterr().err


@pytest.mark.parametrize(
    "family",
    [
        pytest.param(["--family", "phi0", "--hnorm", "0.25"], id="phi0"),
        pytest.param(["--family", "prop4", "--eps", "1", "--a", "2", "--b", "1", "--c", "0",
                      "--domain=-1.4,1.4,-1,1"], id="sn"),
        pytest.param(["--family", "torus", "--a", "2", "--b", "1", "--lift"], id="torus-lift"),
        pytest.param(["--family", "prop4", "--eps", "-1", "--a", "-2", "--b", "0.5", "--c", "0.3"], id="solved"),
    ],
)
def test_correspond_takes_the_paper_charts_at_41(tmp_path, capsys, family):
    # the round trip's data gate measures the integrability equations of the data,
    # not a difference stencil's truncation error, so the paper's charts pass it at 41^2
    # (the twin of CI's step "Correspond on the paper's charts")
    assert main(["correspond", *family, "--nx", "41", "--ny", "41", "--out", str(tmp_path)]) == EXIT_OK
    assert "weak_congruence=True" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "family, domain, clause",
    [
        # the height -log cos x has no value past x = pi/2, yet every residual
        # that verify checks reads only its derivatives
        pytest.param(["--family", "example5"], "--domain=-1.8,1.8,-1,1", "|x| < pi/2", id="example5"),
        # the speed of the second-factor curve has a pole at x = pi/2
        pytest.param(["--family", "phi0", "--hnorm", "0.25"], "--domain=-1.6,1.6,-1,1", "|x| < pi/2 - 0.0005",
                     id="phi0"),
        # past the growth bound rounding spoils the verdict long before the closed forms overflow
        pytest.param(["--family", "example4"], "--domain=-400,400,-400,400", "|x| + |y| <= 6", id="example4"),
        pytest.param(["--family", "example4", "--lift"], "--domain=-8,8,-1,1", "|x| + |y| <= 6",
                     id="example4-lift"),
        pytest.param(["--family", "example4", "--lift"], "--domain=-4,4,-1,1", "|height| <= 6", id="lifted-height"),
        pytest.param(["--family", "product", "--eps", "-1", "--a", "0.5", "--b", "2"], "--domain=-900,900,-1,1",
                     "|x| <= 6.76211", id="hypercycle"),
        pytest.param(["--family", "Ptilde"], "--domain=-1,1,-30,30", "|y| <= 20.0357", id="horocycle"),
        pytest.param(["--family", "example2"], "--domain=-3,3,-1,1", "|x| <= 2.15194", id="example2"),
        pytest.param(["--family", "example5"], "--domain=-1,1,-9,9", "|y| <= 6", id="example5-y"),
        pytest.param(["--family", "phi0", "--hnorm", "0.25"], "--domain=-1,1,-8,8", "|y| <= 5.19615", id="phi0-y"),
        pytest.param(["--family", "T", "--a", "0.6", "--b", "0.8"], "--domain=-1e7,1,0,1", "|x|, |y| <= 1e+06",
                     id="plane"),
        # y boosts the first factor at rate sqrt(-a) (prop4) and y + F(x) at rate sqrt(-E) (prop6)
        pytest.param(["--family", "prop4", "--eps", "-1", "--a", "-2", "--b", "1", "--c", "0"],
                     "--domain=-1,1,-8,8", "|y| <= 4.24264", id="prop4-y"),
        pytest.param(["--family", "prop6", "--eps", "-1", "--a", "-2", "--b", "1", "--c", "0"],
                     "--domain=-1,1,-16,16", "|y + F(x)| <= 6", id="prop6-y"),
        pytest.param(["--family", "example2"], "--domain=-1,1,-5,5", "|y| <= 4.24264", id="example2-y"),
        # a subnormal x-span: the curve march's step (hi - lo) / 2000 rounds to 0
        pytest.param(["--family", "example2"], "--domain=0,5e-324,0,1", "a positive finite step",
                     id="example2-subnormal"),
        pytest.param(["--family", "prop4"], "--domain=0,5e-324,0,1", "a positive finite step", id="prop4-subnormal"),
        # prop6 interpolates its antiderivatives between nodes that a subnormal span cannot separate
        pytest.param(["--family", "prop6"], "--domain=0,5e-324,0,1", "a positive finite step", id="prop6-subnormal"),
        pytest.param(["--family", "prop6", "--eps", "1", "--a", "2", "--b", "1", "--c", "0"], "--domain=0,5e-324,0,1",
                     "a positive finite step", id="prop6-sphere-subnormal"),
        # a solved profile (c != 0) divides the span into 2000 steps first
        pytest.param(["--family", "prop4", "--eps", "-1", "--a", "-2", "--b", "0.5", "--c", "0.3"],
                     "--domain=0,5e-324,0,1", "a positive finite step", id="prop4-solved-subnormal"),
        pytest.param(["--family", "prop6", "--eps", "-1", "--a", "-2", "--b", "0.5", "--c", "0.3"],
                     "--domain=0,5e-324,0,1", "a positive finite step", id="prop6-solved-subnormal"),
        # the second-factor curve has speed >= sqrt(b): refused before the profile solve and the
        # curve march, which asked for 7.28 TiB here
        pytest.param(["--family", "prop4"], "--domain=-1e9,1e9,-1,1", "|x| <= 6", id="prop4-x"),
        pytest.param(["--family", "prop4", "--eps", "1", "--a", "5", "--b", "4", "--c", "0"], "--domain=-3.1,1,-1,1",
                     "|x| <= 3", id="prop4-x-sphere"),
        # inside |x| <= 6 the sinh profile still outgrows the bound: the curve march ended in
        # "point cannot be projected onto the quadric" on +-6 and verify FAILed parallelism on +-3
        pytest.param(["--family", "prop4", "--eps", "-1", "--a", "-2", "--b", "1", "--c", "0"], "--domain=-6,6,-1,1",
                     "second-factor arclength from x = 0 <= 6", id="prop4-arclength"),
        pytest.param(["--family", "prop4", "--eps", "-1", "--a", "-2", "--b", "1", "--c", "0"], "--domain=-3,3,-1,1",
                     "second-factor arclength from x = 0 <= 6", id="prop4-arclength-fail"),
        # the closed-form sinh profile overflowed on +-1e9; on +-20 verify FAILed construction
        pytest.param(["--family", "prop6", "--eps", "-1", "--a", "-2", "--b", "1", "--c", "0"],
                     "--domain=-1e9,1e9,-1,1", "|x| <= 7.25433", id="prop6-x-overflow"),
        pytest.param(["--family", "prop6", "--eps", "-1", "--a", "-2", "--b", "1", "--c", "0"], "--domain=-20,20,-1,1",
                     "|x| <= 7.25433", id="prop6-x-closed-form"),
        pytest.param(["--family", "prop6", "--eps", "-1", "--a", "-2", "--b", "1", "--c", "0"], "--domain=-6,6,-1,1",
                     "x3 <= cosh(6) on the profile curve", id="prop6-x-profile"),
        # a profile that escapes inside the x-span is refused, not cut: tan(sqrt(1 - b) x) passes
        # |h| = 1000 between two of the span's nodes
        pytest.param(["--family", "prop4", "--eps", "-1", "--a", "-1", "--b", "0.25", "--c", "0"],
                     "--domain=-3,3,-1,1", f"|x| <= {math.atan(1000.0) / math.sqrt(1.0 - 0.25):.6g}", id="prop4-x-tan"),
        # this profile passes |h| = 1000 at x = 1.12349, inside the default x-span
        pytest.param(["--family", "prop6", "--eps", "-1", "--a", "-2.9", "--b", "0.6", "--c", "0.6"],
                     "--domain=-1.2,1.2,-1,1", "x <= 1.12349", id="prop6-x-escape"),
    ],
)
def test_domain_the_chart_cannot_evaluate_is_infeasible(tmp_path, capsys, family, domain, clause):
    code = main(["verify", *family, domain, "--nx", "17", "--ny", "17", "--out", str(tmp_path)])
    assert code == EXIT_INFEASIBLE
    assert f"needs {clause}" in capsys.readouterr().err
    assert not list(tmp_path.glob("verify_*.txt"))


@pytest.mark.parametrize(
    "family", [["--family", "phi0", "--hnorm", "0.25"], ["--family", "example2"]], ids=["phi0", "example2"]
)
def test_second_factor_curve_is_marched_over_the_domain(tmp_path, family):
    # both default rectangles end near |x| = 1; the curve is marched to 1.4
    code = main(["verify", *family, "--domain=-1.4,1.4,-1,1", "--nx", "41", "--ny", "41", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert "verdict=PASS" in next(tmp_path.glob("verify_*.txt")).read_text()


@pytest.mark.parametrize(
    "family, domain",
    [
        (["--family", "prop4", "--eps", "-1", "--a", "-2", "--b", "1", "--c", "0"], "--domain=-1.2345,1.2345,-1,1"),
        (["--family", "prop4", "--eps", "-1", "--a", "-2", "--b", "1", "--c", "0"], "--domain=-1.2,1.2345,-1,1"),
        (["--family", "example2"], "--domain=-1.2345,1.2345,-1,1"),
    ],
    ids=["prop4", "prop4-one-end", "example2"],
)
def test_x_ends_off_the_curve_step_verify(tmp_path, family, domain):
    # the second-factor curve is marched over the rectangle's x-range, which its last
    # step overruns by less than the 1% pad between that range and the profile span;
    # marched over the whole span, an end off the 1e-3 step took it past the profile
    code = main(["verify", *family, domain, "--nx", "21", "--ny", "21", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert "verdict=PASS" in next(tmp_path.glob("verify_*.txt")).read_text()


@pytest.mark.parametrize(
    "family, domain",
    [
        pytest.param(["--family", "example4"], "--domain=-5.9,5.9,-0.1,0.1", id="example4"),
        pytest.param(["--family", "product", "--eps", "-1", "--a", "0.5", "--b", "2"], "--domain=-6.7,6.7,-1,1",
                     id="hypercycle"),
        pytest.param(["--family", "Ptilde"], "--domain=-20,20,-20,20", id="horocycles"),
        pytest.param(["--family", "example5"], "--domain=-1.5,1.5,-6,6", id="example5"),
        pytest.param(["--family", "prop4", "--eps", "-1", "--a", "-2", "--b", "1", "--c", "0"],
                     "--domain=-1,1,-4.2,4.2", id="prop4"),
        pytest.param(["--family", "prop6", "--eps", "-1", "--a", "-2", "--b", "1", "--c", "0"],
                     "--domain=-1,1,-5.5,5.5", id="prop6"),
        # second-factor arclength 5.78 from x = 0
        pytest.param(["--family", "prop4", "--eps", "-1", "--a", "-2", "--b", "1", "--c", "0"],
                     "--domain=-2.2,2.2,-1,1", id="prop4-arclength"),
        # x3 reaches 188.6 on the profile curve over the rectangle, within cosh(6) = 201.7
        pytest.param(["--family", "prop6", "--eps", "-1", "--a", "-2", "--b", "1", "--c", "0"],
                     "--domain=-5.7,5.7,-1,1", id="prop6-x"),
    ],
)
def test_rectangle_at_the_growth_bound_verifies(tmp_path, family, domain):
    code = main(["verify", *family, domain, "--nx", "41", "--ny", "41", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert "verdict=PASS" in next(tmp_path.glob("verify_*.txt")).read_text()


def test_phi0_near_the_pole_passes_parallelism(tmp_path):
    # the chart is PMC by construction and varies fast near x = pi/2; the spectral
    # derivative of H resolves it (6.9e-07), where a centered difference of step 5e-4
    # read a false FAIL (2.8e-05)
    code = main(["verify", "--family", "phi0", "--hnorm", "0.25", "--domain=-1.5,1.5,-1,1", "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = next(tmp_path.glob("verify_*.txt")).read_text()
    assert report.splitlines()[-1] == "verdict=PASS"


def test_example2_lambda5_passes_parallelism(tmp_path):
    # a centered difference of step 5e-4 read a false FAIL here (1.84e-05); the spectral
    # derivative reads 2.2e-06.  That value stays between 1.0e-06 and 2.2e-06 for
    # CHEB_N from 32 to 64, so it comes from the Hermite pieces of the sampled psi
    # curve that the chart is built on, not from the differentiation
    code = main(["verify", "--family", "example2", "--lambda", "5", "--domain=-0.4,0.4,-1,1", "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = next(tmp_path.glob("verify_*.txt")).read_text()
    assert report.splitlines()[-1] == "verdict=PASS"


@pytest.mark.parametrize(
    "family, clause",
    [
        # the parabolic branches: a = 0 (prop4) and E = a - eps b = 0 (prop6) put the
        # start h(0) = 0 of every profile on the edge of the chart's band
        pytest.param(["--family", "prop4", "--eps", "-1", "--a", "0", "--b", "1", "--c", "2"], "eps (a - h0^2) > 0",
                     id="prop4-a0"),
        pytest.param(["--family", "prop6", "--eps", "-1", "--a", "-1", "--b", "1", "--c", "0"], "eps (a - h0^2) > 1",
                     id="prop6-E0"),
        # in the band, but where the profile equation has no real slope
        pytest.param(["--family", "prop4", "--eps", "1", "--a", "2", "--b", "1", "--c", "1.2"], "p(h0) q(h0) >= 0",
                     id="prop4-pq"),
    ],
)
def test_profile_start_outside_the_band_is_infeasible(tmp_path, capsys, family, clause):
    code = main(["verify", *family, "--nx", "9", "--ny", "9", "--out", str(tmp_path)])
    assert code == EXIT_INFEASIBLE
    assert f"violates {clause}" in capsys.readouterr().err
    assert not list(tmp_path.glob("verify_*.txt"))


@pytest.mark.parametrize(
    "family",
    [
        ["--family", "prop4", "--eps", "-1", "--a", "-2", "--b", "0.5", "--c", "0.3"],
        ["--family", "prop4", "--eps", "-1", "--a", "-2", "--b", "1", "--c", "0"],
        ["--family", "example2"],
    ],
    ids=["solved", "closed", "example2"],
)
def test_profile_domain_without_x0_is_infeasible(tmp_path, capsys, family):
    # the solved profile and the second-factor curve both start at x = 0
    code = main(["verify", *family, "--domain=0.2,1,-1,1", "--nx", "9", "--ny", "9", "--out", str(tmp_path)])
    assert code == EXIT_INFEASIBLE
    assert "x = 0 must lie in the span" in capsys.readouterr().err
    assert not list(tmp_path.glob("verify_*.txt"))


@pytest.mark.parametrize(
    "family, domain",
    [
        (["--family", "phi0", "--hnorm", "0.25"], "--domain=-0.9,0.9,-1,1"),
        (["--family", "T", "--a", "0.6", "--b", "0.8"], "--domain=-9,9,-9,9"),
        # a closed-form profile and no second-factor curve: nothing starts at x = 0
        (["--family", "prop6", "--eps", "-1", "--a", "-2", "--b", "1", "--c", "0"], "--domain=0.2,1,-1,1"),
    ],
)
def test_domain_overrides_the_chart_can_evaluate_still_verify(tmp_path, family, domain):
    # narrower than the sampled curve, or any rectangle of a closed-form family
    code = main(["verify", *family, domain, "--nx", "33", "--ny", "33", "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = next(tmp_path.glob("verify_*.txt")).read_text()
    assert "verdict=PASS" in report


@pytest.mark.parametrize(
    "option, value",
    [(option, value) for option in ("--a", "--b", "--c", "--lambda", "--hnorm", "--corrupt-height")
     for value in ("nan", "inf", "-inf")]
    # a factor of -1 is an isometry and 0 collapses the factor: neither is a control
    + [("--corrupt-height", "0"), ("--corrupt-height", "-1")],
)
def test_malformed_number_option_is_a_usage_error(tmp_path, capsys, option, value):
    # a NaN parameter gives NaN residuals
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--family", "product", "--a", "1", "--b", "1", f"{option}={value}",
              "--nx", "9", "--ny", "9", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"argument {option}: must be" in capsys.readouterr().err
    assert not list(tmp_path.glob("verify_*.txt"))


def test_certification_never_loads_scipy(tmp_path):
    # scipy is a test dependency only: a fresh interpreter that runs every
    # subcommand on input it accepts, correspond's spline fits and evaluations
    # included, must not load it
    runs = [
        ["verify", "--family", "product", "--a", "1", "--b", "1", "--nx", "9", "--ny", "9"],
        ["generate", "--family", "product", "--a", "1", "--b", "1", "--nx", "9", "--ny", "9"],
        ["correspond", *NARROW_T, "--domain=0,0.02,0,0.02"],
    ]
    probe = (
        "import json, sys\n"
        "from pmcsurf import cli\n"
        "for argv in json.loads(sys.argv[2]):\n"
        "    code = cli.main(argv + ['--out', sys.argv[1]])\n"
        "    loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "    print('probe', argv[0], code, loaded)\n"
    )
    src = str(Path(pmcsurf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", probe, str(tmp_path), json.dumps(runs)], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines() if line.startswith("probe ")]
    assert lines == [f"probe {argv[0]} {EXIT_OK} []" for argv in runs]


@pytest.mark.parametrize(
    "family",
    [pytest.param(["--family", "T", "--a", "0.6", "--b", "0.8"], id="T"), pytest.param(["--family", "prop4"], id="prop4")],
)
@pytest.mark.parametrize(
    "domain, message",
    [
        pytest.param("1,-1,-1,1", "x0 < x1", id="x-reversed"),
        pytest.param("1,1,-1,1", "x0 < x1", id="x-empty"),
        pytest.param("-1,1,1,-1", "y0 < y1", id="y-reversed"),
        pytest.param("-1,1,0,0", "y0 < y1", id="y-empty"),
        pytest.param("0,nan,-1,1", "finite", id="nan"),
        pytest.param("-inf,1,-1,1", "finite", id="inf"),
    ],
)
def test_reversed_empty_or_infinite_domain_is_a_usage_error(tmp_path, capsys, family, domain, message):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *family, f"--domain={domain}", "--nx", "9", "--ny", "9", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("verify_*.txt"))


@pytest.mark.parametrize(
    "argv, clause",
    [
        (["verify", "--family", "T", "--a", "1.5", "--b", "0.8"], "|a| < 1"),
        (["generate", "--family", "T", "--a", "1.5", "--b", "0.8"], "|a| < 1"),
        (["verify", "--family", "T", "--a", "0.6", "--b", "-1"], "|ahat| < 1"),
        (["verify", "--family", "That", "--a", "2", "--b", "0.5"], "|ahat| > 1"),
        (["generate", "--family", "Chat", "--a", "0.5"], "|a| > 1"),
        (["verify", "--family", "phi0", "--hnorm", "0.5"], "0 < |H| < 1/2"),
        (["generate", "--family", "example5", "--hnorm", "0"], "0 < H < 1/2"),
        (["verify", "--family", "torus", "--a", "1", "--b", "2"], "0 < b < a"),
        (["verify", "--family", "example4", "--lambda", "0"], "lam > 0"),
        (["generate", "--family", "product", "--a", "0", "--b", "0"], "k_alpha != 0 or k_beta != 0"),
        (["verify", "--family", "example2", "--lambda", "0"], "lam > 0"),
        (["verify", "--family", "example2", "--lambda=-1"], "lam > 0"),
    ],
    ids=["T-a-verify", "T-a-generate", "T-ahat", "That-ahat", "Chat-a", "phi0", "example5", "torus", "example4",
         "product", "example2-lam0", "example2-lam-1"],
)
def test_family_parameters_out_of_range_are_infeasible(tmp_path, capsys, argv, clause):
    # at these values the chart's formulas give NaN, or no surface of the family
    out = tmp_path / "out"
    code = main([*argv, "--nx", "9", "--ny", "9", "--out", str(out)])
    assert code == EXIT_INFEASIBLE
    assert clause in capsys.readouterr().err
    assert not out.exists()


def test_correspond_exits_one_when_the_reconstructions_are_not_congruent(tmp_path, monkeypatch):
    from pmcsurf import cli
    from pmcsurf.correspondence import CongruenceVerdict

    monkeypatch.setattr(cli, "weak_congruence_check", lambda *args, **kw: CongruenceVerdict(False, 1.0, "id"))
    code = main(["correspond", "--family", "product", "--eps", "1", "--a", "1", "--b", "1",
                 "--domain=0,1.5,0,1.5", "--nx", "25", "--ny", "25", "--out", str(tmp_path)])
    assert code == EXIT_VERIFICATION
    assert "weak_congruence=False" in (tmp_path / "correspondence_report.txt").read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--fd-step", "0.5"],
        ["generate", "--tol", "1"],
        ["correspond", "--fd-step", "0.5"],
        ["correspond", "--poincare"],
        ["verify", "--poincare"],
        # verify samples each chart's own jet and gates its identity residuals at
        # the fixed diffgeo.IDENTITY_TOL: no option picks another jet or loosens that gate
        ["verify", "--fd-step", "1e-3"],
        ["verify", "--tol", "1"],
        ["report", "--family", "T"],
        ["report", "--lift"],
    ],
    ids="_".join,
)
def test_an_option_the_subcommand_does_not_read_is_refused(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--nx", "9", "--ny", "9", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


# Each family's stated rectangle: a scale of its x- and y-ranges to draw around,
# and the rules its constructor refuses by, in the order it checks them, as
# (clause, test on the request and on X = max |x|, Y = max |y|).  Every chart
# also refuses |x| or |y| past PLANE.
def _family_rules():
    from pmcsurf import families as fam

    bound = fam.GROWTH_BOUND
    hyper, horo = fam._factor_reach(-1, 0.5), fam._factor_reach(-1, 1.0)
    s = np.sqrt(1.0 - 4.0 * 0.25**2)  # phi0 at --hnorm 0.25

    def lifted_height(d, X):
        xm = max(0.0, d[0], -d[1])  # example4 at lambda 1: height y + sqrt(2) cosh x
        return max(-(d[2] + np.sqrt(2.0) * np.cosh(xm)), d[3] + np.sqrt(2.0) * np.cosh(X))

    horocycles = [(f"|x| <= {horo:.6g}", lambda d, X, Y: X <= horo), (f"|y| <= {horo:.6g}", lambda d, X, Y: Y <= horo)]
    sum_rule = [(f"|x| + |y| <= {bound:g}", lambda d, X, Y: X + Y <= bound)]
    return {
        "product": (["--family", "product", "--eps", "-1", "--a", "0.5", "--b", "2"], (hyper, 10.0),
                    [(f"|x| <= {hyper:.6g}", lambda d, X, Y: X <= hyper)]),
        "T": (["--family", "T", "--a", "0.6", "--b", "0.8"], (10.0, 10.0), []),
        "That": (["--family", "That", "--a", "2", "--b", "3"], (10.0, 10.0), []),
        "Chat": (["--family", "Chat", "--a", "1.5"], (10.0, horo), horocycles[1:]),
        "Ptilde": (["--family", "Ptilde"], (horo, horo), horocycles),
        "example4": (["--family", "example4"], (bound / 2, bound / 2), sum_rule),
        "example4-lift": (["--family", "example4", "--lift"], (2.0, 2.0),
                          sum_rule + [(f"|height| <= {bound:g}", lambda d, X, Y: lifted_height(d, X) <= bound)]),
        "example5": (["--family", "example5"], (np.pi / 2, bound),
                     [("|x| < pi/2", lambda d, X, Y: X < np.pi / 2), (f"|y| <= {bound:g}", lambda d, X, Y: Y <= bound)]),
        "phi0": (["--family", "phi0"], (np.pi / 2, bound * s),
                 [("|x| < pi/2 - 0.0005", lambda d, X, Y: X < np.pi / 2 - 5e-4),
                  (f"|y| <= {bound * s:.6g}", lambda d, X, Y: Y <= bound * s)]),
        "torus": (["--family", "torus", "--a", "2", "--b", "1"], (10.0, 10.0), []),
        "torus-lift": (["--family", "torus", "--a", "2", "--b", "1", "--lift"], (10.0, 10.0), []),
    }


@pytest.mark.parametrize("name", list(_family_rules()))
def test_every_family_builds_on_the_rectangle_it_is_given(name):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from pmcsurf.cli import build_chart, build_parser
    from pmcsurf.errors import InfeasibleParameters
    from pmcsurf.families import PLANE

    family, scales, rules = _family_rules()[name]
    rules = rules + [(f"|x|, |y| <= {PLANE:g}", lambda d, X, Y: max(X, Y) <= PLANE)]
    parser = build_parser()

    def span(scale):
        # both ends within the stated scale, around it, across the plane, or anywhere on the float line
        ends = [st.floats(-scale, scale), st.floats(-2 * scale, 2 * scale), st.floats(-2 * PLANE, 2 * PLANE),
                st.floats(allow_nan=False, allow_infinity=False)]
        return st.one_of(*(st.lists(e, min_size=2, max_size=2, unique=True).map(sorted) for e in ends))

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(x=span(scales[0]), y=span(scales[1]))
    def check(x, y):
        request = (*x, *y)
        X, Y = max(-x[0], x[1]), max(-y[0], y[1])
        refused = next((clause for clause, holds in rules if not holds(request, X, Y)), None)
        args = parser.parse_args(["verify", *family, "--domain=" + ",".join(map(repr, request))])
        if refused is not None:
            with pytest.raises(InfeasibleParameters) as exc:
                build_chart(args)
            assert exc.value.clause == refused
            return
        chart = build_chart(args)
        assert chart.domain == request
        xs = np.array([x[0], x[1], x[0], x[1], 0.5 * (x[0] + x[1])])
        ys = np.array([y[0], y[0], y[1], y[1], 0.5 * (y[0] + y[1])])
        for value in chart.jet(xs, ys).values():
            assert np.all(np.isfinite(value))

    check()
