import numpy as np
import pytest

from pmcsurf.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_VERIFICATION, main


def read_obj_vertices(path):
    verts = []
    for line in path.read_text().splitlines():
        if line.startswith("v "):
            verts.append([float(t) for t in line.split()[1:]])
    return np.array(verts)


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


def test_grids_below_five_points_are_rejected(tmp_path, capsys):
    for command in ("verify", "generate"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--family", "T", "--a", "0.6", "--b", "0.8", "--nx", "1", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "at least 5 points" in capsys.readouterr().err


def test_failed_precondition_is_a_typed_exit(tmp_path, capsys):
    # 9 x 9 is too coarse for the Frenet data: integrate_cmc_frenet refuses them
    code = main(["correspond", "--nx", "9", "--ny", "9", "--out", str(tmp_path)])
    assert code == EXIT_VERIFICATION
    assert "error: data residuals too large to integrate" in capsys.readouterr().err


@pytest.mark.parametrize(
    "family, domain, own",
    [
        # the second factor is a sampled curve: past its nodes there is nothing to verify
        (["--family", "phi0", "--hnorm", "0.25"], "--domain=-1.4,1.4,-1,1", "-0.923628,0.923628,-1.5,1.5"),
        (["--family", "example2"], "--domain=-1.4,1.4,-1,1", "-1.176,1.176,-1.2,1.2"),
        # the height -log cos x has no value past x = pi/2, yet every residual
        # that verify checks reads only its derivatives
        (["--family", "example5"], "--domain=-1.8,1.8,-1,1", "-1.3823,1.3823,-1.2,1.2"),
    ],
)
def test_domain_the_chart_cannot_evaluate_is_infeasible(tmp_path, capsys, family, domain, own):
    code = main(["verify", *family, domain, "--nx", "17", "--ny", "17", "--out", str(tmp_path)])
    assert code == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert f"its own domain is {own}" in err
    assert not list(tmp_path.glob("verify_*.txt"))


@pytest.mark.parametrize(
    "family, domain",
    [
        (["--family", "phi0", "--hnorm", "0.25"], "--domain=-0.9,0.9,-1,1"),
        (["--family", "T", "--a", "0.6", "--b", "0.8"], "--domain=-9,9,-9,9"),
    ],
)
def test_domain_overrides_the_chart_can_evaluate_still_verify(tmp_path, family, domain):
    # narrower than the sampled curve, or any rectangle of a closed-form family
    code = main(["verify", *family, domain, "--nx", "33", "--ny", "33", "--out", str(tmp_path)])
    assert code == EXIT_OK
    report = next(tmp_path.glob("verify_*.txt")).read_text()
    assert "verdict=PASS" in report


@pytest.mark.parametrize("step", ["0", "-1e-3", "nan", "inf"])
def test_fd_step_must_be_positive_and_finite(tmp_path, capsys, step):
    # a zero step divides by zero, and a verdict on the NaN residuals would mean nothing
    for family in (["--family", "T", "--a", "0.6", "--b", "0.8"], ["--family", "example4"]):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *family, f"--fd-step={step}", "--nx", "9", "--ny", "9", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "argument --fd-step: must be positive and finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("verify_*.txt"))


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
