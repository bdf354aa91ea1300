"""The benchmark's three workloads: inputs drawn from a seed, operations, gates.

Every operation is one call (or one short chain of calls) into pmcsurf's
public API and returns ``(checks, figures)``.  A check is a gate with the
tolerance taken from an existing source, named in ``Check.source``; a figure
is an accuracy number reported beside the layer's time but not gated.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import re
from pathlib import Path

import numpy as np

from pmcsurf import cli
from pmcsurf import correspondence as corr
from pmcsurf import diffgeo as dg
from pmcsurf import families as fam
from pmcsurf import profile as prof

VERIFY = "cli.cmd_verify"
TEST_CORR = "tests/test_correspondence.py"
CRITERION_05 = "tests/test_acceptance.py criterion 05"
LIBRARY = "library raise-gate"

SINH_RANGE = (-2.5, -1.5)
SN_RANGE = (1.8, 2.4)


@dataclasses.dataclass(frozen=True)
class Check:
    label: str
    value: float
    tol: float  # None for a pass/fail condition without a margin
    source: str

    @property
    def ok(self):
        return bool(self.value) if self.tol is None else self.value <= self.tol

    @property
    def margin(self):
        return None if self.tol is None else self.value / self.tol


@dataclasses.dataclass(frozen=True)
class Members:
    """The sinh member (eps=-1, b=1, c=0) and the sn member (eps=+1, b=1, c=0)."""

    a_sinh: float
    a_sn: float


def draw_members(rng, seed):
    """Seed 0 gives the named members a=-2 and a=2; other seeds draw from the ranges."""
    if seed == 0:
        return Members(-2.0, 2.0)
    return Members(rng.uniform(*SINH_RANGE), rng.uniform(*SN_RANGE))


def sinh_profile(a):
    params = prof.ProfileParams(-1, a, 1.0, 0.0)
    return params, prof.closed_form("sinh_family", params, x_span=(-1.2, 1.2))


def sn_profile(a):
    params = prof.ProfileParams(+1, a, 1.0, 0.0)
    return params, prof.closed_form("sn_family", params, x_span=(-1.5, 1.5))


def sinh_member(a):
    params, h = sinh_profile(a)
    return fam.pmc_profile_family(params, h, y_span=(-1.0, 1.0))


# ---------------------------------------------------------------------------
# certify: a few large vectorised calls
# ---------------------------------------------------------------------------


def product_checks(chart, inv, tol=1e-4):
    """The gates ``cmd_verify`` applies to a product chart (``--tol`` default 1e-4)."""
    checks = [
        Check("conformal_defect", float(np.max(inv.conformal_defect)), 1e-6, VERIFY),
        Check("parallelism", inv.parallelism_residual, 1e-5, VERIFY),
    ]
    checks += [Check(k, v, tol, VERIFY) for k, v in sorted(inv.identity_residuals.items())]
    checks += [
        Check("dzbar_theta1", inv.holomorphy["dzbar_theta1_scaled"], 1e-3, VERIFY),
        Check("dzbar_theta2", inv.holomorphy["dzbar_theta2_scaled"], 1e-3, VERIFY),
        Check("curvature_bound", max(dg.curvature_bound_excess(inv), 0.0), 1e-6, VERIFY),
    ]
    expected = chart.metadata.get("hopf_expected")
    if expected is not None:
        d_keep = max(float(np.max(np.abs(inv.theta1 - expected[0]))),
                     float(np.max(np.abs(inv.theta2 - expected[1]))))
        d_swap = max(float(np.max(np.abs(inv.theta1 - expected[1]))),
                     float(np.max(np.abs(inv.theta2 - expected[0]))))
        hopf_tol = 1e-7 if expected[0] == 0 and expected[1] == 0 else 1e-5
        checks.append(Check("hopf_values", min(d_keep, d_swap), hopf_tol, VERIFY))
    return checks


def cmc_checks(chart, ar, tol=1e-4):
    """The gates ``cmd_verify`` applies to a chart into M2(eps) x R."""
    checks = [
        Check("conformal_defect", ar.residuals["conformal_defect"], 1e-6, VERIFY),
        Check("H_spread", ar.residuals["H_spread"], 1e-6, VERIFY),
        Check("eta_z_law", ar.residuals["eta_z_law"], tol, VERIFY),
        Check("dzbar_theta_ar", ar.residuals["dzbar_theta_ar_scaled"], 1e-3, VERIFY),
    ]
    expected = chart.metadata.get("theta_ar_expected")
    if expected is not None:
        checks.append(Check("theta_ar_value", float(np.max(np.abs(ar.theta_ar - expected))), 1e-4, VERIFY))
    return checks


class Certify:
    name = "certify"
    grids = (61, 81)

    def setup(self, members):
        sinh_params, sinh_h = sinh_profile(members.a_sinh)
        sn_params, sn_h = sn_profile(members.a_sn)
        torus = fam.cmc_torus(2.0, 1.0)
        return {
            "sinh": fam.pmc_profile_family(sinh_params, sinh_h, y_span=(-1.0, 1.0)),
            "sn": fam.pmc_profile_family(sn_params, sn_h, y_span=(-1.0, 1.0)),
            "prop6": fam.cmc_profile_family(sinh_params, sinh_h, y_span=(-1.0, 1.0)),
            "example4": fam.cmc_sinh_chart(1.0),
            "torus": torus,
            "lifted_torus": fam.geodesic_inclusion(torus),
        }

    def operations(self, charts, rng, tracer):
        ops = []
        for member in ("sinh", "sn"):
            for n in self.grids:
                ops.append((f"surface_invariants/{member}/{n}", self._invariants(charts[member], n)))
        for name in ("prop6", "example4", "torus"):
            ops.append((f"abresch_rosenberg/{name}", self._abresch_rosenberg(charts[name])))
        ops.append(("torus_integrals/lifted_torus", self._torus_integrals(charts["lifted_torus"])))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _invariants(chart, n):
        def op():
            inv = dg.surface_invariants(chart, nx=n, ny=n)
            figures = {
                "diffgeo.identity_residuals.worst": max(inv.identity_residuals.values()),
                "diffgeo.parallelism_residual.value": inv.parallelism_residual,
            }
            return product_checks(chart, inv), figures

        return op

    @staticmethod
    def _abresch_rosenberg(chart):
        def op():
            return cmc_checks(chart, dg.abresch_rosenberg(chart, nx=81, ny=81)), {}

        return op

    @staticmethod
    def _torus_integrals(chart):
        def op():
            ints = dg.torus_integrals(chart, nx=128, ny=128)
            int_c = max(abs(ints["intC1"]), abs(ints["intC2"]))
            deg = max(abs(ints["deg_phi"]), abs(ints["deg_psi"]))
            return [
                Check("int_C_dA", int_c, 1e-3 * ints["area"], CRITERION_05),
                Check("degree", deg, 1e-3, CRITERION_05),
            ], {}

        return op


# ---------------------------------------------------------------------------
# correspond: many row-sized calls through the fields closure
# ---------------------------------------------------------------------------


class Correspond:
    """The full round trip on the sinh member at 41 x 41.

    The sn member is left out here: its chart takes 4.3 s to build, which
    set-up would repeat, and its round trip 22 s, which together do not fit
    the benchmark's run budget.  It is covered by certify and battery.
    """

    name = "correspond"
    n = 41

    def setup(self, members):
        return sinh_member(members.a_sinh)

    def operations(self, chart, rng, tracer):
        """One chain; the seed shuffles the order of the j=1 and j=2 branches."""
        st = {}
        cmc = "correspondence.integrate_cmc_frenet"
        pmc = "correspondence.integrate_pmc_frenet"

        def extract():
            data = corr.extract_pmc_data(chart, nx=self.n, ny=self.n)
            if tracer is not None:
                tracer.wrap_fields(data)
            st["data"] = data
            par = data.residuals["parallelism"]
            return [Check("extract_parallelism", par, corr.PARALLELISM_GATE, LIBRARY)], {
                "diffgeo.parallelism_residual.value": par
            }

        def to_cmc(j):
            def op():
                st[j] = corr.pmc_to_cmc(st["data"], j)
                return [], {}

            return op

        def integrate_cmc(j):
            def op():
                st[f"rec{j}"], rep = corr.integrate_cmc_frenet(st[j])
                figures = {f"{cmc}.{k}": rep[k] for k in ("loop_closure", "H_match", "theta_ar_match")}
                return [Check(f"cmc_j{j}_H_match", rep["H_match"], 1e-6, TEST_CORR)], figures

            return op

        def congruence():
            verdict = corr.weak_congruence_check(st["rec1"], st["rec2"], nx=17, ny=17)
            return [
                Check("weak_congruence_distance", verdict.distance, 1e-3, TEST_CORR),
                Check("weak_congruence_conj", verdict.congruent and verdict.domain_map == "conj", None, TEST_CORR),
            ], {"correspondence.weak_congruence_check.distance": verdict.distance}

        def to_pmc():
            st["back"] = corr.cmc_to_pmc(st[1], st[2])
            return [], {}

        def integrate_pmc():
            st["recP"], rep = corr.integrate_pmc_frenet(st["back"])
            figures = {f"{pmc}.{k}": rep[k] for k in ("loop_closure", "parallelism", "theta_match")}
            return [
                Check("pmc_H_match", rep["H_match"], 1e-6, TEST_CORR),
                Check("pmc_parallelism", rep["parallelism"], 1e-4, TEST_CORR),
            ], figures

        def alignment():
            dist = corr.product_alignment_distance(st["recP"], chart, nx=15, ny=15)
            return [Check("product_alignment", dist, 1e-4, TEST_CORR)], {
                "correspondence.product_alignment_distance.value": dist
            }

        def nodes_only():
            # node-only input takes the spline path; only the library's own
            # raise-gates decide, and the loop closure is reported as a figure
            _, rep = corr.integrate_pmc_frenet(dataclasses.replace(st["back"], fields=None))
            return [], {f"{pmc}.nodes_only.loop_closure": rep["loop_closure"]}

        js = [1, 2]
        rng.shuffle(js)
        return [
            ("extract_pmc_data", extract),
            *[(f"pmc_to_cmc/j{j}", to_cmc(j)) for j in js],
            *[(f"integrate_cmc_frenet/j{j}", integrate_cmc(j)) for j in js],
            ("weak_congruence_check", congruence),
            ("cmc_to_pmc", to_pmc),
            ("integrate_pmc_frenet", integrate_pmc),
            ("product_alignment_distance", alignment),
            ("integrate_pmc_frenet/nodes_only", nodes_only),
        ]


# ---------------------------------------------------------------------------
# battery: the CLI in-process, as users run it
# ---------------------------------------------------------------------------

_CHECK_LINE = re.compile(r"^(\S+) = (\S+)  tol = (\S+)  (PASS|FAIL)$")


def _cli(argv):
    """Run ``pmcsurf.cli.main`` with its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _report_checks(path, label):
    checks = []
    for line in path.read_text().splitlines():
        m = _CHECK_LINE.match(line)
        if m:
            checks.append(Check(f"{label}:{m.group(1)}", float(m.group(2)), float(m.group(3)), VERIFY))
    return checks


def digests(root):
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class Battery:
    name = "battery"
    artifacts_file = Path(__file__).with_name("artifacts_seed0.json")

    def __init__(self, out_dir, seed):
        self.out = Path(out_dir)
        self.seed = seed

    def setup(self, members):
        return members  # set-up is the import only: the CLI builds its charts inside the timed loop

    def operations(self, members, rng, tracer):
        ops = [
            ("cli.report", self._report),
            ("cli.verify_negative", self._verify_negative(members.a_sinh)),
            ("cli.generate", self._generate(members.a_sn)),
        ]
        rng.shuffle(ops)
        return [(name, self._spanned(name, fn, tracer)) for name, fn in ops]

    @staticmethod
    def _spanned(name, fn, tracer):
        if tracer is None:
            return fn

        def op():
            with tracer.span(name):
                return fn()

        return op

    def _report(self):
        out = self.out / "report"
        code, _ = _cli(["report", "--out", str(out)])
        checks = [Check("report_exit_0", code == 0, None, VERIFY)]
        for path in sorted(out.glob("verify_*.txt")):
            checks += _report_checks(path, path.stem)
        return checks, {}

    def _verify_negative(self, a):
        def op():
            out = self.out / "verify"
            code, _ = _cli([
                "verify", "--family", "prop4", "--eps", "-1", "--a", repr(a), "--b", "1",
                "--c", "0", "--corrupt-height", "1.01", "--out", str(out),
            ])
            verdict = [line for p in out.glob("verify_*.txt") for line in p.read_text().splitlines()
                       if line.startswith("verdict=")]
            failing = verdict[0].split(":", 1)[1].split(", ") if verdict and ":" in verdict[0] else []
            # the negative control passes only when verify fails on parallelism;
            # its residuals are expected to exceed their tolerances, so no margins
            return [Check("negative_control_exit_1", code == 1, None, VERIFY),
                    Check("negative_control_names_parallelism",
                          "parallelism" in [f.strip() for f in failing], None, VERIFY)], {}

        return op

    def _generate(self, a):
        def op():
            out = self.out / "generate"
            code, printed = _cli([
                "generate", "--family", "prop4", "--eps", "1", "--a", repr(a), "--b", "1",
                "--c", "0", "--domain=-1.6,1.6,-1,1", "--nx", "81", "--ny", "81", "--out", str(out),
            ])
            files = [Path(line) for line in printed.splitlines() if line.strip()]
            meta = {}
            for path in files:
                if path.name.endswith("_metadata.txt"):
                    meta = dict(line.split("=", 1) for line in path.read_text().splitlines())
            checks = [
                Check("generate_exit_0", code == 0 and all(p.is_file() for p in files), None, VERIFY),
                Check("generate_parallelism", float(meta.get("parallelism_residual", "inf")), 1e-5, VERIFY),
                Check("generate_conformal_defect", float(meta.get("max_conformal_defect", "inf")), 1e-6, VERIFY),
            ]
            written = sum(p.stat().st_size for p in files if p.is_file())
            return checks, {"cli.bytes_written": written}

        return op

    def artifacts_changed(self):
        """CLI output files whose digest differs from the recorded seed-0 run.

        The report runs at fixed defaults, so its files are compared on every
        seed; the seeded verify and generate files only on seed 0.
        """
        baseline = json.loads(self.artifacts_file.read_text())
        current = digests(self.out)
        keys = [k for k in baseline if self.seed == 0 or k.startswith("report/")]
        return sum(current.get(k) != baseline[k] for k in keys)

    def record_artifacts(self):
        self.artifacts_file.write_text(json.dumps(digests(self.out), indent=1, sort_keys=True) + "\n")


def make(name, out_dir, seed):
    if name == "certify":
        return Certify()
    if name == "correspond":
        return Correspond()
    if name == "battery":
        return Battery(out_dir, seed)
    raise KeyError(name)
