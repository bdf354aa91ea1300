import csv
import os
import resource
from types import SimpleNamespace

import numpy as np
import pytest

from pmcsurf import utils
from pmcsurf.diffgeo import surface_invariants
from pmcsurf.families import pmc_profile_family
from pmcsurf.profile import ProfileParams, closed_form
from pmcsurf.utils import keep_freed_pages, write_columns_csv


def _glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def _malloc_tunables():
    return [k for k in os.environ if k == "GLIBC_TUNABLES" or (k.startswith("MALLOC_") and k.endswith("_"))]


glibc_only = pytest.mark.skipif(not _glibc(), reason="the malloc thresholds are glibc's")


class _Mallopt:
    """Stands in for libc's mallopt: records its calls instead of making them."""

    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 1


def _fake_libc(monkeypatch):
    """Make ctypes.CDLL(None) answer a recording mallopt; return its list of calls."""
    mallopt = _Mallopt()
    monkeypatch.setattr(utils.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    return mallopt.calls


@glibc_only
def test_keep_freed_pages_sets_both_thresholds(monkeypatch):
    for name in _malloc_tunables():
        monkeypatch.delenv(name)
    calls = _fake_libc(monkeypatch)
    keep_freed_pages()
    # M_MMAP_THRESHOLD = -3 at 32 MiB, M_TRIM_THRESHOLD = -1 at 64 MiB
    assert calls == [(-3, 32 << 20), (-1, 64 << 20)]


@glibc_only
@pytest.mark.parametrize("name", ["GLIBC_TUNABLES", "MALLOC_TRIM_THRESHOLD_"])
def test_keep_freed_pages_leaves_set_tunables_alone(monkeypatch, name):
    monkeypatch.setenv(name, "glibc.malloc.trim_threshold=131072" if name == "GLIBC_TUNABLES" else "131072")
    calls = _fake_libc(monkeypatch)
    keep_freed_pages()
    assert calls == []


@glibc_only
@pytest.mark.skipif(bool(_malloc_tunables()), reason="glibc's malloc tunables are set, so the import kept its hands off")
def test_repeated_invariant_calls_fault_in_few_pages():
    # the import fixed glibc's thresholds, so a repeated large call finds its pages still mapped:
    # glibc's dynamic defaults refault about 2,300 pages on each of these calls
    params = ProfileParams(-1, -2.0, 1.0, 0.0)
    chart = pmc_profile_family(params, closed_form("sinh_family", params, x_span=(-1.2, 1.2)))
    faults = []
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        surface_invariants(chart, 81, 81)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert faults[2] < 200, faults


def test_write_columns_csv_bytes(tmp_path):
    # csv.writer ends rows with \r\n; the pinned CLI artifact digests depend on it
    cols = {"x": np.array([0.5, -1.25]), "h": np.array([np.pi, 1e-300])}
    out = tmp_path / "cols.csv"
    write_columns_csv(out, cols)
    assert out.read_bytes() == (
        b"x,h\r\n"
        b"5.000000000000e-01,3.141592653590e+00\r\n"
        b"-1.250000000000e+00,1.000000000000e-300\r\n"
    )
    write_columns_csv(out, cols, fmt=".16e")
    assert out.read_bytes() == (
        b"x,h\r\n"
        b"5.0000000000000000e-01,3.1415926535897931e+00\r\n"
        b"-1.2500000000000000e+00,1.0000000000000000e-300\r\n"
    )


def _row_write_columns_csv(path, columns, fmt=".12e"):
    """The CSV writer write_columns_csv replaced: one csv.writer row per value tuple."""
    flat = [np.asarray(c).ravel() for c in columns.values()]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in zip(*flat):
            writer.writerow([format(v, fmt) for v in row])


@pytest.mark.parametrize("fmt", [".12e", ".16e"])
def test_write_columns_csv_matches_the_row_writer(tmp_path, fmt):
    rng = np.random.default_rng(5)
    special = np.array([-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324])
    x = rng.standard_normal((5, 3)) * 10.0 ** rng.integers(-8, 9, size=(5, 3))
    x.flat[: len(special)] = special
    z = rng.standard_normal(15) + 1j * rng.standard_normal(15)
    z[: len(special)] = special - 1j * special[::-1]
    cols = {"x": x, "re": z.real, "z": z, "n": np.arange(15.0)}
    write_columns_csv(tmp_path / "new.csv", cols, fmt=fmt)
    _row_write_columns_csv(tmp_path / "old.csv", cols, fmt=fmt)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
