import csv

import numpy as np
import pytest

from pmcsurf.utils import write_columns_csv


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
