import numpy as np

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
