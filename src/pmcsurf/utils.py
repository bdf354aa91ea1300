"""Small numerical helpers shared across modules."""

import csv
import ctypes
import itertools
import os

import numpy as np

from .errors import DomainError, InfeasibleParameters

CUMULATIVE_NODES = 4001
# mallopt(3) parameter numbers of glibc's malloc.h
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def keep_freed_pages():
    """Let glibc's malloc keep freed heap pages in the process for the next large call.

    By default glibc maps each array above its dynamic mmap threshold afresh and
    returns the top of the heap to the kernel once 128 KiB lie free there, so each
    large vectorised call faults in again the pages the previous one gave back.
    Fixing the mmap threshold at 32 MiB and the trim threshold at 64 MiB, the
    ceilings glibc's dynamic thresholds climb to on 64-bit, serves arrays up to
    32 MiB from the heap and keeps their pages once freed.  Only where the
    bytes live changes, never a value.  Off glibc, or when the process started
    with glibc's malloc tunables set (``GLIBC_TUNABLES`` or a ``MALLOC_*_``
    variable), nothing is done, and nothing is raised.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):
        return
    if any(k == "GLIBC_TUNABLES" or (k.startswith("MALLOC_") and k.endswith("_")) for k in os.environ):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def require_step(step, march):
    """``InfeasibleParameters`` unless the step of ``march`` is positive and finite."""
    if not (np.isfinite(step) and step > 0):
        raise InfeasibleParameters(f"the {march} needs a positive finite step, got {step:g}", "step > 0")


def span_from_zero(x_span, march):
    """The ends (x0, x1) of a span ``march`` runs over from x = 0; InfeasibleParameters without 0."""
    x0, x1 = float(x_span[0]), float(x_span[1])
    if not x0 <= 0.0 <= x1 or x1 <= x0:
        msg = f"the {march} starts at x = 0, so x = 0 must lie in the span and x0 < x1; got [{x0:.6g}, {x1:.6g}]"
        raise InfeasibleParameters(msg, "x0 <= 0 <= x1, x0 < x1")
    return x0, x1


def hermite_interp(xg, y, yp, x):
    """Cubic Hermite interpolation on a uniform grid xg.

    ``y`` and ``yp`` hold node values and slopes, shaped (n,) or (d, n),
    and the result is shaped x.shape or (d, *x.shape); ``x`` may be any array.  An x outside [xg[0], xg[-1]] by more than a
    round-off slack of 1e-9 node spacings raises ``DomainError``: the end
    cubics are not extended past the data.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    yp = np.asarray(yp)
    dx = xg[1] - xg[0]
    slack = 1e-9 * dx
    if np.any(x < xg[0] - slack) or np.any(x > xg[-1] + slack):
        raise DomainError(f"interpolation outside the node span [{xg[0]:.6g}, {xg[-1]:.6g}]")
    i = np.clip(((x - xg[0]) / dx).astype(int), 0, len(xg) - 2)
    t = (x - xg[i]) / dx
    t2, t3 = t * t, t * t * t
    h00 = 2 * t3 - 3 * t2 + 1
    h10 = t3 - 2 * t2 + t
    h01 = -2 * t3 + 3 * t2
    h11 = t3 - t2
    return h00 * y[..., i] + h10 * dx * yp[..., i] + h01 * y[..., i + 1] + h11 * dx * yp[..., i + 1]


class CumulativeIntegral:
    """Dense antiderivative F(x) = int_lo^x g(t) dt on [lo, hi].

    Node values come from per-interval Simpson quadrature on
    ``CUMULATIVE_NODES`` nodes (global error O(step^4)); between nodes the pair
    (F, g) is completed by cubic Hermite interpolation, so F' is exactly g at
    evaluation points.
    """

    def __init__(self, g_fn, lo, hi):
        self.x = np.linspace(lo, hi, CUMULATIVE_NODES)
        step = self.x[1] - self.x[0]
        self.g_nodes = np.asarray(g_fn(self.x), dtype=float)
        g_mid = np.asarray(g_fn(self.x[:-1] + 0.5 * step), dtype=float)
        increments = (step / 6.0) * (self.g_nodes[:-1] + 4.0 * g_mid + self.g_nodes[1:])
        self.F = np.concatenate([[0.0], np.cumsum(increments)])

    def __call__(self, x):
        return hermite_interp(self.x, self.F, self.g_nodes, x)


def write_columns_csv(path, columns, fmt=".12e"):
    """Write named columns, each flattened in C order, as CSV rows under a header.

    ``columns`` maps header names to arrays of equal size; every value is
    written with the format spec ``fmt``.  The header goes through
    ``csv.writer``; the rows, which hold no character it would quote, come
    from one format template filled with the values as Python numbers, each
    row ending in \\r\\n as csv's rows do.
    """
    flat = [np.asarray(c).ravel().tolist() for c in columns.values()]
    row = ",".join(["{:" + fmt + "}"] * len(flat)) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(columns)
        fh.write((row * len(flat[0])).format(*itertools.chain.from_iterable(zip(*flat))))
