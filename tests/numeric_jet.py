"""The numeric jet: the oracle the tests hold the charts' exact jets against.

``fd_chart`` wraps a chart in a jet of centered second-order differences of
its points.  It is not part of the library: every chart answers its own exact
2-jet, and only the tests compare that jet with differences of ``evaluate``.
``holomorphy_residual`` is the same stencil for d/dz-bar of a field on a
uniform grid; the library differentiates spectrally, and the tests keep the
stencil to read the second-order decay of numeric jets.
"""

from dataclasses import replace

import numpy as np

from pmcsurf.errors import DomainError, InfeasibleParameters


def _stencil_leaves_domain(domain, x, y, margin):
    """Whether some sample, moved by +-margin along either axis, lies outside the domain."""
    x0, x1, y0, y1 = domain
    return bool(
        np.any(x - margin < x0 - 1e-12)
        or np.any(x + margin > x1 + 1e-12)
        or np.any(y - margin < y0 - 1e-12)
        or np.any(y + margin > y1 + 1e-12)
    )


def fd_chart(chart, step):
    """The chart, with name, domain and metadata kept, whose jet differences ``chart.evaluate``.

    The step must be positive and finite.  The jet makes nine ``evaluate``
    calls: at (x, y), the four axis shifts by +-step (each shared by the first
    and second difference along its axis) and the four diagonal shifts of the
    mixed difference.  A stencil x +- step, y +- step that leaves the chart
    domain (up to a 1e-12 slack) raises ``InfeasibleParameters`` (clause
    ``"fd_step"``), the step being too large for where the samples lie.
    """
    d = float(step)
    if not (np.isfinite(d) and d > 0):
        raise DomainError(f"fd_step must be positive and finite, got {step}")
    ev = chart.evaluate

    def jet(x, y):
        if _stencil_leaves_domain(chart.domain, x, y, d):
            x0, x1, y0, y1 = chart.domain
            shown = f"[{x0:.6g}, {x1:.6g}] x [{y0:.6g}, {y1:.6g}]"
            raise InfeasibleParameters(f"the difference stencil of fd_step {d:g} leaves the chart domain {shown}",
                                       "fd_step")
        p = ev(x, y)
        p_xp, p_xm = ev(x + d, y), ev(x - d, y)
        p_yp, p_ym = ev(x, y + d), ev(x, y - d)
        pxy = (ev(x + d, y + d) - ev(x + d, y - d) - ev(x - d, y + d) + ev(x - d, y - d)) / (4 * d**2)
        return dict(p=p, px=(p_xp - p_xm) / (2 * d), py=(p_yp - p_ym) / (2 * d),
                    pxx=(p_xp - 2 * p + p_xm) / d**2, pxy=pxy, pyy=(p_yp - 2 * p + p_ym) / d**2)

    return replace(chart, jet=jet)


def holomorphy_residual(theta, dx, dy):
    """(absolute, normalized) size of d/dz-bar of a field sampled on a uniform grid.

    The absolute value is max |d_zbar theta| over the interior, by centered
    differences (``np.gradient``, second order at the edges); the normalized
    one divides by max |theta| + 1e-12.  Grids smaller than 5x5 are rejected.
    """
    theta = np.asarray(theta)
    if theta.shape[0] < 5 or theta.shape[1] < 5:
        raise DomainError("holomorphy residual needs at least a 5x5 grid")
    dzb = 0.5 * (np.gradient(theta, dx, axis=0, edge_order=2) + 1j * np.gradient(theta, dy, axis=1, edge_order=2))
    absolute = float(np.max(np.abs(dzb[1:-1, 1:-1])))
    return absolute, absolute / (float(np.max(np.abs(theta))) + 1e-12)
