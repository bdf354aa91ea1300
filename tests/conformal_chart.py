"""Conformal reparametrisation of a chart: the oracle of charts with two-variable data.

``conformal_chart`` composes a chart with a holomorphic map z = g(w) of a
w-rectangle.  The composite is the same surface, so every check must give the
same verdict, and each invariant moves by a classical law: u goes to
u(g) + log|g'|, C_j and |H| stay, and theta_j goes to theta_j(g) g'^2.  Unlike
the catalog charts, whose Frenet data depend on x alone, the composite's data
and Hopf differentials vary in both variables.  It is not part of the library.
"""

from dataclasses import replace

import numpy as np

from pmcsurf.errors import DomainError


def exp_map(k):
    """g(w) = (e^{kw} - 1) / k with g' and g'': the identity to first order at w = 0."""
    return (lambda w: np.expm1(k * w) / k, lambda w: np.exp(k * w), lambda w: k * np.exp(k * w))


def _image_leaves(domain, z):
    x0, x1, y0, y1 = domain
    return bool(np.any(z.real < x0) or np.any(z.real > x1) or np.any(z.imag < y0) or np.any(z.imag > y1))


def conformal_chart(chart, g, w_domain):
    """The chart w -> chart(g(w)) on the rectangle ``w_domain``, its 2-jet by the chain rule.

    ``g`` is (g, g', g'') of a holomorphic map.  With g' = a + ib and
    g'' = c + id, z = x + iy = g(s + it) has x_s = y_t = a, y_s = -x_t = b,
    x_ss = -x_tt = y_st = c and y_ss = -y_tt = -x_st = d.  Re g and Im g are
    harmonic, so the image of the rectangle lies in the parent domain once the
    image of its boundary does; a rectangle whose boundary image (1025 points a
    side) leaves the parent domain is refused with DomainError, and so is any
    sample that maps outside it.  The composite keeps no expected Hopf values:
    its theta_j are not constant.
    """
    g0, g1, g2 = g
    s0, s1, t0, t1 = w_domain
    side = np.linspace(0.0, 1.0, 1025)
    edges = np.concatenate([s0 + (s1 - s0) * side + 1j * t0, s0 + (s1 - s0) * side + 1j * t1,
                            s0 + 1j * (t0 + (t1 - t0) * side), s1 + 1j * (t0 + (t1 - t0) * side)])
    if _image_leaves(chart.domain, g0(edges)):
        raise DomainError("the image of the w-rectangle leaves the parent chart's domain")

    def jet(s, t):
        w = np.asarray(s, dtype=float) + 1j * np.asarray(t, dtype=float)
        z = g0(w)
        if _image_leaves(chart.domain, z):
            raise DomainError("samples map outside the parent chart's domain")
        P = chart.jet(z.real, z.imag)
        d1, d2 = g1(w), g2(w)
        a, b, c, d = d1.real, d1.imag, d2.real, d2.imag
        px, py, pxx, pxy, pyy = P["px"], P["py"], P["pxx"], P["pxy"], P["pyy"]
        return dict(
            p=P["p"],
            px=a * px + b * py,
            py=-b * px + a * py,
            pxx=a * a * pxx + 2 * a * b * pxy + b * b * pyy + c * px + d * py,
            pxy=-a * b * pxx + (a * a - b * b) * pxy + a * b * pyy - d * px + c * py,
            pyy=b * b * pxx - 2 * a * b * pxy + a * a * pyy - c * px - d * py,
        )

    metadata = {k: v for k, v in chart.metadata.items() if k != "hopf_expected"}
    return replace(chart, name=f"{chart.name}(conformal)", domain=tuple(w_domain), jet=jet, metadata=metadata,
                   periods=None)
