"""Signature-aware linear algebra on the factor M2(eps) and the product M2(eps) x M2(eps).

The factor is the unit sphere S2 in Euclidean 3-space (eps = +1) or the upper
hyperboloid sheet x1^2 + x2^2 - x3^2 = -1, x3 > 0, in Lorentz 3-space with
signature (+, +, -) (eps = -1).  The product sits in R^6 with the block metric.

Orientation convention fixed here once and for all: the factor complex
structure is J v = cross_eps(p, v), the signed cross product for which
J(1,0,0) = (0,1,0) at the point p = (0,0,1) for both signatures.  All signs of
Kaehler functions and Hopf coefficients downstream inherit this choice.

Components lead: a point or vector of the factor is an array shaped (3, ...),
of the product (6, ...), and of M2(eps) x R (4, ...); the trailing axes hold
the samples, and they broadcast.  This is the one layout of every vector the
package holds, from a chart's jet and a curve's jet to the records.  Every operation reads whole components
(v[0], v[1], ...) and works elementwise over the samples, so its bits depend
on the values only, not on how the operands lie in memory; on a C-ordered
array each component is one contiguous block.
"""

from functools import cache

import numpy as np

from .errors import DomainError, PreconditionError

# Tolerance for tangency / on-manifold preconditions.
TANGENCY_TOL = 1e-8


def check_eps(eps):
    """Validate the signature flag and return it as a plain int."""
    eps = int(eps)
    if eps not in (+1, -1):
        raise DomainError(f"eps must be +1 or -1, got {eps}")
    return eps


@cache
def metric_diag(eps, dim=3):
    """Diagonal of the flat metric: (+,+,eps) per factor block, then +1 for the R factor.

    dim 3 is the factor, 4 the factor times R and 6 the product.  Each
    diagonal is built once and shared read-only, since ``inner`` asks for it
    on every call.
    """
    block = [1.0, 1.0, float(check_eps(eps))]
    rows = {3: block, 4: block + [1.0], 6: block + block}
    if dim not in rows:
        raise DomainError(f"unsupported dimension {dim}")
    g = np.array(rows[dim])
    g.flags.writeable = False
    return g


def inner(v, w, eps):
    """Bilinear signature-weighted product (no conjugation) on R^3, R^4 or R^6.

    The weights follow the leading axis of v: the factor M2(eps), the factor
    times R, or the product M2(eps) x M2(eps).  The d component products are
    summed in index order, each added or subtracted by the sign of its weight.
    """
    v = np.asarray(v)
    w = np.asarray(w)
    g = metric_diag(eps, v.shape[0])
    total = v[0] * w[0]
    for k in range(1, len(g)):
        if g[k] > 0:
            total += v[k] * w[k]
        else:
            total -= v[k] * w[k]
    return total


def norm3(v, eps):
    return np.sqrt(inner(v, v, eps))


def cross_eps(a, b, eps):
    """Signed cross product: the vector with <cross_eps(a,b), c>_eps = det(a,b,c).

    For eps=+1 this is the Euclidean cross product; for eps=-1 the Euclidean
    cross product with the third component negated.  The components are
    written out: the same products and differences, in the same order, as
    numpy's cross, without its per-call overhead, which dominates on single
    3-vectors.  Real and complex inputs broadcast over the sample axes.  The
    components are written into one array, and eps = -1 multiplies it in place
    by (1, 1, -1): a product, not a negation of the third component, because
    a complex component times 1 + 0j is not itself when its parts are signed
    zeros, and numpy's cross followed by that product is the reference.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    a0, a1, a2 = a
    b0, b1, b2 = b
    c = np.empty((3, *np.broadcast_shapes(a.shape[1:], b.shape[1:])), dtype=np.result_type(a, b, 1.0))
    np.subtract(a1 * b2, a2 * b1, out=c[0, ...])
    np.subtract(a2 * b0, a0 * b2, out=c[1, ...])
    np.subtract(a0 * b1, a1 * b0, out=c[2, ...])
    if check_eps(eps) == -1:
        np.multiply(c, metric_diag(-1).reshape((3,) + (1,) * (c.ndim - 1)), out=c)
    return c


def tangent_project3(p, v, eps):
    """Project v onto the tangent plane of M2(eps) at p."""
    coef = inner(v, p, eps)
    return np.asarray(v) - check_eps(eps) * coef * np.asarray(p)


def factor_j(p, v, eps, check=True):
    """Rotation by +90 degrees in T_p M2(eps): J v = cross_eps(p, v).

    Satisfies J(Jv) = -v, |Jv| = |v| and <Jv, v> = 0 on tangent vectors.
    Complex vectors are accepted (J extends complex-linearly).
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v)
    if check:
        defect = np.abs(inner(p, v, eps))
        if np.any(defect > TANGENCY_TOL):
            raise PreconditionError(
                f"vector not tangent: max |<p,v>_eps| = {float(np.max(defect)):.3e} > {TANGENCY_TOL:.1e}"
            )
    return cross_eps(p, v, eps)


def product_j_pair(P, V, eps):
    """(J1 V, J2 V) for the product complex structures J1 = (J, J) and J2 = (J, -J).

    One ``cross_eps`` per factor block serves both: J2 V is J1 V with its second
    block negated, which is exact.  Tangency is not checked; ``factor_j`` is the
    checked J.
    """
    P = np.asarray(P, dtype=float)
    V = np.asarray(V)
    first, second = cross_eps(P[:3], V[:3], eps), cross_eps(P[3:], V[3:], eps)
    return np.concatenate([first, second]), np.concatenate([first, -second])


def factor_constraint(p, eps):
    """Residual <p,p>_eps - eps of the quadric constraint."""
    return inner(p, p, eps) - check_eps(eps)


def project_to_factor(p, eps):
    """Rescale p radially onto M2(eps); for eps=-1 the point must have x3 > 0."""
    p = np.asarray(p, dtype=float)
    q = check_eps(eps) * inner(p, p, eps)
    if np.any(q <= 0):
        raise DomainError("point cannot be projected onto the quadric (wrong causal type)")
    return p / np.sqrt(q)


def orientation_dual(P, v1, v2, v3, eps):
    """The vector n with <n, w> = (pi1*omega ^ pi2*omega)(v1, v2, v3, w) for every w.

    omega is the factor Kaehler form omega(X, Y) = <JX, Y>, and omega_k its
    pull-back to factor block k.  Expanding the wedge along w pairs each
    block's J v_i with the other block's two-form on the remaining two
    vectors, so block k of n is

        omega_l(v2, v3) J v1 - omega_l(v1, v3) J v2 + omega_l(v1, v2) J v3,

    l the other block.  Every J v_i is tangent to its factor, so n is tangent
    to the product, and g-orthogonal to v1, v2 and v3.
    """
    P = np.asarray(P, dtype=float)
    vs = [np.asarray(v) for v in (v1, v2, v3)]

    def factor(sl):
        # J v_i on the block, and omega_k(v2, v3), omega_k(v1, v3), omega_k(v1, v2)
        Jv = [cross_eps(P[sl], v[sl], eps) for v in vs]
        return Jv, [inner(Jv[i], vs[j][sl], eps) for i, j in ((1, 2), (0, 2), (0, 1))]

    (J1, w1), (J2, w2) = factor(slice(0, 3)), factor(slice(3, 6))

    def block(Jv, w):
        return w[0] * Jv[0] - w[1] * Jv[1] + w[2] * Jv[2]

    return np.concatenate([block(J1, w2), block(J2, w1)])


def orientation_form(P, v1, v2, v3, v4, eps):
    """The orientation 4-form pi1*omega ^ pi2*omega of the product, evaluated on a frame.

    A positive value means (v1, v2, v3, v4) is positively oriented.
    """
    return inner(orientation_dual(P, v1, v2, v3, eps), v4, eps)
