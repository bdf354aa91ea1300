"""Signature-aware linear algebra on the factor M2(eps) and the product M2(eps) x M2(eps).

The factor is the unit sphere S2 in Euclidean 3-space (eps = +1) or the upper
hyperboloid sheet x1^2 + x2^2 - x3^2 = -1, x3 > 0, in Lorentz 3-space with
signature (+, +, -) (eps = -1).  The product sits in R^6 with the block metric.

Orientation convention fixed here once and for all: the factor complex
structure is J v = cross_eps(p, v), the signed cross product for which
J(1,0,0) = (0,1,0) at the point p = (0,0,1) for both signatures.  All signs of
Kaehler functions and Hopf coefficients downstream inherit this choice.

All operations broadcast over leading array axes; points are rows of shape
(..., 3) and ambient vectors rows of shape (..., 6), or (..., 4) in M2(eps) x R.
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

    The weights follow the last axis of v: the factor M2(eps), the factor
    times R, or the product M2(eps) x M2(eps).
    """
    v = np.asarray(v)
    g = metric_diag(eps, v.shape[-1])
    return np.einsum("...i,...i->...", v * g, np.asarray(w))


def norm3(v, eps):
    return np.sqrt(inner(v, v, eps))


def cross_eps(a, b, eps):
    """Signed cross product: the vector with <cross_eps(a,b), c>_eps = det(a,b,c).

    For eps=+1 this is the Euclidean cross product; for eps=-1 the Euclidean
    cross product with the third component negated.  The components are
    written out: the same products and differences, in the same order, as
    numpy's cross, without its per-call overhead, which dominates on single
    3-vectors.  Real and complex inputs broadcast over leading axes.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    c = np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)
    if check_eps(eps) == -1:
        c = c * np.array([1.0, 1.0, -1.0])
    return c


def tangent_project3(p, v, eps):
    """Project v onto the tangent plane of M2(eps) at p."""
    coef = inner(v, p, eps)
    return np.asarray(v) - check_eps(eps) * coef[..., None] * np.asarray(p)


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


def product_j(which, P, V, eps, check=True):
    """The product complex structures J1 = (J, J) and J2 = (J, -J), blockwise."""
    if which not in (1, 2):
        raise DomainError(f"which must be 1 or 2, got {which}")
    P = np.asarray(P, dtype=float)
    V = np.asarray(V)
    out = np.empty_like(V)
    out[..., :3] = factor_j(P[..., :3], V[..., :3], eps, check=check)
    second = factor_j(P[..., 3:], V[..., 3:], eps, check=check)
    out[..., 3:] = second if which == 1 else -second
    return out


def factor_constraint(p, eps):
    """Residual <p,p>_eps - eps of the quadric constraint."""
    return inner(p, p, eps) - check_eps(eps)


def project_to_factor(p, eps):
    """Rescale p radially onto M2(eps); for eps=-1 the point must have x3 > 0."""
    p = np.asarray(p, dtype=float)
    q = check_eps(eps) * inner(p, p, eps)
    if np.any(q <= 0):
        raise DomainError("point cannot be projected onto the quadric (wrong causal type)")
    return p / np.sqrt(q)[..., None]


def tangent_basis(p, eps):
    """An orthonormal oriented tangent basis (e, Je) at each point p."""
    p = np.asarray(p, dtype=float)
    seeds = np.eye(3)
    # pick the seed axis least aligned with p, then project and normalize
    scores = np.stack([np.abs(inner(np.broadcast_to(s, p.shape), p, eps)) for s in seeds], axis=-1)
    idx = np.argmin(scores, axis=-1)
    seed = seeds[idx]
    e = tangent_project3(p, seed, eps)
    e = e / norm3(e, eps)[..., None]
    return e, factor_j(p, e, eps, check=False)


def two_form_wedge(alpha, beta, frame):
    """Evaluate (alpha ^ beta)(v1, v2, v3, v4) for 2-forms given as callables.

    ``frame`` is a sequence of four vectors; alpha and beta take two vectors.
    """
    v1, v2, v3, v4 = frame
    return (
        alpha(v1, v2) * beta(v3, v4)
        - alpha(v1, v3) * beta(v2, v4)
        + alpha(v1, v4) * beta(v2, v3)
        + alpha(v3, v4) * beta(v1, v2)
        - alpha(v2, v4) * beta(v1, v3)
        + alpha(v2, v3) * beta(v1, v4)
    )


def orientation_form(P, v1, v2, v3, v4, eps):
    """The orientation 4-form pi1*omega ^ pi2*omega of the product, evaluated on a frame.

    omega is the factor Kaehler form omega(X, Y) = <JX, Y>.  A positive value
    means (v1, v2, v3, v4) is positively oriented.
    """
    P = np.asarray(P, dtype=float)
    frame = [np.asarray(v) for v in (v1, v2, v3, v4)]

    def factor_form(sl):
        # the forms take frame indices; a first argument is always v1, v2 or v3,
        # so J is applied to each of those once rather than once per pair
        Jv = [cross_eps(P[..., sl], v[..., sl], eps) for v in frame[:3]]
        return lambda i, j: inner(Jv[i], frame[j][..., sl], eps)

    return two_form_wedge(factor_form(slice(0, 3)), factor_form(slice(3, 6)), range(4))
