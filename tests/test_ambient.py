import numpy as np
import pytest

from pmcsurf.ambient import (
    cross_eps,
    factor_j,
    inner,
    norm3,
    orientation_dual,
    orientation_form,
    product_j_pair,
    project_to_factor,
    tangent_project3,
)
from pmcsurf.errors import DomainError, PreconditionError


def random_factor_point(rng, eps):
    if eps == +1:
        v = rng.normal(size=3)
        return v / np.linalg.norm(v)
    xy = rng.normal(size=2)
    return np.array([xy[0], xy[1], np.sqrt(1.0 + xy @ xy)])


def tangent_basis(p, eps):
    """An orthonormal oriented tangent basis (e, Je) at a point p: the seed axis least
    aligned with p, projected and normalized, and its J."""
    seed = np.eye(3)[np.argmin([abs(inner(s, p, eps)) for s in np.eye(3)])]
    e = tangent_project3(p, seed, eps)
    e = e / norm3(e, eps)
    return e, factor_j(p, e, eps, check=False)


def random_tangent(rng, p, eps):
    v = tangent_project3(p, rng.normal(size=3), eps)
    return v


def test_inner_examples():
    v = np.array([1.0, 0, 0, 0, 0, 0])
    assert inner(v, v, +1) == 1.0
    w = np.array([0.0, 0, 1, 0, 0, 0])
    assert inner(w, w, -1) == -1.0
    P = np.array([0.0, 0, 1, 0, 0, 1])
    assert inner(P, P, -1) == -2.0  # = 2 eps for the hyperbolic model


def test_inner_symmetric_bilinear():
    rng = np.random.default_rng(0)
    for eps in (+1, -1):
        for _ in range(200):
            v, w, u = rng.normal(size=(3, 6))
            a, b = rng.normal(size=2)
            assert inner(v, w, eps) == pytest.approx(inner(w, v, eps), abs=1e-12)
            assert inner(a * v + b * u, w, eps) == pytest.approx(
                a * inner(v, w, eps) + b * inner(u, w, eps), abs=1e-10
            )


def test_factor_j_north_pole_both_signatures():
    for eps in (+1, -1):
        out = factor_j(np.array([0.0, 0, 1]), np.array([1.0, 0, 0]), eps)
        assert np.allclose(out, [0, 1, 0], atol=1e-15)


def test_factor_j_lorentz_cross_oracle():
    # cross_eps is pinned by <cross(a,b), c>_eps = det(a, b, c)
    rng = np.random.default_rng(1)
    for eps in (+1, -1):
        for _ in range(100):
            a, b, c = rng.normal(size=(3, 3))
            det = np.linalg.det(np.stack([a, b, c]))
            assert inner(cross_eps(a, b, eps), c, eps) == pytest.approx(det, rel=1e-10, abs=1e-10)


def _numpy_cross_eps(a, b, eps):
    c = np.cross(np.asarray(a), np.asarray(b), axis=0)
    return c * np.array([1.0, 1.0, -1.0]).reshape((3,) + (1,) * (c.ndim - 1)) if eps == -1 else c


@pytest.mark.parametrize("eps", [+1, -1])
@pytest.mark.parametrize("complex_b", [False, True])
@pytest.mark.parametrize("shapes", [((3,), (3,)), ((3, 57), (3, 57)), ((3,), (3, 57))])
def test_cross_eps_bitwise_equals_numpy_cross(eps, complex_b, shapes):
    # the chart artifacts are byte-identical only if the written-out
    # components round exactly as numpy's cross does, signed zeros included
    rng = np.random.default_rng(4)
    a = rng.normal(size=shapes[0])
    b = rng.normal(size=shapes[1])
    a.flat[::4] = 0.0
    b.flat[::5] = -0.0
    if complex_b:
        b = b + 1j * rng.normal(size=shapes[1])
        b.flat[::3] = -0.0
    got, ref = cross_eps(a, b, eps), _numpy_cross_eps(a, b, eps)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got.real), np.signbit(ref.real))
    assert np.array_equal(np.signbit(got.imag), np.signbit(ref.imag))


@pytest.mark.parametrize("eps", [+1, -1])
def test_factor_j_is_complex_structure(eps):
    rng = np.random.default_rng(2 if eps == 1 else 3)
    for _ in range(1000):
        p = random_factor_point(rng, eps)
        v = random_tangent(rng, p, eps)
        jv = factor_j(p, v, eps)
        assert inner(jv, v, eps) == pytest.approx(0.0, abs=1e-10)
        assert inner(jv, jv, eps) == pytest.approx(inner(v, v, eps), rel=1e-10, abs=1e-12)
        assert np.allclose(factor_j(p, jv, eps), -v, atol=1e-12 * max(1.0, norm3(v, eps)))


def test_factor_j_rejects_non_tangent():
    with pytest.raises(PreconditionError):
        factor_j(np.array([0.0, 0, 1]), np.array([0.0, 0, 1]), +1)


@pytest.mark.parametrize("eps", [+1, -1])
def test_product_j_blockwise_and_square(eps):
    rng = np.random.default_rng(4)
    for _ in range(200):
        p = random_factor_point(rng, eps)
        q = random_factor_point(rng, eps)
        P = np.concatenate([p, q])
        V = np.concatenate([random_tangent(rng, p, eps), random_tangent(rng, q, eps)])
        j1, j2 = product_j_pair(P, V, eps)
        assert np.allclose(j1[:3], j2[:3], atol=1e-14)
        assert np.allclose(j1[3:], -j2[3:], atol=1e-14)
        for which, jv in enumerate((j1, j2)):
            jj = product_j_pair(P, jv, eps)[which]
            assert np.allclose(jj, -V, atol=1e-10)


def test_second_factor_block_maps_to_minus_j():
    # J2 restricted to a pure second-factor vector is -J of that block
    rng = np.random.default_rng(5)
    p = random_factor_point(rng, +1)
    q = random_factor_point(rng, +1)
    P = np.concatenate([p, q])
    w = random_tangent(rng, q, +1)
    V = np.concatenate([np.zeros(3), w])
    out = product_j_pair(P, V, +1)[1]
    assert np.allclose(out[3:], -factor_j(q, w, +1), atol=1e-14)
    assert np.allclose(out[:3], 0.0)


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


@pytest.mark.parametrize("eps", [+1, -1])
def test_orientation_dual_is_the_wedge_of_the_factor_forms(eps):
    # <orientation_dual(P, v1, v2, v3), w> = (pi1*omega ^ pi2*omega)(v1, v2, v3, w) on
    # tangent vectors that are neither unit nor orthogonal
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = random_factor_point(rng, eps)
        q = random_factor_point(rng, eps)
        P = np.concatenate([p, q])
        frame = [np.concatenate([random_tangent(rng, p, eps), random_tangent(rng, q, eps)]) for _ in range(4)]

        def omega(sl):
            return lambda a, b: inner(cross_eps(P[sl], a[sl], eps), b[sl], eps)

        wedge = two_form_wedge(omega(slice(0, 3)), omega(slice(3, 6)), frame)
        dual = inner(orientation_dual(P, *frame[:3], eps), frame[3], eps)
        assert dual == pytest.approx(wedge, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("eps", [+1, -1])
def test_orientation_form_sign_convention(eps):
    # omega_1 ^ omega_1 = -omega_2 ^ omega_2 = 2 (pi1* omega ^ pi2* omega)
    rng = np.random.default_rng(6)
    for _ in range(50):
        p = random_factor_point(rng, eps)
        q = random_factor_point(rng, eps)
        P = np.concatenate([p, q])
        e, je = tangent_basis(p, eps)
        f, jf = tangent_basis(q, eps)
        frame = [
            np.concatenate([e, np.zeros(3)]),
            np.concatenate([je, np.zeros(3)]),
            np.concatenate([np.zeros(3), f]),
            np.concatenate([np.zeros(3), jf]),
        ]
        base = orientation_form(P, *frame, eps=eps)
        assert base == pytest.approx(1.0, abs=1e-10)

        def omega_j(which):
            def form(a, b):
                return inner(product_j_pair(P, a, eps)[which - 1], b, eps)

            return form

        w11 = two_form_wedge(omega_j(1), omega_j(1), frame)
        w22 = two_form_wedge(omega_j(2), omega_j(2), frame)
        assert w11 == pytest.approx(2.0 * base, abs=1e-10)
        assert w22 == pytest.approx(-2.0 * base, abs=1e-10)


def test_project_to_factor():
    rng = np.random.default_rng(7)
    for eps in (+1, -1):
        p = random_factor_point(rng, eps)
        out = project_to_factor(p * 1.37, eps)
        assert np.allclose(out, p, atol=1e-12)


def _layouts(X):
    """The same values as C-ordered, Fortran-ordered and strided-view arrays."""
    wide = np.zeros(X.shape[:-1] + (2 * X.shape[-1],), dtype=X.dtype)
    wide[..., ::2] = X
    return np.ascontiguousarray(X), np.asfortranarray(X), wide[..., ::2]


@pytest.mark.parametrize("shape", [(6, 81, 81), (3, 4001)])
@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("eps", [+1, -1])
def test_inner_bits_depend_on_values_only(shape, complex_, eps):
    # the component sum runs in one fixed order whatever the memory layout of the operands
    rng = np.random.default_rng(8)
    X = rng.normal(size=shape)
    if complex_:
        X = X + 1j * rng.normal(size=shape)
    results = [inner(v, w, eps) for v in _layouts(X) for w in _layouts(X)]
    assert not _layouts(X)[1].flags.c_contiguous and not _layouts(X)[2].flags.contiguous
    for got in results[1:]:
        assert np.array_equal(got, results[0])
        assert np.array_equal(np.signbit(got.real), np.signbit(results[0].real))
