import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from trinoid._kernel import _coeff_scalar
from trinoid.algebra import is_inf
from trinoid.errors import DegenerateHanbetu, ExcludedAngleIsPi, ZeroCoefficient
from trinoid.moduli import Status, classify, conical_data, hanbetu_holds
from trinoid.trinoid_data import (
    GaussMap,
    HopfDifferential,
    build_hopf,
    build_trinoid_data,
    hypergeometric_params,
    umbilics,
)

PI = math.pi


def admissible_triples(rng, count):
    """Random triples that classify as irreducible in H^3."""
    out = []
    while len(out) < count:
        b = rng.uniform(0.1, 4 * PI, 3)
        if classify(b, "h3").status is Status.IRREDUCIBLE_UNIQUE:
            out.append(tuple(b))
    return out


def test_build_hopf_symmetric():
    q = build_hopf((PI / 2, PI / 2, PI / 2))
    assert_allclose(q.c, (3 / 8, 3 / 8, 3 / 8), rtol=1e-15)
    # 2Q = (3/8)(z^2 - z + 1)/(z^2 (z-1)^2)
    for z in (0.3 + 0.1j, 2.0 - 1.0j, -0.7 + 0.4j):
        expect = (3 / 8) * (z * z - z + 1) / (2 * z * z * (z - 1) ** 2)
        assert abs(q(z) - expect) < 1e-14 * abs(expect)


def test_build_hopf_pole_leading_coefficients():
    q = build_hopf((PI / 2, PI / 2, PI / 2))
    # z^2 Q -> c1/2 = 3/16 at the origin, (z-1)^2 Q -> c2/2 at z=1
    for eps in (1e-4, 1e-5):
        z = eps * np.exp(0.3j)
        assert abs(z * z * q(z) - 3 / 16) < 1e-3
        z = 1 + eps * np.exp(0.3j)
        assert abs((z - 1) ** 2 * q(z) - 3 / 16) < 1e-3


def test_build_hopf_asymmetric_numerator():
    q = build_hopf((2 * PI, PI / 2, PI / 2))
    assert_allclose(q.c, (-3 / 2, 3 / 8, 3 / 8), rtol=1e-15)
    z = 1.7 - 0.3j
    expect = ((3 / 8) * z * z + (3 / 2) * z - 3 / 2) / (2 * z * z * (z - 1) ** 2)
    assert abs(q(z) - expect) < 1e-14


def test_build_hopf_gates():
    with pytest.raises(ExcludedAngleIsPi):
        build_hopf((PI, PI / 2, PI / 2))
    b23 = PI * math.sqrt(13) / 4
    with pytest.raises(DegenerateHanbetu):
        build_hopf((PI / 2, b23, b23))


def test_hopf_deriv_matches_finite_differences():
    q = build_hopf((2 * PI / 3, 2 * PI / 3, 2 * PI / 3))
    h = 1e-5
    for z in (0.4 + 0.2j, -1.1 + 0.8j, 2.3 - 0.5j):
        fd = (q(z + h) - q(z - h)) / (2 * h)
        assert abs(q.deriv(z) - fd) < 1e-8 * max(1.0, abs(fd))


def test_umbilics_refuse_coincident_roots_and_zero_c3():
    # c = (1, 4, 1) makes the numerator z^2 + 2z + 1, a double root at -1;
    # with c3 = 0 the numerator is not a quadratic at all
    with pytest.raises(DegenerateHanbetu, match=r"umbilic points coincide: \(-1\+0j\) vs \(-1-0j\)"):
        umbilics(HopfDifferential(c=(1.0, 4.0, 1.0)))
    with pytest.raises(ZeroCoefficient, match="leading Hopf coefficient c3 vanishes"):
        umbilics(HopfDifferential(c=(1.0, 4.0, 0.0)))


def test_umbilics_symmetric():
    q = build_hopf((PI / 2, PI / 2, PI / 2))
    u = umbilics(q)
    # roots of z^2 - z + 1 at e^{+-i pi/3}; ascending order puts -Im first
    assert abs(u.q1 - np.exp(-1j * PI / 3)) < 1e-14
    assert abs(u.q2 - np.exp(1j * PI / 3)) < 1e-14
    assert abs(u.q1 * u.q2 - 1.0) < 1e-14


def test_umbilics_asymmetric():
    q = build_hopf((2 * PI, PI / 2, PI / 2))
    u = umbilics(q)
    # (3/8)z^2 + (3/2)z - 3/2 = 0 is z^2 + 4z - 4 = 0, roots -2 +- 2 sqrt 2
    assert abs(u.q1 - (-2 - 2 * math.sqrt(2))) < 1e-12
    assert abs(u.q2 - (-2 + 2 * math.sqrt(2))) < 1e-12


def test_umbilics_vieta():
    rng = np.random.default_rng(31)
    for b in admissible_triples(rng, 100):
        q = build_hopf(b)
        c1, c2, c3 = q.c
        u = umbilics(q)
        assert abs(u.q1 + u.q2 - (c1 + c3 - c2) / c3) < 1e-12 * max(1.0, abs((c1 + c3 - c2) / c3))
        assert abs(u.q1 * u.q2 - c1 / c3) < 1e-12 * max(1.0, abs(c1 / c3))


def test_hanbetu_agrees_with_discriminant():
    rng = np.random.default_rng(32)
    for _ in range(1000):
        c = tuple(rng.uniform(-2, 2, 3))
        if abs(c[2]) < 1e-3:
            continue
        disc = (c[1] - c[2] - c[0]) ** 2 - 4 * c[0] * c[2]
        roots_apart = abs(math.sqrt(abs(disc))) / abs(c[2]) > 1e-10
        if abs(disc) < 1e-9:
            continue
        assert hanbetu_holds(c) == roots_apart


def test_gauss_map_symmetric_closed_form():
    q = build_hopf((PI / 2, PI / 2, PI / 2))
    u = umbilics(q)
    g = GaussMap(u)
    # (q1-q2)^2 = -3 and q1+q2 = 1: G(z) = z - 3/(2(2z-1))
    for z in (0.3 + 0.2j, -1.0 + 1.0j, 4.0):
        expect = z - 3 / (2 * (2 * z - 1))
        assert abs(g(z) - expect) < 1e-13
    # the finite pole is attained exactly, as the point at infinity
    assert is_inf(g(u.pole))


def test_gauss_map_branched_exactly_at_umbilics():
    rng = np.random.default_rng(33)
    for b in admissible_triples(rng, 100):
        u = umbilics(build_hopf(b))
        g = GaussMap(u)
        assert abs(g.deriv(u.q1)) < 1e-10
        assert abs(g.deriv(u.q2)) < 1e-10
        # unbranched at the punctures
        for z in (0.0, 1.0):
            assert abs(g.deriv(z)) > 1e-8


def test_gauss_map_derivs_match_finite_differences():
    u = umbilics(build_hopf((2 * PI, PI / 2, PI / 2)))
    g = GaussMap(u)
    h = 1e-5
    for z in (0.4 + 0.2j, -1.1 + 0.8j, 2.3 - 0.5j):
        fd1 = (g(z + h) - g(z - h)) / (2 * h)
        assert abs(g.deriv(z) - fd1) < 1e-8


def test_hypergeometric_params_symmetric():
    p = hypergeometric_params((PI / 2, PI / 2, PI / 2))
    assert_allclose((p.a, p.b, p.c), (3 / 4, 1 / 4, 1 / 2), atol=1e-15)


def test_hypergeometric_params_c1_case():
    # the defining relations force a - b = B2/pi; solving them for
    # B = (2pi, pi/2, pi/2) gives (0, -1/2, -1)
    p = hypergeometric_params((2 * PI, PI / 2, PI / 2))
    assert_allclose((p.a, p.b, p.c), (0.0, -1 / 2, -1.0), atol=1e-15)


def test_hypergeometric_params_invariants_all_signs():
    rng = np.random.default_rng(34)
    for _ in range(200):
        b = tuple(rng.uniform(0.1, 4 * PI, 3))
        t = [x / PI for x in b]
        for s1 in (1, -1):
            for s2 in (1, -1):
                for s3 in (1, -1):
                    p = hypergeometric_params(b, signs=(s1, s2, s3))
                    assert abs(abs(1 - p.c) - t[0]) < 1e-13
                    assert abs(abs(p.a - p.b) - t[1]) < 1e-13
                    assert abs(abs(p.c - p.a - p.b) - t[2]) < 1e-13


def _normal_form_invariant(data, z):
    """I of the normal form Y'' + I Y = 0 as the kernel's mode 1 evaluates
    it, after checking that its matrix is [[0, 1], [-I, 0]]."""
    c11, c12, c21, c22 = _coeff_scalar(data.kernel_params())(z)
    assert (c11, c12, c22) == (0.0, 1.0, 0.0)
    return -c21


def test_scalar_ode_coeffs_symmetric_finite():
    # near the Gauss-map pole z0 = 1/2 of the symmetric triple I is finite
    # and has the double pole of an apparent singular point whose normal-form
    # exponents are -1 and 2: (z - z0)^2 I -> -(-1)(-1 - 1) = -2 (measured
    # off by 5.7e-6 and 5.7e-8 at the two distances)
    data = build_trinoid_data((PI / 2, PI / 2, PI / 2))
    z0 = data.q.pole
    assert abs(z0 - 0.5) < 1e-15
    for eps in (1e-3, 1e-4):
        z = z0 + eps * 1j
        inv = _normal_form_invariant(data, z)
        assert np.isfinite(inv.real) and np.isfinite(inv.imag)
        assert abs((z - z0) ** 2 * inv + 2.0) < eps


def test_scalar_ode_coeffs_match_log_derivative():
    # I must equal Q - r^2/4 - r'/2 with r = -(log(Q/G'))' =
    # -(Q/G')'/(Q/G'); r is taken by central differences of the ratio
    # (differencing the log itself would trip over its branch cut) and r'
    # by central differences of that (measured within 7.6e-8 relative)
    data = build_trinoid_data((2 * PI / 3, 2 * PI / 3, 2 * PI / 3))
    q, g = data.hopf, data.gauss
    h = 1e-4

    def ratio(z):
        return q(z) / g.deriv(z)

    def r(z):
        return -(ratio(z + h) - ratio(z - h)) / (2 * h) / ratio(z)

    for z in (0.5 + 0.5j, -0.8 + 0.3j, 1.9 + 1.1j):
        dr = (r(z + h) - r(z - h)) / (2 * h)
        expected = q(z) - 0.25 * r(z) ** 2 - 0.5 * dr
        assert abs(_normal_form_invariant(data, z) - expected) < 1e-6 * max(1.0, abs(expected))


def test_scalar_ode_coeffs_residue_at_umbilic():
    # Q'/Q has residue 1 at the simple zero q1: (z-q1) Q'/Q -> 1; the same
    # factor of G' cancels it in r, so I is regular at the umbilics, where
    # it is -r^2/4 - r'/2 since Q vanishes there (I moves by 0.06 eps
    # relative at distance eps)
    angles = (2 * PI, PI / 2, PI / 2)
    q = build_hopf(angles)
    u = umbilics(q)
    data = build_trinoid_data(angles)
    for eps in (1e-5, 1e-6):
        z = u.q1 + eps * np.exp(0.7j)
        val = (z - u.q1) * q.deriv(z) / q(z)
        assert abs(val - 1.0) < 1e-3
        near = _normal_form_invariant(data, z)
        at = _normal_form_invariant(data, u.q1)
        assert abs(near - at) < eps * max(1.0, abs(at))
