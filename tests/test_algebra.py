import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from trinoid.algebra import (
    det2,
    det2_compensated,
    eigenvalues_2x2,
    hermitian_sqrt,
    inv2,
    mat2,
    max_det_drift,
    project_h3,
    solve_quadratic,
    su2_defect,
)
from trinoid.errors import NonSL2Input, NotPositiveDefinite


def random_mat(rng, scale=1.0):
    re = rng.standard_normal((2, 2))
    im = rng.standard_normal((2, 2))
    return scale * (re + 1j * im)


def random_sl2(rng, scale=1.0):
    m = random_mat(rng, scale)
    return m / np.sqrt(det2(m))


def test_det_multiplicative():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        a = random_mat(rng)
        b = random_mat(rng)
        lhs = det2(a @ b)
        rhs = det2(a) * det2(b)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_det_compensated_matches_naive_small():
    rng = np.random.default_rng(8)
    for _ in range(200):
        m = random_mat(rng)
        assert abs(det2(m) - det2_compensated(m)) < 1e-13


def test_det_compensated_beats_naive_at_scale():
    # an SL(2) element scaled so its entries are ~1e6: the exact det is
    # known to be 1e12 by construction, compensated must hit it to ~1 ulp
    rng = np.random.default_rng(9)
    for _ in range(50):
        m = random_sl2(rng) * 1e6
        d = det2_compensated(m)
        assert abs(d - 1e12) < 1e-2


def _det2_compensated_reference(m):
    """det2_compensated as first written: a loop over the two products of
    the determinant, each real product split by Dekker's two-product with
    both of its factors split again."""

    def two_prod(a, b):
        p = a * b
        t = 134217729.0 * a
        ah = t - (t - a)
        al = a - ah
        t = 134217729.0 * b
        bh = t - (t - b)
        bl = b - bh
        return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl

    (a, b), (c, d) = m
    re_terms, im_terms = [], []
    for u, v, sign in ((complex(a), complex(d), 1.0), (complex(b), complex(c), -1.0)):
        for x, y, terms, s in ((u.real, v.real, re_terms, sign), (u.imag, v.imag, re_terms, -sign),
                               (u.real, v.imag, im_terms, sign), (u.imag, v.real, im_terms, sign)):
            p, e = two_prod(x, y)
            terms += [s * p, s * e]
    return complex(math.fsum(re_terms), math.fsum(im_terms))


def test_det_compensated_matches_reference_bit_for_bit():
    # the straight-line version splits each real part once and sums the
    # same sixteen exact terms; math.fsum is correctly rounded, so the order
    # of the terms does not matter and the result is bit-identical, on
    # entries from 1e-3 to 1e6, on unimodular matrices of that size, where
    # ad and bc cancel, and on signed zeros
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(2000):
        m = random_mat(rng) * 10.0 ** rng.uniform(-3.0, 6.0, size=(2, 2))
        cases += [m, random_sl2(rng) * 10.0 ** rng.uniform(-3.0, 3.0)]
    cases += [np.zeros((2, 2), dtype=complex), -np.zeros((2, 2), dtype=complex)]
    for m in cases:
        got, want = det2_compensated(m), _det2_compensated_reference(m)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), m


def running_det_drift(entries):
    """The running maximum of |det - 1| over the matrices of a run of
    entries, as the adaptive kernel once took it after each accepted step;
    what it raises, it raises as the exception's type."""
    drift = 0.0
    for k in range(0, len(entries), 4):
        ua, ub, uc, ud = entries[k:k + 4]
        try:
            drift = max(drift, abs(det2_compensated(((ua, ub), (uc, ud))) - 1.0))
        except (ValueError, OverflowError) as exc:
            return type(exc)
    return drift


def screened_det_drift(entries):
    try:
        return max_det_drift(entries)
    except (ValueError, OverflowError) as exc:
        return type(exc)


_UNIT = st.floats(-1.0, 1.0)
_SPECIAL = st.sampled_from([
    complex("nan"), complex(0.0, float("nan")), complex("inf"), complex("-inf"),
    complex(float("inf"), float("inf")), complex(1e155, -1e155),
])


def _ulps(x, k):
    """x moved by k units in the last place."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@st.composite
def _near_sl2(draw):
    """Matrices near SL(2) of entries up to 1e5: d solves ad - bc = 1 in
    floating point, then moves by a relative nudge, and a few copies of the
    matrix move d by a few units in the last place, so that determinants
    sit within rounding of each other; a tenth carry a NaN, an infinite or
    an overflowing entry."""
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0, 1e5]))
    a, b, c = (scale * complex(draw(_UNIT), draw(_UNIT)) for _ in range(3))
    d = (1.0 + b * c) / a if a != 0.0 else scale * complex(draw(_UNIT), draw(_UNIT))
    d *= 1.0 + draw(st.sampled_from([0.0, 1e-13, -1e-11, 1e-9]))
    out = [[a, b, c, complex(_ulps(d.real, k), d.imag)] for k in draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4))]
    if draw(st.integers(0, 9)) == 0:
        out[0][draw(st.integers(0, 3))] = draw(_SPECIAL)
    return out


@st.composite
def _histories(draw):
    """The entries of a run of such matrices, in any order, some repeated."""
    run = [m for group in draw(st.lists(_near_sl2(), max_size=10)) for m in group]
    run = draw(st.permutations(run))
    if run:
        run += [run[i] for i in draw(st.lists(st.integers(0, len(run) - 1), max_size=4))]
    return [x for m in run for x in m]


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(_histories())
def test_screened_det_drift_is_the_running_max(entries):
    # the screen only picks which matrices det2_compensated runs on, so the
    # maximum is the running one bit for bit: NaN determinants never
    # replace it, and the first matrix whose det2_compensated raises
    # (an infinite entry can make fsum add inf and -inf) raises it
    got, want = screened_det_drift(entries), running_det_drift(entries)
    if isinstance(want, float):
        assert isinstance(got, float) and got.hex() == want.hex()
    else:
        assert got is want


def test_screened_det_drift_keeps_a_close_second():
    # the screen's sum for the determinant of a, entries of size 1.7e7, is
    # one unit off fsum's in the last place of the real part, so its drift
    # reads 126 units (1.1e-16) above a's own; the drift of b lies between
    # the two, and only the screen's margin keeps a among the candidates
    a = [
        2844944.3118714048 - 880795.4356500086j, 6788058.599214626 + 4849375.529568966j,
        4405248.866213572 - 4136754.1204574965j, 16693274.906480195 + 2806922.0840724213j,
    ]
    b = [1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.005369623610659364j]
    for entries in (a + b, b + a):
        assert max_det_drift(entries).hex() == running_det_drift(entries).hex() == (0.005369623610659364).hex()


def test_inv2_round_trip():
    rng = np.random.default_rng(10)
    for _ in range(100):
        m = random_mat(rng)
        assert_allclose(m @ inv2(m), np.eye(2), atol=1e-12)


def test_project_h3_identity():
    p = project_h3(np.eye(2, dtype=complex))
    assert_allclose(p.minkowski, [1.0, 0.0, 0.0, 0.0], atol=1e-15)
    assert_allclose(p.ball, [0.0, 0.0, 0.0], atol=1e-15)


def test_project_h3_geodesic():
    # diag(e^{t/2}, e^{-t/2}) maps to (cosh t, 0, 0, sinh t)
    for t in (-1.3, 0.2, 2.0):
        f = mat2(np.exp(t / 2), 0, 0, np.exp(-t / 2))
        p = project_h3(f)
        assert_allclose(p.minkowski, [np.cosh(t), 0, 0, np.sinh(t)], atol=1e-12)


def test_project_h3_on_hyperboloid():
    rng = np.random.default_rng(12)
    for _ in range(200):
        f = random_sl2(rng)
        x = project_h3(f).minkowski
        q = x[0] ** 2 - x[1] ** 2 - x[2] ** 2 - x[3] ** 2
        assert abs(q - 1.0) < 1e-9
        assert np.linalg.norm(project_h3(f).ball) < 1.0


def test_project_h3_su2_invariance():
    # right multiplication by SU(2) fixes the projection
    rng = np.random.default_rng(13)
    for _ in range(100):
        f = random_sl2(rng)
        th, ph, ps = rng.uniform(0, 2 * np.pi, 3)
        u = np.array(
            [
                [np.cos(th) * np.exp(1j * ph), np.sin(th) * np.exp(1j * ps)],
                [-np.sin(th) * np.exp(-1j * ps), np.cos(th) * np.exp(-1j * ph)],
            ]
        )
        p = project_h3(f)
        q = project_h3(f @ u)
        assert np.linalg.norm(p.ball - q.ball) < 1e-10


def test_project_h3_rejects_non_sl2():
    with pytest.raises(NonSL2Input):
        project_h3(mat2(2, 0, 0, 2))


def test_eigenvalues_examples():
    l1, l2 = eigenvalues_2x2(np.eye(2, dtype=complex))
    assert l1 == 1 and l2 == 1
    # ordering is by (Re, Im) descending
    a = -np.exp(1j * np.pi / 3)
    b = -np.exp(-1j * np.pi / 3)
    l1, l2 = eigenvalues_2x2(mat2(a, 0, 0, b))
    assert abs(l1 - b) < 1e-15 and abs(l2 - a) < 1e-15
    l1, l2 = eigenvalues_2x2(mat2(0, 1, 1, 0))
    assert abs(l1 - 1) < 1e-15 and abs(l2 + 1) < 1e-15


def test_eigenvalues_random_against_numpy():
    rng = np.random.default_rng(14)
    for _ in range(300):
        m = random_mat(rng)
        ours = eigenvalues_2x2(m)
        ref = sorted(np.linalg.eigvals(m), key=lambda z: (z.real, z.imag), reverse=True)
        assert abs(ours[0] - ref[0]) < 1e-10
        assert abs(ours[1] - ref[1]) < 1e-10


def test_solve_quadratic_stable():
    # roots 1e8 and 1e-8: naive formula loses the small root entirely
    r1, r2 = solve_quadratic(1.0, -(1e8 + 1e-8), 1.0)
    roots = sorted([r1, r2], key=abs)
    assert abs(roots[0] - 1e-8) < 1e-22
    assert abs(roots[1] - 1e8) < 1e-6


def test_solve_quadratic_random():
    rng = np.random.default_rng(15)
    for _ in range(300):
        a = complex(*rng.standard_normal(2))
        r1 = complex(*rng.standard_normal(2))
        r2 = complex(*rng.standard_normal(2))
        b = -a * (r1 + r2)
        c = a * r1 * r2
        s1, s2 = solve_quadratic(a, b, c)
        got = sorted([s1, s2], key=lambda z: (z.real, z.imag))
        want = sorted([r1, r2], key=lambda z: (z.real, z.imag))
        assert abs(got[0] - want[0]) < 1e-10
        assert abs(got[1] - want[1]) < 1e-10


def test_su2_defect():
    assert su2_defect(np.eye(2)) == 0.0
    assert su2_defect(mat2(0, 1, -1, 0)) < 1e-15
    assert su2_defect(mat2(2, 0, 0, 0.5)) > 1.0


def test_hermitian_sqrt():
    rng = np.random.default_rng(16)
    for _ in range(100):
        m = random_mat(rng)
        h = m @ m.conj().T + 0.1 * np.eye(2)
        r = hermitian_sqrt(h)
        assert_allclose(r @ r, h, atol=1e-10)
        assert_allclose(r, r.conj().T, atol=1e-12)
    with pytest.raises(NotPositiveDefinite):
        hermitian_sqrt(mat2(1, 0, 0, -1))
