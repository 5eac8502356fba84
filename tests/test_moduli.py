import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from trinoid.errors import BadEdge, BigonRequiresAcute, ZeroCoefficient
from trinoid.moduli import (
    Status,
    Target,
    classify,
    conical_data,
    fh_attach_bigon,
    fh_attach_hemisphere,
    hanbetu_holds,
    irreducible_exists,
    irreducible_reduced_sum,
    reduce_angles,
    type_signature,
    type_signature_raw,
)
from trinoid.trinoid_data import build_trinoid_data

PI = math.pi


def test_conical_data_values():
    cd = conical_data((PI, PI, PI))
    assert cd.beta == (0.0, 0.0, 0.0)
    assert cd.c == (0.0, 0.0, 0.0)
    # c = -(-1/2)(3/2)/2 = 3/8 at B = pi/2
    cd = conical_data((PI / 2, PI / 2, PI / 2))
    assert_allclose(cd.c, (3 / 8, 3 / 8, 3 / 8), rtol=1e-15)
    # beta1 = 1 gives c1 = -3/2
    cd = conical_data((2 * PI, PI / 2, PI / 2))
    assert_allclose(cd.c, (-3 / 2, 3 / 8, 3 / 8), rtol=1e-15)


def test_conical_data_rejects_nonpositive():
    with pytest.raises(ValueError):
        conical_data((1.0, -1.0, 1.0))
    with pytest.raises(ValueError):
        conical_data((0.0, 1.0, 1.0))


@pytest.mark.parametrize("j", range(3))
def test_nan_angle_rejected(j):
    # NaN fails every comparison, so a test written as x <= 0 let it
    # through to a DegenerateHanbetu verdict
    b = [1.0, 1.0, 1.0]
    b[j] = math.nan
    for f in (classify, conical_data, build_trinoid_data):
        with pytest.raises(ValueError, match="must be positive"):
            f(tuple(b))


def test_hanbetu():
    # equal nonzero coefficients: 3c^2/2 vs 3c^2
    assert hanbetu_holds((0.375, 0.375, 0.375))
    assert not hanbetu_holds((0.0, 0.0, 0.0))
    # 81/64 != -63/64
    assert hanbetu_holds((-1.5, 0.375, 0.375))


def test_reduce_angles_fixed_point():
    assert_allclose(reduce_angles((PI / 2, PI / 2, PI / 2)), (PI / 2, PI / 2, PI / 2), atol=1e-15)


def test_reduce_angles_reflection():
    # folded values are all 2pi/3, the larger two get reflected
    out = reduce_angles((2 * PI / 3, 2 * PI / 3, 2 * PI / 3))
    assert_allclose(out, (2 * PI / 3, PI / 3, PI / 3), atol=1e-12)


def test_reduce_angles_folding():
    out = reduce_angles((7 * PI / 3, PI / 5, PI / 5))
    assert any(abs(x - PI / 3) < 1e-12 for x in out)


def test_reduce_angles_pairwise_sums():
    rng = np.random.default_rng(21)
    for _ in range(2000):
        b = rng.uniform(1e-3, 4 * PI, 3)
        out = reduce_angles(b)
        for i in range(3):
            for j in range(i + 1, 3):
                s = out[i] + out[j]
                assert -1e-12 <= s <= PI + 1e-12


def test_irreducible_examples():
    assert irreducible_exists((2 * PI / 3, 2 * PI / 3, 2 * PI / 3))
    assert irreducible_exists((PI / 2, PI / 2, PI / 2))
    # boundary case: expression equals 1 exactly, strict inequality fails
    assert not irreducible_exists((2 * PI, PI / 2, PI / 2))


@pytest.mark.parametrize("t", [(0.5, 0.6, 0.9), (0.3, 0.4, 0.9), (2.7, 2.8, 2.9)])
def test_irreducibility_boundary_is_empty(t):
    # -t1 + t2 + t3 is the odd integer 1 or 3, so the cosine expression is
    # 1 and the reduced sum pi up to rounding, whose sign used to decide
    # both criteria, and the class, both ways
    b = tuple(x * PI for x in t)
    assert not irreducible_exists(b)
    assert not irreducible_reduced_sum(b)
    assert classify(b, "h3").status is Status.EMPTY
    assert classify(b, "s2").status is Status.EMPTY


def test_irreducible_agrees_with_reduction():
    # the cosine criterion and the reduced-sum criterion must agree away
    # from a neutral zone around the common boundary
    rng = np.random.default_rng(22)
    checked = 0
    for _ in range(10000):
        b = rng.uniform(1e-3, 4 * PI, 3)
        c1, c2, c3 = np.cos(b)
        val = c1 * c1 + c2 * c2 + c3 * c3 + 2 * c1 * c2 * c3
        s = sum(reduce_angles(b))
        if abs(val - 1.0) < 1e-9 or abs(s - PI) < 1e-9:
            continue
        assert irreducible_exists(b) == (s > PI)
        assert irreducible_reduced_sum(b) == (s > PI)
        checked += 1
    assert checked > 9000


def test_irreducible_agrees_with_factorized_form():
    rng = np.random.default_rng(23)
    for _ in range(10000):
        b = rng.uniform(1e-3, 4 * PI, 3)
        c1, c2, c3 = np.cos(b)
        val = c1 * c1 + c2 * c2 + c3 * c3 + 2 * c1 * c2 * c3 - 1.0
        prod = (
            math.cos((b[0] + b[1] + b[2]) / 2)
            * math.cos((-b[0] + b[1] + b[2]) / 2)
            * math.cos((b[0] - b[1] + b[2]) / 2)
            * math.cos((b[0] + b[1] - b[2]) / 2)
        )
        assert_allclose(val, 4.0 * prod, atol=1e-10)


def test_classify_irreducible():
    r = classify((2 * PI / 3, 2 * PI / 3, 2 * PI / 3), "h3")
    assert r.status is Status.IRREDUCIBLE_UNIQUE
    assert r.dimension == 0
    assert r.target is Target.H3


def test_classify_c1():
    r = classify((2 * PI, PI / 2, PI / 2), "h3")
    assert r.status is Status.REDUCIBLE_C1
    assert r.dimension == 1
    assert r.labeling == (1, 2, 3)


def test_classify_c1_relabeled():
    # integer angle in the middle slot must still be found
    r = classify((PI / 2, 2 * PI, PI / 2), "h3")
    assert r.status is Status.REDUCIBLE_C1
    assert r.labeling == (2, 1, 3)


def test_classify_c2():
    r = classify((3 * PI, 3 * PI, 3 * PI), "h3")
    assert r.status is Status.REDUCIBLE_C2
    assert r.dimension == 3


def test_classify_empty():
    r = classify((2 * PI, PI / 3, PI / 3), "h3")
    assert r.status is Status.EMPTY
    assert r.dimension is None


def test_classify_pi_excluded_h3():
    r = classify((PI, PI / 2, PI / 3), "h3")
    assert r.status is Status.EXCLUDED_ANGLE_IS_PI


def test_classify_pi_allowed_s2():
    r = classify((PI, PI, PI), "s2")
    # all-integer triple, odd sum, strict triangle inequality
    assert r.status is Status.REDUCIBLE_C2
    assert "AngleIsPi" in r.flags


def test_classify_degenerate_hanbetu():
    # the umbilic discriminant vanishes iff c1 = (sqrt(c2) +- sqrt(c3))^2;
    # with c2 = c3 = 3/32 that means c1 = 3/8, realized by B1 = pi/2 and
    # B2 = B3 = pi*sqrt(13)/4 (beta = -1 + sqrt(13)/4 gives c = 3/32)
    b23 = PI * math.sqrt(13) / 4
    r = classify((PI / 2, b23, b23), "h3")
    assert r.status is Status.DEGENERATE_HANBETU


def test_classify_two_integers_flagged():
    r = classify((2 * PI, 3 * PI, PI / 2), "h3")
    assert r.status is Status.EMPTY
    assert "UnspecifiedByPaper" in r.flags


def test_classify_s2_no_hanbetu_gate():
    # same degenerate triple, but the sphere target carries no such condition
    b2 = 0.6 * PI
    r = classify((2 * PI - b2, b2, b2), "s2")
    assert r.status is Status.IRREDUCIBLE_UNIQUE


def test_classify_511_s2_empty():
    r = classify((5 * PI, PI, PI), "s2")
    assert r.status is Status.EMPTY


def test_classify_reducible_has_integer_angle():
    # any Reducible status needs at least one integer B/pi
    rng = np.random.default_rng(24)
    for _ in range(3000):
        b = rng.uniform(1e-3, 4 * PI, 3)
        r = classify(b, "h3")
        if r.status in (Status.REDUCIBLE_C1, Status.REDUCIBLE_C2):
            assert any(abs(x / PI - round(x / PI)) <= 1e-9 for x in b)
        if r.status is Status.IRREDUCIBLE_UNIQUE:
            assert all(abs(x / PI - round(x / PI)) > 1e-9 for x in b)


def test_hemisphere_preserves_c2():
    # every C2 triple with entries up to 9pi stays C2 under the surgery;
    # classified against the sphere target, which has no angle-pi gate
    c2_triples = []
    for n1 in range(1, 10):
        for n2 in range(1, 10):
            for n3 in range(1, 10):
                if (n1 + n2 + n3) % 2 == 1 and n1 < n2 + n3 and n2 < n1 + n3 and n3 < n1 + n2:
                    c2_triples.append((n1 * PI, n2 * PI, n3 * PI))
    assert len(c2_triples) > 50
    for b in c2_triples:
        assert classify(b, "s2").status is Status.REDUCIBLE_C2
        for edge in ((1, 2), (1, 3), (2, 3)):
            out = fh_attach_hemisphere(b, edge)
            assert classify(out, "s2").status is Status.REDUCIBLE_C2


def test_hemisphere_values():
    out = fh_attach_hemisphere((PI / 2, PI / 2, PI / 2), (1, 2))
    assert_allclose(out, (3 * PI / 2, 3 * PI / 2, PI / 2), atol=1e-15)


def test_hemisphere_off_integer_edge_leaves_c1():
    # adding pi to both non-integer angles of a C1 triple lands in Empty:
    # the bound pi*m <= B1 - pi now fails for both m candidates
    out = fh_attach_hemisphere((2 * PI, PI / 2, PI / 2), (2, 3))
    assert_allclose(out, (2 * PI, 3 * PI / 2, 3 * PI / 2), atol=1e-15)
    assert classify(out, "h3").status is Status.EMPTY


def test_hemisphere_bad_edge():
    with pytest.raises(BadEdge):
        fh_attach_hemisphere((1.0, 1.0, 1.0), (2, 2))
    with pytest.raises(BadEdge):
        fh_attach_hemisphere((1.0, 1.0, 1.0), (0, 1))


def test_bigon_values():
    out = fh_attach_bigon((PI / 2, PI / 2, PI / 2), 1, 2)
    assert_allclose(out, (PI / 2, 3 * PI / 2, PI / 2), atol=1e-15)
    out = fh_attach_bigon((PI / 3, PI / 2, PI / 2), 1, 2)
    assert_allclose(out, (2 * PI / 3, 3 * PI / 2, PI / 2), atol=1e-15)


def test_bigon_requires_acute():
    with pytest.raises(BigonRequiresAcute):
        fh_attach_bigon((3 * PI / 2, PI / 2, PI / 2), 1, 2)


def test_type_signature():
    cd = conical_data((PI / 2, PI / 2, PI / 2))
    assert type_signature(cd) == ("+", "+", "+")
    cd = conical_data((2 * PI, PI / 2, PI / 2))
    assert type_signature(cd) == ("+", "+", "-")
    assert type_signature_raw(cd) == ("-", "+", "+")
    cd = conical_data((3 * PI, 3 * PI, 3 * PI))
    assert type_signature(cd) == ("-", "-", "-")


def test_type_signature_zero_rejected():
    with pytest.raises(ZeroCoefficient):
        type_signature(conical_data((PI, PI / 2, PI / 2)))
