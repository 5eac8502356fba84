"""Path rows, transport oracles, and loop monodromy."""

import cmath
import hashlib
import itertools
import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import trinoid.fuchsian
from trinoid.config import CLEARANCE_FACTOR, TRANSPORT_TOL_FACTOR, Tolerances
from trinoid.errors import SingularPathPoint, StepUnderflow
from trinoid.fuchsian import (
    BASE_POINT,
    MODE_HYPERGEOMETRIC,
    MODE_LOG_CHART,
    MODE_MATRIX,
    MODE_SCALAR,
    Source,
    apparent_point_check,
    circle,
    hypergeometric_monodromy,
    integrate_path,
    integrate_matrix_ode,
    make_path_plan,
    monodromy,
    path_clearance,
    projective_equivalence,
    projective_intertwiner,
    run_kernel,
    segment,
    validate_path,
)
from trinoid.surface import end_charts
from trinoid.trinoid_data import build_trinoid_data, hypergeometric_params

SYM23 = (2 * math.pi / 3,) * 3
SYM12 = (math.pi / 2,) * 3
C1 = (2 * math.pi, math.pi / 2, math.pi / 2)
C2 = (3 * math.pi,) * 3


def _rand_sl2(rng):
    while True:
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        d = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(d) > 0.1:
            return m / np.sqrt(d)


def test_path_endpoints_length_reversal():
    # a path is the kernel's (n, 6) row array: a segment row holds its two
    # ends, an arc row its center, radius and two angles
    s = segment(0.0, 1.0 + 1.0j)
    assert s.tolist() == [[0.0, 0.0, 0.0, 1.0, 1.0, 0.0]]

    c = circle(0.5j, 2.0, start_angle=0.3)
    assert c.tolist() == [[1.0, 0.0, 0.5, 2.0, 0.3, 0.3 + 2 * math.pi]]

    p = np.concatenate((s, segment(1.0 + 1.0j, 2.0)))
    assert p.shape == (2, 6)
    assert complex(*p[0, 1:3]) == 0.0
    assert complex(*p[-1, 3:5]) == 2.0


def test_path_clearance_analytic():
    # circle of radius 1 about 0: distance to an outside point is |x| - 1
    npt.assert_allclose(path_clearance(circle(0.0, 1.0), [3.0]), 2.0)
    npt.assert_allclose(path_clearance(circle(0.0, 1.0), [0.0]), 1.0)
    # segment [0,1]: interior projection and endpoint clamp
    npt.assert_allclose(path_clearance(segment(0.0, 1.0), [0.5 + 1.0j]), 1.0)
    npt.assert_allclose(path_clearance(segment(0.0, 1.0), [-1.0]), 1.0)
    # quarter arc from angle 0 to pi/2: the point -1 sees the endpoint i
    quarter = np.array([(1.0, 0.0, 0.0, 1.0, 0.0, math.pi / 2)])
    npt.assert_allclose(path_clearance(quarter, [-1.0]), math.sqrt(2.0))


def test_validate_path_raises():
    with pytest.raises(SingularPathPoint):
        validate_path(segment(0.0, 1.0), [0.5 + 0.01j], clearance=0.05)
    # clearance satisfied: no raise
    validate_path(segment(0.0, 1.0), [0.5 + 0.2j], clearance=0.05)


def test_make_path_plan_geometry():
    data = build_trinoid_data(SYM23)
    singular = data.finite_singular_points()
    clearance = CLEARANCE_FACTOR * min(abs(p - q) for p, q in itertools.combinations(singular, 2))
    for loop in make_path_plan(data):
        assert complex(*loop[0, 1:3]) == BASE_POINT
        assert complex(*loop[-1, 3:5]) == BASE_POINT
        assert path_clearance(loop, singular) >= clearance - 1e-12
        arcs = loop[loop[:, 0] == 1.0]
        assert len(arcs) == 1
        # positively oriented full turn
        npt.assert_allclose(arcs[0, 5] - arcs[0, 4], 2 * math.pi)


def test_zero_length_and_reversal_transport():
    data = build_trinoid_data(SYM23)
    z0 = 0.5 + 0.5j
    p0 = integrate_matrix_ode(data, segment(z0, z0), np.eye(2, dtype=complex))
    npt.assert_allclose(p0, np.eye(2), atol=1e-15)

    there_and_back = np.concatenate((segment(z0, 2.0 + 1.0j), segment(2.0 + 1.0j, z0)))
    p = integrate_matrix_ode(data, there_and_back, np.eye(2, dtype=complex))
    npt.assert_allclose(p, np.eye(2), atol=1e-9)


def test_det_conservation_long_path():
    # trace-free coefficient matrix conserves det along any admissible path;
    # a radius-3 circle has length 6*pi < 20 and clears every singular point
    data = build_trinoid_data(SYM23)
    loop = circle(0.5, 3.0)
    p = integrate_matrix_ode(data, loop, np.eye(2, dtype=complex))
    d = p[0, 0] * p[1, 1] - p[0, 1] * p[1, 0]
    assert abs(d - 1.0) < 1e-9


def test_scalar_wronskian_abel():
    # Abel's identity: det T = exp(-integral of r) for X'' + r X' + s X = 0
    data = build_trinoid_data(SYM23)
    a, b = 0.5 + 0.5j, 2.0 + 1.0j
    t = run_kernel(segment(a, b), MODE_SCALAR, data.kernel_params(), np.eye(2), Tolerances().ode)
    det_t = t[0, 0] * t[1, 1] - t[0, 1] * t[1, 0]
    p = data.q.total
    ts = np.linspace(0.0, 1.0, 4001)
    zs = a + ts * (b - a)
    r = 2.0 / zs + 2.0 / (zs - 1.0) - 4.0 / (2.0 * zs - p)
    integral = np.trapezoid(r, zs)
    npt.assert_allclose(det_t, np.exp(-integral), atol=1e-8)


def test_transfer_concatenation_order():
    data = build_trinoid_data(SYM23)
    p1 = segment(0.5 + 0.5j, 2.0 + 1.0j)
    p2 = segment(2.0 + 1.0j, 0.4 + 1.4j)
    p12 = np.concatenate((p1, p2))

    def scalar(path):
        return run_kernel(path, MODE_SCALAR, data.kernel_params(), np.eye(2), Tolerances().ode)

    t1, t2, t12 = scalar(p1), scalar(p2), scalar(p12)
    npt.assert_allclose(t12, t2 @ t1, atol=1e-8)

    m1 = integrate_matrix_ode(data, p1, np.eye(2, dtype=complex))
    m2 = integrate_matrix_ode(data, p2, np.eye(2, dtype=complex))
    m12 = integrate_matrix_ode(data, p12, np.eye(2, dtype=complex))
    npt.assert_allclose(m12, m2 @ m1, atol=1e-8)


def test_monodromy_traces_and_invariants():
    # tr rho_j = -2 cos(B_j): equals 1 at B = 2pi/3 and 0 at B = pi/2
    for angles, expected_tr in ((SYM23, 1.0), (SYM12, 0.0)):
        data = build_trinoid_data(angles)
        rep = monodromy(data)
        for rho in (rep.rho1, rep.rho2, rep.rho3):
            npt.assert_allclose(np.trace(rho), expected_tr, atol=1e-6)
            d = rho[0, 0] * rho[1, 1] - rho[0, 1] * rho[1, 0]
            assert abs(d - 1.0) < 1e-8
        npt.assert_allclose(rep.rho1 @ rep.rho2 @ rep.rho3, np.eye(2), atol=1e-7)
        assert rep.eigenvalue_defect < 1e-6
        assert rep.det_drift < 1e-9


def test_loop_homotopy_invariance(monkeypatch):
    data = build_trinoid_data(SYM23)
    monkeypatch.setattr(trinoid.fuchsian, "LOOP_RADIUS_FACTOR", 0.25)
    plan_a = make_path_plan(data)
    monkeypatch.setattr(trinoid.fuchsian, "LOOP_RADIUS_FACTOR", 0.15)
    plan_b = make_path_plan(data)
    rep_a = monodromy(data, plan=plan_a)
    rep_b = monodromy(data, plan=plan_b)
    npt.assert_allclose(rep_a.rho1, rep_b.rho1, atol=1e-8)
    npt.assert_allclose(rep_a.rho2, rep_b.rho2, atol=1e-8)


def test_step_halving_convergence():
    data = build_trinoid_data(SYM23)
    plan = make_path_plan(data)
    rep = monodromy(data, plan=plan, tol=replace(Tolerances(), ode=1e-8))
    rep_half = monodromy(data, plan=plan, tol=replace(Tolerances(), ode=5e-9))
    diff = max(
        np.max(np.abs(a - b))
        for a, b in ((rep.rho1, rep_half.rho1), (rep.rho2, rep_half.rho2))
    )
    assert diff < 10.0 * rep.err_estimate


def test_kernel_step_counts_pinned():
    # The adaptive kernel is deterministic, so its accepted-step counts pin
    # its arithmetic: any change to a stage expression, the error norm or
    # the step-size control moves them.  The counts were measured before
    # the kernel was rewritten as plain Python, and they survived its second
    # rewrite with unrolled stages, which reuses stage 6's coefficients for
    # stage 7; the matrix-loop count is the one the perfbench counter
    # cross-check implies (358,332 - 357,800).  BIG's matrix loops, the
    # stiffest the benchmark runs, take 2,057 steps.
    tol = Tolerances()
    data = build_trinoid_data(SYM23)
    eye = np.eye(2, dtype=complex)

    def steps(paths, mode, params, rtol):
        stats: dict = {}
        for path in paths:
            run_kernel(path, mode, params, eye, rtol, stats)
        return stats["n_steps"]

    loops = make_path_plan(data)
    assert steps(loops, MODE_MATRIX, data.kernel_params(), tol.ode) == 532
    big = build_trinoid_data(C2)
    assert steps(make_path_plan(big), MODE_MATRIX, big.kernel_params(), tol.ode) == 2057
    assert steps(loops, MODE_SCALAR, data.kernel_params(), tol.ode) == 3098
    hp = hypergeometric_params(SYM23)
    hyper = np.array([hp.a, hp.b, hp.c, 0.0, 0.0, 0.0, 0.0])
    hyper_loops = make_path_plan([0.0, 1.0])
    assert steps(hyper_loops, MODE_HYPERGEOMETRIC, hyper, tol.ode) == 1815
    # one spoke of end 1 in its log chart, from the outer radius down to 1e-3
    ch = end_charts(data)[0]
    spoke = segment(math.log(ch.r_out), math.log(1e-3))
    rtol = tol.ode * TRANSPORT_TOL_FACTOR
    assert steps([spoke], MODE_LOG_CHART, ch.kernel_params, rtol) == 2095


def test_kernel_output_bits_pinned():
    # Pins the bits the adaptive kernel returns, where the test above pins
    # only its step counts: the sha256 of each transport's U bytes, error
    # estimate, det drift and step count.  A rewrite that keeps the same
    # floating-point operations on the same scalar types keeps them: Python
    # floats and complex numbers in modes 0, 1 and 2, and numpy scalars in
    # mode 4, whose np.exp returns them.  They also pin this environment's
    # CPython and numpy builds, whose complex division and elementary
    # functions a different build may round differently.
    tol = Tolerances()
    eye = np.eye(2, dtype=complex).reshape(4)

    def digest(paths, mode, params, rtol):
        h = hashlib.sha256()
        for path in paths:
            _, u, err, drift, nsteps = integrate_path(path, mode, params, eye, rtol)
            h.update(u.tobytes() + f"{float.hex(err)} {float.hex(drift)} {nsteps};".encode())
        return h.hexdigest()

    sym23 = build_trinoid_data(SYM23)
    big = build_trinoid_data(C2)
    hp = hypergeometric_params(SYM23)
    ch = end_charts(sym23)[0]
    spoke = segment(math.log(ch.r_out), math.log(1e-3))
    got = {
        "sym23 matrix": digest(make_path_plan(sym23), MODE_MATRIX, sym23.kernel_params(), tol.ode),
        "sym23 scalar": digest(make_path_plan(sym23), MODE_SCALAR, sym23.kernel_params(), tol.ode),
        "big matrix": digest(make_path_plan(big), MODE_MATRIX, big.kernel_params(), tol.ode),
        "sym23 hypergeometric": digest(
            make_path_plan([0.0, 1.0]), MODE_HYPERGEOMETRIC,
            np.array([hp.a, hp.b, hp.c, 0.0, 0.0, 0.0, 0.0]), tol.ode,
        ),
        "sym23 spoke": digest([spoke], MODE_LOG_CHART, ch.kernel_params, tol.ode * TRANSPORT_TOL_FACTOR),
    }
    assert got == {
        "sym23 matrix": "547a6a139267139204712e23764b20c184ef371abeae2b96131d6ddce7ed7461",
        "sym23 scalar": "a4e4b5b88553c62ea408d93e835aea561214a208d680464d6a968cd15d8bc07f",
        "big matrix": "890519a77d50893bee8462e2bc028755b104c9a61112c752dd3b84466913fbab",
        "sym23 hypergeometric": "8ca11e92661ae8601621fcc34fb920968ddc95864a0f46fb726f565a9c90f140",
        "sym23 spoke": "77e40f89de619fa6b60867235a09a03006939ef468d2bb763468f8915244c3bd",
    }


# rho1 and rho2 of the matrix monodromy, row-major, recorded with the kernel
# on numpy scalars, before it moved to Python floats and complex numbers
_FROZEN_GENERATORS = {
    "sym23": (
        (0.24551129435937233+0.20528277756208566j, -0.2794573711544629-1.3864702799155368j,
         0.035518440353896785-0.5501002103072304j, 0.7544887056406255-0.205282777561698j),
        (0.7900071459945841+0.7553829878700491j, -0.8239532227890853+0.42580451448477735j,
         0.03551844035315276+0.5501002103069882j, 0.20999285400527107-0.7553829878690661j),
    ),
    "big": (
        (0.9999999999984162+9.115425428363189e-13j, 3.4061260756335088e-12+1.2013385078391003e-12j,
         -1.647896229195478e-13+8.785984093040433e-13j, 1.0000000000015252-8.744446139408169e-13j),
        (0.9999999999979031+2.0993796978618917e-13j, -3.7654514922769167e-13+3.1104667452819257e-12j,
         3.9653783728832437e-13+1.2657132286708617e-12j, 1.0000000000019669-1.7364842203049236e-13j),
    ),
}


@pytest.mark.parametrize("name, angles", [("sym23", SYM23), ("big", C2)], ids=["sym23", "big"])
def test_loop_generators_match_frozen_reference(name, angles):
    # an anchor that outlives changes of the kernel's engine or scalar types,
    # which move the output bits but must not move the generators (measured
    # within 2.2e-15 relative on SYM23 and 2.7e-13 on BIG, whose generators
    # are the identity up to their integration error, a few 1e-12)
    rep = monodromy(build_trinoid_data(angles))
    for rho, ref in zip((rep.rho1, rep.rho2), _FROZEN_GENERATORS[name]):
        ref = np.reshape(ref, (2, 2))
        assert np.abs(rho - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_scalar_and_matrix_agree_projectively():
    for angles in (SYM23, SYM12, C1, C2):
        data = build_trinoid_data(angles)
        plan = make_path_plan(data)
        rep_m = monodromy(data, plan=plan, source=Source.MATRIX_ODE)
        rep_s = monodromy(data, plan=plan, source=Source.SCALAR_ODE)
        assert projective_equivalence(rep_m, rep_s), angles


def test_projective_equivalence_self_and_conjugate():
    data = build_trinoid_data(SYM23)
    rep = monodromy(data)
    assert projective_equivalence(rep, rep)
    rng = np.random.default_rng(5)
    a = _rand_sl2(rng)
    ai = np.linalg.inv(a)
    twisted = monodromy(data)
    conj = type(rep)(
        rho1=a @ rep.rho1 @ ai,
        rho2=-(a @ rep.rho2 @ ai),
        rho3=twisted.rho3,
        source=rep.source,
        err_estimate=rep.err_estimate,
        det_drift=rep.det_drift,
        eigenvalue_defect=rep.eigenvalue_defect,
    )
    result = projective_intertwiner(rep, conj)
    assert result is not None
    _, signs = result
    assert signs == (1.0, -1.0)


def test_projective_equivalence_rejects_unrelated():
    rep_23 = monodromy(build_trinoid_data(SYM23))
    rep_12 = monodromy(build_trinoid_data(SYM12))
    # traces 1 versus 0: no conjugation-with-signs can match them
    assert not projective_equivalence(rep_23, rep_12)


def test_hypergeometric_trace_match_symmetric():
    # for (a,b,c) = (3/4,1/4,1/2) the loop transports have the same traces
    # as the trinoid monodromy at B = (pi/2)^3, up to the projective sign
    params = hypergeometric_params(SYM12)
    assert (params.a, params.b, params.c) == (0.75, 0.25, 0.5)
    hyp = hypergeometric_monodromy(params)
    rep = monodromy(build_trinoid_data(SYM12))
    for gam, rho in ((hyp.rho1, rep.rho1), (hyp.rho2, rep.rho2), (hyp.rho3, rep.rho3)):
        assert min(
            abs(np.trace(gam) - np.trace(rho)), abs(np.trace(gam) + np.trace(rho))
        ) < 1e-6
        d = gam[0, 0] * gam[1, 1] - gam[0, 1] * gam[1, 0]
        assert abs(d - 1.0) < 1e-8
    npt.assert_allclose(hyp.rho1 @ hyp.rho2 @ hyp.rho3, np.eye(2), atol=1e-7)


def test_hypergeometric_local_eigenvalue():
    # exponents at 0 are {0, 1-c}: some eigenvalue of rho1 matches
    # e^{2 pi i (1-c)} up to the overall sign of the determinant root
    params = hypergeometric_params(SYM23)
    hyp = hypergeometric_monodromy(params)
    lam = np.linalg.eigvals(hyp.rho1)
    target = cmath.exp(2j * math.pi * (1.0 - params.c))
    best = min(min(abs(l - s * target) for l in lam) for s in (1.0, -1.0))
    assert best < 1e-6


def test_hypergeometric_matches_trinoid_irreducible():
    for angles in (SYM23, SYM12):
        rep = monodromy(build_trinoid_data(angles))
        hyp = hypergeometric_monodromy(hypergeometric_params(angles))
        assert projective_equivalence(rep, hyp), angles


def test_c2_projectively_trivial_and_matches_hypergeometric():
    # at B = (3pi)^3 every loop transport is the identity and the
    # hypergeometric side with (a,b,c) = (2,-1,-2) degenerates the same way
    rep = monodromy(build_trinoid_data(C2))
    for rho in (rep.rho1, rep.rho2, rep.rho3):
        npt.assert_allclose(rho, np.eye(2), atol=1e-8)
    hyp = hypergeometric_monodromy(hypergeometric_params(C2))
    for gam in (hyp.rho1, hyp.rho2, hyp.rho3):
        assert min(np.linalg.norm(gam - np.eye(2)), np.linalg.norm(gam + np.eye(2))) < 1e-6
    assert projective_equivalence(rep, hyp)


def test_c1_resonant_monodromy_is_logarithmic():
    # At B = (2pi, pi/2, pi/2) the indicial roots at z = 0 are 1/2 and -3/2.
    # The exponent gap is the integer 2 and the Frobenius recursion for the
    # smaller root is obstructed (the order-2 coefficient equation reduces
    # to 9/2 = 0), so the local monodromy is a genuine Jordan block: this
    # equation has a logarithmic solution at 0.  The hypergeometric
    # counterpart (a,b,c) = (0,-1/2,-1) is solved by X = 1 and by
    # 2(1-z)^{-1/2} + 2(1-z)^{1/2}, both single valued at 0, so its first
    # loop transport is exactly the identity.  The two equations share all
    # local exponents yet are NOT projectively equivalent; the equivalence
    # only returns once the diagonalizable family representation replaces
    # the logarithmic one (see test_unitarize).
    data = build_trinoid_data(C1)
    plan = make_path_plan(data)
    rep_m = monodromy(data, plan=plan, source=Source.MATRIX_ODE)
    rep_s = monodromy(data, plan=plan, source=Source.SCALAR_ODE)

    # Jordan block: eigenvalues are both -1 but the transport is far from -I
    assert np.linalg.norm(rep_m.rho1 + np.eye(2)) > 1.0
    assert rep_m.eigenvalue_defect < 1e-4
    assert projective_equivalence(rep_m, rep_s)

    params = hypergeometric_params(C1)
    assert (params.a, params.b, params.c) == (0.0, -0.5, -1.0)
    hyp = hypergeometric_monodromy(params)
    npt.assert_allclose(hyp.rho1, np.eye(2), atol=1e-6)
    assert not projective_equivalence(rep_s, hyp)


def test_apparent_points_carry_no_monodromy():
    for angles in (SYM23, C1):
        data = build_trinoid_data(angles)
        result = apparent_point_check(data)
        assert result["ok"], result
        for key in ("q1", "q2", "pole", "pole_scalar"):
            assert result[key] < 1e-6


def test_step_underflow_through_singularity():
    # a path straight through z = 0 defeats the step controller; run_kernel
    # makes no geometric pre-check, so the integrator itself must bail
    data = build_trinoid_data(SYM23)
    with pytest.raises(StepUnderflow):
        run_kernel(
            segment(0.5 + 0.5j, -0.5 - 0.5j),
            MODE_MATRIX,
            data.kernel_params(),
            np.eye(2, dtype=complex),
            Tolerances().ode,
        )


@pytest.mark.parametrize("mode", [MODE_MATRIX, MODE_SCALAR, MODE_HYPERGEOMETRIC])
def test_transport_from_a_puncture_is_numerical(mode):
    # the first stage evaluates the coefficients at z = 0, where Python
    # complex division raises ZeroDivisionError rather than returning inf;
    # run_kernel reports it as the numerical failure it is
    params = build_trinoid_data(SYM23).kernel_params()
    if mode == MODE_HYPERGEOMETRIC:
        hp = hypergeometric_params(SYM23)
        params = np.array([hp.a, hp.b, hp.c, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(StepUnderflow, match="the transport is not finite"):
        run_kernel(segment(0.0, 0.5), mode, params, np.eye(2, dtype=complex), Tolerances().ode)
