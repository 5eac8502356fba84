"""Path rows, transport oracles, and loop monodromy."""

import cmath
import hashlib
import itertools
import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import trinoid._kernel
import trinoid.fuchsian
from trinoid.algebra import det2_compensated, max_det_drift
from trinoid.config import CLEARANCE_FACTOR, TRANSPORT_TOL_FACTOR, Tolerances
from trinoid.errors import NonSL2Input, SingularPathPoint, StepUnderflow
from trinoid.fuchsian import (
    BASE_POINT,
    MODE_HYPERGEOMETRIC,
    MODE_LOG_CHART,
    MODE_MATRIX,
    MODE_SCALAR,
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


def test_normal_form_transport_is_unimodular():
    # modes 1 and 2 integrate their equation in normal form, whose
    # coefficient matrix [[0, 1], [-I, 0]] is trace free, so by Abel's
    # identity every transport has determinant 1: along a segment of length
    # 4.9 and around each planned loop (measured at most 6.5e-13)
    data = build_trinoid_data(SYM23)
    hp = hypergeometric_params(SYM23)
    long_segment = segment(BASE_POINT, -3.0 + 4.0j)
    for mode, params, loops in (
        (MODE_SCALAR, data.kernel_params(), make_path_plan(data)),
        (MODE_HYPERGEOMETRIC, np.array([hp.a, hp.b, hp.c, 0.0, 0.0, 0.0, 0.0]), make_path_plan([0.0, 1.0])),
    ):
        for path in (long_segment, *loops):
            u = run_kernel(path, mode, params, np.eye(2), Tolerances().ode)
            assert abs(det2_compensated(u) - 1.0) <= 1e-10, mode


def _companion_scalar(params):
    """r and the companion form C = [[0, 1], [-s, -r]] of the scalar equation
    X'' + r X' + s X = 0, written independently of the kernel's mode 1."""
    c1, c2, c3 = params[:3]
    p = complex(params[3], params[4])

    def r(z):
        return 2.0 / z + 2.0 / (z - 1.0) - 4.0 / (2.0 * z - p)

    def coeff(z):
        s = (c3 * z * z + (c2 - c3 - c1) * z + c1) / (2.0 * z * z * (z - 1.0) ** 2)
        return 0.0j, 1.0 + 0.0j, -s, -r(z)

    return r, coeff


def _companion_hypergeometric(params):
    """The same for the hypergeometric equation z(1 - z) X'' + (c - (a + b + 1) z) X' - ab X = 0."""
    a, b, c = params[:3]

    def r(z):
        return (c - (a + b + 1.0) * z) / (z * (1.0 - z))

    def coeff(z):
        return 0.0j, 1.0 + 0.0j, a * b / (z * (1.0 - z)), -r(z)

    return r, coeff


@pytest.mark.parametrize("pi_multiples", [
    (2 / 3, 2 / 3, 2 / 3), (3.0, 3.0, 3.0), (2.0, 0.5, 0.5), (0.6, 1.5, 0.8),
], ids=["sym23", "big", "c1", "0.6,1.5,0.8"])
def test_normal_form_matches_companion_form(monkeypatch, pi_multiples):
    # X = phi Y with phi'/phi = -r/2 takes the companion form to the normal
    # form, so a loop transport there is the companion one conjugated by the
    # constant gauge G = [[1, 0], [r/2, 1]] at BASE_POINT and multiplied by
    # phi's phase around the loop, exp(i pi (residue of r inside)): 1 for the
    # scalar equation, whose residues are even integers, exp(i pi c) around
    # 0 and exp(i pi (a + b + 1 - c)) around 1 for the hypergeometric one.
    # The companion forms run as two extra kernel modes of this test only
    # (measured within 1.5e-12 relative)
    angles = tuple(math.pi * x for x in pi_multiples)
    data = build_trinoid_data(angles)
    hp = hypergeometric_params(angles)
    hyper = [hp.a, hp.b, hp.c, 0.0, 0.0, 0.0, 0.0]
    cases = (
        (MODE_SCALAR, data.kernel_params(), make_path_plan(data), _companion_scalar, (1.0, 1.0)),
        (MODE_HYPERGEOMETRIC, np.array(hyper), make_path_plan([0.0, 1.0]), _companion_hypergeometric,
         (cmath.exp(1j * math.pi * hp.c), cmath.exp(1j * math.pi * (hp.a + hp.b + 1.0 - hp.c)))),
    )
    # the companion coefficients return C's four entries, which the general product takes as they are
    companion_shape = trinoid._kernel._Shape("companion", lambda c: c, *trinoid._kernel._GENERAL_PRODUCT)
    for mode, params, loops, companion, phases in cases:
        reference = 100 + mode
        monkeypatch.setitem(trinoid._kernel._COEFF, reference, lambda p, form=companion: form(p)[1])
        monkeypatch.setitem(trinoid._kernel._SHAPE, reference, companion_shape)
        g = np.array([[1.0, 0.0], [0.5 * companion(params.tolist())[0](BASE_POINT), 1.0]])
        for loop, phase in zip(loops, phases):
            u = run_kernel(loop, mode, params, np.eye(2), Tolerances().ode)
            ref = phase * g @ run_kernel(loop, reference, params, np.eye(2), Tolerances().ode) @ np.linalg.inv(g)
            assert np.abs(u - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max()), mode


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
    # stiffest the benchmark runs, take 2,057 steps.  The scalar and the
    # hypergeometric loops took 3,098 and 1,815 steps in companion form and
    # take 1,991 and 760 in normal form, which drops the first-derivative
    # term and with it the 2/z part of the companion matrix.
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
    assert steps(loops, MODE_SCALAR, data.kernel_params(), tol.ode) == 1991
    hp = hypergeometric_params(SYM23)
    hyper = np.array([hp.a, hp.b, hp.c, 0.0, 0.0, 0.0, 0.0])
    hyper_loops = make_path_plan([0.0, 1.0])
    assert steps(hyper_loops, MODE_HYPERGEOMETRIC, hyper, tol.ode) == 760
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
        "sym23 matrix": "2082b4d1db6a6e7ac9d04739803de7e5a344a51ee3e92185feea868193bc1e41",
        "sym23 scalar": "943867c3fd68bb1aa184ec49174a34fc3b5b3da8bae83b32f0a6bc5ca15ae56c",
        "big matrix": "2157ffaec0cf3d1f7e0fe6ded4def22af377e2ad32d83bc43c00eff54c4874c9",
        "sym23 hypergeometric": "5c62f54c8bdcc58b72b227108f64ddc860de505b0e98c4d0c1945b24c4489cc5",
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


# three of the first 1,000 monodromy_sweep triples (seeds 1-5), as B/pi,
# whose matrix loops drifted past Tolerances.det (1.76e-9, 1.48e-9 and
# 1.43e-9) while the stages multiplied by the full matrix C
SWEEP_DRIFTERS = [(0.827325, 1.812639, 0.946606), (0.232598, 1.538976, 0.949406), (1.918984, 0.469115, 0.889589)]


@pytest.mark.parametrize("pi_multiples", SWEEP_DRIFTERS, ids=lambda t: str(t[0]))
def test_rank_one_stages_keep_sweep_drift_below_the_gate(pi_multiples):
    # the stages factor C = kap (g, 1)^T (1, -g), so every stage derivative
    # is rank one up to rounding (measured 1.7e-10, 2.1e-10 and 1.8e-10)
    rep = monodromy(build_trinoid_data(tuple(math.pi * x for x in pi_multiples)))
    assert rep.det_drift <= Tolerances().det


@pytest.mark.parametrize("pi_multiples", [(2 / 3, 2 / 3, 2 / 3), (3.0, 3.0, 3.0), *SWEEP_DRIFTERS], ids=lambda t: str(t[0]))
def test_screened_det_drift_on_kernel_histories(pi_multiples):
    # the det monitor screens the states the matrix loops accepted and
    # returns their running maximum of |det - 1| bit for bit
    data = build_trinoid_data(tuple(math.pi * x for x in pi_multiples))
    coeff = trinoid._kernel._COEFF[MODE_MATRIX](data.kernel_params().tolist())
    for loop in make_path_plan(data):
        _, _, _, accepted, nsteps = trinoid._kernel._SHAPE[MODE_MATRIX].stepper(
            loop.tolist(), coeff, [1.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j], Tolerances().ode, True
        )
        assert len(accepted) == 4 * nsteps
        drift = 0.0
        for k in range(0, len(accepted), 4):
            ua, ub, uc, ud = accepted[k:k + 4]
            drift = max(drift, abs(det2_compensated(((ua, ub), (uc, ud))) - 1.0))
        assert max_det_drift(accepted).hex() == drift.hex()


def test_scalar_and_matrix_agree_projectively():
    for angles in (SYM23, SYM12, C1, C2):
        data = build_trinoid_data(angles)
        plan = make_path_plan(data)
        rep_m = monodromy(data, plan=plan, mode=MODE_MATRIX)
        rep_s = monodromy(data, plan=plan, mode=MODE_SCALAR)
        assert projective_equivalence(rep_m, rep_s), angles


@pytest.mark.parametrize("pi_multiples", [(0.827325, 1.812639, 0.946606), (1.884356, 0.891651, 1.060606)])
def test_scalar_and_matrix_agree_at_large_generators(pi_multiples):
    # two triples of the monodromy sweep whose generators are large (rho3 of
    # the first has norm 1.6e4), where the projective residual, relative to
    # the generator's norm, is most fragile
    data = build_trinoid_data(tuple(math.pi * x for x in pi_multiples))
    plan = make_path_plan(data)
    rep_m = monodromy(data, plan=plan, mode=MODE_MATRIX)
    rep_s = monodromy(data, plan=plan, mode=MODE_SCALAR)
    assert max(np.abs(rho).max() for rho in (rep_m.rho1, rep_m.rho2, rep_m.rho3)) > 1e3
    assert projective_equivalence(rep_m, rep_s)


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
    # loop transport is the identity in companion form, and exactly -I in
    # the normal form the kernel integrates, whose gauge contributes the
    # phase exp(i pi c) = -1 around 0.  The two equations share all
    # local exponents yet are NOT projectively equivalent; the equivalence
    # only returns once the diagonalizable family representation replaces
    # the logarithmic one (see test_unitarize).
    data = build_trinoid_data(C1)
    plan = make_path_plan(data)
    rep_m = monodromy(data, plan=plan, mode=MODE_MATRIX)
    rep_s = monodromy(data, plan=plan, mode=MODE_SCALAR)

    # Jordan block: eigenvalues are both -1 but the transport is far from -I
    assert np.linalg.norm(rep_m.rho1 + np.eye(2)) > 1.0
    assert rep_m.eigenvalue_defect < 1e-4
    assert projective_equivalence(rep_m, rep_s)

    params = hypergeometric_params(C1)
    assert (params.a, params.b, params.c) == (0.0, -0.5, -1.0)
    hyp = hypergeometric_monodromy(params)
    npt.assert_allclose(hyp.rho1, -np.eye(2), atol=1e-6)
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


def test_integrate_matrix_ode_refuses_non_sl2_frame():
    # the initial frame must lie in SL(2, C) to 100 times Tolerances.det;
    # a frame of determinant 2 is refused before any path is checked
    data = build_trinoid_data(SYM23)
    with pytest.raises(NonSL2Input, match=r"initial frame determinant \(2\+0j\) is too far from 1"):
        integrate_matrix_ode(data, segment(BASE_POINT, 0.6 + 0.5j), np.diag([2.0, 1.0]))


@pytest.mark.parametrize("mode", [MODE_HYPERGEOMETRIC, MODE_LOG_CHART])
def test_monodromy_refuses_other_modes(mode):
    # monodromy transports the matrix system or the scalar equation; the
    # hypergeometric equation has its own entry point, and the log chart
    # serves the grid
    with pytest.raises(ValueError, match=f"monodromy transports mode 0 or 1, not {mode}"):
        monodromy(build_trinoid_data(SYM23), mode=mode)
