"""Analytic continuation and loop monodromy on the thrice-punctured sphere.

A path is the kernel's row array: shape (n, 6), one row per segment or
arc, in the layout of _kernel's docstring.  Transport of the rank-one
matrix system, of the associated scalar equation, and of the
hypergeometric equation all go through the Dormand-Prince engine of
_kernel; this module plans loops from the one base point BASE_POINT that
keep clear of the equations' singular points (the punctures and the
Gauss-map pole, see TrinoidData.finite_singular_points), runs the kernel,
and packages loop transports into a monodromy representation with the
defining relation rho1 rho2 rho3 = 1.  The sample grid of the mesh is
rooted at the same BASE_POINT, so its frames and the loops share a base.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
import random
import warnings
from dataclasses import dataclass

import numpy as np

from ._kernel import check_rtol, integrate_path
from .algebra import det2, eigenvalues_2x2, inv2
from .config import CLEARANCE_FACTOR, LOOP_RADIUS_FACTOR, Tolerances
from .errors import EigenvalueMismatch, NonSL2Input, SingularPathPoint, StepUnderflow
from .trinoid_data import HypergeometricParams, TrinoidData

MODE_MATRIX = 0
MODE_SCALAR = 1
MODE_HYPERGEOMETRIC = 2
MODE_LOG_CHART = 4

# The base point of the monodromy loops and of the sample grid's tree.  It
# is 0.707 from 0 and 1 and, for real angles, at least 0.5 from the Gauss-map
# pole, far past any plan's clearance (at most 0.05), so no plan checks it.
BASE_POINT = 0.5 + 0.5j


def segment(a: complex, b: complex) -> np.ndarray:
    a, b = complex(a), complex(b)
    return np.array([(0.0, a.real, a.imag, b.real, b.imag, 0.0)])


def circle(center: complex, radius: float, start_angle: float = 0.0) -> np.ndarray:
    c = complex(center)
    return np.array([(1.0, c.real, c.imag, float(radius), start_angle, start_angle + 2 * math.pi)])


def _piece_distance(row, x: complex) -> float:
    """Minimum distance from a point to one path row (a list of floats), computed analytically."""
    kind, x1, y1, x2, y2, x3 = row
    if kind == 0.0:
        a = complex(x1, y1)
        d = complex(x2, y2) - a
        L2 = abs(d) ** 2
        if L2 == 0.0:
            return abs(x - a)
        t = ((x - a) * d.conjugate()).real / L2
        t = min(1.0, max(0.0, t))
        return abs(x - (a + t * d))
    c, r, th0, th1 = complex(x1, y1), x2, y2, x3
    v = x - c
    if abs(v) == 0.0:
        return r
    ang = cmath.phase(v)
    lo, hi = min(th0, th1), max(th0, th1)
    # is ang (mod 2pi) inside [lo, hi]?
    k = math.floor((lo - ang) / (2 * math.pi))
    cand = ang + 2 * math.pi * (k + 1)
    if lo <= cand <= hi or hi - lo >= 2 * math.pi - 1e-15:
        return abs(abs(v) - r)
    e0 = c + r * cmath.exp(1j * th0)
    e1 = c + r * cmath.exp(1j * th1)
    return min(abs(x - e0), abs(x - e1))


def path_clearance(path: np.ndarray, points) -> float:
    """Smallest distance from any path point to any of the given points."""
    best = math.inf
    for row in path.tolist():
        for x in points:
            d = _piece_distance(row, complex(x))
            if d < best:
                best = d
    return best


def validate_path(path: np.ndarray, singular_points, clearance: float):
    c = path_clearance(path, singular_points)
    if c < clearance:
        raise SingularPathPoint(
            f"path comes within {c:.3g} of a singular point, clearance is {clearance:.3g}"
        )


def _build_loop(center, singular_points, clearance):
    """Route BASE_POINT -> circle entry, a full turn, and back, respecting clearance.

    The entry point lies on the ray from the center through BASE_POINT.
    The radius starts at LOOP_RADIUS_FACTOR times the distance between the
    punctures, which is 1; the loop may legitimately enclose apparent
    singular points, so only the other puncture constrains the radius while
    the clearance margin is enforced against every singular point.  If the
    loop violates clearance the builder shrinks the radius until a clean
    route appears; the legs run along the ray, so r >= clearance clears
    the center too.
    """
    phi = cmath.phase(BASE_POINT - center)
    others = [s for s in singular_points if s != center]
    for shrink in range(10):
        r = LOOP_RADIUS_FACTOR * 0.75**shrink
        entry = center + r * cmath.exp(1j * phi)
        path = np.concatenate(
            (segment(BASE_POINT, entry), circle(center, r, phi), segment(entry, BASE_POINT))
        )
        if path_clearance(path, others) >= clearance and r >= clearance:
            return path
    raise SingularPathPoint(
        f"no loop around {center} stays {clearance:.3g} away from {singular_points}"
    )


def make_path_plan(data) -> tuple[np.ndarray, np.ndarray]:
    """The two monodromy loops, a positive turn around each of 0 and 1.

    data may be a TrinoidData (its punctures and Gauss-map pole are kept
    clear of) or a bare sequence of finite singular points that must
    include 0 and 1.  Both loops start and end at BASE_POINT and keep
    CLEARANCE_FACTOR times the least distance between two of the points
    from all of them; a point set that crowds the base leaves no loop clear
    and raises SingularPathPoint.
    """
    if isinstance(data, TrinoidData):
        singular = data.finite_singular_points()
    else:
        singular = tuple(complex(s) for s in data)
    clearance = CLEARANCE_FACTOR * min(abs(p - q) for p, q in itertools.combinations(singular, 2))
    return _build_loop(0.0 + 0.0j, singular, clearance), _build_loop(1.0 + 0.0j, singular, clearance)


def run_kernel(path: np.ndarray, mode: int, params: np.ndarray, u0: np.ndarray, rtol: float, stats: dict | None = None) -> np.ndarray:
    """Low-level transport along a path, which it does not check; fills stats if given.

    A step size underflow or a transport that is not finite (overflowed
    stages, which the error norm does not see, or a stage that divides by
    zero or overflows a Python float) raises StepUnderflow; the
    underflow's message names the largest of the first three parameters
    (the Hopf coefficients c1, c2, c3, or the hypergeometric a, b, c).
    """
    check_rtol(rtol)
    u0_flat = np.ascontiguousarray(u0, dtype=np.complex128).reshape(4)
    not_finite = f"the transport is not finite at tolerance {rtol:.3g}: its stages overflowed"
    try:
        status, u, err, drift, nsteps = integrate_path(path, mode, params, u0_flat, rtol)
    except (ZeroDivisionError, OverflowError) as exc:
        raise StepUnderflow(not_finite) from exc
    if status == 1:
        big = float(np.abs(params[:3]).max())
        raise StepUnderflow(
            f"step size underflow during transport at tolerance {rtol:.3g}: the tolerance is too "
            "close to the unit roundoff, the path passes too close to a singular point, or the "
            f"coefficients are too large to resolve (largest |params[0:3]| {big:.3g})"
        )
    if not np.isfinite(u).all():
        raise StepUnderflow(not_finite)
    if stats is not None:
        stats["err_estimate"] = stats.get("err_estimate", 0.0) + err
        stats["det_drift"] = max(stats.get("det_drift", 0.0), drift)
        stats["n_steps"] = stats.get("n_steps", 0) + nsteps
    return u.reshape(2, 2)


def integrate_matrix_ode(
    data: TrinoidData, path: np.ndarray, f0: np.ndarray, tol: Tolerances = Tolerances()
) -> np.ndarray:
    """Transport a frame of the rank-one system along a path in the z chart.

    The path must keep the loop-planning clearance away from every finite
    singular point.
    """
    f0 = np.asarray(f0, dtype=complex)
    if abs(det2(f0) - 1.0) > 100.0 * tol.det:
        raise NonSL2Input(f"initial frame determinant {det2(f0)} is too far from 1")
    singular = data.finite_singular_points()
    clearance = CLEARANCE_FACTOR * min(abs(p - q) for p, q in itertools.combinations(singular, 2))
    validate_path(path, singular, clearance)
    return run_kernel(path, MODE_MATRIX, data.kernel_params(), f0, tol.ode)


class Source(enum.Enum):
    MATRIX_ODE = "MatrixODE"
    SCALAR_ODE = "ScalarODE"
    HYPERGEOMETRIC = "Hypergeometric"
    FAMILY = "Family"


@dataclass(frozen=True)
class MonodromyRep:
    """Loop transports around 0 and 1, with rho3 closing the relation.

    err_estimate accumulates the integrator's local error estimates over
    both loops; det_drift is the largest observed determinant deviation.
    eigenvalue_defect is the distance of the computed eigenvalues from the
    predicted ones (NaN when no prediction applies, as for the
    hypergeometric source).
    """

    rho1: np.ndarray
    rho2: np.ndarray
    rho3: np.ndarray
    source: Source
    err_estimate: float
    det_drift: float
    eigenvalue_defect: float


def _loop_generators(loops, mode, params, tol: Tolerances, stats: dict, unimodular=False):
    """Transports around the two loops of make_path_plan, which checked
    them, then rho3 = (rho1 rho2)^-1; with unimodular, each transport is
    divided by a square root of its determinant.
    """
    rhos = []
    for loop in loops:
        rho = run_kernel(loop, mode, params, np.eye(2, dtype=complex), tol.ode, stats)
        rhos.append(rho / np.sqrt(det2(rho)) if unimodular else rho)
    rho1, rho2 = rhos
    return rho1, rho2, inv2(rho1 @ rho2)


def _eigenvalue_defect(rho, b_angle: float) -> float:
    lam = eigenvalues_2x2(rho)
    t1 = -cmath.exp(1j * b_angle)
    t2 = -cmath.exp(-1j * b_angle)
    d1 = max(abs(lam[0] - t1), abs(lam[1] - t2))
    d2 = max(abs(lam[0] - t2), abs(lam[1] - t1))
    return min(d1, d2)


def monodromy(
    data: TrinoidData,
    plan: tuple[np.ndarray, np.ndarray] | None = None,
    source: Source = Source.MATRIX_ODE,
    tol: Tolerances = Tolerances(),
) -> MonodromyRep:
    """Monodromy representation from the two planned loops.

    The third generator is defined through the relation rho1 rho2 rho3 = 1
    rather than by a loop in another chart; its eigenvalues are still
    checked against the prediction for the third half-angle, and a failure
    of any eigenvalue check beyond the warning tolerance raises a
    warning, not an error.
    """
    if plan is None:
        plan = make_path_plan(data)
    if source is Source.MATRIX_ODE:
        mode = MODE_MATRIX
    elif source is Source.SCALAR_ODE:
        mode = MODE_SCALAR
    else:
        raise ValueError("use hypergeometric_monodromy for the hypergeometric source")
    stats: dict = {}
    rho1, rho2, rho3 = _loop_generators(plan, mode, data.kernel_params(), tol, stats)
    defect = max(
        _eigenvalue_defect(rho, b) for rho, b in zip((rho1, rho2, rho3), data.angles)
    )
    if defect > tol.eigenvalue_warn:
        warnings.warn(
            f"monodromy eigenvalues deviate from the predicted ones by {defect:.3g}",
            EigenvalueMismatch,
        )
    return MonodromyRep(
        rho1=rho1,
        rho2=rho2,
        rho3=rho3,
        source=source,
        err_estimate=stats.get("err_estimate", 0.0),
        det_drift=stats.get("det_drift", 0.0),
        eigenvalue_defect=defect,
    )


def hypergeometric_monodromy(
    params: HypergeometricParams,
    plan: tuple[np.ndarray, np.ndarray] | None = None,
    tol: Tolerances = Tolerances(),
) -> MonodromyRep:
    """Loop transports of the hypergeometric equation around 0 and 1.

    The raw transfer matrices have determinant exp(-2 pi i c) around 0 in
    general; each is normalized by a square root of its determinant so the
    result lands in SL(2, C).  All downstream comparisons are projective,
    so the sign ambiguity of the root is harmless.
    """
    if plan is None:
        plan = make_path_plan([0.0, 1.0])
    kparams = np.array([params.a, params.b, params.c, 0.0, 0.0, 0.0, 0.0])
    stats: dict = {}
    rho1, rho2, rho3 = _loop_generators(plan, MODE_HYPERGEOMETRIC, kparams, tol, stats, unimodular=True)
    return MonodromyRep(
        rho1=rho1,
        rho2=rho2,
        rho3=rho3,
        source=Source.HYPERGEOMETRIC,
        err_estimate=stats.get("err_estimate", 0.0),
        det_drift=0.0,
        eigenvalue_defect=float("nan"),
    )


def projective_intertwiner(m1: MonodromyRep, m2: MonodromyRep, tol: Tolerances = Tolerances()):
    """Invertible P with P rho_j P^{-1} = eps_j rho'_j, or None.

    Solved as a linear null-space problem in the four entries of P for each
    of the four sign patterns; candidate intertwiners are validated by the
    actual conjugation residual.
    """
    eye = np.eye(2)
    # Python's generator, not numpy.random, whose import alone costs a
    # process about 6 MB and 17 ms
    rng = random.Random(170)
    for e1 in (1.0, -1.0):
        for e2 in (1.0, -1.0):
            rows = []
            for rho, rho2, eps in ((m1.rho1, m2.rho1, e1), (m1.rho2, m2.rho2, e2)):
                rows.append(np.kron(eye, rho.T) - eps * np.kron(rho2, eye))
            system = np.vstack(rows)
            _, sv, vh = np.linalg.svd(system)
            null_mask = sv <= tol.null_sv * max(1.0, sv[0])
            null_dim = int(np.sum(null_mask)) + (4 - len(sv))
            if null_dim == 0:
                continue
            basis = vh.conj()[4 - null_dim :]
            candidates = [basis[i] for i in range(null_dim)]
            if null_dim >= 2:
                for _ in range(20):
                    w = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(null_dim)]
                    candidates.append(np.array(w) @ basis)
            for vec in candidates:
                p = vec.reshape(2, 2)
                if abs(det2(p)) < 1e-8 * np.linalg.norm(p) ** 2:
                    continue
                p = p / np.sqrt(det2(p))
                ok = True
                for rho, rho_other, eps in (
                    (m1.rho1, m2.rho1, e1),
                    (m1.rho2, m2.rho2, e2),
                ):
                    resid = p @ rho @ inv2(p) - eps * rho_other
                    if np.linalg.norm(resid) > tol.projective * max(1.0, np.linalg.norm(rho_other)):
                        ok = False
                        break
                if ok:
                    return p, (e1, e2)
    return None


def projective_equivalence(m1: MonodromyRep, m2: MonodromyRep, tol: Tolerances = Tolerances()) -> bool:
    """Whether two representations agree up to conjugation and signs."""
    return projective_intertwiner(m1, m2, tol) is not None


def apparent_point_check(data: TrinoidData, tol: Tolerances = Tolerances()) -> dict:
    """Verify that the umbilics and the Gauss-map pole carry no monodromy.

    The umbilics and the Gauss-map pole are removable for the matrix
    system, and the pole is an apparent singular point of the scalar
    equation, so small loops around them must transport to the identity
    (up to sign for the scalar equation).  Each loop's radius is a quarter
    of the distance to the nearest other of the five points (punctures,
    umbilics, pole), so the umbilics, which the loop planner ignores, are
    listed here.  Returns the defects and an overall flag; callers
    report rather than raise on failure.
    """
    params = data.kernel_params()
    singular = (0.0 + 0.0j, 1.0 + 0.0j, data.q.q1, data.q.q2, data.q.pole)
    out: dict = {}
    checks = (("q1", data.q.q1), ("q2", data.q.q2), ("pole", data.q.pole))
    for name, center in checks:
        others = [s for s in singular if abs(s - center) > 1e-13]
        radius = 0.25 * min(abs(s - center) for s in others)
        loop = circle(center, radius)
        p = run_kernel(loop, MODE_MATRIX, params, np.eye(2, dtype=complex), tol.ode)
        out[name] = float(np.linalg.norm(p - np.eye(2)))
    others = [s for s in singular if abs(s - data.q.pole) > 1e-13]
    radius = 0.25 * min(abs(s - data.q.pole) for s in others)
    loop = circle(data.q.pole, radius)
    t = run_kernel(loop, MODE_SCALAR, params, np.eye(2, dtype=complex), tol.ode)
    out["pole_scalar"] = float(
        min(np.linalg.norm(t - np.eye(2)), np.linalg.norm(t + np.eye(2)))
    )
    out["ok"] = all(v <= tol.apparent for k, v in out.items() if k != "ok")
    return out
