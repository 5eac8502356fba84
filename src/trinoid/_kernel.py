"""Adaptive Dormand-Prince transport kernel.

One routine integrates a 2x2 complex linear ODE dU = C(z) U dz along a
piecewise path of segments and circular arcs.  The mode number picks the
coefficient matrix C, once per call:

    0: the rank-one trinoid system in the z chart
    1: the associated scalar second-order equation, in companion form
    2: the hypergeometric equation, in companion form
    4: the gauge-fixed system in a logarithmic chart around one puncture

Parameters arrive as a flat float array: (c1, c2, c3, Re p, Im p, Re s,
Im s) for modes 0/1 where p is the umbilic sum and s the squared umbilic
gap, and (a, b, c, 0, 0, 0, 0) for mode 2.

Mode 4 integrates dV = B(zeta) V dzeta where zeta is a log chart around a
puncture at p0, x = p0 + exp(zeta), and

    B = [[0, qf(x)], [-gp(x), -1]]

with qf and gp rational functions of x.  This is the conjugate of the
rank-one system under the moving frame [[G, 1], [1, 0]] diag(1, x - p0);
qf is the curvature function times (x - p0)^2 and gp is the Gauss map
derivative, both regular at the puncture, so the step size stays O(1)
down the whole cusp neck.  Its parameter vector is 50 floats: (Re p0,
Im p0) followed by four degree-<=5 polynomials (qf numerator, qf
denominator, gp numerator, gp denominator), each packed as six complex
coefficients highest-degree first.

A path is a float array of shape (n, 6).  Row layout:
    segment: (0, Re a, Im a, Re b, Im b, unused)
    arc:     (1, Re center, Im center, radius, theta0, theta1)

Error control is relative and per unit arclength: a step of arclength L is
accepted when the embedded error estimate is at most rtol * L * max(1,
max-norm of U).  For the matrix system (mode 0) the determinant of U is
monitored with algebra.det2_compensated; the running maximum deviation
from 1 comes back to the caller, since a trace-free generator conserves
det exactly and any drift is pure integration error.

U passes between stages as the sequence of its four entries, row-major.
The path rows and the parameters arrive as numpy arrays and are read as
numpy scalars: whether a division in a coefficient function runs numpy's
or CPython's complex algorithm depends on the operand types, and the
results differ in the last bits.

Return status: 0 success, 1 step size underflow (a near-singular path).
"""

import numpy as np

from .algebra import det2_compensated


def _poly6(params, off, x):
    # Horner evaluation of six packed complex coefficients, highest first.
    acc = complex(params[off], params[off + 1])
    for k in range(1, 6):
        acc = acc * x + complex(params[off + 2 * k], params[off + 2 * k + 1])
    return acc


# Each coefficient function returns the entries (c11, c12, c21, c22) of C(z).


def _coeff_matrix(params, z):
    c3 = params[2]
    p = complex(params[3], params[4])
    s = complex(params[5], params[6])
    den = 2.0 * z - p
    w = z - 1.0
    kap = c3 * den * den / (8.0 * z * z * w * w)
    g = z + s / (2.0 * den)
    return kap * g, -kap * g * g, kap + 0.0j, -kap * g


def _coeff_scalar(params, z):
    c1, c2, c3 = params[0], params[1], params[2]
    p = complex(params[3], params[4])
    w = z - 1.0
    r = 2.0 / z + 2.0 / w - 4.0 / (2.0 * z - p)
    s_val = ((c3 * z + (c2 - c3 - c1)) * z + c1) / (2.0 * z * z * w * w)
    return 0.0j, 1.0 + 0.0j, -s_val, -r


def _coeff_hypergeometric(params, z):
    a, b, cc = params[0], params[1], params[2]
    den = z * (1.0 - z)
    r = (cc - (a + b + 1.0) * z) / den
    s_val = -a * b / den
    return 0.0j, 1.0 + 0.0j, -s_val, -r


def _coeff_log_chart(params, z):
    # z is zeta, the chart point is p0 + exp(zeta)
    x = complex(params[0], params[1]) + np.exp(z)
    qf = _poly6(params, 2, x) / _poly6(params, 14, x)
    gp = _poly6(params, 26, x) / _poly6(params, 38, x)
    return 0.0j, qf, -gp, -1.0 + 0.0j


_COEFF = {0: _coeff_matrix, 1: _coeff_scalar, 2: _coeff_hypergeometric, 4: _coeff_log_chart}


def _deriv(coeff, params, z, zdot, u):
    c11, c12, c21, c22 = coeff(params, z)
    return (
        (c11 * u[0] + c12 * u[2]) * zdot,
        (c11 * u[1] + c12 * u[3]) * zdot,
        (c21 * u[0] + c22 * u[2]) * zdot,
        (c21 * u[1] + c22 * u[3]) * zdot,
    )


def _point(row, t):
    # position and velocity of the piece at parameter t in [0, 1]
    if row[0] == 0.0:
        a = complex(row[1], row[2])
        d = complex(row[3], row[4]) - a
        return a + t * d, d
    c = complex(row[1], row[2])
    rad = row[3]
    dth = row[5] - row[4]
    ang = row[4] + t * dth
    e = complex(np.cos(ang), np.sin(ang))
    return c + rad * e, 1j * rad * dth * e


def integrate_path(rows, mode, params, u0, rtol):
    """Transport u0 along the path; see the module docstring for layout."""
    coeff = _COEFF[mode]
    watch_det = mode == 0
    u = tuple(u0)
    err_accum = 0.0
    drift = 0.0
    nsteps = 0
    for row in rows:
        if row[0] == 0.0:
            speed = abs(complex(row[3], row[4]) - complex(row[1], row[2]))
        else:
            speed = row[3] * abs(row[5] - row[4])
        if speed == 0.0:
            continue
        t = 0.0
        h = 1e-3
        z, zdot = _point(row, t)
        k1 = _deriv(coeff, params, z, zdot, u)
        while t < 1.0:
            hs = min(h, 1.0 - t)
            # Dormand-Prince 5(4) stages
            ut = [ui + hs * 0.2 * a1 for ui, a1 in zip(u, k1)]
            z, zdot = _point(row, t + 0.2 * hs)
            k2 = _deriv(coeff, params, z, zdot, ut)
            ut = [ui + hs * (0.075 * a1 + 0.225 * a2) for ui, a1, a2 in zip(u, k1, k2)]
            z, zdot = _point(row, t + 0.3 * hs)
            k3 = _deriv(coeff, params, z, zdot, ut)
            ut = [
                ui + hs * ((44.0 / 45.0) * a1 - (56.0 / 15.0) * a2 + (32.0 / 9.0) * a3)
                for ui, a1, a2, a3 in zip(u, k1, k2, k3)
            ]
            z, zdot = _point(row, t + 0.8 * hs)
            k4 = _deriv(coeff, params, z, zdot, ut)
            ut = [
                ui + hs * (
                    (19372.0 / 6561.0) * a1
                    - (25360.0 / 2187.0) * a2
                    + (64448.0 / 6561.0) * a3
                    - (212.0 / 729.0) * a4
                )
                for ui, a1, a2, a3, a4 in zip(u, k1, k2, k3, k4)
            ]
            z, zdot = _point(row, t + (8.0 / 9.0) * hs)
            k5 = _deriv(coeff, params, z, zdot, ut)
            ut = [
                ui + hs * (
                    (9017.0 / 3168.0) * a1
                    - (355.0 / 33.0) * a2
                    + (46732.0 / 5247.0) * a3
                    + (49.0 / 176.0) * a4
                    - (5103.0 / 18656.0) * a5
                )
                for ui, a1, a2, a3, a4, a5 in zip(u, k1, k2, k3, k4, k5)
            ]
            z, zdot = _point(row, t + hs)
            k6 = _deriv(coeff, params, z, zdot, ut)
            ut = [
                ui + hs * (
                    (35.0 / 384.0) * a1
                    + (500.0 / 1113.0) * a3
                    + (125.0 / 192.0) * a4
                    - (2187.0 / 6784.0) * a5
                    + (11.0 / 84.0) * a6
                )
                for ui, a1, a3, a4, a5, a6 in zip(u, k1, k3, k4, k5, k6)
            ]
            k7 = _deriv(coeff, params, z, zdot, ut)
            err = max(0.0, *(
                abs(hs * (
                    (71.0 / 57600.0) * a1
                    - (71.0 / 16695.0) * a3
                    + (71.0 / 1920.0) * a4
                    - (17253.0 / 339200.0) * a5
                    + (22.0 / 525.0) * a6
                    - (1.0 / 40.0) * a7
                ))
                for a1, a3, a4, a5, a6, a7 in zip(k1, k3, k4, k5, k6, k7)
            ))
            unorm = max(1.0, *map(abs, u))
            allowed = rtol * speed * hs * unorm
            if err != err:
                # a singular coefficient evaluation poisoned the stages
                h = 0.2 * hs
            else:
                if err <= allowed:
                    t += hs
                    u, k1 = ut, k7
                    err_accum += err
                    nsteps += 1
                    if watch_det:
                        drift = max(drift, abs(det2_compensated(np.reshape(u, (2, 2))) - 1.0))
                if err > 0.0:
                    fac = 0.9 * (allowed / err) ** 0.2
                    if fac < 0.2:
                        fac = 0.2
                    elif fac > 5.0:
                        fac = 5.0
                    h = hs * fac
                else:
                    h = hs * 5.0
            if h < 1e-14:
                return 1, np.array(u), err_accum, drift, nsteps
    return 0, np.array(u), err_accum, drift, nsteps
