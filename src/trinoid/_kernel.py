"""Adaptive Dormand-Prince transport kernel.

One routine, compiled by numba when it is installed, integrates a 2x2
complex linear ODE dU = C(z) U dz along a piecewise path of segments and
circular arcs.  The coefficient matrix C is selected by a mode switch:

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
monitored with compensated products; the running maximum deviation from 1
comes back to the caller, since a trace-free generator conserves det
exactly and any drift is pure integration error.

Return status: 0 success, 1 step size underflow (a near-singular path).
"""

import numpy as np

try:
    from numba import njit
except ImportError:  # numba is optional; without it the kernel runs as pure Python
    def njit(*args, **kwargs):
        if len(args) == 1 and callable(args[0]):
            return args[0]

        def wrap(f):
            return f

        return wrap


_SPLITTER = 134217729.0


@njit(cache=True)
def _two_prod(a, b):
    p = a * b
    t = _SPLITTER * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLITTER * b
    bh = t - (t - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


@njit(cache=True)
def _sum8(v):
    # Neumaier compensated summation of a fixed-size buffer
    s = 0.0
    comp = 0.0
    for i in range(8):
        x = v[i]
        t = s + x
        if abs(s) >= abs(x):
            comp += (s - t) + x
        else:
            comp += (x - t) + s
        s = t
    return s + comp


@njit(cache=True)
def _det_drift(u):
    # |det U - 1| with compensated products and summation
    buf_re = np.empty(8)
    buf_im = np.empty(8)
    a, b, c, d = u[0], u[1], u[2], u[3]
    p, e = _two_prod(a.real, d.real)
    buf_re[0] = p
    buf_re[1] = e
    p, e = _two_prod(a.imag, d.imag)
    buf_re[2] = -p
    buf_re[3] = -e
    p, e = _two_prod(b.real, c.real)
    buf_re[4] = -p
    buf_re[5] = -e
    p, e = _two_prod(b.imag, c.imag)
    buf_re[6] = p
    buf_re[7] = e
    p, e = _two_prod(a.real, d.imag)
    buf_im[0] = p
    buf_im[1] = e
    p, e = _two_prod(a.imag, d.real)
    buf_im[2] = p
    buf_im[3] = e
    p, e = _two_prod(b.real, c.imag)
    buf_im[4] = -p
    buf_im[5] = -e
    p, e = _two_prod(b.imag, c.real)
    buf_im[6] = -p
    buf_im[7] = -e
    dre = _sum8(buf_re) - 1.0
    dim = _sum8(buf_im)
    return np.sqrt(dre * dre + dim * dim)


@njit(cache=True)
def _poly6(params, off, x):
    # Horner evaluation of six packed complex coefficients, highest first.
    acc = complex(params[off], params[off + 1])
    for k in range(1, 6):
        acc = acc * x + complex(params[off + 2 * k], params[off + 2 * k + 1])
    return acc


@njit(cache=True)
def _coeff(mode, params, z):
    # returns the entries (c11, c12, c21, c22) of C(z)
    if mode == 0:
        c1, c2, c3 = params[0], params[1], params[2]
        p = complex(params[3], params[4])
        s = complex(params[5], params[6])
        den = 2.0 * z - p
        w = z - 1.0
        kap = c3 * den * den / (8.0 * z * z * w * w)
        g = z + s / (2.0 * den)
        return kap * g, -kap * g * g, kap + 0.0j, -kap * g
    elif mode == 1:
        c1, c2, c3 = params[0], params[1], params[2]
        p = complex(params[3], params[4])
        w = z - 1.0
        r = 2.0 / z + 2.0 / w - 4.0 / (2.0 * z - p)
        s_val = ((c3 * z + (c2 - c3 - c1)) * z + c1) / (2.0 * z * z * w * w)
        return 0.0j, 1.0 + 0.0j, -s_val, -r
    elif mode == 2:
        a, b, cc = params[0], params[1], params[2]
        den = z * (1.0 - z)
        r = (cc - (a + b + 1.0) * z) / den
        s_val = -a * b / den
        return 0.0j, 1.0 + 0.0j, -s_val, -r
    else:
        # log-chart gauge: z is zeta, the chart point is p0 + exp(zeta)
        x = complex(params[0], params[1]) + np.exp(z)
        qf = _poly6(params, 2, x) / _poly6(params, 14, x)
        gp = _poly6(params, 26, x) / _poly6(params, 38, x)
        return 0.0j, qf, -gp, -1.0 + 0.0j


@njit(cache=True)
def _deriv(mode, params, z, zdot, u, out):
    c11, c12, c21, c22 = _coeff(mode, params, z)
    out[0] = (c11 * u[0] + c12 * u[2]) * zdot
    out[1] = (c11 * u[1] + c12 * u[3]) * zdot
    out[2] = (c21 * u[0] + c22 * u[2]) * zdot
    out[3] = (c21 * u[1] + c22 * u[3]) * zdot


@njit(cache=True)
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


@njit(cache=True)
def integrate_path(rows, mode, params, u0, rtol):
    """Transport u0 along the path; see the module docstring for layout."""
    u = u0.copy()
    k1 = np.empty(4, dtype=np.complex128)
    k2 = np.empty(4, dtype=np.complex128)
    k3 = np.empty(4, dtype=np.complex128)
    k4 = np.empty(4, dtype=np.complex128)
    k5 = np.empty(4, dtype=np.complex128)
    k6 = np.empty(4, dtype=np.complex128)
    k7 = np.empty(4, dtype=np.complex128)
    ut = np.empty(4, dtype=np.complex128)
    err_accum = 0.0
    drift = 0.0
    nsteps = 0
    for ir in range(rows.shape[0]):
        row = rows[ir]
        if row[0] == 0.0:
            speed = abs(complex(row[3], row[4]) - complex(row[1], row[2]))
        else:
            speed = row[3] * abs(row[5] - row[4])
        if speed == 0.0:
            continue
        t = 0.0
        h = 1e-3
        z, zdot = _point(row, t)
        _deriv(mode, params, z, zdot, u, k1)
        while t < 1.0:
            hs = h
            if hs > 1.0 - t:
                hs = 1.0 - t
            # Dormand-Prince 5(4) stages
            for i in range(4):
                ut[i] = u[i] + hs * 0.2 * k1[i]
            z, zdot = _point(row, t + 0.2 * hs)
            _deriv(mode, params, z, zdot, ut, k2)
            for i in range(4):
                ut[i] = u[i] + hs * (0.075 * k1[i] + 0.225 * k2[i])
            z, zdot = _point(row, t + 0.3 * hs)
            _deriv(mode, params, z, zdot, ut, k3)
            for i in range(4):
                ut[i] = u[i] + hs * (
                    (44.0 / 45.0) * k1[i] - (56.0 / 15.0) * k2[i] + (32.0 / 9.0) * k3[i]
                )
            z, zdot = _point(row, t + 0.8 * hs)
            _deriv(mode, params, z, zdot, ut, k4)
            for i in range(4):
                ut[i] = u[i] + hs * (
                    (19372.0 / 6561.0) * k1[i]
                    - (25360.0 / 2187.0) * k2[i]
                    + (64448.0 / 6561.0) * k3[i]
                    - (212.0 / 729.0) * k4[i]
                )
            z, zdot = _point(row, t + (8.0 / 9.0) * hs)
            _deriv(mode, params, z, zdot, ut, k5)
            for i in range(4):
                ut[i] = u[i] + hs * (
                    (9017.0 / 3168.0) * k1[i]
                    - (355.0 / 33.0) * k2[i]
                    + (46732.0 / 5247.0) * k3[i]
                    + (49.0 / 176.0) * k4[i]
                    - (5103.0 / 18656.0) * k5[i]
                )
            z, zdot = _point(row, t + hs)
            _deriv(mode, params, z, zdot, ut, k6)
            for i in range(4):
                ut[i] = u[i] + hs * (
                    (35.0 / 384.0) * k1[i]
                    + (500.0 / 1113.0) * k3[i]
                    + (125.0 / 192.0) * k4[i]
                    - (2187.0 / 6784.0) * k5[i]
                    + (11.0 / 84.0) * k6[i]
                )
            _deriv(mode, params, z, zdot, ut, k7)
            err = 0.0
            for i in range(4):
                ei = hs * (
                    (71.0 / 57600.0) * k1[i]
                    - (71.0 / 16695.0) * k3[i]
                    + (71.0 / 1920.0) * k4[i]
                    - (17253.0 / 339200.0) * k5[i]
                    + (22.0 / 525.0) * k6[i]
                    - (1.0 / 40.0) * k7[i]
                )
                mag = abs(ei)
                if mag > err:
                    err = mag
            unorm = 0.0
            for i in range(4):
                mag = abs(u[i])
                if mag > unorm:
                    unorm = mag
            if unorm < 1.0:
                unorm = 1.0
            allowed = rtol * speed * hs * unorm
            if err != err:
                # a singular coefficient evaluation poisoned the stages
                h = 0.2 * hs
            else:
                if err <= allowed:
                    t += hs
                    for i in range(4):
                        u[i] = ut[i]
                        k1[i] = k7[i]
                    err_accum += err
                    nsteps += 1
                    if mode == 0:
                        d = _det_drift(u)
                        if d > drift:
                            drift = d
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
                return 1, u, err_accum, drift, nsteps
    return 0, u, err_accum, drift, nsteps
