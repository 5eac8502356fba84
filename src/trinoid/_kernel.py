"""The two transport engines: adaptive Dormand-Prince and Chebyshev collocation.

Both integrate a 2x2 complex linear ODE dU = C(z) U dz and share the
coefficient functions of _COEFF.  The mode number picks the coefficient
matrix C, once per call:

    0: the rank-one trinoid system in the z chart
    1: the associated scalar second-order equation, in normal form
    2: the hypergeometric equation, in normal form
    4: the gauge-fixed system in a logarithmic chart around one puncture

Normal form (Ince, Ordinary Differential Equations, 1926).  Modes 1 and 2
carry a second-order equation X'' + r X' + s X = 0.  Its companion form,
C = [[0, 1], [-s, -r]], is dominated on every loop by the 2/z-type poles
of r; X = phi Y with phi'/phi = -r/2 removes them and leaves
Y'' + I Y = 0 with I = s - r^2/4 - r'/2, so C = [[0, 1], [-I, 0]], with I
written out in closed form.  C is trace free, so every transport has
determinant 1 (Abel's identity), and a loop transport from a base point
is the companion one conjugated by the constant gauge [[1, 0], [r/2, 1]]
there, times phi's phase around the loop: the same projective class,
which is all that the scalar and hypergeometric checks compare.  Measured
at rtol 1e-10, the two loops of 2/3,2/3,2/3 take 1,991 steps in mode 1
instead of 3,098 in companion form (3,3,3: 2,826 instead of 5,052), and
the hypergeometric loops of 2/3,2/3,2/3 take 760 instead of 1,815.

integrate_path runs adaptive Dormand-Prince along a piecewise path of
segments and circular arcs; it carries the loop monodromies.
chebyshev_transfers solves a batch of straight segments a -> b with
U(a) = I by Chebyshev collocation and returns U at given points of each
segment (its dense output); it carries every grid edge of the mesh, each
sampled at its end b, and every recovery stencil.  The coefficient
functions work pointwise on scalars and elementwise on numpy arrays alike.

Parameters arrive as a flat float array: (c1, c2, c3, Re p, Im p, Re s,
Im s) for modes 0/1 where p is the umbilic sum and s the squared umbilic
gap, (a, b, c, 0, 0, 0, 0) for mode 2, and for mode 4 the seven floats of
modes 0/1 followed by (Re p0, Im p0, inverted).

Mode 4 integrates dV = B(zeta) V dzeta where zeta is a log chart around a
puncture at p0, x = p0 + exp(zeta), and

    B = [[0, qf(x)], [-gp(x), -1]]

with qf and gp rational functions of x.  This is the conjugate of the
rank-one system under the moving frame [[G, 1], [1, 0]] diag(1, x - p0);
qf is the curvature function times (x - p0)^2 and gp is the Gauss map
derivative, both regular at the puncture, so the step size stays O(1)
down the whole cusp neck.  For the punctures p0 = 0 and p0 = 1 the chart
is z itself and

    qf = c3 (2x - p)^2 / (8 (x - 1 + p0)^2),    gp = 1 - s / (2x - p)^2;

for the end at infinity (inverted = 1, p0 = 0) the chart is x = 1/z and,
with D = s x^2 - 2p x + 4,

    qf = c3 D^2 / (32 (x - 1)^2),    gp = (4 (p^2 - s) x^2 - 16p x + 16) / D^2.

Dormand-Prince.  A path is a float array of shape (n, 6).  Row layout:
    segment: (0, Re a, Im a, Re b, Im b, unused)
    arc:     (1, Re center, Im center, radius, theta0, theta1)

Error control is relative and per unit arclength: a step of arclength L is
accepted when the embedded error estimate is at most rtol * L * max(1,
max-norm of U).  For the matrix system (mode 0) the determinant of U is
monitored with algebra.det2_compensated; the running maximum deviation
from 1 comes back to the caller, since a trace-free generator conserves
det exactly and any drift is pure integration error.

Each _COEFF entry reads the parameters once and returns C as a function
of z, the one copy of its formula, called on a point by integrate_path and
on an array of nodes by collocation.  integrate_path reads each path row
once, into a point function of the row's parameter, and unrolls the seven
stages over the four entries of U, row-major; stage 7 sits at t + h with
stage 6 and reuses its C (first same as last), so a step evaluates C six
times.  The rows, the parameters and U(0) are read once, with tolist(),
and the stages run on Python floats and complex numbers, whose arithmetic
costs about half that of numpy scalars; arcs evaluate math.cos and
math.sin.  Mode 4 stays on numpy scalars, which its np.exp returns.
CPython's complex division rounds differently from numpy's in the last
bits, so leaving numpy scalars moved the bits of the mode 0, 1 and 2
transports but no step count: the loop generators moved by 2.2e-15
relative at 2/3,2/3,2/3, by 2.7e-13 at 3,3,3 (the identity up to an
integration error of a few 1e-12), and by at most 2.3e-8 relative over 200
random triples of the monodromy sweep, at a generator of norm 1.6e4.

Return status: 0 success, 1 step size underflow (a near-singular path).
Stages that overflow to inf or NaN pass the error norm, so a U with status
0 may not be finite, and a stage that divides by zero, or takes abs of a
complex number too large for a float, raises ZeroDivisionError or
OverflowError; fuchsian.run_kernel refuses all of these.

Chebyshev collocation (Trefethen, Spectral Methods in MATLAB, 2000).  A
piece of the segment is solved on the N + 1 Chebyshev points of the
second kind at a fixed N, in the integral form W = int_a^z C (I + W) of
the equation for W = U - I (Greengard, SIAM J. Numer. Anal. 28, 1991):
one linear solve of size 2(N + 1) with two right-hand sides.  Unlike the
differentiation-matrix form, whose condition number grows like N^2 and
beyond near a pole of C, the integral form stays well conditioned, and
solving for W keeps the rounding error relative to |U - I| on the short
pieces that make up most transfers.  The piece is accepted when its last
three Chebyshev coefficients, over the four entries of U, are at most
max(rtol * |b - a|, 64 eps) * max(1, max-norm of U), the same
per-unit-length rule as above with a floor at the rounding level of the
solve (the tail-decay test of Chebfun).  Otherwise it is bisected.
Coefficients or a solution that are not finite, a singular system, a
piece bisected more than _MAX_DEPTH times, or an rtol below the unit
roundoff raise StepUnderflow.

Batched rounds.  The segments of a batch are independent initial value
problems, so they are solved together, in rounds over the pending pieces,
_CHUNK pieces at a time (which bounds the memory): the coefficients are
evaluated on a (k, N + 1) node array, the k systems assembled in place,
solved by one stacked LAPACK call and tail-tested at once, and the halves
of the failed pieces go to the next round.  The accepted pieces of each segment are then composed left to
right; the piece count and the arithmetic of every piece are those of a
segment solved alone.

Dense output.  U at a point of a segment is the barycentric interpolant
of W at the N + 1 nodes (Berrut & Trefethen, SIAM Rev. 46, 2004) of the
first accepted piece that ends at or after it, plus I, times the transfer
up to that piece's start.  The interpolant carries the accuracy of the
nodal values, so the samples cost no extra solve and need no extra
tolerance.
"""

import math

import numpy as np

from .algebra import det2_compensated
from .errors import StepUnderflow


# Each _COEFF entry binds the parameters to z -> (c11, c12, c21, c22) of C(z).


def _coeff_matrix(params):
    c3 = params[2]
    p = complex(params[3], params[4])
    s = complex(params[5], params[6])

    def coeff(z):
        den = 2.0 * z - p
        w = z - 1.0
        kap = c3 * den * den / (8.0 * z * z * w * w)
        g = z + s / (2.0 * den)
        return kap * g, -kap * g * g, kap + 0.0j, -kap * g

    return coeff


def _coeff_scalar(params):
    # X'' + r X' + Q X = 0 with r = -(log(Q/G'))' = 2/z + 2/(z - 1) - 4/d,
    # d = 2z - p, as the umbilic factors of Q and G' cancel: Q/G' = c3 d^2 /
    # (8 z^2 (z - 1)^2).  In normal form Y'' + I Y = 0 with
    # I = Q - r^2/4 - r'/2 = Q - 8/d^2 + 2 (2z - 2 + p) / (z (z - 1) d)
    c1, c3 = params[0], params[2]
    c0 = params[1] - c3 - c1
    p = complex(params[3], params[4])

    def coeff(z):
        zw = z * (z - 1.0)
        d = 2.0 * z - p
        inv = ((c3 * z + c0) * z + c1) / (2.0 * zw * zw) - 8.0 / (d * d) + 2.0 * (2.0 * z - 2.0 + p) / (zw * d)
        return 0.0j, 1.0 + 0.0j, -inv, 0.0j

    return coeff


def _coeff_hypergeometric(params):
    # z (1 - z) X'' + (c - (a + b + 1) z) X' - ab X = 0 in normal form, with
    # the exponent differences l = 1 - c, m = c - a - b and n = a - b at 0, 1
    # and infinity: 4 I = (1 - l^2)/z^2 + (1 - m^2)/(z - 1)^2
    # + (l^2 + m^2 - n^2 - 1)/(z (z - 1))
    a, b, cc = params[0], params[1], params[2]
    l2, m2, n2 = (1.0 - cc) ** 2, (cc - a - b) ** 2, (a - b) ** 2
    k0, k1, k01 = 0.25 * (1.0 - l2), 0.25 * (1.0 - m2), 0.25 * (l2 + m2 - n2 - 1.0)

    def coeff(z):
        w = z - 1.0
        return 0.0j, 1.0 + 0.0j, -(k0 * w * w + k1 * z * z + k01 * z * w) / (z * z * w * w), 0.0j

    return coeff


def _coeff_log_chart(params):
    # z is zeta, the chart point is x = p0 + exp(zeta)
    c3 = params[2]
    p = complex(params[3], params[4])
    s = complex(params[5], params[6])
    p0 = complex(params[7], params[8])
    inverted = params[9]

    def coeff(z):
        x = p0 + np.exp(z)
        if inverted:
            d = (s * x - 2.0 * p) * x + 4.0
            w = x - 1.0
            qf = c3 * d * d / (32.0 * w * w)
            gp = ((4.0 * (p * p - s) * x - 16.0 * p) * x + 16.0) / (d * d)
        else:
            den = 2.0 * x - p
            # the other finite puncture, written so that p0 = 1 leaves x exact
            w = x - (1.0 - p0)
            qf = c3 * den * den / (8.0 * w * w)
            gp = 1.0 - s / (den * den)
        return 0.0j, qf, -gp, -1.0 + 0.0j

    return coeff


_COEFF = {0: _coeff_matrix, 1: _coeff_scalar, 2: _coeff_hypergeometric, 4: _coeff_log_chart}


def _piece(row):
    """Arclength speed of a path row and its point t -> (z, dz/dt), fields read once."""
    kind, x1, y1, x2, y2, x3 = row
    if kind == 0.0:
        a = complex(x1, y1)
        d = complex(x2, y2) - a
        return abs(d), lambda t: (a + t * d, d)
    c, rad, th0, dth = complex(x1, y1), x2, y2, x3 - y2
    irdth = 1j * rad * dth

    def point(t):
        ang = th0 + t * dth
        e = complex(math.cos(ang), math.sin(ang))
        return c + rad * e, irdth * e

    return rad * abs(dth), point


def integrate_path(rows, mode, params, u0, rtol):
    """Transport u0 along the path; see the module docstring for layout."""
    coeff = _COEFF[mode](params.tolist())
    watch_det = mode == 0
    # U = [[ua, ub], [uc, ud]]; stage j's derivative C U dz/dt is [[aj, bj], [cj, dj]]
    ua, ub, uc, ud = u0.tolist()
    unorm = max(1.0, abs(ua), abs(ub), abs(uc), abs(ud))
    err_accum = 0.0
    drift = 0.0
    nsteps = 0
    for row in rows.tolist():
        speed, point = _piece(row)
        if speed == 0.0:
            continue
        t = 0.0
        h = 1e-3
        z, zdot = point(t)
        c11, c12, c21, c22 = coeff(z)
        a1, b1 = (c11 * ua + c12 * uc) * zdot, (c11 * ub + c12 * ud) * zdot
        c1, d1 = (c21 * ua + c22 * uc) * zdot, (c21 * ub + c22 * ud) * zdot
        while t < 1.0:
            hs = min(h, 1.0 - t)
            # Dormand-Prince 5(4) stages
            h2 = hs * 0.2
            va, vb, vc, vd = ua + h2 * a1, ub + h2 * b1, uc + h2 * c1, ud + h2 * d1
            z, zdot = point(t + 0.2 * hs)
            c11, c12, c21, c22 = coeff(z)
            a2, b2 = (c11 * va + c12 * vc) * zdot, (c11 * vb + c12 * vd) * zdot
            c2, d2 = (c21 * va + c22 * vc) * zdot, (c21 * vb + c22 * vd) * zdot
            va = ua + hs * (0.075 * a1 + 0.225 * a2)
            vb = ub + hs * (0.075 * b1 + 0.225 * b2)
            vc = uc + hs * (0.075 * c1 + 0.225 * c2)
            vd = ud + hs * (0.075 * d1 + 0.225 * d2)
            z, zdot = point(t + 0.3 * hs)
            c11, c12, c21, c22 = coeff(z)
            a3, b3 = (c11 * va + c12 * vc) * zdot, (c11 * vb + c12 * vd) * zdot
            c3, d3 = (c21 * va + c22 * vc) * zdot, (c21 * vb + c22 * vd) * zdot
            va = ua + hs * ((44.0 / 45.0) * a1 - (56.0 / 15.0) * a2 + (32.0 / 9.0) * a3)
            vb = ub + hs * ((44.0 / 45.0) * b1 - (56.0 / 15.0) * b2 + (32.0 / 9.0) * b3)
            vc = uc + hs * ((44.0 / 45.0) * c1 - (56.0 / 15.0) * c2 + (32.0 / 9.0) * c3)
            vd = ud + hs * ((44.0 / 45.0) * d1 - (56.0 / 15.0) * d2 + (32.0 / 9.0) * d3)
            z, zdot = point(t + 0.8 * hs)
            c11, c12, c21, c22 = coeff(z)
            a4, b4 = (c11 * va + c12 * vc) * zdot, (c11 * vb + c12 * vd) * zdot
            c4, d4 = (c21 * va + c22 * vc) * zdot, (c21 * vb + c22 * vd) * zdot
            va = ua + hs * ((19372.0 / 6561.0) * a1 - (25360.0 / 2187.0) * a2
                            + (64448.0 / 6561.0) * a3 - (212.0 / 729.0) * a4)
            vb = ub + hs * ((19372.0 / 6561.0) * b1 - (25360.0 / 2187.0) * b2
                            + (64448.0 / 6561.0) * b3 - (212.0 / 729.0) * b4)
            vc = uc + hs * ((19372.0 / 6561.0) * c1 - (25360.0 / 2187.0) * c2
                            + (64448.0 / 6561.0) * c3 - (212.0 / 729.0) * c4)
            vd = ud + hs * ((19372.0 / 6561.0) * d1 - (25360.0 / 2187.0) * d2
                            + (64448.0 / 6561.0) * d3 - (212.0 / 729.0) * d4)
            z, zdot = point(t + (8.0 / 9.0) * hs)
            c11, c12, c21, c22 = coeff(z)
            a5, b5 = (c11 * va + c12 * vc) * zdot, (c11 * vb + c12 * vd) * zdot
            c5, d5 = (c21 * va + c22 * vc) * zdot, (c21 * vb + c22 * vd) * zdot
            va = ua + hs * ((9017.0 / 3168.0) * a1 - (355.0 / 33.0) * a2 + (46732.0 / 5247.0) * a3
                            + (49.0 / 176.0) * a4 - (5103.0 / 18656.0) * a5)
            vb = ub + hs * ((9017.0 / 3168.0) * b1 - (355.0 / 33.0) * b2 + (46732.0 / 5247.0) * b3
                            + (49.0 / 176.0) * b4 - (5103.0 / 18656.0) * b5)
            vc = uc + hs * ((9017.0 / 3168.0) * c1 - (355.0 / 33.0) * c2 + (46732.0 / 5247.0) * c3
                            + (49.0 / 176.0) * c4 - (5103.0 / 18656.0) * c5)
            vd = ud + hs * ((9017.0 / 3168.0) * d1 - (355.0 / 33.0) * d2 + (46732.0 / 5247.0) * d3
                            + (49.0 / 176.0) * d4 - (5103.0 / 18656.0) * d5)
            z, zdot = point(t + hs)
            c11, c12, c21, c22 = coeff(z)
            a6, b6 = (c11 * va + c12 * vc) * zdot, (c11 * vb + c12 * vd) * zdot
            c6, d6 = (c21 * va + c22 * vc) * zdot, (c21 * vb + c22 * vd) * zdot
            # the fifth-order solution; stage 7 shares stage 6's point and C (FSAL)
            va = ua + hs * ((35.0 / 384.0) * a1 + (500.0 / 1113.0) * a3 + (125.0 / 192.0) * a4
                            - (2187.0 / 6784.0) * a5 + (11.0 / 84.0) * a6)
            vb = ub + hs * ((35.0 / 384.0) * b1 + (500.0 / 1113.0) * b3 + (125.0 / 192.0) * b4
                            - (2187.0 / 6784.0) * b5 + (11.0 / 84.0) * b6)
            vc = uc + hs * ((35.0 / 384.0) * c1 + (500.0 / 1113.0) * c3 + (125.0 / 192.0) * c4
                            - (2187.0 / 6784.0) * c5 + (11.0 / 84.0) * c6)
            vd = ud + hs * ((35.0 / 384.0) * d1 + (500.0 / 1113.0) * d3 + (125.0 / 192.0) * d4
                            - (2187.0 / 6784.0) * d5 + (11.0 / 84.0) * d6)
            a7, b7 = (c11 * va + c12 * vc) * zdot, (c11 * vb + c12 * vd) * zdot
            c7, d7 = (c21 * va + c22 * vc) * zdot, (c21 * vb + c22 * vd) * zdot
            ea = abs(hs * ((71.0 / 57600.0) * a1 - (71.0 / 16695.0) * a3 + (71.0 / 1920.0) * a4
                           - (17253.0 / 339200.0) * a5 + (22.0 / 525.0) * a6 - (1.0 / 40.0) * a7))
            eb = abs(hs * ((71.0 / 57600.0) * b1 - (71.0 / 16695.0) * b3 + (71.0 / 1920.0) * b4
                           - (17253.0 / 339200.0) * b5 + (22.0 / 525.0) * b6 - (1.0 / 40.0) * b7))
            ec = abs(hs * ((71.0 / 57600.0) * c1 - (71.0 / 16695.0) * c3 + (71.0 / 1920.0) * c4
                           - (17253.0 / 339200.0) * c5 + (22.0 / 525.0) * c6 - (1.0 / 40.0) * c7))
            ed = abs(hs * ((71.0 / 57600.0) * d1 - (71.0 / 16695.0) * d3 + (71.0 / 1920.0) * d4
                           - (17253.0 / 339200.0) * d5 + (22.0 / 525.0) * d6 - (1.0 / 40.0) * d7))
            # never NaN: max keeps 0.0 over a NaN that follows it
            err = max(0.0, ea, eb, ec, ed)
            allowed = rtol * speed * hs * unorm
            if err <= allowed:
                t += hs
                ua, ub, uc, ud = va, vb, vc, vd
                a1, b1, c1, d1 = a7, b7, c7, d7
                unorm = max(1.0, abs(ua), abs(ub), abs(uc), abs(ud))
                err_accum += err
                nsteps += 1
                if watch_det:
                    drift = max(drift, abs(det2_compensated(((ua, ub), (uc, ud))) - 1.0))
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
                return 1, np.array((ua, ub, uc, ud)), err_accum, drift, nsteps
    return 0, np.array((ua, ub, uc, ud)), err_accum, drift, nsteps


# Chebyshev collocation on x_j = cos(j pi / N), j = 0..N, so x_0 = 1 is the
# end b of a piece and x_N = -1 its start a.
_N = 24
_FLOOR = 64.0 * np.finfo(float).eps
_MAX_DEPTH = 30
_UNIT_ROUNDOFF = 0.5 * np.finfo(float).eps


def check_rtol(rtol, what="tolerance"):
    """Raise StepUnderflow naming what when rtol is below the unit roundoff, which no step meets."""
    if not rtol >= _UNIT_ROUNDOFF:
        raise StepUnderflow(f"{what} {rtol:.3g} is below the unit roundoff")


def _chebyshev_tables(n):
    """Nodes, the integration matrix from x = -1 and the rows giving the
    last three Chebyshev coefficients, all acting on values at the nodes."""
    j = np.arange(n + 1)
    x = np.sin(np.pi * (n - 2 * j) / (2 * n))
    # values -> Chebyshev coefficients a_0..a_N
    k = np.arange(n + 1)[:, None]
    to_coeffs = (2.0 / n) * np.cos(np.pi * k * j[None, :] / n)
    to_coeffs[:, [0, n]] *= 0.5
    to_coeffs[[0, n]] *= 0.5
    # integral of sum a_k T_k as a series in T_0..T_{N+1}:
    # T_0 -> T_1, T_1 -> T_2 / 4, T_k -> T_{k+1} / 2(k+1) - T_{k-1} / 2(k-1)
    integ = np.zeros((n + 2, n + 1))
    integ[1, 0] = 1.0
    integ[2, 1] = 0.25
    for m in range(2, n + 1):
        integ[m + 1, m] = 1.0 / (2 * (m + 1))
        integ[m - 1, m] = -1.0 / (2 * (m - 1))
    at_nodes = np.cos(np.pi * np.outer(j, np.arange(n + 2)) / n)
    s = at_nodes @ integ @ to_coeffs
    s -= s[n]
    return x, s, to_coeffs[n - 2:]


_X, _S, _TAIL = _chebyshev_tables(_N)
_NEG_S = (-_S).astype(complex)  # complex, so that assembly multiplies without casting
_EYE = np.eye(2)[:, None, :]
# barycentric weights of the second-kind points (Berrut & Trefethen 2004)
_BARY = (-1.0) ** np.arange(_N + 1)
_BARY[[0, _N]] *= 0.5
# pieces solved at once and samples interpolated at once: 8 complex 50x50
# systems are 320 KB, and 128 samples gather 200 KB of nodal values, which
# keeps these transients small against the process (and is no slower than
# larger chunks, since the systems stay in cache)
_CHUNK = 8
_DENSE_CHUNK = 128


def _interpolate(w, x):
    """I plus the polynomials through the nodal values w (shape (n, 2, N + 1,
    2), a piece per sample) at the local coordinates x in [-1, 1], shape
    (n, 2, 2), by the barycentric formula of the second kind; a coordinate
    that falls on a node takes that node's value."""
    d = x[:, None] - _X[None, :]
    hit = d == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        lag = _BARY / d
    on_node = hit.any(axis=1)
    lag[on_node] = hit[on_node]
    lag /= lag.sum(axis=1, keepdims=True)
    return np.eye(2) + np.einsum("sj,srjc->src", lag, w)


def _collocate(coeff, a, b, rtol, buf):
    """W = U - I of the pieces a -> b at their nodes, shape (k, 2, N + 1, 2)
    with the node index in the middle, and whether each tail has decayed.

    Solves the integral form W = S (hC (I + W)) for W = U - I at the nodes,
    with h = (b - a) / 2 and S the integration matrix from the start, for at
    most _CHUNK pieces at once; the systems are assembled in buf.
    """
    k, n1 = len(a), _N + 1
    h = 0.5 * (b - a)
    hc = np.empty((k, 2, 2, n1), dtype=complex)
    with np.errstate(all="ignore"):
        for i, ck in enumerate(coeff((a + h)[:, None] + h[:, None] * _X)):
            hc[:, i // 2, i % 2] = h[:, None] * ck
    if not np.isfinite(hc).all():
        raise StepUnderflow("the coefficients are singular on the segment")
    # block (r, s) of a system is I - S diag(h C_rs); block r of column s of
    # its right-hand side is S (h C_rs)
    m = buf[:k]
    np.multiply(_NEG_S[:, None, :], hc[:, :, None], out=m)
    m.reshape(k, -1)[:, :: 2 * n1 + 1] += 1.0
    rhs = (hc @ _S.T).transpose(0, 1, 3, 2).reshape(k, 2 * n1, 2)
    try:
        sol = np.linalg.solve(m.reshape(k, 2 * n1, 2 * n1), rhs)
    except np.linalg.LinAlgError as exc:
        raise StepUnderflow("singular collocation system") from exc
    if not np.isfinite(sol).all():
        raise StepUnderflow("the collocation solution is not finite")
    w = sol.reshape(k, 2, n1, 2)
    unorm = np.maximum(1.0, np.abs(w + _EYE).max(axis=(1, 2, 3)))
    tail = np.abs(_TAIL @ w).max(axis=(1, 2, 3))
    return w, tail <= np.maximum(rtol * np.abs(b - a), _FLOOR) * unorm


def chebyshev_transfers(mode, params, a, b, samples, rtol, stats=None):
    """U at the samples of dU = C(z) U dz along the segments a_i -> b_i
    with U(a_i) = I, shape (len(a), n, 2, 2) for samples of shape
    (len(a), n), a row of points on each segment (dense output).

    All segments share the mode and the parameters; see the module
    docstring for the rounds.  A sample at b_i is U(b_i), the product of
    the segment's piece transfers, bit for bit.  stats, when given,
    accumulates the accepted pieces under "n_pieces".
    """
    check_rtol(rtol)
    coeff = _COEFF[mode](params)
    a = np.atleast_1d(np.asarray(a, dtype=complex))
    b = np.atleast_1d(np.asarray(b, dtype=complex))
    nseg = len(a)
    # pending pieces: segment, start, end and the parameters of both ends,
    # which are dyadic, so bisecting them is exact
    seg, pa, pb, ta, tb = np.arange(nseg), a, b, np.zeros(nseg), np.ones(nseg)
    done = []  # accepted pieces: segment, ta, tb and W at their nodes
    buf = np.empty((_CHUNK, 2, _N + 1, 2, _N + 1), dtype=complex)
    for depth in range(_MAX_DEPTH + 1):
        ok = np.empty(len(seg), dtype=bool)
        for lo in range(0, len(seg), _CHUNK):
            hi = lo + _CHUNK
            w, ok[lo:hi] = _collocate(coeff, pa[lo:hi], pb[lo:hi], rtol, buf)
            mine = lo + np.flatnonzero(ok[lo:hi])
            done.append((seg[mine], ta[mine], tb[mine], w[mine - lo]))
        if ok.all():
            break
        if depth == _MAX_DEPTH:
            raise StepUnderflow(
                f"no convergence after {_MAX_DEPTH} bisections; "
                "the segment passes too close to a singular point"
            )
        seg, pa, pb, ta, tb = (x[~ok] for x in (seg, pa, pb, ta, tb))
        mid, tm = pa + 0.5 * (pb - pa), 0.5 * (ta + tb)
        seg, pa, pb = np.r_[seg, seg], np.r_[pa, mid], np.r_[mid, pb]
        ta, tb = np.r_[ta, tm], np.r_[tm, tb]
    seg, ta, tb, w = (np.concatenate(x) for x in zip(*done))
    if stats is not None:
        stats["n_pieces"] = stats.get("n_pieces", 0) + len(seg)
    # slot[i, k] is the k-th piece of segment i from the left (len(seg) past
    # its last); compose them left to right, keeping the transfer up to the
    # start of each
    order = np.lexsort((ta, seg))
    pos = np.empty(len(seg), dtype=np.int64)
    pos[order] = np.arange(len(seg)) - np.searchsorted(seg[order], seg[order])
    slot = np.full((nseg, pos.max() + 1), len(seg))
    slot[seg, pos] = np.arange(len(seg))
    ends = w[:, :, 0, :] + np.eye(2)
    u = np.tile(np.eye(2, dtype=complex), (nseg, 1, 1))
    start = np.empty_like(ends)
    for k in range(slot.shape[1]):
        mine = slot[:, k][slot[:, k] < len(seg)]
        start[mine] = u[seg[mine]]
        u[seg[mine]] = ends[mine] @ start[mine]
    # position of each sample along its segment as a parameter in [0, 1]
    # (an orthogonal projection, so that a sample at b gets exactly 1), and
    # the first piece of its segment that ends at or after it
    d = (b - a)[:, None]
    dd = d.real * d.real + d.imag * d.imag
    off = np.asarray(samples, dtype=complex) - a[:, None]
    tau = np.clip((off.real * d.real + off.imag * d.imag) / np.where(dd > 0.0, dd, 1.0), 0.0, 1.0)
    own = slot[np.repeat(np.arange(nseg), off.shape[1])]
    tau = tau.ravel()
    piece = own[np.arange(len(tau)), (np.r_[tb, 2.0][own] < tau[:, None]).sum(axis=1)]
    x = np.clip(2.0 * (tau - ta[piece]) / (tb[piece] - ta[piece]) - 1.0, -1.0, 1.0)
    dense = np.empty((len(tau), 2, 2), dtype=complex)
    for lo in range(0, len(tau), _DENSE_CHUNK):
        p = piece[lo:lo + _DENSE_CHUNK]
        dense[lo:lo + _DENSE_CHUNK] = _interpolate(w[p], x[lo:lo + _DENSE_CHUNK]) @ start[p]
    return dense.reshape(nseg, -1, 2, 2)

