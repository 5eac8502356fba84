"""The two transport engines: adaptive Dormand-Prince and Chebyshev collocation.

Both integrate a 2x2 complex linear ODE dU = C(z) U dz and share the
coefficient functions of _COEFF.  The mode number picks the coefficient
matrix C, once per call:

    0: the rank-one trinoid system in the z chart
    1: the associated scalar second-order equation, in companion form
    2: the hypergeometric equation, in companion form
    4: the gauge-fixed system in a logarithmic chart around one puncture

integrate_path runs adaptive Dormand-Prince along a piecewise path of
segments and circular arcs; it carries the loop monodromies.
chebyshev_transfers solves the transfers U(b) of a batch of straight
segments a -> b with U(a) = I by Chebyshev collocation; it carries every
grid edge of the mesh, and through its dense output (U at given points of
the segments) every recovery stencil.  chebyshev_transfer is its batch of
one.  The coefficient functions work pointwise on scalars and elementwise
on numpy arrays alike.

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

U passes between stages as the sequence of its four entries, row-major.
The path rows and the parameters arrive as numpy arrays and are read as
numpy scalars: whether a division in a coefficient function runs numpy's
or CPython's complex algorithm depends on the operand types, and the
results differ in the last bits.

Return status: 0 success, 1 step size underflow (a near-singular path).

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

import numpy as np

from .algebra import det2_compensated
from .errors import StepUnderflow


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
    # X'' + r X' + Q X = 0 with r = -(log(Q/G'))', where the umbilic factors
    # of Q and G' cancel: Q/G' = c3 (2z - p)^2 / (8 z^2 (z - 1)^2)
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
    # z is zeta, the chart point is x = p0 + exp(zeta)
    c3 = params[2]
    p = complex(params[3], params[4])
    s = complex(params[5], params[6])
    p0 = complex(params[7], params[8])
    x = p0 + np.exp(z)
    if params[9]:
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


# Chebyshev collocation on x_j = cos(j pi / N), j = 0..N, so x_0 = 1 is the
# end b of a piece and x_N = -1 its start a.
_N = 24
_FLOOR = 64.0 * np.finfo(float).eps
_MAX_DEPTH = 30
_UNIT_ROUNDOFF = 0.5 * np.finfo(float).eps


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


def _collocate(coeff, params, a, b, rtol, buf):
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
        for i, ck in enumerate(coeff(params, (a + h)[:, None] + h[:, None] * _X)):
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


def chebyshev_transfers(mode, params, a, b, rtol, stats=None, samples=None):
    """Transfer matrices U(b_i) of dU = C(z) U dz along the segments
    a_i -> b_i with U(a_i) = I, shape (len(a), 2, 2).

    All segments share the mode and the parameters; see the module
    docstring for the rounds.  stats, when given, accumulates the accepted
    pieces under "n_pieces".  With samples, an array of shape (len(a), n)
    of points on the segments, returns U at each of them instead, shape
    (len(a), n, 2, 2) (dense output).
    """
    if not rtol >= _UNIT_ROUNDOFF:
        raise StepUnderflow(f"tolerance {rtol:.3g} is below the unit roundoff")
    coeff = _COEFF[mode]
    a = np.atleast_1d(np.asarray(a, dtype=complex))
    b = np.atleast_1d(np.asarray(b, dtype=complex))
    nseg = len(a)
    # pending pieces: segment, start, end and the parameters of both ends,
    # which are dyadic, so bisecting them is exact
    seg, pa, pb, ta, tb = np.arange(nseg), a, b, np.zeros(nseg), np.ones(nseg)
    done = []  # accepted pieces: segment, ta, tb and W (at the end node only without samples)
    keep = _N + 1 if samples is not None else 1
    buf = np.empty((_CHUNK, 2, _N + 1, 2, _N + 1), dtype=complex)
    for depth in range(_MAX_DEPTH + 1):
        ok = np.empty(len(seg), dtype=bool)
        for lo in range(0, len(seg), _CHUNK):
            hi = lo + _CHUNK
            w, ok[lo:hi] = _collocate(coeff, params, pa[lo:hi], pb[lo:hi], rtol, buf)
            mine = lo + np.flatnonzero(ok[lo:hi])
            done.append((seg[mine], ta[mine], tb[mine], w[mine - lo, :, :keep]))
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
    if samples is None:
        return u
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


def chebyshev_transfer(mode, params, a, b, rtol, stats=None, samples=None):
    """chebyshev_transfers for the one segment a -> b: U(b), or with samples
    (points on the segment) U at each, shape (len(samples), 2, 2)."""
    if samples is not None:
        samples = np.asarray(samples, dtype=complex)[None]
    return chebyshev_transfers(mode, params, [a], [b], rtol, stats, samples)[0]
