"""Immersion builder: sampling grids, frame transport, and mesh assembly.

The surface is produced in four stages.  A SampleGrid covers the thrice
punctured sphere with one polar annulus per puncture plus a triangulated
core.  Its layout is index arithmetic: annulus vertex (end, ring, sector)
is number (end * rings + ring) * sectors + sector, and its spanning tree,
rooted at fuchsian.BASE_POINT, the base of the monodromy loops, is an
array of (parent, child) vertex rows.  Each end's rings are turned so that
sector 0 of the outer ring, where the tree enters the annulus, is joined
to the base by a straight segment clear of the punctures: every tree row
is one straight transfer.
transport_frame solves the frame equation dF = A F along the tree: every
edge is an initial value problem from the identity, so the z-chart rows
of the core, and the rows inside each annulus, are solved as one batch
each, and the frames are composed in row order afterwards.  It keeps the
frame at every vertex and each end's monodromy, the right factor that
continuing a frame once more around that puncture multiplies it by, which
well_definedness_defect applies at every annulus vertex.
recover_weierstrass differentiates the transported frame numerically in
the local frame of an eleven-point stencil around each annulus vertex,
sampled from one transfer, and extracts the induced (g, omega) data there,
which the defining differentials must reproduce; this is the main
integrity oracle.  build_mesh applies a unitarizing conjugator and
projects to the Poincare ball.

Transport inside an annulus does not use the raw z chart: the connection
has double poles at the punctures, so the step count would grow like the
inverse square of the radius.  Instead the frame is written as
F = P(x) diag(1, x - p) V with P = [[G, 1], [1, 0]], which turns the
system into dV = B V dzeta in the logarithmic chart zeta = log(x - p)
with B bounded down the whole neck (coefficient mode 4 of _kernel).
EndChart.transfer is the one log-chart step: it solves the V transfers of
a batch of segments by Chebyshev collocation, reads them at sample points
of the segments from the collocation's dense output, rescales them by
their exact determinant exp(-dzeta), making the assembled F transfers
unimodular by construction, and serves tree edges and seam arcs (one
sample, at the end) and the recovery stencils (eleven) alike.  The rows
that leave an annulus (the core edges and the base-to-anchor edges) are
straight segments in the z chart, solved by the same collocation and
sampled at their ends.  The end at infinity is handled in the x = 1/z
chart through conjugation by [[0, 1], [1, 0]].
"""

from __future__ import annotations

import cmath
import math
import struct
from collections import deque
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ._kernel import chebyshev_transfers, check_rtol
from .algebra import det2, det_defect, inv2, project_h3, solve_quadratic
from .config import CLEARANCE_FACTOR, TRANSPORT_TOL_FACTOR, Tolerances
from .errors import (
    BallEscape, EmptyIntersection, NonSL2Input, NullStructureViolation, SingularPathPoint, StepUnderflow,
)
from .fuchsian import BASE_POINT, MODE_LOG_CHART, MODE_MATRIX, path_clearance, segment, validate_path
from .trinoid_data import TrinoidData

_INNER_RADIUS = 1e-3

# Central finite-difference weights on eleven points (order ten).  The
# first derivative uses the antisymmetric weights, the second derivative
# the symmetric ones plus the center weight.
_FD_FIRST = (5.0 / 6.0, -5.0 / 21.0, 5.0 / 84.0, -5.0 / 504.0, 1.0 / 1260.0)
_FD_SECOND_CENTER = -5269.0 / 1800.0
_FD_SECOND = (5.0 / 3.0, -5.0 / 21.0, 5.0 / 126.0, -5.0 / 1008.0, 1.0 / 3150.0)


# ---------------------------------------------------------------------------
# per-end charts and gauge data


@dataclass(frozen=True)
class EndChart:
    """Local description of one puncture neighbourhood.

    For the punctures at 0 and 1 the chart coordinate is z itself; for the
    end at infinity it is x = 1/z and transported frames are conjugated by
    the index swap.  kernel_params is the parameter vector of coefficient
    mode 4: the trinoid's (c1, c2, c3, p, s) of modes 0/1, then the chart
    puncture and the inversion flag.
    """

    end: int
    puncture: complex
    inverted: bool
    r_out: float
    kernel_params: np.ndarray

    def chart_gauss(self, x: complex) -> complex:
        """Gauss map of the frame system expressed in this chart."""
        # p and s as numpy scalars, the type the trinoid data carries them in
        p, s = self.kernel_params[3:7].view(complex)
        if self.inverted:
            num = x * (4.0 - 2.0 * p * x)
            den = (s * x - 2.0 * p) * x + 4.0
            return num / den
        den = 2.0 * x - p
        return x + s / (2.0 * den)

    def to_global(self, x: complex) -> complex:
        return 1.0 / x if self.inverted else x

    def transfer(
        self,
        za: np.ndarray,
        zb: np.ndarray,
        samples: np.ndarray,
        rtol: float,
        stats: dict | None = None,
        origin: np.ndarray | None = None,
    ) -> np.ndarray:
        """Frame transfers from origin (za unless given; any point of each
        segment) to the samples, log-chart points on the segments za -> zb
        with a row per segment, shape (len(za), n, 2, 2): a sample axis
        before the matrix axes.  A tree edge samples its end, samples =
        zb[:, None].

        Solves the gauge-fixed system dV = B V dzeta on each segment by
        Chebyshev collocation (coefficient mode 4; stats collects its piece
        count) and reads the samples from its dense output.  That system
        has trace -1, so each V transfer U(s) U(origin)^-1 has determinant
        exactly exp(-(s - origin)); rescaling to it removes the solver's
        determinant error, and the frame transfer
        P(gs) diag(1, xi_s) V diag(1, 1/xi_o) P(go)^-1 then has unit
        determinant up to rounding.  For the end at infinity it is
        conjugated by the index swap.  Composing in V, before the gauge
        assembly, matters: composed as frame transfers, the factor
        diag(1, 1/xi_o) P(go)^-1 and its inverse would leave their rounding
        behind, enough to double the omega dg residual of the recovery
        stencils.
        """
        org = za if origin is None else origin
        t_v = chebyshev_transfers(
            MODE_LOG_CHART, self.kernel_params, za, zb, np.c_[samples, org], rtol, stats
        )
        t_v = t_v[:, :-1] @ np.linalg.inv(t_v[:, -1:])
        t_v *= np.sqrt(np.exp(-(samples - org[:, None])) / det2(t_v))[..., None, None]
        xi, xo = np.exp(samples), np.exp(org)[:, None]
        g, g_o = self.chart_gauss(self.puncture + xi), self.chart_gauss(self.puncture + xo)
        left = np.stack([g, xi, np.ones_like(xi), np.zeros_like(xi)], axis=-1)
        right = np.stack([np.zeros_like(xo), np.ones_like(xo), 1.0 / xo, -g_o / xo], axis=-1)
        m = left.reshape(t_v.shape) @ t_v @ right.reshape(-1, 1, 2, 2)
        return m[..., ::-1, ::-1] if self.inverted else m


def end_charts(data: TrinoidData) -> tuple[EndChart, EndChart, EndChart]:
    """Chart records for the three ends, with safe annulus radii.

    The outer radius keeps 55% clearance from the other punctures and 25%
    from the poles of the chart Gauss-map derivative (the point where the
    scalar reduction has its apparent singularity, and its images under
    inversion), so the gauge-fixed system stays uniformly regular.
    """
    p = data.q.total
    s = data.q.square_gap
    pole_dist = [abs(0.5 * p), abs(0.5 * p - 1.0)]
    roots = solve_quadratic(s, -2.0 * p, 4.0 + 0.0j)
    finite = [abs(r) for r in roots if np.isfinite(r) and abs(r) > 0.0]
    pole_dist.append(min(finite) if finite else math.inf)
    charts = []
    for e in range(3):
        r_out = min(0.45, 0.75 * pole_dist[e])
        if r_out < 8.0 * _INNER_RADIUS:
            raise SingularPathPoint(
                f"end {e + 1}: the Gauss-map pole sits at distance {pole_dist[e]:.3g} "
                "from the puncture, leaving no room for an annulus"
            )
        p0 = 1.0 if e == 1 else 0.0
        charts.append(
            EndChart(
                end=e,
                puncture=complex(p0),
                inverted=(e == 2),
                r_out=r_out,
                kernel_params=np.append(data.kernel_params(), [p0, 0.0, float(e == 2)]),
            )
        )
    return tuple(charts)


# ---------------------------------------------------------------------------
# sampling grid


@dataclass(frozen=True)
class SampleGrid:
    """Vertices, spanning tree and triangulation of the sampling domain.

    The annulus vertices come first, numbered by annulus_index: end, then
    ring (outermost first), then sector.  zeta holds their log-chart
    points, a row per vertex; the base point and the core lattice follow
    them in vertices.  edges is the spanning tree as (parent, child) rows
    in composition order, every parent a child of an earlier row (the base
    excepted): per end the edge from the base to its anchor (sector 0 of
    the outer ring), the outer ring's arcs and the spokes, then the core
    edges breadth first.  A row between two annulus vertices runs in its
    end's log chart; every other row is a straight z-chart segment that
    keeps CLEARANCE_FACTOR from the punctures.  Sector i of an end sits at
    log-chart angle 2 pi (i + turn) / sectors, where the end's turn is the
    first one that makes its anchor's segment clear; it is 0 wherever
    sector 0 already clears, and zeta carries it.
    """

    vertices: np.ndarray
    edges: np.ndarray
    faces: np.ndarray
    rings: int
    sectors: int
    charts: tuple
    zeta: np.ndarray
    base_index: int

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def annulus_index(self, end: int, ring: int, sector: int) -> int:
        ns = self.sectors
        return (end * self.rings + ring) * ns + sector % ns

    def annulus_position(self, v: int) -> tuple[int, int, int]:
        """(end, ring, sector) of annulus vertex v, inverting annulus_index."""
        if not 0 <= v < len(self.zeta):
            raise ValueError(f"vertex {v} is not an annulus vertex")
        end_ring, sector = divmod(int(v), self.sectors)
        return (*divmod(end_ring, self.rings), sector)


_PUNCTURES = (0.0 + 0.0j, 1.0 + 0.0j)


def _clear_turn(ch: EndChart, dtheta: float, ns: int) -> int:
    """The first sector turn whose outer-ring vertex, at angle dtheta * turn
    in the log chart of ch, is joined to BASE_POINT by a straight segment
    that keeps the clearance from the punctures."""
    log_r = math.log(ch.r_out)
    for turn in range(ns):
        anchor = ch.to_global(ch.puncture + cmath.exp(complex(log_r, dtheta * turn)))
        if path_clearance(segment(BASE_POINT, anchor), _PUNCTURES) >= CLEARANCE_FACTOR:
            return turn
    raise SingularPathPoint(
        f"end {ch.end + 1}: no straight segment from the base point to one of the {ns} "
        f"outer-ring sectors (radius {ch.r_out:.3g}) keeps the clearance {CLEARANCE_FACTOR:g} "
        "from the punctures"
    )


def sample_grid(data: TrinoidData, rings: int, sectors: int) -> SampleGrid:
    """Polar annuli around the three punctures plus a triangulated core.

    Ring radii decrease geometrically from the clipped outer radius to
    1e-3, which roughly equidistributes mesh edge lengths in the blowing
    up end metric.  The core is a triangular lattice bounded by the outer
    annulus circles, triangulated together with the outermost rings so the
    two parts share vertices.  The spanning tree is rooted at BASE_POINT,
    the base of the monodromy loops, enters each annulus once through its
    outer ring and covers the core breadth-first.  Raises SingularPathPoint,
    naming the end, when no outer-ring sector of an end can be reached from
    the base by a clear straight segment.
    """
    # imported here: scipy.spatial is the largest import of the program, and
    # only meshing needs it
    from scipy.spatial import Delaunay

    rings = int(rings)
    sectors = int(sectors)
    if rings < 2:
        raise ValueError("need at least two rings per end")
    if sectors < 3:
        raise ValueError("need at least three vertices per ring")
    charts = end_charts(data)
    nr, ns = rings, sectors
    n_ann = 3 * nr * ns

    zeta = np.zeros(n_ann, dtype=complex)
    verts = np.zeros(n_ann, dtype=complex)
    dtheta = 2.0 * math.pi / ns
    for ch in charts:
        ratio = math.log(_INNER_RADIUS / ch.r_out) / (nr - 1)
        turn = _clear_turn(ch, dtheta, ns)
        for k in range(nr):
            logr = math.log(ch.r_out) + ratio * k
            for i in range(ns):
                idx = (ch.end * nr + k) * ns + i
                zeta[idx] = zt = complex(logr, dtheta * (i + turn))
                verts[idx] = ch.to_global(ch.puncture + cmath.exp(zt))

    base_index = n_ann
    r_big = 1.0 / charts[2].r_out
    h = 2.8 * r_big / ns
    margin = 0.45 * h
    lattice = []
    rows = int(math.floor(r_big / (h * math.sqrt(3.0) / 2.0))) + 1
    for j in range(-rows, rows + 1):
        y = j * h * math.sqrt(3.0) / 2.0
        off = 0.5 * h if j % 2 else 0.0
        cols = int(math.floor((r_big + h) / h)) + 1
        for i in range(-cols, cols + 1):
            z = complex(i * h + off, y)
            if abs(z) > r_big - margin:
                continue
            if abs(z) < charts[0].r_out + margin:
                continue
            if abs(z - 1.0) < charts[1].r_out + margin:
                continue
            if abs(z - BASE_POINT) < 0.35 * h:
                continue
            lattice.append(z)

    all_verts = np.concatenate([verts, [BASE_POINT], np.array(lattice, dtype=complex)])

    # triangulate the core over the outer rings, the base point and the lattice
    ann = np.arange(n_ann).reshape(3, nr, ns)
    ring0_ids = ann[:, 0].ravel().tolist()
    local_ids = np.array(ring0_ids + list(range(base_index, len(all_verts))))
    tri = Delaunay(np.column_stack([all_verts[local_ids].real, all_verts[local_ids].imag]))
    core_faces = []
    for simplex in tri.simplices:
        gids = local_ids[simplex]
        c = all_verts[gids].mean()
        if abs(c) <= charts[0].r_out or abs(c - 1.0) <= charts[1].r_out:
            continue
        core_faces.append(gids)

    # two triangles per annulus quad from sector i to i + 1 (across the
    # seam for the last) and from ring k to k + 1
    nxt = np.roll(ann, -1, axis=2)
    quads = np.stack([ann[:, :-1], nxt[:, :-1], nxt[:, 1:], ann[:, 1:]], axis=-1)
    core_faces = np.array(core_faces, dtype=np.int64).reshape(-1, 3)
    faces = np.concatenate([quads[..., [[0, 1, 2], [0, 2, 3]]].reshape(-1, 3), core_faces])

    # per end: base to anchor, the outer ring's arcs, the spokes ring by ring
    edges = []
    for end in ann:
        arcs = np.c_[end[0, :-1], end[0, 1:]]
        edges += [[(base_index, end[0, 0])], arcs, np.c_[end[:-1].ravel(), end[1:].ravel()]]

    # breadth-first tree over the surviving core triangulation
    adj: dict[int, set] = {}
    for f in core_faces:
        for u, v in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            adj.setdefault(int(u), set()).add(int(v))
            adj.setdefault(int(v), set()).add(int(u))
    sources = [base_index] + ring0_ids
    seen = set(sources)
    queue = deque(sources)
    while queue:
        u = queue.popleft()
        for v in sorted(adj.get(u, ())):
            if v in seen or v < base_index:
                continue
            seen.add(v)
            validate_path(segment(all_verts[u], all_verts[v]), _PUNCTURES, CLEARANCE_FACTOR)
            edges.append([(u, v)])
            queue.append(v)
    unreachable = [v for v in range(base_index + 1, len(all_verts)) if v not in seen]
    if unreachable:
        raise ValueError(
            f"{len(unreachable)} core vertices are not reachable through the "
            "triangulation; the lattice spacing is too coarse for this geometry"
        )

    return SampleGrid(
        vertices=all_verts,
        edges=np.concatenate(edges).astype(np.int64),
        faces=faces,
        rings=nr,
        sectors=ns,
        charts=charts,
        zeta=zeta,
        base_index=base_index,
    )


# ---------------------------------------------------------------------------
# frame transport


@dataclass
class FrameTransport:
    """Transported frame at every grid vertex plus each end's monodromy.

    frames[v] is the solution of dF = A F with F = identity at the base
    point, continued along the spanning tree; it is one branch choice over
    the tree.  monodromy[e] is M_e = F(a)^-1 S F(l), with a and l the first
    and last outer-ring vertices of end e and S the transfer of the arc
    from l across the cut back to a.  Ring arcs are 2 pi periodic in the
    sector index, so continuing any frame of end e once more around its
    puncture gives frames[v] @ M_e: the monodromy acts on the right.
    """

    grid: SampleGrid
    data: TrinoidData
    frames: np.ndarray
    monodromy: np.ndarray
    rtol: float
    stats: dict = field(default_factory=dict)


def transport_frame(
    data: TrinoidData,
    grid: SampleGrid,
    tol: Tolerances = Tolerances(),
) -> FrameTransport:
    """Integrate the frame equation along the spanning tree from the base.

    The transport tolerance is the monodromy tolerance tightened by
    TRANSPORT_TOL_FACTOR, since mesh positions accumulate error over paths a
    few dozen edges deep.  Every edge is an initial value problem from the
    identity, so the edge transfers come from one batch of Chebyshev
    collocation transfers for the z-chart rows, each a straight segment,
    and one EndChart.transfer batch per end for the rows between its
    annulus vertices (ring arcs and spokes) and its seam.  Both take one
    call shape, (za, zb, samples, rtol, stats), and each row samples its
    end zb.  The frames are then composed in row order, and each end's
    monodromy is read off its outer ring and seam.
    stats["n_pieces"] counts the accepted collocation pieces.  A transport
    tolerance below the unit roundoff raises StepUnderflow before the first
    batch, naming Tolerances.ode and the tightening.  If the solver fails,
    the failed batch is solved again an edge at a time to name the edge
    that stalls.  Checks det F = 1 at every vertex afterwards.
    """
    rtol = tol.ode * TRANSPORT_TOL_FACTOR
    check_rtol(rtol, f"transport tolerance (Tolerances.ode {tol.ode:.3g} x TRANSPORT_TOL_FACTOR "
                     f"{TRANSPORT_TOL_FACTOR:g})")
    params0 = data.kernel_params()
    nv = grid.n_vertices
    n_ann = len(grid.zeta)
    transfers = np.zeros((nv, 2, 2), dtype=complex)
    seams = np.zeros((3, 2, 2), dtype=complex)
    stats: dict = {"n_pieces": 0}

    def _run(step, rows, za, zb, where="") -> np.ndarray:
        """The transfers of the rows za -> zb, each sampled at its end."""
        try:
            return step(za, zb, zb[:, None], rtol, stats)[:, 0]
        except StepUnderflow as exc:
            # name the edge that stalls by solving the batch one edge at a time
            for i, (p, c) in enumerate(rows.tolist()):
                try:
                    step(za[i:i + 1], zb[i:i + 1], zb[i:i + 1, None], rtol, None)
                except StepUnderflow as one:
                    raise StepUnderflow(f"transport stalled on edge {p}->{c}{where}: {one}") from one
            raise StepUnderflow(f"transport stalled on a batch of {len(za)} edges: {exc}") from exc

    in_end = (grid.edges < n_ann).all(axis=1)
    core = grid.edges[~in_end]
    transfers[core[:, 1]] = _run(
        partial(chebyshev_transfers, MODE_MATRIX, params0),
        core, grid.vertices[core[:, 0]], grid.vertices[core[:, 1]],
    )
    end_of = grid.edges[:, 0] // (grid.rings * grid.sectors)
    for ch in grid.charts:
        # one extra arc per end closes the outer ring across the seam
        seam = (grid.annulus_index(ch.end, 0, -1), grid.annulus_index(ch.end, 0, 0))
        rows = np.r_[grid.edges[in_end & (end_of == ch.end)], [seam]]
        zb = grid.zeta[rows[:, 1]]
        zb[-1] += 2.0j * math.pi
        t = _run(ch.transfer, rows, grid.zeta[rows[:, 0]], zb, f" (end {ch.end + 1})")
        transfers[rows[:-1, 1]] = t[:-1]
        seams[ch.end] = t[-1]
    frames = np.zeros((nv, 2, 2), dtype=complex)
    frames[grid.base_index] = np.eye(2)
    for p, c in grid.edges.tolist():
        frames[c] = transfers[c] @ frames[p]

    # The determinant of a large-entry frame is an ill-conditioned 2x2
    # evaluation (terms of size |F|^2 cancel to 1), so the conservation gate
    # scales with the squared Frobenius norm of each frame.
    stats["max_det_defect"] = worst = float(det_defect(frames).max())
    if worst > tol.det:
        raise NonSL2Input(
            f"transported frame determinant drifted to {worst:.3g} "
            f"(relative to squared frame norm), above {tol.det:.3g}"
        )
    monodromy = np.array([
        inv2(frames[grid.annulus_index(e, 0, 0)]) @ seams[e] @ frames[grid.annulus_index(e, 0, -1)]
        for e in range(3)
    ])
    return FrameTransport(grid=grid, data=data, frames=frames, monodromy=monodromy, rtol=rtol, stats=stats)


# ---------------------------------------------------------------------------
# Weierstrass recovery


@dataclass(frozen=True)
class WeierstrassData:
    """Per-vertex induced data of the immersion.

    g and omega are the entries of F^{-1} dF/dz per its rank-one shape,
    dg the z derivative of g, and gauss_ratio the quotient of the first
    column entries of dF/dz, which must reproduce the hyperbolic Gauss
    map.  numeric marks the vertices where they were recovered, from
    finite differences of the transported frame (the annulus rings); on
    core vertices nothing is recovered and those four entries are NaN.
    null_defect measures how far F^{-1} dF/dz, conjugated to the stencil's
    local frame, is from its required nilpotent rank-one shape, as the
    larger of |det| / |.|^2 and |trace| / |.| (0 on core vertices).
    stats["n_pieces"] counts the collocation pieces of the stencil
    transfers, one transfer per annulus vertex (a piece more for each
    bisection).
    """

    g: np.ndarray
    omega: np.ndarray
    dg: np.ndarray
    gauss_ratio: np.ndarray
    numeric: np.ndarray
    null_defect: np.ndarray
    stats: dict = field(default_factory=dict)


def recover_weierstrass(
    frames: FrameTransport,
    tol: Tolerances = Tolerances(),
) -> WeierstrassData:
    """Extract (g, omega) from the transported frame and check its shape.

    On annulus vertices the derivatives come from eleven-point stencils in
    the angular direction, spacing delta about one third of the grid
    spacing, where the order-ten truncation error drops below the shape
    tolerance with room to spare.  They are taken in the stencil's local
    frame T(s) = F(s) F0^-1, the frame transfer from the vertex (T = I
    there) to each stencil point, sampled from one EndChart.transfer
    across the 10 delta arc (dense output, one batch per end).  So
    n = T' = F0 (F^-1 F') F0^-1 and its derivative n' = T'' - n^2 = T''
    (n is nilpotent; the product would only add the finite-difference
    noise of the shape) are of the size of the connection, not of the
    frame.

    n must be trace free with determinant zero; a relative defect beyond
    the null_structure tolerance raises NullStructureViolation.  With
    F^-1 F' = omega (g, 1)^T (1, -g), the image v of n spans the columns of
    dF/dz = n F0, whose ratio is the Gauss ratio, and n' v = -omega dg v.
    So the null shape, the Gauss ratio and omega dg = -v* n' v / |v|^2 are
    read off the transported stencil alone, and no oracle here sees an
    error or the rounding of the vertex frame F0.  g and omega conjugate
    n = v u^T back by F0 in that factored form (g is the Gauss ratio moved
    by the Mobius action of F0^-1), and dg = (omega dg) / omega.  Only
    transported values enter, so agreement of omega dg with the defining
    quadratic differential tests the transport along every stencil.
    """
    grid = frames.grid
    nr, ns = grid.rings, grid.sectors
    nv = grid.n_vertices
    g, omega, dg, ratio = (np.full(nv, np.nan + 0j) for _ in range(4))
    numeric = np.zeros(nv, dtype=bool)
    defect = np.zeros(nv)
    delta = min(2.0 * math.pi / (3.0 * ns), 2.0 * math.pi / 144.0)
    offsets = 1j * delta * np.arange(-5, 6)
    stats: dict = {"n_pieces": 0}

    for ch in grid.charts:
        vi = grid.annulus_index(ch.end, 0, 0) + np.arange(nr * ns)
        zeta0 = grid.zeta[vi]
        pts = zeta0[:, None] + offsets
        t = ch.transfer(pts[:, 0], pts[:, -1], pts, frames.rtol, stats, origin=zeta0)
        t[:, 5] = np.eye(2)
        t_th = np.tensordot(_FD_FIRST, t[:, 6:] - t[:, 4::-1], axes=(0, 1)) / delta
        t_thth = np.tensordot(_FD_SECOND, t[:, 6:] + t[:, 4::-1], axes=(0, 1))
        t_thth = (t_thth + _FD_SECOND_CENTER * t[:, 5]) / (delta * delta)
        xi = np.exp(zeta0)[:, None, None]
        zdot, zddot = (-1j / xi, -1.0 / xi) if ch.inverted else (1j * xi, -xi)
        n = t_th / zdot
        # d(F^-1 F')/dz conjugated is T'' - n^2, and n^2 = 0 for the nilpotent n
        dn = (t_thth * zdot - t_th * zddot) / zdot**3
        # rank-one factors n = v u^T: v the larger column, u from v's larger entry
        rows = np.arange(len(vi))
        v = n[rows, :, np.argmax((np.abs(n) ** 2).sum(axis=1), axis=1)]
        big = np.argmax(np.abs(v), axis=1)
        u = n[rows, big] / v[rows, big, None]
        f0 = frames.frames[vi]
        x0 = f0[:, 1, 1] * v[:, 0] - f0[:, 0, 1] * v[:, 1]
        x1 = f0[:, 0, 0] * v[:, 1] - f0[:, 1, 0] * v[:, 0]
        omega[vi] = x1 * (u[:, 0] * f0[:, 0, 0] + u[:, 1] * f0[:, 1, 0])
        g[vi] = x0 / x1
        q = -np.einsum("bi,bij,bj->b", v.conj(), dn, v) / (np.abs(v) ** 2).sum(axis=1)
        dg[vi] = q / omega[vi]
        ratio[vi] = v[:, 0] / v[:, 1]
        scale = (np.abs(n) ** 2).sum(axis=(1, 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            shape = np.abs(det2(n)) / scale
            shape = np.maximum(shape, np.abs(n[:, 0, 0] + n[:, 1, 1]) / np.sqrt(scale))
        defect[vi] = np.where(scale > 0.0, shape, math.inf)
        numeric[vi] = True

    # defect is 0 on core vertices, so its maximum is the annulus maximum
    worst = float(defect.max())
    if worst > tol.null_structure:
        v_bad = int(np.argmax(defect))
        raise NullStructureViolation(
            f"frame derivative at vertex {v_bad} (z = {grid.vertices[v_bad]:.4g}) "
            f"violates the rank-one shape by {worst:.3g}, above {tol.null_structure:.3g}"
        )
    return WeierstrassData(
        g=g, omega=omega, dg=dg, gauss_ratio=ratio, numeric=numeric, null_defect=defect,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# mesh assembly


@dataclass(frozen=True)
class SurfaceMesh:
    """Triangle mesh of the immersion in the Poincare ball.

    positions holds ball coordinates; diagnostics carries per-vertex
    scalars: rel, the relative residual |omega dg - Q| / |Q| of the
    recovered data against the Hopf differential Q (NaN on core vertices,
    where nothing is recovered), and quality (log10 of rel where it was
    measured, -16 elsewhere).
    """

    positions: np.ndarray
    faces: np.ndarray
    diagnostics: dict

    @property
    def n_vertices(self) -> int:
        return len(self.positions)


def build_mesh(
    transport: FrameTransport,
    weier: WeierstrassData,
    conjugator: np.ndarray,
    tol: Tolerances = Tolerances(),
) -> SurfaceMesh:
    """Project the unitarized frame to the Poincare ball over the grid.

    The grid and the trinoid data are the ones the transport ran on.  The
    frame is multiplied on the right by the inverse of the conjugator:
    with a chosen so that a rho a^{-1} is unitary for every monodromy
    generator rho, continuation around a puncture turns F a^{-1} into
    F a^{-1} (a rho a^{-1}), a right rotation, which the Hermitian-square
    projection ignores.  That is exactly the well-definedness mechanism
    well_definedness_defect probes.
    """
    grid, data = transport.grid, transport.data
    right = inv2(np.asarray(conjugator, dtype=complex))
    nv = grid.n_vertices
    # a frame or conjugator too large to square gives inf or NaN
    # coordinates, which the escape test below reports
    with np.errstate(over="ignore", invalid="ignore"):
        ball = project_h3(transport.frames @ right, tol).ball
    escaped = ~(np.linalg.norm(ball, axis=1) < 1.0)
    if escaped.any():
        v = int(np.argmax(escaped))
        where = "in the core"
        if v < len(grid.zeta):
            end, ring, _ = grid.annulus_position(v)
            where = f"on end {end + 1}, ring {ring + 1} of {grid.rings}"
        raise BallEscape(
            f"a mesh position is not finite or escaped the unit ball, first at vertex {v} {where}"
        )
    hopf = data.hopf(grid.vertices)
    hopf_abs = np.abs(hopf)
    rel = np.where(hopf_abs > 0.0, np.abs(weier.omega * weier.dg - hopf) / hopf_abs, np.inf)
    quality = np.full(nv, -16.0)
    mask = weier.numeric & (rel > 1e-16)
    quality[mask] = np.log10(rel[mask])
    return SurfaceMesh(positions=ball, faces=grid.faces, diagnostics={"rel": rel, "quality": quality})


def well_definedness_defect(
    transport: FrameTransport,
    conjugator: np.ndarray,
    tol: Tolerances = Tolerances(),
) -> np.ndarray:
    """Ball distance between the two branches of the mesh point at every
    annulus vertex, indexed by vertex number.

    The second branch is the frame continued once more around the enclosing
    puncture, frames[v] @ monodromy[e]; with a unitarizing conjugator the
    projected point must not move, without one it generically does, so
    these numbers are the positive and the negative control in one.
    """
    grid = transport.grid
    right = inv2(np.asarray(conjugator, dtype=complex))
    frames = transport.frames[: len(grid.zeta)]
    turned = frames @ np.repeat(transport.monodromy, grid.rings * grid.sectors, axis=0)
    p, q = project_h3(frames @ right, tol).ball, project_h3(turned @ right, tol).ball
    return np.linalg.norm(p - q, axis=1)


# ---------------------------------------------------------------------------
# profile curves


@dataclass(frozen=True)
class ProfileCurve:
    """Plane section of the mesh: the longest chain plus all the others.

    points3d is the longest chain in ball coordinates, t its arclength
    parameter normalized to [0, 1] (including the closing edge when the
    chain is a cycle).
    """

    points3d: np.ndarray
    t: np.ndarray
    closed: bool
    chains: tuple


def _chain_crossings(positions: np.ndarray, faces: np.ndarray, signed: np.ndarray):
    """Assemble plane crossing points into ordered chains.

    Each mesh edge crossed by the plane yields one interpolated point;
    each face crossed twice links its two points.  Nodes therefore have
    degree at most two and the link graph decomposes into open chains and
    cycles, walked deterministically.
    """
    cross_point: dict = {}
    links: dict = {}

    def edge_key(i, j):
        return (i, j) if i < j else (j, i)

    for f in faces:
        keys = []
        for i, j in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            si, sj = signed[i], signed[j]
            if si * sj < 0.0:
                key = edge_key(int(i), int(j))
                if key not in cross_point:
                    tpar = si / (si - sj)
                    cross_point[key] = positions[i] + tpar * (positions[j] - positions[i])
                keys.append(key)
        if len(keys) == 2:
            links.setdefault(keys[0], []).append(keys[1])
            links.setdefault(keys[1], []).append(keys[0])

    chains = []
    visited = set()
    endpoints = sorted(k for k, nb in links.items() if len(nb) == 1)
    starts = endpoints + sorted(links.keys())
    for start in starts:
        if start in visited or start not in links:
            continue
        chain = [start]
        visited.add(start)
        closed = False
        while True:
            nxt = [n for n in links[chain[-1]] if n not in visited]
            if not nxt:
                closed = len(links[chain[-1]]) == 2 and len(chain) > 2 and chain[0] in links[chain[-1]]
                break
            chain.append(nxt[0])
            visited.add(nxt[0])
        pts = np.array([cross_point[k] for k in chain])
        if len(pts) >= 2:
            chains.append((pts, closed))
    return chains


def profile_curve(mesh: SurfaceMesh, plane_normal) -> ProfileCurve:
    """Intersect the mesh with a plane through the ball origin.

    Raises EmptyIntersection when no mesh face crosses the plane.
    """
    n = np.asarray(plane_normal, dtype=float)
    norm = np.linalg.norm(n)
    if norm == 0.0:
        raise ValueError("plane normal must be nonzero")
    n = n / norm
    signed = mesh.positions @ n
    signed = np.where(signed == 0.0, 1e-15, signed)
    chains = _chain_crossings(mesh.positions, mesh.faces, signed)
    if not chains:
        raise EmptyIntersection("the cutting plane misses the sampled surface")

    def arclength(pts, closed):
        d = np.linalg.norm(np.diff(pts, axis=0), axis=1).sum()
        if closed:
            d += np.linalg.norm(pts[0] - pts[-1])
        return d

    pts3, closed = max(chains, key=lambda c: arclength(*c))
    seglen = np.linalg.norm(np.diff(pts3, axis=0), axis=1)
    total = seglen.sum() + (np.linalg.norm(pts3[0] - pts3[-1]) if closed else 0.0)
    t = np.concatenate([[0.0], np.cumsum(seglen)]) / (total if total > 0.0 else 1.0)
    return ProfileCurve(
        points3d=pts3,
        t=t,
        closed=closed,
        chains=tuple(c[0] for c in chains),
    )


# ---------------------------------------------------------------------------
# export


def export_obj(mesh: SurfaceMesh, path) -> None:
    """Wavefront OBJ with ball coordinates at nine significant digits."""
    with open(path, "w", encoding="ascii") as fh:
        for p in mesh.positions:
            fh.write(f"v {p[0]:.9g} {p[1]:.9g} {p[2]:.9g}\n")
        for f in mesh.faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


def export_ply(mesh: SurfaceMesh, path) -> None:
    """Binary little-endian PLY: float64 positions and the quality diagnostic
    per vertex, int32 triangles."""
    nv = mesh.n_vertices
    nf = len(mesh.faces)
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {nv}"]
    header += [f"property float64 {name}" for name in ("x", "y", "z", "quality")]
    header += [f"element face {nf}", "property list uchar int32 vertex_indices", "end_header"]
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        block = np.column_stack([mesh.positions, mesh.diagnostics["quality"]])
        fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())
        for f in mesh.faces:
            fh.write(struct.pack("<B3i", 3, int(f[0]), int(f[1]), int(f[2])))

