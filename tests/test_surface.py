"""Frame transport, induced-data recovery, mesh assembly and plane sections."""

import cmath
import dataclasses
import math
import struct
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from scipy.optimize import minimize, minimize_scalar

import trinoid.surface
from trinoid.algebra import fro, inv2, project_h3
from trinoid.cli import build_surface
from trinoid.config import CLEARANCE_FACTOR, Tolerances
from trinoid.errors import BallEscape, EmptyIntersection, NullStructureViolation, StepUnderflow
from trinoid.fuchsian import MODE_MATRIX, circle, monodromy, path_clearance, run_kernel, segment
from trinoid.surface import (
    build_mesh,
    end_charts,
    export_obj,
    export_ply,
    profile_curve,
    recover_weierstrass,
    sample_grid,
    transport_frame,
    well_definedness_defect,
)
from trinoid.trinoid_data import build_trinoid_data

SYM23 = (2 * math.pi / 3,) * 3
BIG = (3 * math.pi,) * 3
# irreducible asymmetric triple whose sampled surface avoids a whole
# half-space, which a separating-plane sweep over 20000 directions located
ASYM = (0.6 * math.pi, 1.5 * math.pi, 0.8 * math.pi)


def _bundle(s):
    return s.data, s.grid, s.transport, s.weier, s.conj, s.mesh


@pytest.fixture(scope="module")
def sym():
    return _bundle(build_surface(SYM23, rings=8, sectors=48))


@pytest.fixture(scope="module")
def big():
    return _bundle(build_surface(BIG, rings=8, sectors=48, deform=(0.31, -0.42, 0.18)))


# ---------------------------------------------------------------------------
# transport


def test_transport_base_frame_is_identity(sym):
    _, grid, transport, _, _, _ = sym
    npt.assert_allclose(transport.frames[grid.base_index], np.eye(2), atol=1e-15)


def test_transport_det_conserved(sym, big):
    # determinant drift relative to the squared frame norm; the raw 2x2
    # determinant of a frame with entries of size 1e6 cancels to 1 only up
    # to eps times the squared norm, so the conserved quantity is the
    # relative defect (measured 4.5e-15 for the tripled angles, whose
    # frames reach Frobenius norm 1e6 on the innermost ring)
    for bundle in (sym, big):
        transport = bundle[2]
        assert transport.stats["max_det_defect"] < Tolerances().det


def test_transport_frames_bounded_small_angles(sym):
    # with half-angles 2/3 pi the local exponent spread is 4/3, so frames
    # at radius 1e-3 stay modest (measured max Frobenius norm 60.5); the
    # absolute determinant drift is then far below 1e-9 as well
    _, _, transport, _, _, _ = sym
    norms = np.array([fro(f) for f in transport.frames])
    assert norms.max() < 1e3
    dets = np.array([f[0, 0] * f[1, 1] - f[0, 1] * f[1, 0] for f in transport.frames])
    assert np.abs(dets - 1.0).max() < 1e-9


def test_transport_flat_on_closed_loops():
    # the connection is flat away from the singular points, so a small
    # square loop around the base point transports to the identity
    # (defect measured at 4.4e-16) while a loop enclosing the puncture at
    # zero picks up the nontrivial local monodromy, far from +-I
    # (distance measured at 0.86)
    data = build_trinoid_data(SYM23)
    params = data.kernel_params()
    corners = [0.45 + 0.45j, 0.55 + 0.45j, 0.55 + 0.55j, 0.45 + 0.55j]
    t = np.eye(2, dtype=complex)
    for i in range(4):
        t = run_kernel(
            segment(corners[i], corners[(i + 1) % 4]), MODE_MATRIX, params, np.eye(2), 1e-13
        ) @ t
    assert np.abs(t - np.eye(2)).max() < 1e-6

    loop = run_kernel(circle(0.0, 0.25), MODE_MATRIX, params, np.eye(2), 1e-13)
    dist = min(np.abs(loop - np.eye(2)).max(), np.abs(loop + np.eye(2)).max())
    assert dist > 0.1


def test_transport_stall_reports_edge(monkeypatch):
    # a stall on one z-chart edge fails its whole batch; the transport layer
    # must solve the batch again an edge at a time and name that edge
    data = build_trinoid_data(SYM23)
    grid = sample_grid(data, rings=2, sectors=8)
    n_ann = len(grid.zeta)
    p, c = next(e for e in grid.edges.tolist() if max(e) >= n_ann)
    solve = trinoid.surface.chebyshev_transfers

    def stall_on_edge(mode, params, a, b, rtol, stats=None):
        if np.any(a == grid.vertices[p]):
            raise StepUnderflow("planted stall")
        return solve(mode, params, a, b, rtol, stats)

    monkeypatch.setattr(trinoid.surface, "chebyshev_transfers", stall_on_edge)
    with pytest.raises(StepUnderflow, match=f"transport stalled on edge {p}->{c}: planted stall"):
        transport_frame(data, grid)


def test_transport_sub_roundoff_tolerance_named():
    # a transport tolerance below the unit roundoff is refused before the
    # first batch, naming Tolerances.ode and its tightening, not an edge
    data = build_trinoid_data(SYM23)
    grid = sample_grid(data, rings=2, sectors=8)
    match = r"transport tolerance \(Tolerances.ode 1e-28 x TRANSPORT_TOL_FACTOR 0.001\) 1e-31"
    with pytest.raises(StepUnderflow, match=match) as info:
        transport_frame(data, grid, tol=dataclasses.replace(Tolerances(), ode=1e-28))
    assert "edge" not in str(info.value)


@pytest.mark.parametrize("angles, pieces", [(SYM23, 220), (BIG, 224)], ids=["sym23", "big"])
def test_transfer_piece_counts_pinned(angles, pieces):
    # The collocation transfers are deterministic, so their accepted piece
    # counts pin the grid stages: a change to the tail test, the node count
    # or the tree moves them.  At 4x12 the tree has 186 edges plus 3 seams;
    # the base-to-anchor segments, some outer ring arcs and first spokes,
    # and for the tripled angles some core segments, bisect.  Recovery
    # makes one transfer across each of the 144 annulus stencils; the two
    # outer-ring stencils at the sectors facing the other finite puncture
    # bisect once.
    data = build_trinoid_data(angles)
    transport = transport_frame(data, sample_grid(data, rings=4, sectors=12))
    assert transport.stats["n_pieces"] == pieces
    assert recover_weierstrass(transport).stats["n_pieces"] == 146


def _frozen_vertices(grid):
    """Two core vertices (the first lattice point and the last), two on the
    outer rings and two on the innermost rings."""
    a = grid.annulus_index
    return (grid.base_index + 1, grid.n_vertices - 1, a(0, 0, 5), a(2, 0, 7), a(1, 3, 3), a(2, 3, 10))


# frames at _frozen_vertices on the 4x12 grid, row-major, as transported
# one edge at a time before the batched collocation
_FROZEN_FRAMES = {
    "sym23": (
        (1.2143049950791567-0.9119652379716375j, -0.3612186139218871+0.8750543414065012j,
         0.12052299992762609-0.31714477255109197j, 0.5627308286453825+0.6038134789120664j),
        (0.7575514560460622-1.184088663665279j, -0.0821295279212075+0.7479857040162293j,
         0.32746100828292574-0.051005239991614236j, 0.2384133396944293+0.7015070958649552j),
        (1.222618254889149+0.17570872560558784j, 0.11922873849392311-0.38298924561444303j,
         0.20611539692933248-0.09566132656330799j, 0.7812940431192547-0.1861789151255919j),
        (1.0900608021668843-1.2372993634283829j, -0.035707662355605636+1.0007307412724928j,
         0.26541930459036606-0.18957142510870578j, 0.34919340564304147+0.6462384364119875j),
        (-1.3398620216346875-8.663101126680985j, 3.0193800653009513-2.5086590141570673j,
         3.3730127279669992+17.159263736264112j, -5.832496320986237+5.35794377192928j),
        (-12.198243213058774-12.993360313986491j, 37.5475715165111-38.78649155918507j,
         0.07670695588131964-0.03498017770102635j, 0.07852808188587578+0.26792962731738995j),
    ),
    "big": (
        (-2.871263689066712+0.4169841206398044j, 2.8505089413678544+5.862875666762813j,
         -0.6193257613337769-1.7510163299627937j, -3.66761421707436+2.4703341524567386j),
        (-1.9418149949936945+0.8248297512029635j, 2.999460646719496+5.031130294871261j,
         0.015344903111185788+1.5817199741929209j, 3.908880385602901-0.8226057538002468j),
        (-1.520240731158116-0.29859789322813524j, 1.3680751549174897+3.0610913722892064j,
         -0.4430105982051214+2.061794508506117j, 3.5656352618910687-1.663739858442011j),
        (-0.20588441242024005-2.005183317358664j, -4.043726229995753+1.6990364313358848j,
         -1.7883237016843474+1.0462354636718876j, 3.2603176087458485+3.5533648246463576j),
        (-49350.49935120148+50650.50014920133j, 59525.58335840244+90909.24949486766j,
         100300.19990000111-99700.19910000081j, -116116.89784999959-183683.70038333486j),
        (-200001.39928310516+346410.16227359837j, 908291.0774472409+293464.8519682357j,
         399.5997005835091+692.82084265211j, 1416.7821163139986-1278.8097219658907j),
    ),
}


@pytest.mark.parametrize("name, angles", [("sym23", SYM23), ("big", BIG)], ids=["sym23", "big"])
def test_frames_match_frozen_reference(name, angles):
    # the batched transport reproduces the frames of the one-edge-at-a-time
    # transport in core, outer and innermost vertices (measured within
    # 2.3e-15 relative; the BIG innermost frames have entries up to 9.1e5)
    data = build_trinoid_data(angles)
    grid = sample_grid(data, rings=4, sectors=12)
    frames = transport_frame(data, grid).frames
    for v, ref in zip(_frozen_vertices(grid), _FROZEN_FRAMES[name]):
        ref = np.reshape(ref, (2, 2))
        assert np.abs(frames[v] - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max()), v


@pytest.mark.parametrize("angles, pieces", [(SYM23, 2114), (BIG, 2116)], ids=["sym23", "big"])
def test_transfer_piece_counts_pinned_8x48(angles, pieces):
    # the piece counts of the default grid: one recovery transfer per each
    # of the 1152 annulus stencils plus ten bisections
    data = build_trinoid_data(angles)
    transport = transport_frame(data, sample_grid(data, rings=8, sectors=48))
    assert transport.stats["n_pieces"] == pieces
    assert recover_weierstrass(transport).stats["n_pieces"] == 1162


ROUTED = tuple(b * math.pi for b in (1.413393, 0.790404, 1.622530))


@pytest.mark.parametrize("angles, rings, sectors, n_edges", [
    (SYM23, 4, 12, 186), (SYM23, 8, 48, 2089), (ROUTED, 4, 12, 191), (ROUTED, 8, 48, 2108),
], ids=["sym23-4x12", "sym23-8x48", "routed-4x12", "routed-8x48"])
def test_spanning_tree_rows(angles, rings, sectors, n_edges):
    # the (parent, child) rows form a spanning tree rooted at the base
    # point, in an order in which every frame is composed after its parent's
    grid = sample_grid(build_trinoid_data(angles), rings=rings, sectors=sectors)
    parent, child = grid.edges.T
    assert len(grid.edges) == grid.n_vertices - 1 == n_edges
    assert sorted(child.tolist()) == [v for v in range(grid.n_vertices) if v != grid.base_index]
    row_of = {int(c): i for i, c in enumerate(child)}
    for i, p in enumerate(parent.tolist()):
        assert p == grid.base_index or row_of[p] < i
    # a row between two annulus vertices runs in one end's log chart
    n_ann = 3 * rings * sectors
    assert len(grid.zeta) == n_ann
    in_end = (grid.edges < n_ann).all(axis=1)
    ends = [[grid.annulus_position(v)[0] for v in row] for row in grid.edges[in_end].tolist()]
    assert all(a == b for a, b in ends)


def test_annulus_faces_follow_the_index_layout():
    # the annulus faces, listed first, are two triangles per quad from
    # sector i to i + 1 and ring k to k + 1, in (end, ring, sector) order
    grid = sample_grid(build_trinoid_data(SYM23), rings=4, sectors=12)
    idx = grid.annulus_index
    expected = []
    for e in range(3):
        for k in range(grid.rings - 1):
            for i in range(grid.sectors):
                a, b = idx(e, k, i), idx(e, k, i + 1)
                c, d = idx(e, k + 1, i + 1), idx(e, k + 1, i)
                expected += [(a, b, c), (a, c, d)]
    assert grid.faces[: len(expected)].tolist() == [list(f) for f in expected]
    for v in range(len(grid.zeta)):
        assert idx(*grid.annulus_position(v)) == v


def test_grazing_anchor_segment_is_routed():
    # the straight segment from the base point to the anchor of end 2 passes
    # 0.0397 from the puncture at 1 for this triple (clearance 0.05), so that
    # tree edge goes through a waypoint with both legs clear; the SYM23 and
    # BIG grids keep every edge straight
    data = build_trinoid_data(ROUTED)
    grid = sample_grid(data, rings=4, sectors=12)
    assert list(grid.via) == [grid.annulus_index(1, 0, 0)]
    (child, via), = grid.via.items()
    a, b = grid.vertices[grid.base_index], grid.vertices[child]
    assert path_clearance(segment(a, b), (0.0, 1.0)) < CLEARANCE_FACTOR
    legs = np.concatenate((segment(a, via), segment(via, b)))
    assert path_clearance(legs, (0.0, 1.0)) >= CLEARANCE_FACTOR
    # the anchor's frame is the product of the two collocated legs: DOPRI
    # along the same route agrees (measured 3.1e-15 relative)
    anchor = transport_frame(data, grid).frames[child]
    ref = run_kernel(legs, MODE_MATRIX, data.kernel_params(), np.eye(2), 1e-13)
    assert np.abs(anchor - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())
    for angles in (SYM23, BIG):
        data = build_trinoid_data(angles)
        assert sample_grid(data, rings=4, sectors=12).via == {}


# ---------------------------------------------------------------------------
# induced data


def _oracle_stats(data, grid, weier):
    """Relative residuals of omega dg against the quadratic differential
    and of the column ratio against the closed-form hyperbolic Gauss map,
    on finite-difference vertices."""
    idx = np.flatnonzero(weier.numeric)
    z = grid.vertices[idx]
    qhat = np.array([data.hopf(zz) for zz in z])
    res_q = np.abs(weier.omega[idx] * weier.dg[idx] - qhat) / np.abs(qhat)
    gz = np.array([data.gauss(zz) for zz in z])
    res_g = np.abs(weier.gauss_ratio[idx] - gz) / np.maximum(1.0, np.abs(gz))
    return idx, res_q, res_g


def test_weierstrass_oracles_sym(sym):
    # the product omega dg must reproduce the defining quadratic
    # differential and the derivative column ratio the hyperbolic Gauss
    # map at every finite-difference vertex (measured maxima 6.1e-10 and
    # 3.6e-10 over all 1152 annulus vertices)
    data, grid, _, weier, _, _ = sym
    idx, res_q, res_g = _oracle_stats(data, grid, weier)
    assert len(idx) == 3 * grid.rings * grid.sectors
    assert np.mean(res_q < 1e-6) >= 0.95
    assert res_q.max() < 1e-4
    assert res_g.max() < 1e-6


def test_weierstrass_oracles_big(sym, big):
    # for tripled angles the frame reaches norm 1e6 on the inner rings; the
    # recovery differentiates in each stencil's local frame, where that norm
    # does not enter, so omega dg and the column ratio hold at every
    # annulus vertex (measured max 8.0e-10 and 3.8e-9)
    data, grid, _, weier, _, _ = big
    idx, res_q, res_g = _oracle_stats(data, grid, weier)
    assert len(idx) == 3 * grid.rings * grid.sectors
    assert res_g.max() < 1e-6
    assert res_q.max() < 1e-6


def test_null_structure_defect_small(sym, big):
    # F^-1 dF/dz must be trace free with determinant zero; the relative
    # shape defect stays below the structural tolerance on all
    # finite-difference vertices and is exactly zero on core vertices,
    # where nothing is recovered
    for bundle in (sym, big):
        weier = bundle[3]
        assert weier.null_defect[weier.numeric].max() < 1e-7
        assert np.all(weier.null_defect[~weier.numeric] == 0.0)


def test_null_structure_violation_raised(sym):
    # tightening the structural tolerance below the honest finite
    # difference noise floor must trip the shape check
    _, _, transport, _, _, _ = sym
    tight = dataclasses.replace(Tolerances(), null_structure=1e-18)
    with pytest.raises(NullStructureViolation):
        recover_weierstrass(transport, tol=tight)


def test_second_fundamental_form_vertex(sym):
    # the recovered data at one annulus vertex fix the second fundamental
    # form h = -Q - conj(Q) + e |dz|^2 through the metric density
    # e = (1+|g|^2)^2 |omega|^2, frozen here; and the product of e with the
    # Gauss-map pullback density equals 4 |Q|^2 wherever the recovery is
    # exact
    data, grid, _, weier, _, _ = sym
    v = grid.annulus_index(0, 2, 10)
    q = data.hopf(grid.vertices[v])
    e_metric = (1.0 + abs(weier.g[v]) ** 2) ** 2 * abs(weier.omega[v]) ** 2
    npt.assert_allclose(e_metric, 203.1336973558412, rtol=1e-8)
    sigma = 4.0 * abs(weier.dg[v]) ** 2 / (1.0 + abs(weier.g[v]) ** 2) ** 2
    npt.assert_allclose(e_metric * sigma, 4.0 * abs(q) ** 2, rtol=1e-6)


# ---------------------------------------------------------------------------
# mesh


def test_mesh_inside_ball(sym, big):
    # every position lies strictly inside the unit ball; the innermost
    # rings sit at radius 1e-3 in the domain, deep down the ends
    for bundle in (sym, big):
        mesh = bundle[5]
        r = np.linalg.norm(mesh.positions, axis=1)
        assert r.max() < 1.0


def test_mesh_rejects_non_finite_positions(sym):
    # a nan position fails the unit-ball check like one outside the ball
    _, _, transport, weier, _, _ = sym
    with np.errstate(invalid="ignore"), pytest.raises(BallEscape, match="not finite or escaped"):
        build_mesh(transport, weier, np.full((2, 2), np.nan))


def test_mesh_radius_monotone_along_spokes(sym, big):
    # from the first annulus ring inward the ball radius must not
    # decrease along any spoke: the ends leave every compact set
    for bundle in (sym, big):
        grid, mesh = bundle[1], bundle[5]
        r = np.linalg.norm(mesh.positions, axis=1)
        bad = 0
        for e in range(3):
            for s in range(grid.sectors):
                radii = [r[grid.annulus_index(e, k, s)] for k in range(1, grid.rings)]
                bad += sum(radii[k + 1] < radii[k] for k in range(len(radii) - 1))
        assert bad == 0


def test_mesh_refinement_nests(sym):
    # ring radii decrease geometrically between fixed outer and inner
    # values, so 15 rings interleave the 8-ring radii exactly and the
    # transported positions at shared vertices must coincide to the
    # integration tolerance (measured max difference 1.2e-14)
    data, grid, _, _, conj, mesh = sym
    fine = sample_grid(data, rings=15, sectors=grid.sectors)
    t15 = transport_frame(data, fine)
    right = inv2(conj)
    diff = 0.0
    for e in range(3):
        for k in range(grid.rings):
            for s in range(0, grid.sectors, 5):
                a = grid.annulus_index(e, k, s)
                b = fine.annulus_index(e, 2 * k, s)
                assert abs(grid.vertices[a] - fine.vertices[b]) < 1e-12
                pos = project_h3(t15.frames[b] @ right).ball
                diff = max(diff, float(np.linalg.norm(mesh.positions[a] - pos)))
    assert diff < 1e-9


def test_doubled_path_defect(sym):
    # continuing the frame once more around the enclosing puncture must
    # not move the projected point when the conjugator unitarizes the
    # monodromy (measured max 1.3e-13 over all 1,152 annulus vertices) and
    # must move it visibly with the identity conjugator instead (measured
    # 0.25 to 0.44 on the first ring)
    _, grid, transport, _, conj, _ = sym
    defect = well_definedness_defect(transport, conj)
    assert defect.shape == (3 * grid.rings * grid.sectors,)
    assert defect.max() < 1e-6
    raw = well_definedness_defect(transport, np.eye(2))
    for e in range(3):
        assert raw[grid.annulus_index(e, 1, 5)] > 1e-2


def test_doubled_path_trivial_for_integer_angles(big):
    # with all-integer half-angle multiples the loop transports are +-I,
    # so even the raw frame closes up: the identity-conjugator control is
    # vacuous here, which is exactly why the deformation family is three
    # dimensional for these triples
    data, grid, transport, _, _, _ = big
    rep = monodromy(data)
    for rho in (rep.rho1, rep.rho2, rep.rho3):
        dist = min(np.abs(rho - np.eye(2)).max(), np.abs(rho + np.eye(2)).max())
        assert dist < 1e-9
    v = grid.annulus_index(0, 1, 12)
    assert well_definedness_defect(transport, np.eye(2))[v] < 1e-6


def test_end_monodromy_traces(sym, big):
    # on the default 8x48 grid too, each end's monodromy has trace
    # -2 cos B_e (measured at most 1.2e-14 off) and the three close up
    # (measured 1.4e-14 and 5.2e-14)
    for data, _, transport, _, _, _ in (sym, big):
        m = transport.monodromy
        for e in range(3):
            assert abs(np.trace(m[e]) + 2.0 * math.cos(data.angles[e])) <= 1e-12
        assert fro(m[2] @ m[1] @ m[0] - np.eye(2)) <= 1e-10


@pytest.mark.parametrize(
    "angles", ["2/3,2/3,2/3", "3,3,3", "0.6,1.5,0.8", "1/4,1/4,3"], ids=["sym23", "big", "asym", "quarter"]
)
def test_grid_monodromy_matches_loops(angles):
    # the grid's end monodromies (collocation, once around each outer ring)
    # against the Dormand-Prince loops of fuchsian.monodromy from the same
    # base: M_e acts on the right, so M_0, M_1 are rho1, rho2 (measured
    # relative Frobenius 5.3e-13, 3.2e-12, 3.1e-13, 6.6e-14 at worst) and
    # M_2 M_1 M_0 = I (measured 7.8e-15 to 9.8e-13); each trace is
    # -2 cos B_e (measured at most 1.1e-13 off)
    b = tuple(float(Fraction(x)) * math.pi for x in angles.split(","))
    data = build_trinoid_data(b)
    m = transport_frame(data, sample_grid(data, rings=4, sectors=12)).monodromy
    rep = monodromy(data)
    for m_e, rho in ((m[0], rep.rho1), (m[1], rep.rho2)):
        assert fro(m_e - rho) <= 1e-10 * fro(rho)
    assert fro(m[2] @ m[1] @ m[0] - np.eye(2)) <= 1e-10
    for e in range(3):
        assert abs(np.trace(m[e]) + 2.0 * math.cos(b[e])) <= 1e-12


def test_mesh_quality_channel(sym):
    # the quality diagnostic is the log10 relative residual of omega dg
    # against the quadratic differential where it was measured and -16 on
    # core vertices
    _, _, _, weier, _, mesh = sym
    q = mesh.diagnostics["quality"]
    assert q.shape == (mesh.n_vertices,)
    assert q[weier.numeric].max() < -6.0
    assert np.all(q[~weier.numeric] == -16.0)


def test_mesh_end_asymptotics_agree(sym):
    # the three ends of the equal-angle trinoid are congruent: the growth
    # diagnostic |Q| |z - p|^2 (the density rewritten in the 1/z chart for
    # the third end) approaches the same limit |c_j| / 2 at all three
    # punctures, up to the order-r correction at chart radius 1e-3
    data, grid, _, _, _, mesh = sym
    limits = []
    for ch in end_charts(data):
        v = grid.annulus_index(ch.end, grid.rings - 1, 0)
        z = grid.vertices[v]
        scale = abs(z) ** 2 if ch.inverted else abs(z - ch.puncture) ** 2
        limits.append(abs(data.hopf(z)) * scale)
    expected = abs(data.hopf.c[0]) / 2.0
    npt.assert_allclose(limits, [expected] * 3, rtol=5e-3)


# ---------------------------------------------------------------------------
# plane sections


def _plane_complex(chains3d, n):
    """Express 3d chains in an orthonormal frame of the cutting plane,
    as complex numbers."""
    n = np.asarray(n, dtype=float)
    helper = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(n, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    chains = [np.asarray(c) @ e1 + 1j * (np.asarray(c) @ e2) for c in chains3d]
    return np.concatenate(chains), chains, (e1, e2)


def _seg_dist(pts, chains2d):
    """Distance from each point to the nearest polyline segment."""
    p = np.asarray(pts)[:, None]
    best = np.full(len(pts), np.inf)
    for ch in chains2d:
        a, b = ch[:-1], ch[1:]
        ab = b - a
        denom = (ab * ab.conjugate()).real
        denom = np.where(denom == 0.0, 1.0, denom)
        ap = p - a
        tpar = np.clip((ap * ab.conjugate()).real / denom, 0.0, 1.0)
        best = np.minimum(best, np.abs(p - (a + tpar * ab)).min(axis=1))
    return best


def _bidirectional(pts, chains2d, refl):
    """Median two-sided polyline distance between the section and its
    image under a candidate symmetry; the reverse direction stops a
    contraction onto part of the curve from scoring as a match."""
    fwd = _seg_dist(refl(pts), chains2d)
    rev = _seg_dist(pts, [refl(c) for c in chains2d])
    return max(float(np.median(fwd)), float(np.median(rev)))


def _mirror_scan(points, chains2d):
    """Best bidirectional defect over candidate in-disk reflections:
    lines through the origin and inversions in circles orthogonal to the
    boundary, seeded by a coarse parameter grid."""
    sub = points[::2]

    def line_obj(phi):
        return _bidirectional(sub, chains2d, lambda u: u.conjugate() * cmath.exp(2j * phi))

    best = math.inf
    for k in range(12):
        r = minimize_scalar(
            line_obj,
            bounds=(math.pi * k / 12, math.pi * (k + 1) / 12),
            method="bounded",
            options={"xatol": 3e-4},
        )
        best = min(best, r.fun)

    def inv_obj(p):
        th, s = p
        rho = 1.0 + math.exp(s)
        c = rho * cmath.exp(1j * th)
        return _bidirectional(
            sub, chains2d, lambda u: c + (rho * rho - 1.0) / (u.conjugate() - c.conjugate())
        )

    thetas = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
    esses = np.array([-2.5, -1.5, -0.8, -0.2, 0.5, 1.5])
    coarse = sorted(((inv_obj((th, s)), th, s) for th in thetas for s in esses))
    for _, th0, s0 in coarse[:3]:
        r = minimize(
            inv_obj, x0=[th0, s0], method="Nelder-Mead",
            options={"xatol": 3e-4, "fatol": 1e-8, "maxiter": 80},
        )
        best = min(best, r.fun)
    return best


def _to01inf(t):
    a1, a2, a3 = t
    return np.array([[a2 - a3, -a1 * (a2 - a3)], [a2 - a1, -a3 * (a2 - a1)]], dtype=complex)


def _end_directions(grid, mesh, frame):
    """In-plane unit directions of the three ends, from the innermost
    ring centroids."""
    e1, e2 = frame
    beta = []
    for e in range(3):
        inner = [grid.annulus_index(e, grid.rings - 1, s) for s in range(grid.sectors)]
        c = mesh.positions[inner].mean(axis=0)
        b = complex(c @ e1, c @ e2)
        beta.append(b / abs(b))
    return beta


def test_profile_symmetric_cut_closed(sym):
    # the horizontal cut of the equal-angle trinoid is a single closed
    # curve around the waist
    mesh = sym[5]
    pc = profile_curve(mesh, (0.0, 0.0, 1.0))
    assert pc.closed
    assert len(pc.chains) == 1
    assert pc.t[0] == 0.0
    assert np.all(np.diff(pc.t) > 0.0)
    gaps = np.linalg.norm(np.diff(pc.points3d, axis=0), axis=1)
    assert gaps.max() < 0.1


def test_profile_ends_plane_symmetries(sym):
    # real coefficients make the plane containing the three ideal end
    # points a mirror of the surface; on that cut the three-fold rotation
    # acts as the disk Mobius map through the end directions and each
    # end swap as the anti-Mobius reflection fixing the third end
    # (bidirectional defects measured at 7.7e-4 and 3.5e-5 to 8.6e-4)
    _, grid, _, _, _, mesh = sym
    normal = (0.0, 1.0, 0.0)
    pc = profile_curve(mesh, normal)
    assert len(pc.chains) == 3
    w, chains2d, frame = _plane_complex(pc.chains, normal)
    beta = _end_directions(grid, mesh, frame)

    rot = np.linalg.inv(_to01inf([beta[1], beta[2], beta[0]])) @ _to01inf(beta)
    a_, b_ = rot[0]
    c_, d_ = rot[1]
    defect = _bidirectional(w, chains2d, lambda u: (a_ * u + b_) / (c_ * u + d_))
    assert defect < 2e-3

    for fixed in range(3):
        i, j = [x for x in range(3) if x != fixed]
        dst = [None] * 3
        dst[fixed], dst[i], dst[j] = beta[fixed], beta[j], beta[i]
        src = [b.conjugate() for b in beta]
        mm = np.linalg.inv(_to01inf(dst)) @ _to01inf(src)
        ra, rb = mm[0]
        rc, rd = mm[1]
        refl = lambda u: (ra * u.conjugate() + rb) / (rc * u.conjugate() + rd)
        assert _bidirectional(w, chains2d, refl) < 2e-3


def test_profile_mirror_scan_control(sym):
    # the reflection scan must actually find the known mirror of the
    # symmetric cut (measured 4.4e-4), otherwise a failure to find one
    # elsewhere would mean nothing
    mesh = sym[5]
    normal = (0.0, 1.0, 0.0)
    pc = profile_curve(mesh, normal)
    w, chains2d, _ = _plane_complex(pc.chains, normal)
    assert _mirror_scan(w, chains2d) < 1e-3


def test_profile_generic_cut_has_no_mirror(big):
    # a generic member of the three-parameter family loses the mirrors:
    # the same scan that recovers the symmetric control above bottoms out
    # an order of magnitude higher here (measured 5.5e-3)
    mesh = big[5]
    normal = (0.0, 0.0, 1.0)
    pc = profile_curve(mesh, normal)
    assert len(pc.chains) == 6
    w, chains2d, _ = _plane_complex(pc.chains, normal)
    assert _mirror_scan(w, chains2d) > 2e-3


def test_profile_empty_intersection():
    # this asymmetric trinoid occupies one side of a plane through the
    # origin (margin 0.22 along the frozen normal), so the section is
    # empty and must say so
    mesh = build_surface(ASYM, rings=6, sectors=24).mesh
    normal = (-0.17103309810703546, 0.04600890358434871, 0.9841904592825899)
    assert float(np.min(mesh.positions @ np.asarray(normal))) > 0.2
    with pytest.raises(EmptyIntersection):
        profile_curve(mesh, normal)
    with pytest.raises(ValueError):
        profile_curve(mesh, (0.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# export


def test_export_obj_roundtrip(tmp_path, sym):
    mesh = sym[5]
    path = tmp_path / "mesh.obj"
    export_obj(mesh, path)
    lines = path.read_text(encoding="ascii").splitlines()
    vlines = [l for l in lines if l.startswith("v ")]
    flines = [l for l in lines if l.startswith("f ")]
    assert len(vlines) == mesh.n_vertices
    assert len(flines) == len(mesh.faces)
    v0 = np.array([float(t) for t in vlines[0].split()[1:]])
    npt.assert_allclose(v0, mesh.positions[0], rtol=1e-8, atol=1e-12)
    f0 = [int(t) for t in flines[0].split()[1:]]
    assert min(min(int(t) for t in l.split()[1:]) for l in flines) == 1
    assert f0 == [i + 1 for i in mesh.faces[0]]


def test_export_ply_roundtrip(tmp_path, sym):
    mesh = sym[5]
    path = tmp_path / "mesh.ply"
    export_ply(mesh, path)
    blob = path.read_bytes()
    head, _, body = blob.partition(b"end_header\n")
    header = head.decode("ascii").splitlines()
    assert header[0] == "ply"
    assert header[1] == "format binary_little_endian 1.0"
    assert f"element vertex {mesh.n_vertices}" in header
    assert f"element face {len(mesh.faces)}" in header
    assert "property float64 quality" in header
    vbytes = mesh.n_vertices * 4 * 8
    assert len(body) == vbytes + len(mesh.faces) * (1 + 12)
    x, y, z, q = struct.unpack_from("<4d", body, 0)
    npt.assert_allclose([x, y, z], mesh.positions[0], rtol=0, atol=1e-15)
    assert q == mesh.diagnostics["quality"][0]
    count, i0, i1, i2 = struct.unpack_from("<B3i", body, vbytes)
    assert count == 3
    assert [i0, i1, i2] == list(mesh.faces[0])
