"""Chebyshev collocation transfers against Dormand-Prince and exact invariants."""

import cmath
import math

import numpy as np
import pytest

from trinoid._kernel import chebyshev_transfers
from trinoid.algebra import det2_compensated, fro
from trinoid.config import TRANSPORT_TOL_FACTOR, Tolerances
from trinoid.errors import StepUnderflow
from trinoid.fuchsian import MODE_LOG_CHART, MODE_MATRIX, run_kernel, segment
from trinoid.surface import end_charts, sample_grid
from trinoid.trinoid_data import build_trinoid_data

SYM23 = (2 * math.pi / 3,) * 3
BIG = (3 * math.pi,) * 3
TRIPLES = pytest.mark.parametrize("angles", [SYM23, BIG], ids=["sym23", "big"])


def _transport_rtol():
    return Tolerances().ode * TRANSPORT_TOL_FACTOR


def _transfer(mode, params, a, b, rtol, stats=None):
    """U(b) of the one segment a -> b: a batch of one, sampled at its end."""
    return chebyshev_transfers(mode, params, [a], [b], [[b]], rtol, stats)[0, 0]


def _spoke(data):
    """Mode-4 data of one spoke of end 1, from the outer radius to 1e-3."""
    ch = end_charts(data)[0]
    return ch.kernel_params, complex(math.log(ch.r_out)), complex(math.log(1e-3))


def _base_to_anchor(data):
    """Mode-0 data of the tree edge from the base point to the anchor of end 3."""
    grid = sample_grid(data, rings=2, sectors=6)
    return (
        data.kernel_params(),
        complex(grid.vertices[grid.base_index]),
        complex(grid.vertices[grid.annulus_index(2, 0, 0)]),
    )


@TRIPLES
def test_collocation_matches_dopri(angles):
    # both engines at the transport tolerance agree far inside 1e-10
    # relative to the transfer size (measured 3.4e-15 and 5.8e-15 on the
    # spokes, whose transfers reach norm 2.5e3 and 8.2e5, and 2.2e-15 and
    # 1.7e-14 on the base-to-anchor segments)
    data = build_trinoid_data(angles)
    rtol = _transport_rtol()
    for mode, (params, a, b) in ((MODE_LOG_CHART, _spoke(data)), (MODE_MATRIX, _base_to_anchor(data))):
        u = _transfer(mode, params, a, b, rtol)
        v = run_kernel(segment(a, b), mode, params, np.eye(2), rtol)
        assert np.abs(u - v).max() <= 1e-10 * max(1.0, np.abs(v).max()), mode


def _z_ring_arc(ch, r, th0, th1):
    """The arc x = puncture + r exp(i theta), th0 -> th1, of a chart, as a
    path in the z chart: z = 1/x at the end at infinity."""
    if ch.inverted:
        return np.array([(1.0, 0.0, 0.0, 1.0 / r, -th0, -th1)])
    c = complex(ch.puncture)
    return np.array([(1.0, c.real, c.imag, r, th0, th1)])


@TRIPLES
def test_log_chart_transfer_matches_z_chart(angles):
    # an oracle for the mode-4 coefficients that shares none of them: the
    # frame transfer EndChart.transfer assembles from the gauge-fixed
    # system, along a spoke and a ring arc of each end, against DOPRI on
    # the rank-one system (mode 0) along the same path in the z chart
    # (measured at most 6.2e-14 relative)
    data = build_trinoid_data(angles)
    rtol = _transport_rtol()
    for ch in end_charts(data):
        spoke = (math.log(ch.r_out), math.log(ch.r_out / 10.0), 0.7, 0.7)
        ring = (math.log(ch.r_out / 3.0), math.log(ch.r_out / 3.0), 0.3, 1.3)
        for lr0, lr1, th0, th1 in (spoke, ring):
            za, zb = complex(lr0, th0), complex(lr1, th1)
            u = ch.transfer(np.array([za]), np.array([zb]), np.array([[zb]]), rtol)[0, 0]
            if lr0 == lr1:
                path = _z_ring_arc(ch, math.exp(lr0), th0, th1)
            else:
                path = segment(*(ch.to_global(ch.puncture + cmath.exp(z)) for z in (za, zb)))
            v = run_kernel(path, MODE_MATRIX, data.kernel_params(), np.eye(2), 1e-13)
            assert np.abs(u - v).max() <= 1e-10 * max(1.0, np.abs(v).max()), (ch.end, th0)


@TRIPLES
def test_collocation_determinant_oracle(angles):
    # Liouville's formula fixes the determinant of the raw transfer: the
    # log-chart generator has trace -1, so det = exp(-(b - a)), and the
    # z-chart generator is trace free, so det = 1.  As in the transport
    # det gate, the defect is taken relative to the squared Frobenius norm,
    # the scale on which the 2x2 determinant cancels (measured 1.4e-19 and
    # 2.5e-18 on the spokes, whose transfers reach norm 2.5e3 and 8.2e5,
    # and 1.8e-16 and 9.8e-17 on the segments)
    data = build_trinoid_data(angles)
    rtol = _transport_rtol()
    for mode, (params, a, b) in ((MODE_LOG_CHART, _spoke(data)), (MODE_MATRIX, _base_to_anchor(data))):
        target = np.exp(-(b - a)) if mode == MODE_LOG_CHART else 1.0
        u = _transfer(mode, params, a, b, rtol)
        assert abs(det2_compensated(u) - target) <= 1e-13 * max(1.0, fro(u)) ** 2, mode


@TRIPLES
def test_collocation_bisects_long_segment(angles):
    # one piece of 25 nodes does not resolve the base-to-anchor segment
    # (length 1.8, starting 0.37 from an umbilic), so its tail forces
    # bisection; the piece count is deterministic
    data = build_trinoid_data(angles)
    params, a, b = _base_to_anchor(data)
    stats: dict = {}
    _transfer(MODE_MATRIX, params, a, b, _transport_rtol(), stats)
    assert stats["n_pieces"] == 5


def test_collocation_zero_length_is_identity():
    data = build_trinoid_data(SYM23)
    u = _transfer(MODE_MATRIX, data.kernel_params(), 0.5 + 0.5j, 0.5 + 0.5j, 1e-13)
    np.testing.assert_array_equal(u, np.eye(2))


def test_collocation_failures_raise_step_underflow():
    data = build_trinoid_data(SYM23)
    params = data.kernel_params()
    # a tolerance below the unit roundoff cannot be met in double precision
    with pytest.raises(StepUnderflow, match="unit roundoff"):
        _transfer(MODE_MATRIX, params, 0.45 + 0.45j, 0.55 + 0.55j, 1e-31)
    with pytest.raises(StepUnderflow):
        _transfer(MODE_MATRIX, params, 0.45 + 0.45j, 0.55 + 0.55j, float("nan"))
    # a segment straight through the puncture at z = 0 meets it at a node
    with pytest.raises(StepUnderflow, match="singular"):
        _transfer(MODE_MATRIX, params, 0.5 + 0.5j, -0.5 - 0.5j, 1e-13)
    # one that misses it by 1e-9 exhausts the bisection depth instead
    with pytest.raises(StepUnderflow, match="bisections"):
        _transfer(MODE_MATRIX, params, 0.5 + 0.5j, -0.5 - 0.5j + 1e-9j, 1e-13)


def _relative_gap(u, v):
    return np.abs(u - v).max() / max(1.0, np.abs(v).max())


@TRIPLES
def test_dense_output_at_end_is_the_transfer(angles):
    # the sample at a is the identity to rounding, and the sample at b,
    # served by the last piece at its end node, is the product of the piece
    # transfers whatever other samples share the solve: bit for bit the
    # U(b) of a batch that samples b alone, as every grid edge does
    data = build_trinoid_data(angles)
    rtol = _transport_rtol()
    for mode, (params, a, b) in ((MODE_LOG_CHART, _spoke(data)), (MODE_MATRIX, _base_to_anchor(data))):
        dense = chebyshev_transfers(mode, params, [a], [b], [[a, 0.5 * (a + b), b]], rtol)[0]
        np.testing.assert_array_equal(dense[2], _transfer(mode, params, a, b, rtol))
        assert _relative_gap(dense[0], np.eye(2)) <= 1e-15, mode


@TRIPLES
def test_dense_output_matches_shorter_transfers(angles):
    # interpolated samples agree with separate solves from a to each sample
    # point, in every piece of a bisected segment (measured at most 3.0e-14
    # relative, on the BIG spoke, whose transfers reach norm 5.7e5).  The
    # mode-0 base-to-anchor segment, and here also the spoke, bisect into
    # 5 pieces, none shorter than a sixteenth, so the sixteen midpoints
    # below reach every piece
    data = build_trinoid_data(angles)
    rtol = _transport_rtol()
    for mode, (params, a, b) in ((MODE_LOG_CHART, _spoke(data)), (MODE_MATRIX, _base_to_anchor(data))):
        tau = (np.arange(16) + 0.5) / 16.0
        # out of order, to check that each sample lands in its own slot
        tau = np.concatenate([tau[::2], tau[1::2]])
        points = a + tau * (b - a)
        stats: dict = {}
        dense = chebyshev_transfers(mode, params, [a], [b], [points], rtol, stats)[0]
        assert dense.shape == (16, 2, 2)
        if mode == MODE_MATRIX:
            assert stats["n_pieces"] == 5
        for x, ux in zip(points, dense):
            v = _transfer(mode, params, a, x, rtol)
            assert _relative_gap(ux, v) <= 1e-13, (mode, x)


def _mixed_batch(data, mode):
    """A short segment, a long one that bisects, a zero-length one, each with
    sixteen samples given out of order (the zero-length one all at a)."""
    if mode == MODE_LOG_CHART:
        params, a, b = _spoke(data)
        short = (a + 0.3j, a + 0.05 + 0.35j)
    else:
        params, a, b = _base_to_anchor(data)
        short = (0.45 + 0.45j, 0.55 + 0.5j)
    starts = np.array([short[0], a, a])
    ends = np.array([short[1], b, a])
    tau = (np.arange(16) + 0.5) / 16.0
    tau = np.concatenate([tau[1::2], tau[::-1][1::2]])
    return params, starts, ends, starts[:, None] + tau * (ends - starts)[:, None]


@TRIPLES
@pytest.mark.parametrize("mode", [MODE_MATRIX, MODE_LOG_CHART], ids=["mode0", "mode4"])
def test_batch_matches_batches_of_one(angles, mode):
    # a batch solves each segment exactly as alone: the same pieces, and
    # transfers and dense samples within 1e-13 (measured equal); a
    # segment's piece count in the batch is what the batch loses without it
    data = build_trinoid_data(angles)
    rtol = _transport_rtol()
    params, a, b, samples = _mixed_batch(data, mode)

    def pieces(keep):
        stats: dict = {}
        chebyshev_transfers(mode, params, a[keep], b[keep], b[keep, None], rtol, stats)
        return stats["n_pieces"]

    total = pieces(np.ones(3, dtype=bool))
    stats: dict = {}
    u = chebyshev_transfers(mode, params, a, b, b[:, None], rtol)[:, 0]
    dense = chebyshev_transfers(mode, params, a, b, samples, rtol, stats)
    assert stats["n_pieces"] == total
    assert dense.shape == (3, 16, 2, 2)
    for i in range(3):
        one: dict = {}
        v = _transfer(mode, params, a[i], b[i], rtol, one)
        assert total - pieces(np.arange(3) != i) == one["n_pieces"], i
        assert _relative_gap(u[i], v) <= 1e-13, i
        alone = chebyshev_transfers(mode, params, a[i:i + 1], b[i:i + 1], samples[i:i + 1], rtol)[0]
        for ux, vx in zip(dense[i], alone):
            assert _relative_gap(ux, vx) <= 1e-13, i
    np.testing.assert_array_equal(u[2], np.eye(2))
    np.testing.assert_array_equal(dense[2], np.broadcast_to(np.eye(2), (16, 2, 2)))
