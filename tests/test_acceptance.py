"""End-to-end acceptance: ten numbered guarantees, one test and one
printed pass/fail line each, with runtime budgets where stated."""

import contextlib
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from trinoid.algebra import inv2, su2_defect
from trinoid.cli import build_surface, main
from trinoid.fuchsian import (
    Source,
    hypergeometric_monodromy,
    make_path_plan,
    monodromy,
    projective_equivalence,
)
from trinoid.moduli import (
    Status,
    classify,
    fh_attach_bigon,
    fh_attach_hemisphere,
    irreducible_exists,
    reduce_angles,
)
from trinoid.surface import well_definedness_defect
from trinoid.trinoid_data import build_trinoid_data, hypergeometric_params
from trinoid.unitarize import family_representation, unitarizer_space
from trinoid.errors import BigonRequiresAcute

PI = math.pi
SYM23 = (2 * PI / 3,) * 3
SYM12 = (PI / 2,) * 3
C1 = (2 * PI, PI / 2, PI / 2)
C2 = (3 * PI, 3 * PI, 3 * PI)
FOUR = (SYM23, SYM12, C1, C2)


@contextlib.contextmanager
def criterion(num, desc, budget=None, offset=0.0):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} FAIL {desc}", flush=True)
        raise
    dt = time.monotonic() - t0 + offset
    if budget is not None and dt >= budget:
        print(f"criterion {num:02d} FAIL {desc} ({dt:.2f}s over budget)", flush=True)
        raise AssertionError(f"runtime {dt:.2f}s exceeds the {budget:.0f}s budget")
    print(f"criterion {num:02d} PASS {desc} ({dt:.2f}s)", flush=True)


def rep_for(angles):
    """The representation realized by the moduli space: ODE transport in
    general, the diagonal family model for the boundary reducible triple
    whose ODE transport is a non-diagonalizable Jordan loop."""
    if angles == C1:
        return family_representation(angles)
    return monodromy(build_trinoid_data(angles))


# Twelve derived verdicts covering every reachable outcome, as
# (pi multiples, target, status, dimension) rows.
SQ13 = math.sqrt(13.0) / 4.0
TABLE = [
    ((2 / 3, 2 / 3, 2 / 3), "h3", Status.IRREDUCIBLE_UNIQUE, 0),
    ((1 / 2, 1 / 2, 1 / 2), "h3", Status.IRREDUCIBLE_UNIQUE, 0),
    ((2, 1 / 2, 1 / 2), "h3", Status.REDUCIBLE_C1, 1),
    ((3, 3, 3), "h3", Status.REDUCIBLE_C2, 3),
    ((2, 1 / 3, 1 / 3), "h3", Status.EMPTY, None),
    ((1, 1 / 2, 1 / 3), "h3", Status.EXCLUDED_ANGLE_IS_PI, None),
    ((1 / 4, 1 / 4, 1 / 4), "h3", Status.EMPTY, None),
    ((1 / 4, 1 / 4, 1 / 4), "s2", Status.EMPTY, None),
    ((5, 1, 1), "s2", Status.EMPTY, None),
    ((1 / 2, 2, 1 / 2), "h3", Status.REDUCIBLE_C1, 1),
    ((2, 3, 4), "h3", Status.REDUCIBLE_C2, 3),
    ((1 / 2, SQ13, SQ13), "h3", Status.DEGENERATE_HANBETU, None),
]


def test_criterion_01_classification_table():
    with criterion(1, "classification truth table", budget=1.0):
        for mults, target, status, dim in TABLE:
            b = tuple(m * PI for m in mults)
            verdict = classify(b, target)
            assert verdict.status is status, (mults, target, verdict)
            assert verdict.dimension == dim, (mults, target, verdict)

        # four randomized one-parameter reducible instances: an integer
        # n >= 2 at one slot, two non-integers summing to an integer m of
        # the opposite parity with m <= n - 1
        rng = np.random.default_rng(20240817)
        built = 0
        while built < 4:
            n = int(rng.integers(2, 8))
            choices = [m for m in range(1, n) if (m % 2) != (n % 2)]
            m = int(choices[rng.integers(len(choices))])
            u = float(rng.uniform(0.1, m - 0.1)) if m > 1 else float(rng.uniform(0.1, 0.9))
            if abs(u - round(u)) < 0.05:
                continue
            triple = np.array([n, u, m - u]) * PI
            perm = rng.permutation(3)
            verdict = classify(tuple(triple[perm]), "h3")
            assert verdict.status is Status.REDUCIBLE_C1, (n, m, u, perm)
            assert verdict.dimension == 1
            built += 1


def test_criterion_02_criterion_equivalence():
    with criterion(2, "quadratic and reduced-sum criteria agree", budget=5.0):
        rng = np.random.default_rng(321)
        samples = rng.uniform(0.0, 4.0 * PI, size=(10_000, 3))
        kept = 0
        for row in samples:
            b = tuple(row)
            c = np.cos(row)
            quad_gap = abs(float(c @ c + 2.0 * c.prod()) - 1.0)
            sum_gap = abs(sum(reduce_angles(b)) - PI)
            if quad_gap <= 1e-9 or sum_gap <= 1e-9 or row.min() <= 1e-9:
                continue
            kept += 1
            assert irreducible_exists(b) == (sum(reduce_angles(b)) > PI), b
        assert kept >= 9990


def test_criterion_03_monodromy_eigenvalues():
    with criterion(3, "loop transport eigenvalues and relation", budget=30.0):
        for angles in FOUR:
            rep = monodromy(build_trinoid_data(angles))
            rhos = (rep.rho1, rep.rho2, rep.rho3)
            for rho, b in zip(rhos, angles):
                lam = np.linalg.eigvals(rho)
                t1 = -np.exp(1j * b)
                t2 = -np.exp(-1j * b)
                defect = min(
                    max(abs(lam[0] - t1), abs(lam[1] - t2)),
                    max(abs(lam[0] - t2), abs(lam[1] - t1)),
                )
                assert defect < 1e-6, (angles, b, lam)
                assert abs(np.linalg.det(rho) - 1.0) < 1e-8, angles
            prod = rhos[0] @ rhos[1] @ rhos[2]
            assert np.linalg.norm(prod - np.eye(2)) < 1e-7, angles


def test_criterion_04_scalar_matrix_agreement():
    with criterion(4, "scalar and matrix transports projectively equal", budget=60.0):
        for angles in FOUR:
            data = build_trinoid_data(angles)
            plan = make_path_plan(data)
            rep_m = monodromy(data, plan=plan, source=Source.MATRIX_ODE)
            rep_s = monodromy(data, plan=plan, source=Source.SCALAR_ODE)
            assert projective_equivalence(rep_m, rep_s), angles


def test_criterion_05_hypergeometric_cross_validation():
    with criterion(5, "hypergeometric transport matches", budget=60.0):
        for angles in FOUR:
            hyp = hypergeometric_monodromy(hypergeometric_params(angles))
            assert projective_equivalence(rep_for(angles), hyp), angles


def test_criterion_06_unitarizer_dimensions():
    with criterion(6, "conjugator space dimension and residuals"):
        rng = np.random.default_rng(77)
        for angles, dim in zip(FOUR, (0, 0, 1, 3)):
            rep = rep_for(angles)
            space = unitarizer_space(rep, angles)
            assert space.dim == dim, (angles, space.kind)
            assert space.dim == (classify(angles, "h3").dimension or 0)
            for _ in range(20):
                a = space.sample(rng.uniform(-0.5, 0.5, size=space.dim))
                ai = inv2(a)
                for rho in (rep.rho1, rep.rho2, rep.rho3):
                    assert su2_defect(a @ rho @ ai) < 1e-6, angles


@pytest.fixture(scope="module")
def pipeline():
    t0 = time.monotonic()
    surf = build_surface(SYM23, rings=8, sectors=48)
    return SimpleNamespace(
        data=surf.data,
        grid=surf.grid,
        transport=surf.transport,
        weier=surf.weier,
        conj=surf.conj,
        build=time.monotonic() - t0,
    )


def test_criterion_07_weierstrass_oracle(pipeline):
    with criterion(7, "induced-data oracles on the full grid", budget=120.0,
                   offset=pipeline.build):
        p = pipeline
        idx = np.flatnonzero(p.weier.numeric)
        assert len(idx) == 3 * p.grid.rings * p.grid.sectors
        z = p.grid.vertices[idx]
        qhat = np.array([p.data.hopf(zz) for zz in z])
        res_q = np.abs(p.weier.omega[idx] * p.weier.dg[idx] - qhat) / np.abs(qhat)
        gz = np.array([p.data.gauss(zz) for zz in z])
        res_g = np.abs(p.weier.gauss_ratio[idx] - gz) / np.abs(gz)
        assert np.mean(res_q < 1e-6) >= 0.95
        assert np.mean(res_g < 1e-6) >= 0.95
        dets = np.linalg.det(p.transport.frames)
        assert np.max(np.abs(dets - 1.0)) < 1e-9
        assert p.transport.stats["max_det_defect"] < 1e-9


def test_criterion_08_well_definedness(pipeline):
    with criterion(8, "doubled loops close only after unitarization"):
        p = pipeline
        picks = [
            (0, 0, 0), (0, 2, 17), (0, 4, 33), (1, 0, 8), (1, 3, 40),
            (1, 5, 3), (2, 1, 25), (2, 2, 11), (2, 6, 46), (2, 7, 20),
        ]
        assert well_definedness_defect(p.transport, p.conj).max() < 1e-6
        raw = well_definedness_defect(p.transport, np.eye(2, dtype=complex))
        assert max(raw[p.grid.annulus_index(*pick)] for pick in picks) > 1e-2


def test_criterion_09_surgery_closure():
    with criterion(9, "hemisphere closure and bigon gate"):
        c2_set = []
        for n1 in range(1, 10):
            for n2 in range(1, 10):
                for n3 in range(1, 10):
                    b = (n1 * PI, n2 * PI, n3 * PI)
                    if classify(b, "s2").status is Status.REDUCIBLE_C2:
                        c2_set.append(b)
        assert len(c2_set) > 50
        for b in c2_set:
            for edge in ((1, 2), (1, 3), (2, 3)):
                out = fh_attach_hemisphere(b, edge)
                assert classify(out, "s2").status is Status.REDUCIBLE_C2, (b, edge)
            # every entry of a c2 triple is at least pi, so the bigon
            # surgery must refuse each vertex
            for vertex, other in ((1, 2), (2, 3), (3, 1)):
                with pytest.raises(BigonRequiresAcute):
                    fh_attach_bigon(b, vertex, other)
        # below pi the same surgery goes through
        out = fh_attach_bigon((PI / 3, PI / 2, PI / 2), 1, 2)
        np.testing.assert_allclose(out, (2 * PI / 3, 3 * PI / 2, PI / 2), atol=1e-15)


def test_criterion_10_deterministic_reports(tmp_path):
    with criterion(10, "repeated reports are byte-identical"):
        for cmd in (
            ["classify", "--angles", "2/3,2/3,2/3"],
            ["monodromy", "--angles", "2/3,2/3,2/3"],
        ):
            paths = [tmp_path / f"{cmd[0]}_{i}.json" for i in (0, 1)]
            for path in paths:
                assert main(cmd + ["--json", str(path)]) == 0
            assert paths[0].read_bytes() == paths[1].read_bytes()
