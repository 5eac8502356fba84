"""Unitarization of monodromy representations.

A representation generated by two SL(2,C) matrices descends to a surface in
hyperbolic space only after conjugation into SU(2).  This module solves the
real-linear system for an invariant Hermitian form, turns a positive definite
form into an explicit conjugator, and describes the full set of unitarizing
conjugators: a single point for irreducible representations, a geodesic line
of conjugators for abelian ones with a non-integer half-angle, and all of
hyperbolic space when the projective image is trivial.

It also constructs the canonical diagonal representation carried by trinoids
with reducible monodromy, which the normal-form equation does not always
reach (at resonant angle triples its solution picks up a logarithm and the
local monodromy degenerates to a Jordan block).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import fro, hermitian_sqrt, inv2
from .config import Tolerances, default_tolerances
from .errors import NonSL2Input, NotUnitarizable
from .fuchsian import MonodromyRep, Source
from .moduli import Status, classify

__all__ = [
    "SpaceKind",
    "UnitarizerSpace",
    "invariant_hermitian_form",
    "conjugator_from_form",
    "family_representation",
    "unitarizer_space",
]

# Real parametrization of Hermitian 2x2 matrices used by the linear solve:
# H = x0*E0 + x1*E1 + x2*E2 + x3*E3 with real coefficients.
_HERM_BASIS = (
    np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
    np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex),
)


def _herm_to_vec(h: np.ndarray) -> np.ndarray:
    """Coordinates of a Hermitian matrix in the real basis above."""
    return np.array(
        [h[0, 0].real, h[1, 1].real, h[0, 1].real, h[0, 1].imag]
    )


def _vec_to_herm(x: np.ndarray) -> np.ndarray:
    return (
        x[0] * _HERM_BASIS[0]
        + x[1] * _HERM_BASIS[1]
        + x[2] * _HERM_BASIS[2]
        + x[3] * _HERM_BASIS[3]
    )


def _check_sl2(rep: MonodromyRep, tol: Tolerances) -> None:
    for name, rho in (("rho1", rep.rho1), ("rho2", rep.rho2)):
        d = complex(np.linalg.det(rho))
        if abs(d - 1.0) > tol.det * max(1.0, fro(rho) ** 2):
            raise NonSL2Input(f"{name} has determinant {d}, not 1")


def _form_residual(h: np.ndarray, rhos) -> float:
    """Largest invariance defect of H relative to its own size."""
    scale = max(fro(h), 1e-300)
    worst = 0.0
    for rho in rhos:
        worst = max(worst, fro(rho.conj().T @ h @ rho - h) / scale)
    return worst


def _scalar_defect(m: np.ndarray) -> float:
    """Frobenius distance of M from the nearest scalar multiple of I."""
    mean = 0.5 * (m[0, 0] + m[1, 1])
    return fro(m - mean * np.eye(2))


@dataclass
class _FormAnalysis:
    """Internal result of the invariant-form solve."""

    form: np.ndarray           # trace-2 positive definite invariant form
    nullity: int               # dimension of the linear solution space
    trivial: bool              # both generators scalar (+-I like)
    eigenbasis: np.ndarray | None  # det-1 simultaneous eigenvector matrix


def _diagonalizing_matrix(g: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Eigenvector matrix of a non-scalar matrix, scaled to determinant 1.

    Raises NotUnitarizable when an eigenvalue leaves the unit circle, since
    no conjugate of such a matrix can be unitary.
    """
    lam, vec = np.linalg.eig(g)
    off = max(abs(abs(lam[0]) - 1.0), abs(abs(lam[1]) - 1.0))
    if off > 1e3 * tol.projective:
        raise NotUnitarizable(
            f"generator eigenvalues {lam} leave the unit circle by {off:.3e}"
        )
    vec = vec / np.linalg.norm(vec, axis=0, keepdims=True)
    d = complex(np.linalg.det(vec))
    if abs(d) < 1e-12:
        raise NotUnitarizable("generator is not diagonalizable")
    return vec / cmath.sqrt(d)


def _minimal_diagonal_conjugator(u: np.ndarray) -> np.ndarray:
    """Left diagonal factor making diag(e^{t/2}, e^{-t/2}) @ u norm-minimal.

    Minimizing e^t*|row1|^2 + e^{-t}*|row2|^2 over t gives
    e^{2t} = |row2|^2/|row1|^2.
    """
    r1 = float(np.sum(np.abs(u[0]) ** 2))
    r2 = float(np.sum(np.abs(u[1]) ** 2))
    t = 0.5 * math.log(r2 / r1)
    return np.diag([cmath.exp(0.5 * t), cmath.exp(-0.5 * t)]) @ u


def _analyze_forms(rep: MonodromyRep, tol: Tolerances) -> _FormAnalysis:
    """Solve rho_j^* H rho_j = H over Hermitian H and pick a definite one."""
    _check_sl2(rep, tol)
    rhos = (rep.rho1, rep.rho2)

    rows = np.empty((8, 4))
    for i, rho in enumerate(rhos):
        for k, basis in enumerate(_HERM_BASIS):
            image = rho.conj().T @ basis @ rho - basis
            rows[4 * i : 4 * i + 4, k] = _herm_to_vec(image)
    sv = np.linalg.svd(rows, compute_uv=False)
    cutoff = tol.null_sv * max(sv[0], 1.0)
    nullity = int(np.sum(sv <= cutoff))

    if nullity == 0:
        raise NotUnitarizable(
            f"no invariant Hermitian form: smallest singular value {sv[-1]:.3e}"
        )

    trivial = max(_scalar_defect(r) for r in rhos) < tol.apparent
    if trivial:
        # Every Hermitian form is invariant; the identity is the canonical
        # positive definite representative.
        return _FormAnalysis(
            form=np.eye(2, dtype=complex),
            nullity=nullity,
            trivial=True,
            eigenbasis=None,
        )

    if nullity == 1:
        _, _, vt = np.linalg.svd(rows)
        cand = _vec_to_herm(vt[-1])
        tr = cand[0, 0].real + cand[1, 1].real
        if abs(tr) < 1e-10 * fro(cand):
            raise NotUnitarizable(
                "the invariant form is traceless, hence indefinite"
            )
        h = (2.0 / tr) * cand
        return _finish(h, rhos, nullity, None, tol)

    # Reducible case with a non-scalar generator: diagonalize the generator
    # farthest from scalar, check the other is diagonal in the same basis,
    # and take the form of the norm-minimal diagonal conjugator.
    g = max(rhos, key=_scalar_defect)
    vec = _diagonalizing_matrix(g, tol)
    u = inv2(vec)
    other = min(rhos, key=_scalar_defect)
    w = u @ other @ vec
    off = max(abs(w[0, 1]), abs(w[1, 0]))
    if off > 1e3 * tol.projective * max(1.0, fro(w)):
        raise NotUnitarizable(
            "solution space is degenerate: generators share no eigenbasis"
        )
    b = _minimal_diagonal_conjugator(u)
    h = b.conj().T @ b
    h = (2.0 / (h[0, 0].real + h[1, 1].real)) * h
    return _finish(h, rhos, nullity, vec, tol)


def _finish(
    h: np.ndarray,
    rhos,
    nullity: int,
    eigenbasis: np.ndarray | None,
    tol: Tolerances,
) -> _FormAnalysis:
    h = 0.5 * (h + h.conj().T)
    resid = _form_residual(h, rhos)
    if resid > tol.form_residual:
        raise NotUnitarizable(
            f"best invariant-form candidate has residual {resid:.3e}"
        )
    lam = np.linalg.eigvalsh(h)
    trace = float(lam[0] + lam[1])
    if lam[0] < tol.posdef_margin * trace:
        raise NotUnitarizable(
            f"invariant form is not positive definite: eigenvalues {lam}"
        )
    return _FormAnalysis(
        form=h, nullity=nullity, trivial=False, eigenbasis=eigenbasis
    )


def invariant_hermitian_form(
    rep: MonodromyRep, tol: Tolerances | None = None
) -> np.ndarray:
    """Positive definite Hermitian H with rho_j^* H rho_j = H, trace 2.

    The two generators give a real-linear 8x4 system over Hermitian matrices.
    For an irreducible representation the solution space is a line and the
    form is unique up to scale; for an abelian one the space is larger and
    the returned form is the one whose conjugator has minimal Frobenius
    norm.  Raises NotUnitarizable when the space contains no positive
    definite element.
    """
    tol = tol or default_tolerances()
    return _analyze_forms(rep, tol).form


def conjugator_from_form(h: np.ndarray, tol: Tolerances | None = None) -> np.ndarray:
    """The unit-determinant positive square root a = H^(1/2)/det(H^(1/2))^(1/2).

    If rho preserves H in the sense rho^* H rho = H, then a rho a^(-1) is
    unitary, since a^* a equals H up to the scale removed by the determinant
    normalization.  Raises NotPositiveDefinite for indefinite input.
    """
    h = np.asarray(h, dtype=complex)
    if fro(h - h.conj().T) > 1e-10 * max(1.0, fro(h)):
        raise ValueError("form must be Hermitian")
    root = hermitian_sqrt(h)  # raises NotPositiveDefinite
    d = complex(np.linalg.det(root))
    return root / cmath.sqrt(d)


def family_representation(
    angles, tol: Tolerances | None = None
) -> MonodromyRep:
    """The canonical diagonal representation of a reducible angle triple.

    Trinoids whose moduli class is reducible carry abelian monodromy that is
    simultaneously diagonal: the puncture with integer half-angle B = n*pi
    contributes (-1)^(n+1) I, a puncture with non-integer half-angle B
    contributes diag(-e^{iB}, -e^{-iB}), and the remaining generator is
    forced by the closing relation rho1 rho2 rho3 = I.  The parity condition
    of the reducible classification is exactly what makes the forced
    generator's eigenvalues come out as -e^{+-iB} again.
    """
    tol = tol or default_tolerances()
    b = tuple(float(x) for x in angles)
    cls = classify(b, target="h3", tol=tol)

    if cls.status == Status.REDUCIBLE_C2:
        rhos = [
            float((-1.0) ** (round(x / math.pi) + 1)) * np.eye(2, dtype=complex)
            for x in b
        ]
    elif cls.status == Status.REDUCIBLE_C1:
        k = cls.labeling[0] - 1
        others = [i for i in range(3) if i != k]
        n = round(b[k] / math.pi)
        rhos: list[np.ndarray | None] = [None, None, None]
        rhos[k] = float((-1.0) ** (n + 1)) * np.eye(2, dtype=complex)
        i = others[0]
        rhos[i] = np.diag(
            [-cmath.exp(1j * b[i]), -cmath.exp(-1j * b[i])]
        )
        j = others[1]
        if j == 0:
            rhos[0] = inv2(rhos[1] @ rhos[2])
        elif j == 1:
            rhos[1] = inv2(rhos[0]) @ inv2(rhos[2])
        else:
            rhos[2] = inv2(rhos[0] @ rhos[1])
        want = {-cmath.exp(1j * b[j]), -cmath.exp(-1j * b[j])}
        got = rhos[j][0, 0]
        if min(abs(got - w) for w in want) > 1e-8:
            raise ValueError(
                f"forced generator eigenvalue {got} does not match angle {b[j]}"
            )
    else:
        raise ValueError(
            f"family representation needs a reducible class, got {cls.status.value}"
        )

    return MonodromyRep(
        rho1=rhos[0],
        rho2=rhos[1],
        rho3=rhos[2],
        source=Source.FAMILY,
        err_estimate=0.0,
        det_drift=0.0,
        eigenvalue_defect=0.0,
    )


class SpaceKind(enum.Enum):
    SINGLE_POINT = "SinglePoint"
    GEODESIC_LINE = "GeodesicLine"
    ALL_OF_H3 = "AllOfH3"


_KIND_DIM = {
    SpaceKind.SINGLE_POINT: 0,
    SpaceKind.GEODESIC_LINE: 1,
    SpaceKind.ALL_OF_H3: 3,
}


@dataclass(frozen=True)
class UnitarizerSpace:
    """All conjugators carrying a representation into SU(2).

    parametrization maps a real parameter vector of length dim to a
    conjugator; the base conjugator is the parameter-zero point and
    minimizes the Frobenius norm over the space.
    """

    kind: SpaceKind
    base_conjugator: np.ndarray | None
    parametrization: Callable[..., np.ndarray] = field(repr=False)

    @property
    def dim(self) -> int:
        return _KIND_DIM[self.kind]

    def sample(self, params) -> np.ndarray:
        """Parametrization with shape checking; accepts a scalar when dim=1."""
        p = np.atleast_1d(np.asarray(params, dtype=float))
        if p.shape != (self.dim,):
            raise ValueError(
                f"expected {self.dim} parameters for {self.kind.value}, "
                f"got shape {p.shape}"
            )
        return self.parametrization(p)


def _ball_chart(p: np.ndarray) -> np.ndarray:
    """Conjugator whose Hermitian square projects to ball point p.

    Inverts the Poincare-ball projection: the ball point p (|p| < 1) lifts
    to the Minkowski hyperboloid, the hyperboloid point is written as a
    determinant-1 positive Hermitian matrix, and the conjugator is its
    principal square root.
    """
    r2 = float(p @ p)
    if r2 >= 1.0:
        raise ValueError(f"ball chart needs |p| < 1, got |p|^2 = {r2}")
    den = 1.0 - r2
    x0 = (1.0 + r2) / den
    x1, x2, x3 = (2.0 * p[0] / den, 2.0 * p[1] / den, 2.0 * p[2] / den)
    x = np.array(
        [[x0 + x3, x1 + 1j * x2], [x1 - 1j * x2, x0 - x3]], dtype=complex
    )
    return hermitian_sqrt(x)


def unitarizer_space(
    rep: MonodromyRep, angles, tol: Tolerances | None = None
) -> UnitarizerSpace:
    """Describe every conjugator a with a rho_j a^(-1) in SU(2).

    The kind follows the reducibility of the representation: a single point
    when it is irreducible, a geodesic line of conjugators when the image is
    abelian but nontrivial (which requires a non-integer half-angle), and
    all of hyperbolic space when the projective image is trivial (all
    half-angles integer multiples of pi).  Raises NotUnitarizable when no
    conjugator exists at all.
    """
    tol = tol or default_tolerances()
    b = tuple(float(x) for x in angles)
    analysis = _analyze_forms(rep, tol)

    all_integer = all(
        abs(x / math.pi - round(x / math.pi)) <= tol.integer for x in b
    )
    commutator = fro(rep.rho1 @ rep.rho2 - rep.rho2 @ rep.rho1)

    if analysis.trivial:
        if not all_integer:
            raise ValueError(
                "trivial projective image is inconsistent with a "
                f"non-integer half-angle triple {b}"
            )
        return UnitarizerSpace(
            kind=SpaceKind.ALL_OF_H3,
            base_conjugator=np.eye(2, dtype=complex),
            parametrization=_ball_chart,
        )

    if commutator < tol.commutator:
        if all_integer:
            raise ValueError(
                "abelian nontrivial image is inconsistent with an "
                f"all-integer half-angle triple {b}"
            )
        vec = analysis.eigenbasis
        if vec is None:
            vec = _diagonalizing_matrix(
                max((rep.rho1, rep.rho2), key=_scalar_defect), tol
            )
        u = inv2(vec)
        base = _minimal_diagonal_conjugator(u)

        def line(p: np.ndarray, _base=base) -> np.ndarray:
            t = float(p[0])
            return np.diag([cmath.exp(0.5 * t), cmath.exp(-0.5 * t)]) @ _base

        return UnitarizerSpace(
            kind=SpaceKind.GEODESIC_LINE,
            base_conjugator=base,
            parametrization=line,
        )

    base = conjugator_from_form(analysis.form, tol)

    def point(_p: np.ndarray, _base=base) -> np.ndarray:
        return _base

    return UnitarizerSpace(
        kind=SpaceKind.SINGLE_POINT,
        base_conjugator=base,
        parametrization=point,
    )
