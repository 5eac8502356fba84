"""Unitarization of monodromy representations.

A representation generated by two SL(2,C) matrices descends to a surface in
hyperbolic space only after conjugation into SU(2).  The set of unitarizing
conjugators is fixed by the moduli class of the angle triple: a single
point for an irreducible triple, a geodesic line of conjugators for the
reducible one-parameter class, and all of hyperbolic space for the
three-parameter class.  This module takes that kind from moduli.classify
and uses the numerics only to build and check the base conjugator: the
unique invariant Hermitian form of the real-linear system, the
norm-minimal diagonalizing conjugator of an abelian pair, or the identity.

It also constructs the canonical diagonal representation carried by trinoids
with reducible monodromy, which the normal-form equation does not always
reach (at resonant angle triples its solution picks up a logarithm and the
local monodromy degenerates to a Jordan block).
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .algebra import fro, hermitian_sqrt, inv2
from .config import Tolerances
from .errors import NonSL2Input, NotUnitarizable, ResonantReducible
from .fuchsian import MonodromyRep
from .moduli import Status, classify

__all__ = [
    "SpaceKind",
    "UnitarizerSpace",
    "conjugator_from_form",
    "family_representation",
    "unitarizer_space",
]

# Real coordinates of Hermitian 2x2 matrices used by the linear solve:
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


def _check_form(h: np.ndarray, rhos, tol: Tolerances) -> None:
    """The form_residual and posdef_margin gates on a trace-2 form H."""
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


def _point_base(rhos, tol: Tolerances) -> np.ndarray:
    """Conjugator of the unique invariant form of an irreducible pair.

    The form is the smallest right singular vector of the real-linear 8x4
    system rho_j^* H rho_j = H over Hermitian H, scaled to trace 2.
    """
    rows = np.empty((8, 4))
    for i, rho in enumerate(rhos):
        for k, basis in enumerate(_HERM_BASIS):
            image = rho.conj().T @ basis @ rho - basis
            rows[4 * i : 4 * i + 4, k] = _herm_to_vec(image)
    _, _, vt = np.linalg.svd(rows)
    cand = _vec_to_herm(vt[-1])
    tr = cand[0, 0].real + cand[1, 1].real
    if abs(tr) < 1e-10 * fro(cand):
        raise NotUnitarizable("the invariant form is traceless, hence indefinite")
    h = (2.0 / tr) * cand
    _check_form(h, rhos, tol)
    return conjugator_from_form(h)


def _line_base(rhos, tol: Tolerances) -> np.ndarray:
    """Norm-minimal conjugator diagonalizing an abelian pair.

    Diagonalizes the generator farthest from scalar by its eigenvector
    matrix, scaled to determinant 1, and requires the other generator to be
    diagonal in that basis.  With u the inverse eigenbasis, the base is the
    left diagonal rescaling diag(e^{t/2}, e^{-t/2}) u of least Frobenius
    norm: minimizing e^t*|row1|^2 + e^{-t}*|row2|^2 over t gives
    e^{2t} = |row2|^2/|row1|^2.  An eigenvalue off the unit circle rules
    out every unitary conjugate.
    """
    lam, vec = np.linalg.eig(max(rhos, key=_scalar_defect))
    off = max(abs(abs(lam[0]) - 1.0), abs(abs(lam[1]) - 1.0))
    if off > 1e3 * tol.projective:
        raise NotUnitarizable(
            f"generator eigenvalues {lam} leave the unit circle by {off:.3e}"
        )
    vec = vec / np.linalg.norm(vec, axis=0, keepdims=True)
    d = complex(np.linalg.det(vec))
    if abs(d) < 1e-12:
        raise NotUnitarizable("generator is not diagonalizable")
    vec = vec / cmath.sqrt(d)
    u = inv2(vec)
    w = u @ min(rhos, key=_scalar_defect) @ vec
    if max(abs(w[0, 1]), abs(w[1, 0])) > 1e3 * tol.projective * max(1.0, fro(w)):
        raise NotUnitarizable("the generators share no eigenbasis")
    r1 = float(np.sum(np.abs(u[0]) ** 2))
    r2 = float(np.sum(np.abs(u[1]) ** 2))
    t = 0.5 * math.log(r2 / r1)
    base = np.diag([cmath.exp(0.5 * t), cmath.exp(-0.5 * t)]) @ u
    h = base.conj().T @ base
    _check_form((2.0 / (h[0, 0].real + h[1, 1].real)) * h, rhos, tol)
    return base


def conjugator_from_form(h: np.ndarray) -> np.ndarray:
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


def family_representation(angles, tol: Tolerances = Tolerances()) -> MonodromyRep:
    """The canonical diagonal representation of a reducible angle triple.

    Trinoids whose moduli class is reducible carry abelian monodromy that is
    simultaneously diagonal: the puncture with integer half-angle B = n*pi
    contributes (-1)^(n+1) I, a puncture with non-integer half-angle B
    contributes diag(-e^{iB}, -e^{-iB}), and the remaining generator is
    forced by the closing relation rho1 rho2 rho3 = I.  The parity condition
    of the reducible classification is exactly what makes the forced
    generator's eigenvalues come out as -e^{+-iB} again.
    """
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
        # diagonal generators commute, so the closing relation forces this
        rhos[j] = inv2(rhos[k] @ rhos[i])
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

_KIND_OF_STATUS = {
    Status.REDUCIBLE_C1: SpaceKind.GEODESIC_LINE,
    Status.REDUCIBLE_C2: SpaceKind.ALL_OF_H3,
}


@dataclass(frozen=True)
class UnitarizerSpace:
    """All conjugators carrying a representation into SU(2).

    sample maps a real parameter vector of length dim to a conjugator: the
    base conjugator for a single point, diag(e^{t/2}, e^{-t/2}) times the
    base along a geodesic line, and the ball chart for all of hyperbolic
    space, where the base is I.  The base conjugator is the parameter-zero
    point and minimizes the Frobenius norm over the space.
    """

    kind: SpaceKind
    base_conjugator: np.ndarray

    @property
    def dim(self) -> int:
        return _KIND_DIM[self.kind]

    def sample(self, params) -> np.ndarray:
        """The conjugator at params, shape checked; a scalar is accepted when
        dim=1.  A line parameter whose conjugator overflows a float, past
        |t| = 2 log(max float), about 1419.6, raises ValueError."""
        p = np.atleast_1d(np.asarray(params, dtype=float))
        if p.shape != (self.dim,):
            raise ValueError(
                f"expected {self.dim} parameters for {self.kind.value}, "
                f"got shape {p.shape}"
            )
        if self.kind is SpaceKind.GEODESIC_LINE:
            t = float(p[0])
            try:
                scale = np.diag([cmath.exp(0.5 * t), cmath.exp(-0.5 * t)])
            except OverflowError:
                raise ValueError(f"deformation {t!r} is out of range: the geodesic-line conjugator "
                                 "diag(e^(t/2), e^(-t/2)) overflows a float") from None
            return scale @ self.base_conjugator
        if self.kind is SpaceKind.ALL_OF_H3:
            return _ball_chart(p)
        return self.base_conjugator


def _ball_chart(p: np.ndarray) -> np.ndarray:
    """Conjugator whose Hermitian square projects to ball point p.

    Inverts the Poincare-ball projection in closed form: the ball point p
    (|p| < 1) at hyperbolic distance eta from the origin, |p| = tanh(eta/2),
    is the image of the boost (I + p.sigma) / sqrt(1 - |p|^2) =
    exp(eta/2 n.sigma), the principal square root of the hyperboloid point
    exp(eta n.sigma).  Its determinant is 1 up to rounding at every |p| < 1,
    whereas the hyperboloid matrix's is a cancellation of terms of size
    1 / (1 - |p|^2), which a numerical square root carries into the
    conjugator as p nears the ideal boundary.
    """
    with np.errstate(over="ignore"):  # an overflow reads inf, which is refused
        r2 = float(p @ p)
    if r2 >= 1.0:
        raise ValueError(f"ball chart needs |p| < 1, got |p|^2 = {r2}")
    p1, p2, p3 = (float(x) for x in p)
    boost = np.array([[1.0 + p3, p1 + 1j * p2], [p1 - 1j * p2, 1.0 - p3]], dtype=complex)
    return boost / math.sqrt(1.0 - r2)


def unitarizer_space(rep: MonodromyRep, angles, tol: Tolerances = Tolerances()) -> UnitarizerSpace:
    """Describe every conjugator a with a rho_j a^(-1) in SU(2).

    The kind is the h3 moduli class of the angle triple: all of hyperbolic
    space for ReducibleC2, a geodesic line of conjugators for ReducibleC1,
    and a single point for every other class.  The representation only
    supplies the base conjugator, and NotUnitarizable is raised when it
    contradicts its class or has no positive definite invariant form: a
    ReducibleC2 generator farther than tol.apparent from +-I, ReducibleC1
    generators that share no eigenbasis, or a form that fails the
    form_residual or posdef_margin gate.  For the two reducible classes it
    is the subclass ResonantReducible, which names the integer ends.
    """
    _check_sl2(rep, tol)
    rhos = (rep.rho1, rep.rho2)
    verdict = classify(angles, target="h3", tol=tol)
    kind = _KIND_OF_STATUS.get(verdict.status, SpaceKind.SINGLE_POINT)
    if kind is SpaceKind.SINGLE_POINT:
        return UnitarizerSpace(kind=kind, base_conjugator=_point_base(rhos, tol))
    try:
        if kind is SpaceKind.ALL_OF_H3:
            defect = max(_scalar_defect(r) for r in rhos)
            if defect >= tol.apparent:
                raise NotUnitarizable(f"a generator is {defect:.3e} from +-I")
            base = np.eye(2, dtype=complex)
        else:
            base = _line_base(rhos, tol)
    except NotUnitarizable as exc:
        # the integer angles: all three of ReducibleC2, labeling[0] of ReducibleC1
        ends = "ends 1, 2 and 3" if kind is SpaceKind.ALL_OF_H3 else f"end {verdict.labeling[0]}"
        raise ResonantReducible(f"{exc}: the loop transports of this {verdict.status.value} "
                                f"triple are resonant at its integer {ends}") from exc
    return UnitarizerSpace(kind=kind, base_conjugator=base)
