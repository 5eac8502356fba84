"""Small dense linear algebra over 2x2 complex matrices.

Everything downstream works with SL(2,C) elements and their projection
to hyperbolic 3-space realized as positive Hermitian matrices of
determinant one; INF is the point at infinity of the Riemann sphere, a
value the Gauss map attains.  No Mobius action is provided: the frames
act by matrix products only.  Matrices are plain numpy arrays of shape
(2, 2) and dtype complex128; no wrapper class is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import Tolerances
from .errors import NonSL2Input, NotPositiveDefinite


class Infinity:
    """The point at infinity of the Riemann sphere.

    A singleton, used as an explicit projective value instead of a float
    sentinel: the hyperbolic Gauss map genuinely attains infinity.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"


INF = Infinity()


def is_inf(value) -> bool:
    return isinstance(value, Infinity)


def mat2(a11, a12, a21, a22) -> np.ndarray:
    return np.array([[a11, a12], [a21, a22]], dtype=complex)


def det2(m: np.ndarray) -> complex:
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def inv2(m: np.ndarray) -> np.ndarray:
    """Inverse by adjugate; raises ZeroDivisionError on singular input."""
    d = det2(m)
    if d == 0:
        raise ZeroDivisionError("singular 2x2 matrix")
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex) / d


def fro(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp splitting constant


def det2_compensated(m) -> complex:
    """Determinant with compensated products, of a 2x2 matrix or of its two
    rows given as pairs of entries.

    The naive determinant of a matrix with entries of size s carries a
    rounding error of order eps*s^2, which drowns the actual drift signal
    once transported frames grow large.  Each of the eight real parts is
    split once into a high and a low half (Veltkamp), each of the eight
    real products becomes its rounded value p plus its exact error e
    (Dekker's two-product, without fma), and math.fsum adds the sixteen
    exact terms of each part, correctly rounded, so their order does not
    matter.
    """
    (a, b), (c, d) = m
    a, b, c, d = complex(a), complex(b), complex(c), complex(d)
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    cr, ci, dr, di = c.real, c.imag, d.real, d.imag
    t = _SPLITTER * ar
    arh = t - (t - ar)
    arl = ar - arh
    t = _SPLITTER * ai
    aih = t - (t - ai)
    ail = ai - aih
    t = _SPLITTER * br
    brh = t - (t - br)
    brl = br - brh
    t = _SPLITTER * bi
    bih = t - (t - bi)
    bil = bi - bih
    t = _SPLITTER * cr
    crh = t - (t - cr)
    crl = cr - crh
    t = _SPLITTER * ci
    cih = t - (t - ci)
    cil = ci - cih
    t = _SPLITTER * dr
    drh = t - (t - dr)
    drl = dr - drh
    t = _SPLITTER * di
    dih = t - (t - di)
    dil = di - dih
    # re(ad - bc) = ar dr - ai di - br cr + bi ci
    p1 = ar * dr
    p2 = ai * di
    p3 = br * cr
    p4 = bi * ci
    re = math.fsum((
        p1, ((arh * drh - p1) + arh * drl + arl * drh) + arl * drl,
        -p2, -(((aih * dih - p2) + aih * dil + ail * dih) + ail * dil),
        -p3, -(((brh * crh - p3) + brh * crl + brl * crh) + brl * crl),
        p4, ((bih * cih - p4) + bih * cil + bil * cih) + bil * cil,
    ))
    # im(ad - bc) = ar di + ai dr - br ci - bi cr
    p1 = ar * di
    p2 = ai * dr
    p3 = br * ci
    p4 = bi * cr
    im = math.fsum((
        p1, ((arh * dih - p1) + arh * dil + arl * dih) + arl * dil,
        p2, ((aih * drh - p2) + aih * drl + ail * drh) + ail * drl,
        -p3, -(((brh * cih - p3) + brh * cil + brl * cih) + brl * cil),
        -p4, -(((bih * crh - p4) + bih * crl + bil * crh) + bil * crl),
    ))
    return complex(re, im)


def det_defect(m: np.ndarray) -> np.ndarray:
    """|det m - 1| / max(1, |m|_F^2) of a 2x2 matrix or of each of a stack.

    The squared Frobenius norm is the scale on which ad - bc cancels to 1
    for a large-entry unimodular matrix, so relative to it the plain
    determinant's rounding is of the order of eps, far below any gate, and
    needs none of det2_compensated's error-free products.
    """
    return np.abs(det2(m) - 1.0) / np.maximum(1.0, (np.abs(m) ** 2).sum(axis=(-2, -1)))


@dataclass(frozen=True)
class H3Point:
    """A point of hyperbolic 3-space in two models at once.

    minkowski is (x0, x1, x2, x3) on the hyperboloid x0^2-x1^2-x2^2-x3^2=1,
    ball is the Poincare ball image (x1,x2,x3)/(1+x0).
    """

    minkowski: np.ndarray
    ball: np.ndarray


def project_h3(f: np.ndarray, tol: Tolerances = Tolerances()) -> H3Point:
    """Project an SL(2,C) element, or each of a stack (..., 2, 2), to H^3 by
    the Hermitian square F F*; the coordinates then stack the same way.

    The determinant gate scales with the squared matrix norm (det_defect):
    computing ad - bc for a large-entry unimodular matrix loses precision
    through cancellation, so an absolute test would reject accurately
    computed frames far down a trinoid end.
    """
    f = np.asarray(f, dtype=complex)
    defect = det_defect(f)
    if np.any(defect > tol.det):
        raise NonSL2Input(f"determinant defect {np.max(defect):.3g} is above the scaled {tol.det}")
    x = f @ np.swapaxes(f.conj(), -1, -2)
    x0 = 0.5 * (x[..., 0, 0].real + x[..., 1, 1].real)
    x3 = 0.5 * (x[..., 0, 0].real - x[..., 1, 1].real)
    mink = np.stack([x0, x[..., 0, 1].real, x[..., 0, 1].imag, x3], axis=-1)
    ball = mink[..., 1:] / (1.0 + x0)[..., None]
    return H3Point(minkowski=mink, ball=ball)


def eigenvalues_2x2(m: np.ndarray):
    """Both eigenvalues, ordered by (Re, Im) lexicographically descending.

    The larger-magnitude root of the characteristic polynomial is computed
    first and the other recovered from the determinant, which avoids the
    cancellation in the textbook formula.
    """
    tr = complex(m[0, 0] + m[1, 1])
    d = det2(m)
    sq = np.sqrt(complex(tr * tr - 4.0 * d))
    if abs(tr + sq) >= abs(tr - sq):
        big = 0.5 * (tr + sq)
    else:
        big = 0.5 * (tr - sq)
    if big == 0:
        lams = [0.0 + 0.0j, 0.0 + 0.0j]
    else:
        lams = [big, d / big]
    lams.sort(key=lambda z: (z.real, z.imag), reverse=True)
    return lams[0], lams[1]


def solve_quadratic(a, b, c):
    """Roots of a*z^2 + b*z + c with a != 0, numerically stable.

    The root formula is applied with the sign chosen so b and the square
    root do not cancel; the second root comes from the product c/a.
    Returns an unordered pair.
    """
    a = complex(a)
    b = complex(b)
    c = complex(c)
    if a == 0:
        raise ZeroDivisionError("leading coefficient is zero")
    sq = np.sqrt(b * b - 4.0 * a * c)
    if (b.conjugate() * sq).real >= 0.0:
        qq = -0.5 * (b + sq)
    else:
        qq = -0.5 * (b - sq)
    if qq == 0:
        # b == 0 and discriminant == 0, so both roots vanish
        return 0.0 + 0.0j, 0.0 + 0.0j
    return qq / a, c / qq


def su2_defect(m: np.ndarray) -> float:
    """Frobenius distance of M M* from the identity."""
    return fro(m @ m.conj().T - np.eye(2))


def hermitian_sqrt(h: np.ndarray) -> np.ndarray:
    """Principal square root of a positive definite Hermitian 2x2 matrix."""
    w, v = np.linalg.eigh(h)
    if w[0] <= 0:
        raise NotPositiveDefinite(f"smallest eigenvalue {w[0]} is not positive")
    return (v * np.sqrt(w)) @ v.conj().T
