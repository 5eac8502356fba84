"""Closed-form holomorphic data of a catenoidal trinoid.

From the half-angle triple we get the Hopf differential (a rational
quadratic differential with double poles at 0, 1, infinity), its two
umbilic zeros, the degree-two hyperbolic Gauss map branched exactly at the
umbilics, and the hypergeometric exponent parameters that the associated
second-order equation reduces to.  Everything is evaluated from explicit
rational formulas; nothing here is sampled or interpolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import INF, is_inf, solve_quadratic
from .config import Tolerances
from .errors import DegenerateHanbetu, ExcludedAngleIsPi, ZeroCoefficient
from .moduli import conical_data, hanbetu_holds


@dataclass(frozen=True)
class HopfDifferential:
    """Coefficient form of the quadratic differential.

    Evaluation is Q(z) = (c3 z^2 + (c2-c3-c1) z + c1) / (2 z^2 (z-1)^2);
    the factor 1/2 is part of the stored convention.
    """

    c: tuple[float, float, float]

    def numerator(self, z: complex) -> complex:
        c1, c2, c3 = self.c
        return (c3 * z + (c2 - c3 - c1)) * z + c1

    def numerator_deriv(self, z: complex) -> complex:
        c1, c2, c3 = self.c
        return 2.0 * c3 * z + (c2 - c3 - c1)

    def __call__(self, z):
        """Q at a point or elementwise on an array of points."""
        w = z - 1.0
        return self.numerator(z) / (2.0 * z * z * w * w)

    def deriv(self, z: complex) -> complex:
        z = complex(z)
        w = z - 1.0
        num = self.numerator_deriv(z) - self.numerator(z) * (2.0 / z + 2.0 / w)
        return num / (2.0 * z * z * w * w)


@dataclass(frozen=True)
class UmbilicPair:
    """The two zeros of the Hopf differential, ordered by (Re, Im) ascending."""

    q1: complex
    q2: complex

    @property
    def total(self) -> complex:
        return self.q1 + self.q2

    @property
    def square_gap(self) -> complex:
        d = self.q1 - self.q2
        return d * d

    @property
    def pole(self) -> complex:
        """Where the Gauss map built on this pair has its finite pole."""
        return 0.5 * self.total


@dataclass(frozen=True)
class GaussMap:
    """Degree-two hyperbolic Gauss map branched at the umbilic pair.

    G(z) = z + (q1-q2)^2 / (2 (2z - q1 - q2)).
    """

    q: UmbilicPair

    def __call__(self, z):
        if is_inf(z):
            return INF
        z = complex(z)
        den = 2.0 * z - self.q.total
        if den == 0:
            return INF
        return z + self.q.square_gap / (2.0 * den)

    def deriv(self, z: complex) -> complex:
        den = 2.0 * complex(z) - self.q.total
        return 1.0 - self.q.square_gap / (den * den)


@dataclass(frozen=True)
class HypergeometricParams:
    """Exponent parameters of the associated hypergeometric equation.

    The defining relations fix (a, b, c) only up to signs of B_j/pi, which
    hypergeometric_params resolves.
    """

    a: float
    b: float
    c: float


@dataclass(frozen=True)
class TrinoidData:
    """Everything the transport machinery needs, bundled."""

    angles: tuple[float, float, float]
    hopf: HopfDifferential
    q: UmbilicPair
    gauss: GaussMap

    def kernel_params(self):
        """Flat parameter vector of the transport kernel's modes 0 and 1."""
        c1, c2, c3 = self.hopf.c
        p = self.q.total
        s = self.q.square_gap
        return np.array([c1, c2, c3, p.real, p.imag, s.real, s.imag])

    def finite_singular_points(self) -> tuple[complex, ...]:
        """The punctures and the Gauss-map pole (infinity excluded).

        These are the only finite singular points of the transport
        equations.  The umbilics are regular points of both the matrix and
        the scalar system: the umbilic factors of Q and G' cancel in their
        coefficients, so loops need not keep clear of them.
        """
        return (0.0 + 0.0j, 1.0 + 0.0j, self.q.pole)


def build_trinoid_data(angles, tol: Tolerances = Tolerances()) -> TrinoidData:
    hopf = build_hopf(angles, tol)
    q = umbilics(hopf, tol)
    return TrinoidData(angles=tuple(float(x) for x in angles), hopf=hopf, q=q, gauss=GaussMap(q))


def build_hopf(angles, tol: Tolerances = Tolerances()) -> HopfDifferential:
    """Hopf differential of the trinoid with the given half-angles."""
    cd = conical_data(angles, tol)
    for j, b in enumerate(float(x) for x in angles):
        if abs(b - math.pi) <= tol.angle_is_pi:
            raise ExcludedAngleIsPi(f"half-angle {j + 1} equals pi; coefficient c{j + 1} vanishes")
    if not hanbetu_holds(cd.c, tol):
        raise DegenerateHanbetu("umbilic discriminant vanishes for these angles")
    return HopfDifferential(c=cd.c)


def umbilics(hopf: HopfDifferential, tol: Tolerances = Tolerances()) -> UmbilicPair:
    """Roots of the numerator quadratic, smaller (Re, Im) first."""
    c1, c2, c3 = hopf.c
    if c3 == 0.0:
        raise ZeroCoefficient("leading Hopf coefficient c3 vanishes")
    r1, r2 = solve_quadratic(c3, c2 - c3 - c1, c1)
    if abs(r1 - r2) <= tol.umbilic:
        raise DegenerateHanbetu(f"umbilic points coincide: {r1} vs {r2}")
    q1, q2 = sorted((r1, r2), key=lambda z: (z.real, z.imag))
    return UmbilicPair(q1=q1, q2=q2)


def hypergeometric_params(angles, signs=(1, 1, -1)) -> HypergeometricParams:
    """Solve the exponent relations for (a, b, c).

    With t_j = B_j/pi the relations are 1 - c = s1*t1, a - b = s2*t2 and
    c - a - b = s3*t3 for a choice of signs s_j; the default resolution
    (1, 1, -1) keeps c below 1 for positive t1.
    """
    t = [float(x) / math.pi for x in angles]
    s1, s2, s3 = signs
    if any(s not in (-1, 1) for s in signs):
        raise ValueError(f"signs must be +-1, got {signs}")
    c = 1.0 - s1 * t[0]
    a = 0.5 * (1.0 - s1 * t[0] + s2 * t[1] - s3 * t[2])
    b = 0.5 * (1.0 - s1 * t[0] - s2 * t[1] - s3 * t[2])
    return HypergeometricParams(a=a, b=b, c=c)
