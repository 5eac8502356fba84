"""Angle-triple arithmetic: existence and moduli classification.

A trinoid candidate is a triple of conical half-angles (B1, B2, B3) at the
punctures 0, 1, infinity.  This module decides whether the corresponding
moduli space (in H^3, or of spherical conical metrics) is nonempty, what
its dimension is, and provides the angle reduction and the two
hemisphere/bigon surgeries that act on such triples.  Everything here is
pure float arithmetic; no ODE machinery is involved.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .config import Tolerances
from .errors import BadEdge, BigonRequiresAcute, ZeroCoefficient


class Target(enum.Enum):
    H3 = "h3"
    S2 = "s2"


class Status(enum.Enum):
    IRREDUCIBLE_UNIQUE = "IrreducibleUnique"
    REDUCIBLE_C1 = "ReducibleC1"
    REDUCIBLE_C2 = "ReducibleC2"
    EMPTY = "Empty"
    EXCLUDED_ANGLE_IS_PI = "ExcludedAngleIsPi"
    DEGENERATE_HANBETU = "DegenerateHanbetu"


@dataclass(frozen=True)
class ConicalData:
    """Exponent data derived from the half-angles.

    beta_j = B_j/pi - 1 and c_j = -beta_j(beta_j+2)/2; c_j vanishes exactly
    when B_j = pi.
    """

    beta: tuple[float, float, float]
    c: tuple[float, float, float]


@dataclass(frozen=True)
class ModuliClass:
    """Classification result.

    dimension is None unless the status is one of the three nonempty ones.
    labeling gives the puncture permutation (1-based, integer angle first)
    that matched the one-integer-angle pattern, when it did.  flags carries
    informational markers such as UnspecifiedByPaper for angle patterns the
    classification has nothing to say about.
    """

    target: Target
    status: Status
    dimension: int | None
    labeling: tuple[int, int, int] | None = None
    flags: tuple[str, ...] = ()


def _check_angles(angles, tol: Tolerances) -> tuple[float, float, float]:
    """The three half-angles as floats, refused unless each is positive and
    its B/pi is resolved to tol.integer.

    The integer tests of the classification read |B/pi - round(B/pi)|
    against tol.integer, and the rounding of the quotient is up to half the
    spacing of doubles at B/pi, which passes tol.integer from B/pi = 2**k
    on, with k = 24 at the default 1e-9; the bound never exceeds 2**52,
    past which a double has no fractional bits and cos B is noise.
    """
    b = tuple(float(x) for x in angles)
    if len(b) != 3:
        raise ValueError("expected three half-angles")
    if not all(x > 0.0 for x in b):  # NaN included
        raise ValueError(f"half-angles must be positive, got {b}")
    k = min(52, math.frexp(tol.integer)[1] + 53)
    for j, x in enumerate(b, 1):
        if x / math.pi >= math.ldexp(1.0, k):
            raise ValueError(f"half-angle {j} is {x!r} radians; B/pi must be below 2**{k}, "
                             f"past which it is not resolved to the integer tolerance {tol.integer:.3g}")
    return b


def conical_data(angles, tol: Tolerances = Tolerances()) -> ConicalData:
    b = _check_angles(angles, tol)
    beta = tuple(x / math.pi - 1.0 for x in b)
    c = tuple(-bj * (bj + 2.0) / 2.0 for bj in beta)
    return ConicalData(beta=beta, c=c)


def hanbetu_holds(c: tuple[float, float, float], tol: Tolerances = Tolerances()) -> bool:
    """Whether the two umbilic points of the Hopf differential with
    coefficients c (ConicalData.c) are distinct.

    Tests (c1^2+c2^2+c3^2)/2 != c1*c2 + c2*c3 + c3*c1 against an absolute
    tolerance on the difference; this is the discriminant condition for the
    quadratic whose roots are the umbilic points.  The difference is
    evaluated as (ci - cj)^2/2 + ck (ck - 2 ci - 2 cj)/2 with ci, cj the two
    closest coefficients, whose difference is exact where they nearly
    cancel: the expanded form reads 0 for c = (-1.28e14, -1.28e14, -5e-9),
    whose difference is -1.28e6.
    """
    i, j, k = min(((0, 1, 2), (1, 2, 0), (0, 2, 1)), key=lambda t: abs(c[t[0]] - c[t[1]]))
    diff = 0.5 * (c[i] - c[j]) ** 2 + 0.5 * c[k] * (c[k] - 2.0 * c[i] - 2.0 * c[j])
    return abs(diff) > tol.hanbetu


def reduce_angles(angles, tol: Tolerances = Tolerances()) -> tuple[float, float, float]:
    """Reduce a triple to representatives with all pairwise sums in [0, pi].

    Each angle is first folded to [0, pi] preserving its cosine, the folded
    triple is sorted ascending, and then the larger two are reflected
    through pi/2 when their sum exceeds pi.
    """
    b = _check_angles(angles, tol)
    hat = sorted(math.acos(math.cos(x)) for x in b)
    out1 = hat[0]
    if hat[1] + hat[2] <= math.pi:
        out2, out3 = hat[1], hat[2]
    else:
        out2, out3 = math.pi - hat[1], math.pi - hat[2]
    return (out1, out2, out3)


def _on_irreducibility_boundary(b, tol: Tolerances) -> bool:
    """Whether some t1 +- t2 +- t3 (t = B/pi) is within tol.integer of an odd integer.

    There 1 - c1^2 - c2^2 - c3^2 - 2 c1 c2 c3 = -4 prod cos((+-B1 +- B2 +- B3)/2)
    vanishes and the reduced angles sum to pi, so the sign of either
    irreducibility criterion is a rounding error.
    """
    t1, t2, t3 = (x / math.pi for x in b)
    return any(
        _near_int(s, tol.integer) and round(s) % 2 == 1
        for s in (t1 + t2 + t3, -t1 + t2 + t3, t1 - t2 + t3, t1 + t2 - t3)
    )


def irreducible_exists(angles, tol: Tolerances = Tolerances()) -> bool:
    """Strict spherical-triangle-type inequality on the cosines.

    A triple on the irreducibility boundary (see _on_irreducibility_boundary)
    counts as not irreducible; away from it the inequality decides.
    """
    b = _check_angles(angles, tol)
    if _on_irreducibility_boundary(b, tol):
        return False
    c1, c2, c3 = (math.cos(x) for x in b)
    return c1 * c1 + c2 * c2 + c3 * c3 + 2.0 * c1 * c2 * c3 < 1.0


def irreducible_reduced_sum(angles, tol: Tolerances = Tolerances()) -> bool:
    """The reduced-sum criterion: the reduced angles sum to more than pi.

    Equivalent to irreducible_exists, and like it false on the boundary,
    where the reduced sum is pi up to rounding.
    """
    b = _check_angles(angles, tol)
    return not _on_irreducibility_boundary(b, tol) and sum(reduce_angles(b, tol)) > math.pi


def _near_int(x: float, tol: float) -> bool:
    return abs(x - round(x)) <= tol


def classify(angles, target="h3", tol: Tolerances = Tolerances()) -> ModuliClass:
    """Classify the moduli space attached to a half-angle triple for the
    target "h3" or "s2" (a Target value).

    For the H^3 target, an angle equal to pi is excluded outright and a
    degenerate umbilic pair (coincident roots) is reported as its own
    status.  Then, for either target: a triple with no integer B_j/pi and
    the strict cosine inequality has a unique irreducible element
    (dimension 0); exactly one integer angle can match the one-parameter
    reducible family pattern (dimension 1); all-integer triples with odd
    sum and strict triangle inequality give the three-parameter family
    (dimension 3); everything else is empty.
    """
    b = _check_angles(angles, tol)
    target = Target(target)
    flags: list[str] = []

    pi_hits = [abs(x - math.pi) <= tol.angle_is_pi for x in b]
    if target is Target.H3:
        if any(pi_hits):
            return ModuliClass(target, Status.EXCLUDED_ANGLE_IS_PI, None, flags=tuple(flags))
        if not hanbetu_holds(conical_data(b, tol).c, tol):
            return ModuliClass(target, Status.DEGENERATE_HANBETU, None, flags=tuple(flags))
    elif any(pi_hits):
        flags.append("AngleIsPi")

    n = [x / math.pi for x in b]
    is_int = [_near_int(x, tol.integer) for x in n]

    if not any(is_int) and irreducible_exists(b, tol):
        return ModuliClass(target, Status.IRREDUCIBLE_UNIQUE, 0, flags=tuple(flags))

    if sum(is_int) == 1:
        i = is_int.index(True)
        j, k = [x for x in range(3) if x != i]
        ni = round(n[i])
        for m_val in (abs(b[j] - b[k]) / math.pi, (b[j] + b[k]) / math.pi):
            if not _near_int(m_val, tol.integer):
                continue
            m = round(m_val)
            if (m % 2) != (ni % 2) and m <= ni - 1:
                return ModuliClass(
                    target,
                    Status.REDUCIBLE_C1,
                    1,
                    labeling=(i + 1, j + 1, k + 1),
                    flags=tuple(flags),
                )

    if all(is_int):
        ints = [round(x) for x in n]
        odd_sum = sum(ints) % 2 == 1
        triangle = all(ints[i] < ints[(i + 1) % 3] + ints[(i + 2) % 3] for i in range(3))
        if odd_sum and triangle:
            return ModuliClass(target, Status.REDUCIBLE_C2, 3, flags=tuple(flags))

    if sum(is_int) == 2:
        flags.append("UnspecifiedByPaper")
    return ModuliClass(target, Status.EMPTY, None, flags=tuple(flags))


def fh_attach_hemisphere(angles, edge, tol: Tolerances = Tolerances()) -> tuple[float, float, float]:
    """Add pi to the two angles on an edge (hemisphere surgery)."""
    b = list(_check_angles(angles, tol))
    i, j = edge
    if i == j or not {i, j} <= {1, 2, 3}:
        raise BadEdge(f"edge must be two distinct indices in 1..3, got {edge}")
    b[i - 1] += math.pi
    b[j - 1] += math.pi
    return tuple(b)


def fh_attach_bigon(angles, vertex, edge_other, tol: Tolerances = Tolerances()) -> tuple[float, float, float]:
    """Reflect one acute angle through pi and add pi to a neighbor (bigon surgery)."""
    b = list(_check_angles(angles, tol))
    if vertex == edge_other or not {vertex, edge_other} <= {1, 2, 3}:
        raise BadEdge(f"need two distinct indices in 1..3, got {(vertex, edge_other)}")
    if b[vertex - 1] >= math.pi:
        raise BigonRequiresAcute(f"angle {vertex} is {b[vertex - 1]}, not below pi")
    b[vertex - 1] = math.pi - b[vertex - 1]
    b[edge_other - 1] += math.pi
    return tuple(b)


def type_signature_raw(c: tuple[float, float, float]) -> tuple[str, str, str]:
    """Per-puncture signs of the Hopf coefficients c, in puncture order."""
    if any(x == 0.0 for x in c):
        raise ZeroCoefficient(f"coefficients {c} contain a zero")
    return tuple("+" if x > 0 else "-" for x in c)


def type_signature(c: tuple[float, float, float]) -> tuple[str, str, str]:
    """Signs of the coefficients, canonicalized with plus signs first."""
    return tuple(sorted(type_signature_raw(c)))
