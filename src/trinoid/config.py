"""Shared numerical tolerances.

Every threshold used by the package lives in one frozen record so a global
loosening or tightening (say, on a noisy CI box) is a one-line change.  The
record has 14 fields, and each is read by some check or step of the
pipeline (tests/test_unread_tolerances.py guards this).  Library functions
take the record as their tol argument, the unscaled Tolerances() by
default, and read no environment.  The environment variable
TRINOID_TOL_SCALE, a finite positive float, multiplies all 14, the
integration tolerance ode included, and is refused where the scaled
integer tolerance reaches 0.5; default_tolerances applies it, and
only the command line calls it (tests/test_settings_enter_once.py guards
this).  The three fixed module constants below, which no caller varies,
are left alone by it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace

CLEARANCE_FACTOR = 0.05  # path clearance from singular points, per their spacing
LOOP_RADIUS_FACTOR = 0.25  # first monodromy loop radius, per puncture spacing
TRANSPORT_TOL_FACTOR = 1e-3  # tightening of ode for the mesh frame transport


@dataclass(frozen=True)
class Tolerances:
    det: float = 1e-9                # |det - 1| gate for SL(2,C) membership
    ode: float = 1e-10               # local integration error per unit arclength
    hanbetu: float = 1e-12           # degeneracy gate on the Hopf coefficients
    integer: float = 1e-9            # B/pi integrality detection
    angle_is_pi: float = 1e-12       # excluded cone angle gate
    umbilic: float = 1e-10           # coincidence threshold for the two umbilics
    form_residual: float = 1e-9      # invariant-form linear system residual
    posdef_margin: float = 1e-8      # relative eigenvalue margin for definiteness
    null_sv: float = 1e-7            # singular value cutoff for null spaces
    null_structure: float = 1e-7     # rank-one trace-free structure of F^-1 dF
    projective: float = 1e-6         # projective equivalence residual
    apparent: float = 1e-6           # monodromy deviation from +-I at apparent points
    well_defined: float = 1e-6       # doubled-path agreement in the ball model
    eigenvalue_warn: float = 1e-4    # monodromy eigenvalue sanity warning level


def default_tolerances() -> Tolerances:
    """Default tolerances, with TRINOID_TOL_SCALE applied when it is set."""
    tol = Tolerances()
    raw = os.environ.get("TRINOID_TOL_SCALE")
    if raw is None:
        return tol
    try:
        scale = float(raw)
    except ValueError:
        scale = math.nan
    if not 0.0 < scale < math.inf:
        raise ValueError("TRINOID_TOL_SCALE must be a finite positive float, got %r" % raw)
    # no B/pi lies farther than 0.5 from an integer, so from there on every
    # angle would read as an integer one
    if tol.integer * scale >= 0.5:
        raise ValueError(f"TRINOID_TOL_SCALE {scale:g} scales Tolerances.integer to {tol.integer * scale:g}, "
                         f"at which every B/pi reads as an integer; it must stay below "
                         f"{0.5 / tol.integer:g}")
    return replace(tol, **{f.name: getattr(tol, f.name) * scale for f in fields(tol)})
