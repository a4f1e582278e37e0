"""Rotation data for torus elements of so(N): spinor traces, chi functions,
and every orientation sign the index formulas need.

A ``RotationData`` lists one scalar per 2-plane plus a single orientation
sign relative to the listed planes; it is passed only where that sign is
read (``spinor_trace`` and ``chi``'s R), and plain sequences carry the
rest: ``chi``'s Spin parameters g and the rotation numbers of
``epsilon_J`` and ``os_sign``.  Two readings of the entries coexist:

* numeric operations read an entry as the SO(2)-angle phi of its plane
  (complex angles are allowed); the Spin-level half-angle phi/2 is what
  enters every trace formula, matching the two-dimensional model
  g = exp(theta e1 e2) whose supertrace is e^{-i theta} - e^{i theta};
* the exact functions of zem read integer entries a ("rotation numbers":
  the plane turns with speed a in the circle parameter z, angle 2 pi a z)
  as powers of s = e^{i pi z}; the exact 1/Str is the depth-0
  ``elliptic.theta_term`` of phi_1, whose prefactor per plane is one entry
  of ``elliptic.PREFACTORS``.  Their signs are integer facts:
  ``epsilon_J`` and Os(J/k, o) (``os_sign``) are parities, no sine taken.

Re-coding invariance: flipping the sign of one entry together with the
orientation sign describes the same oriented space, and every function
here is invariant under that move (for ``chi``, with g's theta_j of that
plane flipped too).  The empty list is N = {0}: traces, chi and all signs
degenerate to 1.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass



class SpinCharError(ValueError):
    """Base class for rotation-data errors."""


class SupertraceZeroError(SpinCharError):
    """chi was requested where the supertrace vanishes."""


class AngleOnLatticeError(SpinCharError):
    """An orientation sign was requested for an angle in 2 pi Z."""


@dataclass(frozen=True, slots=True, init=False)
class RotationData:
    """A maximal-torus element of so(N) plus an orientation sign."""

    entries: tuple = ()
    orientation_sign: int = 1

    def __init__(self, entries=(), orientation_sign=1):
        if type(entries) is not tuple:
            entries = tuple(entries)
        if orientation_sign not in (1, -1):
            raise SpinCharError("orientation_sign must be +1 or -1")
        if not entries and orientation_sign != 1:
            raise SpinCharError("the zero space carries only the + orientation")
        _set_entries(self, entries)
        _set_orientation_sign(self, orientation_sign)

    @property
    def planes(self):
        return len(self.entries)


# the instance is frozen: its __init__ sets the fields through their slots,
# past __setattr__
_set_entries = RotationData.entries.__set__
_set_orientation_sign = RotationData.orientation_sign.__set__


def spinor_trace(kind, R, shift=None):
    """Trace or supertrace of a Spin element over the spinor module.

    kind 'str': orientation_sign * prod_j (e^{-i w_j} - e^{i w_j}),
    kind 'tr' : prod_j (e^{-i w_j} + e^{i w_j}),
    where w_j = phi_j/2 + shift_j is the half-angle of plane j.
    """
    if kind not in ("str", "tr"):
        raise ValueError("kind must be 'str' or 'tr'")
    entries = R.entries
    if shift is None:
        halves = [complex(a) / 2.0 for a in entries]
    elif len(shift) != len(entries):
        raise SpinCharError("shift must give one offset per plane")
    else:
        halves = [complex(a) / 2.0 + complex(t) for a, t in zip(entries, shift)]
    exp = cmath.exp
    out = 1.0 + 0j
    if kind == "str":
        for w in halves:
            e = exp(1j * w)
            out *= 1.0 / e - e
        out *= R.orientation_sign
    else:
        for w in halves:
            e = exp(1j * w)
            out *= 1.0 / e + e
    return out


def chi(g, R):
    """1/Str(g e^R): the reciprocal-supertrace invariant function.

    ``g`` is None (untwisted) or a sequence of the per-plane Spin parameters
    theta_j of g (the supertrace factor of g alone is
    e^{-i theta_j} - e^{i theta_j}); R's entries are SO-angles on the same
    planes, and R alone carries the orientation.
    """
    st = spinor_trace("str", R, shift=g)
    if abs(st) < 1e-12:
        raise SupertraceZeroError(
            f"supertrace vanishes (|Str| = {abs(st):.2e}); chi has a pole here"
        )
    return 1.0 / st


def epsilon_J(entries):
    """(-1)^{sum of the rotation numbers ``entries``} for invertible integer
    data; the choice of signs in the entries does not matter mod 2."""
    total = 0
    for a in entries:
        if not isinstance(a, int):
            raise SpinCharError("epsilon needs integer rotation numbers")
        if a == 0:
            raise SpinCharError("epsilon needs invertible data (no zero entries)")
        total += a
    return -1 if total % 2 else 1


def os_sign(entries, k, sign=1):
    """Os(J/k, o): the orientation that the rotation by the angles
    a * 2 pi / k, a the integer rotation numbers in ``entries``, induces in
    Spin(N), relative to the one ``sign`` gives.  A plane's sin(pi a / k)
    is negative where floor(a / k) is odd: sign * (-1)^(their number)."""
    out = sign
    for a in entries:
        if not a % k:
            raise AngleOnLatticeError(
                f"angle {a} * 2 pi / {k} lies in 2 pi Z: the rotation does not orient"
            )
        if a // k % 2:
            out = -out
    return out


@dataclass(frozen=True, init=False)
class CyclicAction:
    """An order-k rotation given by its residues mod k, one per 2-plane."""

    k: int
    residues: tuple = ()

    def __init__(self, k, residues=()):
        if k < 1:
            raise SpinCharError("k must be a positive integer")
        # the instance is frozen: set the fields past __setattr__
        self.__dict__.update(k=k, residues=tuple([int(r) for r in residues]))

    @property
    def planes(self):
        return len(self.residues)

    def normalized_residues(self):
        """Residues pulled into {1, .., k-1}; requires no eigenvalue 1."""
        out = []
        for r in self.residues:
            rr = r % self.k
            if rr == 0:
                raise SpinCharError("residue 0 mod k: the action fixes a plane")
            out.append(rr)
        return tuple(out)


def v_sign(zeta, orientation_sign=1):
    """Sign of the k-th power of the orientation-compatible Spin lift.

    With residues normalized to {1, .., k-1} on positively oriented planes
    the lift of one plane powers to (-1)^a; re-coding a plane to absorb a
    negative total orientation adds k to the exponent.
    """
    if orientation_sign not in (1, -1):
        raise SpinCharError("orientation_sign must be +1 or -1")
    total = sum(zeta.normalized_residues())
    if orientation_sign < 0:
        total += zeta.k
    return -1 if total % 2 else 1
