"""Hom/Ext dimensions in the arc model, by two independent routes.

Route one walks the AR quiver: an arc maps nontrivially to the union of rays
over the coray segment down to the mouth on its right, and to the union of
corays over the ray segment of its Serre image.  Route two
(:func:`ext_dim_arc`) never touches quiver coordinates and reads Ext^1
straight off the crossing/neighbouring picture of the two arcs.  Agreement of
the routes on large windows is one of the package's acceptance gates.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .arcs import (
    Arc,
    _crossing_ints,
    require_same_weight,
    suspend,
    to_coord,
)
from .errors import NoExtension


class HammockSide(Enum):
    """Which half of the Ext-hammock of ``a`` an extension lives in.

    ``BOTH_W0_SIGMA_A`` flags the single overlap point of the two halves:
    weight 0 with last term the suspension of the first, where the Ext-space
    is two-dimensional and both pictures apply.
    """

    FORWARD = "forward"
    BACKWARD = "backward"
    BOTH_W0_SIGMA_A = "both"


# Integer kernels.  These carry the actual formulas; the Arc-level wrappers
# below and the exhaustive acceptance sweeps share them.


def _forward_hom_ints(d: int, ia: int, ja: int, ib: int, jb: int) -> bool:
    if (ia - ib) % d:
        return False
    n = (ia - ib) // d
    return n >= 0 and n <= jb <= ja + n


def _backward_hom_ints(d: int, ia: int, ja: int, ib: int, jb: int) -> bool:
    if (ib - ia) % d:
        return False
    n = (ib - ia) // d
    return 0 <= n <= ja and jb >= ja - n


def _hom_nonzero_ints(w: int, at: int, au: int, bt: int, bu: int) -> bool:
    d = w - 1
    ia, ja = -au, (au - at - 1) // d - 1
    ib, jb = -bu, (bu - bt - 1) // d - 1
    if _forward_hom_ints(d, ia, ja, ib, jb):
        return True
    return _backward_hom_ints(d, ia + w, ja, ib, jb)


def _hom_marks_ints(w: int, sources: Iterable[Tuple[int, int]], lo: int, hi: int) -> List[int]:
    """The window targets of the Hom-hammocks of ``sources``, one pass per source.

    Entry t - lo is a bitmask over the levels j of the arcs
    (t, t + 1 + (j+1)·d) starting at t in [lo, hi]: bit j is set iff some
    source maps nonzero to that arc, by the same coordinates as
    :func:`_hom_nonzero_ints`.  The forward hammock of a source (t, u) of
    level j_x marks every level >= j_x - k at start t + k·d (0 <= k <= j_x),
    a mask with all high bits set; the backward one marks the levels
    [s - 1 - j_x, s - 1] at start u - w - 1 - s·d (s > j_x).  No arc inside
    [lo, hi] has a level above hi - lo, so bits past it may be left unset.
    Each walk starts where it enters [lo, hi] and stops once its lowest
    level passes hi - lo, since a source may lie far outside the window or
    span it at a far level.
    """
    d = w - 1
    top = hi - lo
    marks = [0] * (top + 1)
    for t, u in sources:
        j = (u - t - 1) // d - 1
        # forward: starts t + k·d for j - top <= k <= j, from the first one inside [lo, hi]
        k = max(0, j - top, -((t - (lo if d > 0 else hi)) // d))
        stop = t + (j + 1) * d
        stop = min(stop, hi + 1) if d > 0 else max(stop, lo - 1)
        for start in range(t + k * d, stop, d):
            marks[start - lo] |= -1 << (j - k)
            k += 1
        # backward: starts u - w - 1 - s·d for j < s <= j + 1 + top, from the first one inside
        first = u - w - 1
        s = max(j + 1, -((first - (hi if d > 0 else lo)) // -d))
        stop = first - (j + 2 + top) * d
        stop = max(stop, lo - 1) if d > 0 else min(stop, hi + 1)
        for start in range(first - s * d, stop, -d):
            marks[start - lo] |= (1 << min(s, top + 1)) - (1 << (s - 1 - j))
            s += 1
    return marks


def _ext_nonzero_ints(w: int, at: int, au: int, bt: int, bu: int) -> bool:
    # Ext^1(b, a) = Hom(b, suspension of a)
    return _hom_nonzero_ints(w, bt, bu, at - 1, au - 1)


def hom_dim(a: Arc, b: Arc) -> int:
    """dim Hom(a, b); one-dimensional on the hammocks, two only at w=0, b=a."""
    w = require_same_weight(a, b)
    if w == 0 and a == b:
        return 2
    return int(_hom_nonzero_ints(w, a.t, a.u, b.t, b.u))


def ext_dim(b: Arc, a: Arc) -> int:
    """dim Ext^1(b, a), computed as dim Hom(b, suspension of a)."""
    return hom_dim(b, suspend(a))


def in_forward_ext(a: Arc, b: Arc) -> bool:
    """Partial-fountain test for b in the forward Ext-hammock of a.

    Arithmetic membership: one endpoint of b sits on the interior progression
    of a (congruence plus range) and the other clears the forward threshold.
    The pair is checked as by every pair function: one weight, not 1.
    """
    w = require_same_weight(a, b)
    return _forward_ext_ints(w, a.t, a.u, b.t, b.u)


def hammock_side(b: Arc, a: Arc) -> HammockSide:
    """Locate a non-rigid pair inside the Ext-hammock of ``a``."""
    w = require_same_weight(a, b)
    side = _side_ints(w, a.t, a.u, b.t, b.u)
    if side is None:
        raise NoExtension(f"Ext^1({b},{a}) = 0 at w={w}")
    return side


def _in_interior_ints(w: int, at: int, au: int, v: int, drop_last: bool) -> bool:
    d = w - 1
    r = v - at
    if r % d:
        return False
    i = r // d
    k = (au - at - 1) // d
    if drop_last and i == k:
        return False
    return 1 <= i <= k


def _forward_ext_ints(w: int, at: int, au: int, bt: int, bu: int) -> bool:
    threshold = au + w - 1
    for v, other in ((bt, bu), (bu, bt)):
        if _in_interior_ints(w, at, au, v, False) and (
            other >= threshold if w >= 2 else other <= threshold
        ):
            return True
    return False


def _side_ints(w: int, at: int, au: int, bt: int, bu: int) -> Optional[HammockSide]:
    """The half of the Ext-hammock of a that holds b, or None when Ext^1(b, a) = 0.

    At w = 0 with b the suspension of a the Ext-space is two-dimensional and
    the side is ``BOTH_W0_SIGMA_A``.
    """
    if not _ext_nonzero_ints(w, at, au, bt, bu):
        return None
    if w == 0 and bt == at - 1 and bu == au - 1:
        return HammockSide.BOTH_W0_SIGMA_A
    if _forward_ext_ints(w, at, au, bt, bu):
        return HammockSide.FORWARD
    return HammockSide.BACKWARD


def _neighbour_incidence_ints(at: int, au: int, bt: int, bu: int) -> bool:
    # neighbouring (non-crossing, no shared vertex) and touching at-1 or au-1;
    # incidence at those vertices realizes the distance 1 by itself
    if bt in (at, au) or bu in (at, au):
        return False
    if _crossing_ints(at, au, bt, bu):
        return False
    return bt in (at - 1, au - 1) or bu in (at - 1, au - 1)


def _ext_arc_nonzero_ints(w: int, at: int, au: int, bt: int, bu: int) -> bool:
    if w >= 2:
        return _crossing_ints(at, au, bt, bu) and (
            _in_interior_ints(w, at, au, bt, False)
            or _in_interior_ints(w, at, au, bu, False)
        )
    if w <= -1:
        if bt == at - 1 and bu == au - 1:
            return True
        if _crossing_ints(at, au, bt, bu) and (
            _in_interior_ints(w, at, au, bt, True)
            or _in_interior_ints(w, at, au, bu, True)
        ):
            return True
        return _neighbour_incidence_ints(at, au, bt, bu)
    # w == 0
    if at == au:  # loop
        return _neighbour_incidence_ints(at, au, bt, bu) or (bt == at and bu == at - 1)
    return (
        _crossing_ints(at, au, bt, bu)
        or _neighbour_incidence_ints(at, au, bt, bu)
        or (bt == au and bu <= au - 1)
        or (bu == au and bt >= at - 1)
        or (bt == at and au - 1 <= bu <= at - 1)
    )


def ext_dim_arc(b: Arc, a: Arc) -> int:
    """dim Ext^1(b, a) read off the arcs alone (no quiver coordinates).

    For w >= 2 extensions exist exactly at crossings meeting the interior
    vertex set of ``a``; for w <= -1 also at the listed neighbouring
    incidences and at b = suspension(a); w = 0 adds the shared-endpoint rules,
    with loops restricted to the neighbouring and shared-start ones.
    """
    w = require_same_weight(a, b)
    if not _ext_arc_nonzero_ints(w, a.t, a.u, b.t, b.u):
        return 0
    return 2 if w == 0 and b == suspend(a) else 1


class CohomologyVector:
    """Finitely supported map degree -> dimension; the middle-term oracle."""

    __slots__ = ("_dims",)

    def __init__(self, dims: Optional[Mapping[int, int]] = None):
        acc: Dict[int, int] = {}
        for degree, dim in (dims or {}).items():
            if dim < 0:
                raise ValueError("cohomology dimensions must be nonnegative")
            if dim:
                acc[degree] = dim
        self._dims = acc

    def dim(self, degree: int) -> int:
        return self._dims.get(degree, 0)

    @property
    def support(self) -> Tuple[int, ...]:
        return tuple(sorted(self._dims))

    @property
    def total(self) -> int:
        return sum(self._dims.values())

    def euler(self) -> int:
        """Alternating sum of dimensions."""
        return sum(dim if degree % 2 == 0 else -dim for degree, dim in self._dims.items())

    def as_dict(self) -> Dict[int, int]:
        return dict(self._dims)

    def is_zero(self) -> bool:
        return not self._dims

    def __add__(self, other: "CohomologyVector") -> "CohomologyVector":
        merged = dict(self._dims)
        for degree, dim in other._dims.items():
            merged[degree] = merged.get(degree, 0) + dim
        return CohomologyVector(merged)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CohomologyVector) and self._dims == other._dims

    def __hash__(self) -> int:
        return hash(frozenset(self._dims.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}: {d}" for n, d in sorted(self._dims.items()))
        return f"CohomologyVector({{{inner}}})"


def cohomology(a: Arc) -> CohomologyVector:
    """Cohomology of the indecomposable behind an arc.

    One-dimensional in the ``level + 1`` degrees starting at minus the
    suspension exponent and descending in steps of ``d``; zero elsewhere.
    The absolute normalization is the package gauge (only relative degrees
    are forced), chosen so an unsuspended mouth object sits in degree 0.
    """
    c, d = to_coord(a), a.w - 1
    return CohomologyVector({-c.shift - level * d: 1 for level in range(c.level + 1)})
