"""Arc model of the categories generated by a w-spherical object (w != 1).

Indecomposable objects are encoded as *admissible arcs* of the infinity-gon:
integer pairs ``(t, u)`` stored in a weight-dependent canonical orientation,

* ``t < u``  for ``w >= 2``,
* ``t >= u`` for ``w <= 0``  (``t == u`` is a loop, allowed only at ``w = 0``).

The pair is admissible when its length is at least ``|w|`` and is congruent
to 1 modulo the translation step ``d = w - 1`` (for ``w = 0`` every pair with
``t >= u`` qualifies).  Suspension, AR translate and Serre functor act by
uniform shifts of both endpoints; ``to_coord``/``from_coord`` convert between
arcs and the (suspension exponent, level) coordinates of the AR quiver.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional, Tuple

from .errors import InvalidArc, WeightHasNoArcModel, WeightMismatch


def translation_step(w: int) -> int:
    """Return the AR-translate step ``d = w - 1``; reject the tube weight."""
    if w == 1:
        raise WeightHasNoArcModel(
            "weight w = 1 has no arc model; use sphtor.tube for that category"
        )
    return w - 1


def _oriented_admissible(w: int, t: int, u: int) -> bool:
    """Admissibility of the *ordered* pair (t, u) in canonical orientation."""
    d = w - 1
    if w >= 2:
        return u - t >= w and (u - t - 1) % d == 0
    if w == 0:
        return u - t <= 0
    return u - t <= w and (u - t - 1) % d == 0


def is_admissible(w: int, x: int, y: int) -> bool:
    """Decide whether the unordered pair {x, y} is an admissible arc for w."""
    translation_step(w)
    return _oriented_admissible(w, x, y) or _oriented_admissible(w, y, x)


class Arc(NamedTuple):
    """An admissible arc ``(t, u)`` of the infinity-gon at weight ``w``.

    Build arcs through :func:`arc`, which canonicalizes the orientation and
    validates admissibility; raw construction skips both.
    """

    t: int
    u: int
    w: int

    @property
    def length(self) -> int:
        return abs(self.u - self.t)

    @property
    def is_loop(self) -> bool:
        return self.t == self.u

    @property
    def vertices(self) -> Tuple[int, int]:
        return (self.t, self.u)

    def __str__(self) -> str:
        return f"({self.t},{self.u})"


def _admissible_arc(w: int, x: int, y: int) -> Optional[Arc]:
    """The canonical arc on {x, y}, or None if it is not admissible (w unchecked)."""
    if _oriented_admissible(w, x, y):
        return Arc(x, y, w)
    if _oriented_admissible(w, y, x):
        return Arc(y, x, w)
    return None


def arc(w: int, x: int, y: int) -> Arc:
    """Return the canonical admissible arc on {x, y}, or raise InvalidArc."""
    translation_step(w)
    a = _admissible_arc(w, x, y)
    if a is None:
        raise InvalidArc(f"({x},{y}) is not an admissible arc for w={w}")
    return a


def require_same_weight(a: Arc, b: Arc) -> int:
    """The weight of an arc pair, checked: ``WeightMismatch``, then ``WeightHasNoArcModel``."""
    if a.w != b.w:
        raise WeightMismatch(f"arcs {a} and {b} carry different weights {a.w} != {b.w}")
    translation_step(a.w)
    return a.w


def suspend(a: Arc, k: int = 1) -> Arc:
    """Suspension: shift both endpoints by -k."""
    return Arc(a.t - k, a.u - k, a.w)


def translate(a: Arc, k: int = 1) -> Arc:
    """AR translate: shift both endpoints by -k*d."""
    d = translation_step(a.w)
    return Arc(a.t - k * d, a.u - k * d, a.w)


def serre(a: Arc, k: int = 1) -> Arc:
    """Serre functor (= suspension followed by AR translate): shift by -k*w."""
    translation_step(a.w)
    return Arc(a.t - k * a.w, a.u - k * a.w, a.w)


_FUNCTORS = {"suspend": suspend, "tau": translate, "serre": serre}


def apply_functor(name: str, k: int, a: Arc) -> Arc:
    """Apply a named functor power to an arc (CLI entry point): ``suspend``, ``tau`` or ``serre``."""
    try:
        fn = _FUNCTORS[name]
    except KeyError:
        raise ValueError(f"unknown functor {name!r}; expected suspend/tau/serre") from None
    return fn(a, k)


class QuiverCoord(NamedTuple):
    """Position in a ZA-infinity component: suspension exponent and level."""

    shift: int
    level: int


def to_coord(a: Arc) -> QuiverCoord:
    """Arc -> quiver coordinate, in the gauge that pins level 0, shift 0 to (-d-1, 0)."""
    d = translation_step(a.w)
    if not _oriented_admissible(a.w, a.t, a.u):
        raise InvalidArc(f"{a} is not admissible for w={a.w}")
    return QuiverCoord(shift=-a.u, level=(a.u - a.t - 1) // d - 1)


def from_coord(w: int, c: QuiverCoord) -> Arc:
    """Quiver coordinate -> arc; inverse of :func:`to_coord`."""
    d = translation_step(w)
    if c.level < 0:
        raise InvalidArc(f"level must be >= 0, got {c.level}")
    t = -(c.level + 1) * d - 1 - c.shift
    u = -c.shift
    return Arc(t, u, w)


def component(a: Arc) -> int:
    """Index of the ZA-infinity component containing the arc (mod |d|)."""
    return to_coord(a).shift % abs(a.w - 1)


class RelationKind(Enum):
    EQUAL = "equal"
    CROSSING = "crossing"
    NEIGHBOURING = "neighbouring"
    ADJACENT = "adjacent"
    DISJOINT = "disjoint"


class Relation(NamedTuple):
    """How two arcs of the same weight sit relative to each other.

    ``contacts`` lists the distance-1 endpoint realizations (one vertex from
    each arc) when the pair is neighbouring; ``shared_vertex`` is set when the
    pair is adjacent (w = 0, both non-loops, one common vertex).
    """

    kind: RelationKind
    distance: int
    contacts: Tuple[Tuple[int, int], ...] = ()
    shared_vertex: Optional[int] = None


def _crossing_ints(at: int, au: int, bt: int, bu: int) -> bool:
    """Whether the arcs on {at, au} and {bt, bu} cross (no shared endpoint)."""
    lo1, hi1 = (at, au) if at < au else (au, at)
    lo2, hi2 = (bt, bu) if bt < bu else (bu, bt)
    return lo1 < lo2 < hi1 < hi2 or lo2 < lo1 < hi2 < hi1


def relation(a: Arc, b: Arc) -> Relation:
    """Classify an arc pair: equal, crossing, neighbouring, adjacent or disjoint."""
    w = require_same_weight(a, b)
    gaps = [(abs(p - q), p, q) for p in a.vertices for q in b.vertices]
    distance = min(g for g, _, _ in gaps)
    if a == b:
        return Relation(RelationKind.EQUAL, 0)
    if _crossing_ints(a.t, a.u, b.t, b.u):
        return Relation(RelationKind.CROSSING, distance)
    if distance == 0:
        if w == 0 and not a.is_loop and not b.is_loop:
            shared = next(p for p in a.vertices if p in b.vertices)
            return Relation(RelationKind.ADJACENT, 0, shared_vertex=shared)
        return Relation(RelationKind.DISJOINT, 0)
    if distance == 1:
        contacts = tuple(sorted({(p, q) for g, p, q in gaps if g == 1}))
        return Relation(RelationKind.NEIGHBOURING, 1, contacts=contacts)
    return Relation(RelationKind.DISJOINT, distance)


def arcs_in_window(w: int, lo: int, hi: int):
    """Yield every admissible arc with both endpoints in [lo, hi], sorted.

    The admissible lengths are |w| + k|w-1|, so each start t steps through
    its ends directly: up from t + w for w >= 2, and up to t + w for w <= 0
    from the least end in [lo, t + w] of the same residue.
    """
    step = abs(translation_step(w))
    for t in range(lo, hi + 1):
        if w >= 2:
            ends = range(t + w, hi + 1, step)
        else:
            ends = range(lo + (t + w - lo) % step, t + w + 1, step)
        for u in ends:
            yield Arc(t, u, w)
