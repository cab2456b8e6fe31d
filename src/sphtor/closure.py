"""Extension closure, fountains, and torsion-class verdicts.

Every finite closure runs one pair loop, ``_grow``, on bitsets over
``range(k)``: its state is two masks, the members and the members done.  It
takes the lowest member not yet done, adds it to the done mask and ORs in a
row, the rule on that member and every member done, so each pair is met
when the later of the two is taken.  It stops once the members are all of
``range(k)``.  A row is the only interface of the loop, and each route
supplies its own.  ``_close`` closes one seed, and ``_closed_sets`` lists
every closed set of ``range(k)`` by lazy FCbO, up to ``MAX_CLOSED_SETS``: it
closes each child completely from its closed parent, all done, with the
first row inlined and the loop run only when that row adds a member, and
keeps the closure of a child that fails the canonicity test as a failure
its descendants inherit.  Its frames hold a candidate mask walked from the
top bit, and a child with no candidate is listed without a frame.  An
orbit row (:meth:`sphtor.orbit.OrbitCategory._e_row`) meets the frames of
its member with the opposite frames of its partners in the done mask; an
arc row pairs it with the arcs up to it, which are the members done.
The arc closures feed their row the integer pair kernels of
:mod:`sphtor.extensions` (connector arcs, or the middle summands of both
extensions), once the weights are checked, and intern arcs as ints in
discovery order, so bit p is the p-th arc found.  Both arc rules return arcs
on the endpoints of the pair, so a finite arc closure lies in the admissible
arcs U on its seed's endpoints: ``_arcs_among`` counts them by residue
class, the loop stops once it holds all of U, and a closure of more arcs
than ``MAX_VERDICT_PAIRS`` pairs allow raises ``TooLarge``.
Infinite subcategories are presented by :class:`DescriptorSet` (finite arcs
plus partial-fountain generators).  ``is_torsion_class`` decides them
exactly by a pair check on a bounded instantiation, and reports the perp
sample of a torsion class by marking the members' Hom-hammocks on the window
per start vertex (``hammocks._hom_marks_ints``), one pass per member, not
one test per window arc and member, and then walking each start's free
levels, so only the sample's arcs are built.  Both scans share one budget,
an upper bound on their work counted from the window's admissible arcs.
``symbolic_closure`` needs no pair check: it closes the members on
span ± M(w) to C, and the closed arcs inside the span with the fountains
instantiate there to a subset of C that holds the members, so that set is
closed exactly when it is C.  A closure that needs arcs past the span or new
fountains has no descriptor set, and it raises ``TooLarge``.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from math import isqrt
from typing import Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Set, Tuple

from .arcs import Arc, arc, is_admissible, translation_step
from .errors import InvalidArc, TooLarge, WeightMismatch, _json_int
from .extensions import _both_middles, _connectors_ints
from .hammocks import _hom_marks_ints

DEFAULT_WINDOW = 40
# caps the number of sets listed (all 2^16 subsets of 16 objects); past 16 members,
# 17 members whose subsets are all closed refuse before a set is listed
MAX_CLOSED_SETS = 1 << 16
MAX_VERDICT_PAIRS = 1 << 20  # pair budget of both verdict scans and of every finite closure
_MAX_CLOSED_ARCS = (isqrt(8 * MAX_VERDICT_PAIRS + 1) - 1) // 2  # most A with A(A+1)/2 in budget

# row(x, done): the rule on member x and every member of ``done``, x included
_Row = Callable[[int, int], int]


def _grow(done: int, mask: int, row: _Row, full: int) -> int:
    """Close ``mask``, given the members ``done`` already taken, and return the closed mask.

    The one pair loop of every finite closure, on bitsets over ``range(k)``:
    ``done`` lies in ``mask``, and the pairs within ``done`` are met.  Each
    step takes the lowest member x of ``mask`` not yet done, adds it to
    ``done`` and ORs in ``row(x, done)``, so each pair is met when the later
    of its two members is taken.  The loop stops once ``mask`` is ``full``,
    all of ``range(k)``, when no remaining pair can add a member.
    """
    while mask != full:
        waiting = mask ^ done
        if not waiting:
            break
        low = waiting & -waiting
        done |= low
        mask |= row(low.bit_length() - 1, done)
    return mask


def _close(seed: Iterable[int], row: _Row, k: int) -> int:
    """Least superset of ``seed`` in ``range(k)`` closed under a row function, as a bitmask."""
    return _grow(0, sum(1 << x for x in set(seed)), row, (1 << k) - 1)


def _has_free_set(k: int, row: _Row, size: int) -> bool:
    """Whether a walk of ``range(k)`` in index order keeps ``size`` members.

    It keeps x when ``row(x, p)`` adds nothing to p, for p = {x} and for
    p = {x, j} with every kept j.  The rule on each pair of kept members then
    stays in the pair, so every subset of them is closed: 2^size sets.
    """
    kept: List[int] = []
    for x in range(k):
        pairs = [1 << x] + [1 << x | 1 << j for j in kept]
        if not any(row(x, p) & ~p for p in pairs):
            kept.append(x)
            if len(kept) == size:
                return True
    return False


def _closed_sets(k: int, row: _Row) -> List[int]:
    """Every subset of ``range(k)`` closed under ``row``, as bitmasks in lectic order.

    Lazy FCbO (Outrata & Vychodil 2012).  The children of a closed set A,
    found by adding i, are the closures of A plus i for i above the index
    that produced A, kept when nothing below i joins (the canonicity test).
    A child's first step is inlined: ``row(i, A + i)``, and ``_grow`` closes
    it only when that row adds a member other than i, with A plus i as the
    members already taken, so only the rows of new members are read.
    Children are closed one at a time in descending i, depth first, which
    is lectic order.  A frame is ``(mask, candidates, failed)``: the
    candidates are the indices above the one that produced the mask and
    outside it, as a mask walked from the top bit down.  The current frame
    lives in locals and is pushed onto a stack of its ancestors only when
    the loop descends into a child; a child with no candidate (a leaf) is
    listed without a frame.
    A failed test at i keeps the closure of A plus i as ``failed[i]``, and
    the descendants inherit it: they contain A, so their child at i
    contains that closure, and they skip it unless they hold every member of
    it below i.  Every sibling above i is tried before the child at i
    descends, which only tries indices above i, so laziness loses none of
    FCbO's pruning.  ``failed`` is a dict copied on descent, so a copy
    costs the failures, not k.
    Raises ``TooLarge`` rather than list more than ``MAX_CLOSED_SETS``.  Past
    16 members, ``_has_free_set`` first looks for 17 members whose subsets
    are all closed, 2^17 sets, and refuses before any set is listed if it
    finds them.
    """
    refusal = f"refusing to list more than {MAX_CLOSED_SETS} closed sets"
    size = MAX_CLOSED_SETS.bit_length()
    if k >= size and _has_free_set(k, row, size):
        raise TooLarge(refusal)
    full = (1 << k) - 1
    out = [0]
    stack: List[Tuple[int, int, Dict[int, int]]] = []
    mask, candidates, failed = 0, full, {}
    while True:
        while candidates:
            i = candidates.bit_length() - 1
            bit = 1 << i
            candidates ^= bit
            below = bit - 1
            if failed.get(i, 0) & ~mask & below:
                continue
            done = mask | bit
            child = done | row(i, done)
            if child != done:
                child = _grow(done, child, row, full)
                if child & ~mask & below:
                    failed[i] = child
                    continue
            if len(out) == MAX_CLOSED_SETS:
                raise TooLarge(refusal)
            out.append(child)
            above = ~child & full & -(bit << 1)
            if above:
                stack.append((mask, candidates, failed))
                mask, candidates, failed = child, above, failed.copy()
        if not stack:
            return out
        mask, candidates, failed = stack.pop()


def _weighted(w: int, arcs_in: Iterable[Arc]) -> Set[Arc]:
    """The arcs as a set, once ``w`` and the weight of every arc are checked."""
    translation_step(w)
    seed = set(arcs_in)
    for a in seed:
        if a.w != w:
            raise WeightMismatch(f"arc {a} does not carry weight {w}")
    return seed


def _arcs_among(w: int, points: Iterable[int]) -> int:
    """The number of admissible arcs with both endpoints in ``points``.

    An arc on x <= y is admissible iff y - x >= |w| and y - x = |w| mod
    |w-1| (loops included at w = 0), so each x counts the points of residue
    x + |w| mod |w-1| from x + |w| on, by one bisection.  Pure arithmetic:
    it calls neither route's kernels.
    """
    reach, step = abs(w), abs(w - 1)
    ordered = sorted(set(points))
    classes: Dict[int, List[int]] = {}
    for v in ordered:
        classes.setdefault(v % step, []).append(v)
    count = 0
    for x in ordered:
        partners = classes.get((x + reach) % step, ())
        count += len(partners) - bisect_left(partners, x + reach)
    return count


def _close_arcs(w: int, arcs_in: Iterable[Arc], pair_rule: Callable[[Arc, Arc], Iterable[Arc]]):
    """The closure of a finite arc set under a rule that stays on the pair's endpoints.

    Arcs are interned as ints in discovery order: the sorted seed, then each
    new arc as the rule returns it, so bit p of ``_grow`` is the p-th arc
    found and the list returned is in that order.  The loop takes the lowest
    waiting bit and new arcs get higher ones, so the members done when arc p
    is taken are the arcs up to it, which its row pairs it with.  The
    admissible arcs U on the seed's endpoints are closed under the rule, so
    the loop stops once it holds all of U; the row stops at that arc too, so
    the rule is asked no further.  A closure of A arcs visits at most
    A(A+1)/2 pairs, and one whose count passes ``MAX_VERDICT_PAIRS`` raises
    ``TooLarge``: when U is larger than the budget allows, the same exit
    stops the loop at the arc that passes it, and a seed already past it is
    refused unclosed, so a refusal visits no more pairs than the budget
    either.
    """
    seed = _weighted(w, arcs_in)
    size = _arcs_among(w, (v for a in seed for v in a.vertices))
    k = min(size, _MAX_CLOSED_ARCS + 1)
    arcs = sorted(seed)
    seen = set(seed)

    def row(p: int, done: int) -> int:  # done is the arcs up to p
        x, start = arcs[p], len(arcs)
        for y in arcs[: p + 1]:
            for z in pair_rule(x, y):
                if z not in seen:
                    seen.add(z)
                    arcs.append(z)
                    if len(arcs) == k:  # U is full, or the budget is passed
                        return (1 << k) - (1 << start)
        return (1 << len(arcs)) - (1 << start)  # the arcs this row interned

    if len(arcs) < k:  # a seed of k arcs or more is full, or past the budget
        _close(range(len(arcs)), row, k)
    if len(arcs) > _MAX_CLOSED_ARCS:
        raise TooLarge(
            f"refusing a closure of more than {MAX_VERDICT_PAIRS} pairs: it holds more than "
            f"{_MAX_CLOSED_ARCS} of the {size} admissible arcs on the seed's endpoints"
        )
    return arcs


def ptolemy_closure(w: int, arcs_in: Iterable[Arc]) -> FrozenSet[Arc]:
    """Least fixpoint of adding admissible connector arcs over all pairs.

    Raises ``TooLarge`` when the closure has more arcs A than
    ``MAX_VERDICT_PAIRS`` allows, A(A+1)/2 pairs.
    """
    rule = lambda a, b: _connectors_ints(w, a.t, a.u, b.t, b.u)[1]
    return frozenset(_close_arcs(w, arcs_in, rule))


def extension_closure_oracle(w: int, arcs_in: Iterable[Arc]) -> FrozenSet[Arc]:
    """Least fixpoint of adding extension middle summands over all pairs.

    Independent of the connector-arc code path; the two closures agreeing is
    the arc-level statement of the extension-closure theorems.  Same budget
    as ``ptolemy_closure``.
    """
    return frozenset(_close_arcs(w, arcs_in, lambda a, b: _both_middles(w, a, b)))


class FountainSide(Enum):
    LEFT = "left"
    RIGHT = "right"

    def __lt__(self, other: "FountainSide") -> bool:
        # orders two fountains at one vertex, so fountain sets sort
        return self.value < other.value


class FountainDescriptor(NamedTuple):
    """All admissible arcs at ``vertex`` on one side, from ``start`` outward.

    Their far ends form one progression, |w-1| apart, from ``start`` to the
    right or to the left.
    """

    vertex: int
    side: FountainSide
    start: int

    @property
    def _sign(self) -> int:
        # the direction the far ends run: +1 right, -1 left
        return 1 if self.side is FountainSide.RIGHT else -1

    def members(self, w: int, lo: int, hi: int) -> List[Arc]:
        sign = self._sign
        edge = hi if sign > 0 else lo
        step = sign * abs(translation_step(w))
        return [arc(w, self.vertex, other) for other in range(self.start, edge + sign, step)]

    def covers(self, w: int, x: Arc) -> bool:
        if self.vertex not in x.vertices or x.is_loop:
            return False
        other = x.u if x.t == self.vertex else x.t
        return (other - self.start) * self._sign >= 0


class DescriptorSet:
    """Finite presentation of a (possibly infinite) arc set.

    ``arcs`` is a finite set of arcs and ``fountains`` a finite set of
    one-sided generators; the presented set is their union.  Arcs already
    covered by a fountain are dropped at construction.
    """

    __slots__ = ("w", "arcs", "fountains")

    def __init__(
        self,
        w: int,
        arcs_in: Iterable[Arc] = (),
        fountains: Iterable[FountainDescriptor] = (),
    ):
        fset = set()
        for f in fountains:
            if not is_admissible(w, f.vertex, f.start):
                raise InvalidArc(
                    f"fountain at {f.vertex} starting at {f.start} generates no "
                    f"admissible arcs for w={w}"
                )
            if (f.start - f.vertex) * f._sign <= 0:
                side = f.side.value
                raise InvalidArc(f"{side} fountain must start strictly {side} of its vertex")
            fset.add(f)
        aset = {a for a in _weighted(w, arcs_in) if not any(f.covers(w, a) for f in fset)}
        self.w = w
        self.arcs = frozenset(aset)
        self.fountains = frozenset(fset)

    # -- presentation helpers -------------------------------------------------

    def span(self) -> Tuple[int, int]:
        points = [v for a in self.arcs for v in a.vertices]
        points += [f.vertex for f in self.fountains]
        points += [f.start for f in self.fountains]
        if not points:
            return (0, 0)
        return (min(points), max(points))

    def instantiate(self, lo: int, hi: int) -> FrozenSet[Arc]:
        """All presented arcs with both endpoints inside [lo, hi]."""
        out = {a for a in self.arcs if lo <= min(a.vertices) and max(a.vertices) <= hi}
        for f in self.fountains:
            if lo <= f.vertex <= hi:
                out.update(f.members(self.w, lo, hi))
        return frozenset(out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DescriptorSet)
            and self.w == other.w
            and self.arcs == other.arcs
            and self.fountains == other.fountains
        )

    def __hash__(self) -> int:
        return hash((self.w, self.arcs, self.fountains))

    def __repr__(self) -> str:
        return (
            f"DescriptorSet(w={self.w}, arcs={sorted(self.arcs)}, "
            f"fountains={sorted(self.fountains)})"
        )

    # -- JSON -----------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "w": self.w,
            "arcs": [[a.t, a.u] for a in sorted(self.arcs)],
            "fountains": [
                {"vertex": f.vertex, "side": f.side.value, "from": f.start}
                for f in sorted(self.fountains)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DescriptorSet":
        w = _json_int(data["w"], "w")
        arcs_in = [
            arc(w, _json_int(x, "an arc endpoint"), _json_int(y, "an arc endpoint"))
            for x, y in data.get("arcs", [])
        ]
        fountains = [
            FountainDescriptor(
                _json_int(f["vertex"], "a fountain vertex"),
                FountainSide(f["side"]),
                _json_int(f["from"], "a fountain start"),
            )
            for f in data.get("fountains", [])
        ]
        return cls(w, arcs_in, fountains)


def _unmatched_fountain(ds: DescriptorSet) -> Optional[FountainDescriptor]:
    """The least wrong-sided fountain with no mirror at its vertex, or None."""
    wrong = FountainSide.RIGHT if ds.w >= 2 else FountainSide.LEFT
    mirrored = {f.vertex for f in ds.fountains if f.side is not wrong}
    return min(
        (f for f in ds.fountains if f.side is wrong and f.vertex not in mirrored),
        default=None,
    )


def is_contravariantly_finite(ds: DescriptorSet) -> bool:
    """Fountain criterion: the wrong-sided fountains must be two-sided.

    For w >= 2 every right fountain needs a matching left fountain at the
    same vertex; for w <= 0 every left fountain needs a matching right one.
    Finite sets pass vacuously.
    """
    return _unmatched_fountain(ds) is None


class Verdict(Enum):
    TORSION_CLASS = "torsion_class"
    NOT_CLOSED = "not_closed"
    NOT_CONTRAVARIANTLY_FINITE = "not_contravariantly_finite"


class TorsionReport(NamedTuple):
    """Outcome of the torsion-class test, with a re-checkable witness.

    The verdict is exact and window-independent.  ``perp_sample`` lists the
    window arcs receiving no nonzero map from the candidate class; it is a
    sample, complete only inside the window.  ``note`` is always empty.
    """

    verdict: Verdict
    witness_pair: Optional[Tuple[Arc, Arc]] = None
    missing_arc: Optional[Arc] = None
    witness_fountain: Optional[FountainDescriptor] = None
    perp_sample: Tuple[Arc, ...] = ()
    note: str = ""


def _closedness_margin(w: int) -> int:
    """Radius M(w) beyond the span within which every unclosed pair shows.

    A member has at most one endpoint outside the span (finite arcs lie in
    it, and so do a fountain's vertex and start), so a pair of members has
    at most 2 endpoints beyond the span on each side, and its connectors use
    no others.  Let g = |w| + |w-1| + 2.  A gap wider than g, from the
    span's edge to the first such endpoint or between the two, can shrink
    by multiples of |w-1| to at most g by shifting every endpoint beyond it.
    That keeps the order of the endpoints, their residues mod |w-1|, every
    distance-1 contact, every length >= |w| (an arc across a gap is longer)
    and fountain membership (a member past the span stays past its start).
    So every unclosed pair has a copy, with its missing connector, within
    2g of the span, inside M(w) = 2(g + |w-1|).

    The same margin decides the perp sample on a window [lo, hi] containing
    the span.  A window arc b has both endpoints in [lo, hi], and a member x
    at most one endpoint outside it.  By the arc route, Hom(x, b) is
    Ext^1(x, suspension^-1 b), which depends on that far endpoint only
    through its order, residue, distance-1 contacts and length >= |w|,
    measured against b's endpoints shifted by one.  So the same gap
    shrinking yields a member within M(w) of the window whenever any member
    maps to b.
    """
    return 2 * (abs(w) + 2 * abs(w - 1) + 2)


def _arcs_on(w: int, lo: int, hi: int) -> int:
    """The number of admissible arcs with both endpoints in [lo, hi].

    The admissible lengths are |w| + k|w-1|, and a window of W+1 vertices
    holds W+1-L arcs of length L; the sum over k has a closed form.
    """
    width, step = hi - lo + 1, abs(w - 1)
    if width <= abs(w):
        return 0
    lengths = (width - 1 - abs(w)) // step + 1
    return lengths * (width - abs(w)) - step * lengths * (lengths - 1) // 2


def _closedness_witness(ds: DescriptorSet, lo: int, hi: int):
    """The first pair inside [lo, hi] that misses a connector, and the least it misses.

    Missing means absent from the instantiation, with no separate fountain
    test: a connector of two members on [lo, hi] has its endpoints among
    theirs, so in [lo, hi], and a fountain covering it has its vertex at one
    of them and steps through the other, so ``instantiate`` already holds it.
    """
    present = ds.instantiate(lo, hi)
    ordered = sorted(present)
    # the connector rule is symmetric, so the first ordered hit has a <= b
    for i, a in enumerate(ordered):
        for b in ordered[i:]:
            found = _connectors_ints(ds.w, a.t, a.u, b.t, b.u)[1]
            if found and not present.issuperset(found):
                # the least missing, so the witness depends on the inputs alone
                return (a, b), min(m for m in found if m not in present)
    return None, None


def symbolic_closure(ds: DescriptorSet) -> DescriptorSet:
    """The closure of a descriptor set, or ``TooLarge`` if no descriptor set presents it.

    The members on span ± M(w) are closed with ``ptolemy_closure`` to C, and
    the closed arcs inside the span join the fountains of ``ds``.  That set
    contains ``ds`` and lies in its closure.  On span ± M(w) it instantiates
    to a subset of C (its fountains are those of ``ds``) that holds every
    member of ``ds`` there, so it is connector-closed there exactly when it
    equals C, and then, by the margin argument of ``is_torsion_class``, it
    is the closure.  Otherwise C holds an arc the set misses, past the span
    (every arc of C inside it is kept or covered by a fountain), and the
    message names the least one: the closure needs arcs past the span or
    new fountains.

    Connectors never leave the seed's endpoints, so with A admissible arcs
    on span ± M(w) (:func:`_arcs_on`), A(A+1)/2 bounds the pairs of the
    closure.  Past ``MAX_VERDICT_PAIRS`` it raises
    ``TooLarge`` before instantiating anything.  So the budget of
    ``ptolemy_closure`` never trips here: the closure has at most A arcs.
    """
    lo0, hi0 = ds.span()
    margin = _closedness_margin(ds.w)
    lo, hi = lo0 - margin, hi0 + margin
    arcs_on = _arcs_on(ds.w, lo, hi)
    pairs = arcs_on * (arcs_on + 1) // 2
    if pairs > MAX_VERDICT_PAIRS:
        raise TooLarge(
            f"refusing a closure of more than {MAX_VERDICT_PAIRS} pairs "
            f"({pairs} on [{lo}, {hi}])"
        )
    closed = ptolemy_closure(ds.w, ds.instantiate(lo, hi))
    inside = (a for a in closed if lo0 <= min(a.vertices) and max(a.vertices) <= hi0)
    out = DescriptorSet(ds.w, inside, ds.fountains)
    past = closed - out.instantiate(lo, hi)
    if past:
        raise TooLarge(
            f"the closure needs arcs past the span [{lo0}, {hi0}] or new fountains, which a "
            f"descriptor set cannot present: its closure on [{lo}, {hi}] holds {min(past)}"
        )
    return out


def _perp_sample(w: int, generators: Iterable[Arc], lo: int, hi: int) -> Tuple[Arc, ...]:
    """The arcs inside [lo, hi] that no generator maps to.

    The generators are the members within M(w) of the window
    (:func:`_closedness_margin`).  Their Hom-hammocks are marked on the
    window first, per start vertex, one pass per generator over its columns.
    Each start t then walks only its free levels, the unmarked ones whose
    end lies in [lo, hi], so only the returned arcs are built.  The bit of
    level j has bit length j + 1, the arc (t, t + 1 + (j+1)·d).  The ends
    grow with the level when d > 0 and shrink when d < 0, so the bits are
    read from the low one up or from the top one down, and the arcs come
    out sorted.
    """
    d = w - 1
    marks = _hom_marks_ints(w, ((x.t, x.u) for x in generators), lo, hi)
    out = []
    # the starts whose shortest arc, (t, t + w), ends in [lo, hi]
    for t in range(lo, hi - w + 1) if d > 0 else range(lo - w, hi + 1):
        top = ((hi if d > 0 else lo) - t - 1) // d - 1  # the highest level ending in [lo, hi]
        free = ~marks[t - lo] & ((2 << top) - 1)
        while free:
            bit = free & -free if d > 0 else 1 << free.bit_length() - 1
            free ^= bit
            out.append(Arc(t, t + 1 + bit.bit_length() * d, w))
    return tuple(out)


def is_torsion_class(ds: DescriptorSet, window: int = DEFAULT_WINDOW) -> TorsionReport:
    """Decide whether a descriptor set presents a torsion class.

    Ptolemy-closed plus the fountain criterion, with no closure computed: a
    member pair with a missing connector, searched on the report window and
    then on the margin of :func:`_closedness_margin`, gives ``NOT_CLOSED``;
    else a one-sided wrong-side fountain gives ``NOT_CONTRAVARIANTLY_FINITE``;
    else ``TORSION_CLASS``.  The verdict does not depend on the window; a
    window below 1 raises ``ValueError``.  Before either scan, a window whose
    admissible arcs (:func:`_arcs_on`) times one more than the members within
    M(w) of it exceed ``MAX_VERDICT_PAIRS`` raises ``TooLarge``.  That count
    is an upper bound for both scans, not their cost: the pair check on the
    window pairs members that are window arcs, and the perp sample walks each
    member's hammocks over the window's columns, then builds only the window
    arcs it returns.
    """
    if window < 1:
        raise ValueError(f"window must be positive, got {window}")
    lo0, hi0 = ds.span()
    lo, hi = lo0 - window, hi0 + window
    margin = _closedness_margin(ds.w)
    pairs = _arcs_on(ds.w, lo, hi)
    if pairs <= MAX_VERDICT_PAIRS:  # else refuse before instantiating anything
        generators = ds.instantiate(lo - margin, hi + margin)
        pairs *= len(generators) + 1
    if pairs > MAX_VERDICT_PAIRS:
        raise TooLarge(
            f"refusing a pair check and perp sample of more than {MAX_VERDICT_PAIRS} pairs ({pairs})"
        )
    pair, missing = _closedness_witness(ds, lo, hi)
    if pair is None and ds.fountains and margin > window:
        pair, missing = _closedness_witness(ds, lo0 - margin, hi0 + margin)
    if pair is not None:
        return TorsionReport(Verdict.NOT_CLOSED, witness_pair=pair, missing_arc=missing)
    bad = _unmatched_fountain(ds)
    if bad is not None:
        return TorsionReport(Verdict.NOT_CONTRAVARIANTLY_FINITE, witness_fountain=bad)
    return TorsionReport(Verdict.TORSION_CLASS, perp_sample=_perp_sample(ds.w, generators, lo, hi))
