"""Middle terms of extensions and their arc-level calculus.

An extension with indecomposable outer terms has at most two indecomposable
middle summands, and they connect endpoints of the two outer arcs.  This
module computes them (``middle_terms``), the symmetric summand set
(``e_set``), the crossing/neighbouring/adjacent connector arcs
(``ptolemy_arcs``), the closed-form cohomology of the middle term, and the
ordered multi-extension formula for several Hom-orthogonal last terms.

The pair answers come from two integer kernels on endpoints:
``_connectors_ints`` (the connector rule, from the crossing test) and
``_middles_ints`` (the middles, from the hammock side that
``hammocks._side_ints`` decides, Ext test included).
The arc closures call them once per pair; ``ptolemy_arcs``, ``e_set`` and
``middle_terms`` are thin wrappers: one call, ``arcs.require_same_weight``,
checks the pair, and they shape the result.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from .arcs import (
    Arc,
    _admissible_arc,
    _crossing_ints,
    _oriented_admissible,
    arc,
    is_admissible,
    require_same_weight,
    suspend,
    to_coord,
)
from .errors import NoExtension, NonOrthogonalInput, NotInHammock
from .hammocks import (
    CohomologyVector,
    HammockSide,
    _side_ints,
    ext_dim,
    hammock_side,
    hom_dim,
)


class ExtensionClass(NamedTuple):
    """One non-split triangle shape: outer arcs plus middle summands.

    ``middles`` is the multiset of indecomposable middle summands (empty for
    a zero middle term); ``side`` records which half of the hammock the last
    term sits in, which fixes the middle-cohomology closed form.
    """

    first: Arc
    last: Arc
    middles: Tuple[Arc, ...]
    side: HammockSide


class PtolemyArcs(NamedTuple):
    """Admissible connector arcs of a pair, by class."""

    class_i: frozenset
    class_ii: frozenset
    class_iii: frozenset

    @property
    def all(self) -> frozenset:
        return self.class_i | self.class_ii | self.class_iii


def _keep(w: int, t: int, u: int) -> Optional[Arc]:
    # Oriented admissibility: the formula arcs are ordered pairs and a zero
    # summand is exactly an orientation/congruence failure of that order.
    return Arc(t, u, w) if _oriented_admissible(w, t, u) else None


# Integer kernels.  The two share no predicate (connectors come from the
# crossing test, middles from Ext and the hammock side), so the closures
# they feed stay two independent routes.


def _connectors_ints(
    w: int, at: int, au: int, bt: int, bu: int
) -> Tuple[int, Tuple[Arc, ...]]:
    """Connector arcs of the arcs on {at, au} and {bt, bu}, canonical.

    Returns ``(k, arcs)`` with ``k`` the class of the branch that fired
    (0 when none did): 0 for crossing pairs (class I, the four cross pairs),
    1 for neighbouring pairs at w <= 0 (class II, the far endpoints of each
    distance-1 contact), 2 for a shared endpoint at w = 0 (class III: an
    adjacent pair gives the loop there and the far endpoints' arc; a = b,
    not a loop, gives its two endpoint loops).
    """
    if _crossing_ints(at, au, bt, bu):
        pairs = ((at, bt), (at, bu), (au, bt), (au, bu))
        return 0, tuple(m for x, y in pairs if (m := _admissible_arc(w, x, y)) is not None)
    if at == bt or at == bu or au == bt or au == bu:
        if w or at == au or bt == bu:
            return 0, ()
        if at == bt and au == bu:
            return 2, (Arc(at, at, w), Arc(au, au, w))
        x, far_a = (at, au) if at in (bt, bu) else (au, at)
        far_b = bu if bt == x else bt
        return 2, (Arc(x, x, w), Arc(max(far_a, far_b), min(far_a, far_b), w))
    if w > 0:
        return 0, ()
    # contacts in ascending order, as relation() lists them (u <= t at w <= 0)
    ends_a = ((au, at), (at, au)) if at != au else ((at, at),)
    ends_b = ((bu, bt), (bt, bu)) if bt != bu else ((bt, bt),)
    return 1, tuple(
        m
        for p, far_a in ends_a
        for q, far_b in ends_b
        if abs(p - q) == 1 and (m := _admissible_arc(w, far_a, far_b)) is not None
    )


def _middles_ints(
    w: int, at: int, au: int, bt: int, bu: int
) -> Tuple[Optional[HammockSide], Tuple[Arc, ...]]:
    """Hammock side and middle summands of the extension of b by a.

    ``(None, ())`` when Ext^1(b, a) = 0.  At w = 0 with b the suspension of
    a the side is ``BOTH_W0_SIGMA_A`` and the middles are those of the
    almost-split (forward) class.  The middles may include a or b.
    """
    side = _side_ints(w, at, au, bt, bu)
    if side is None:
        return None, ()
    pairs = ((bt, at), (bu, au)) if side is HammockSide.BACKWARD else ((at, bu), (bt, au))
    return side, tuple(m for t, u in pairs if (m := _keep(w, t, u)) is not None)


def _both_middles(w: int, a: Arc, b: Arc) -> Tuple[Arc, ...]:
    """Middle summands of the extensions in both directions (a and b may occur)."""
    return _middles_ints(w, a.t, a.u, b.t, b.u)[1] + _middles_ints(w, b.t, b.u, a.t, a.u)[1]


def middle_terms(a: Arc, b: Arc) -> List[ExtensionClass]:
    """All basis extension shapes of ``b`` by ``a`` (empty list if rigid).

    At w = 0 with ``b`` the suspension of ``a`` the Ext-space is
    two-dimensional and two shapes come back: the almost-split one and the
    zero-middle one tied to the identity map.
    """
    w = require_same_weight(a, b)
    side, middles = _middles_ints(w, a.t, a.u, b.t, b.u)
    if side is None:
        return []
    middles = tuple(sorted(middles))
    if side is HammockSide.BOTH_W0_SIGMA_A:
        return [
            ExtensionClass(a, b, middles, HammockSide.FORWARD),
            ExtensionClass(a, b, (), HammockSide.BACKWARD),
        ]
    return [ExtensionClass(a, b, middles, side)]


def e_set(a: Arc, b: Arc) -> frozenset:
    """Middle summands of extensions in both directions, minus the pair itself."""
    w = require_same_weight(a, b)
    return frozenset(_both_middles(w, a, b)).difference((a, b))


def ptolemy_arcs(a: Arc, b: Arc) -> PtolemyArcs:
    """Connector arcs of a pair: class I (crossing), II (neighbouring, w <= 0),
    III (adjacent, w = 0; a = b allowed), each filtered by admissibility."""
    w = require_same_weight(a, b)
    k, found = _connectors_ints(w, a.t, a.u, b.t, b.u)
    classes = [frozenset()] * 3
    classes[k] = frozenset(found)
    return PtolemyArcs(*classes)


def middle_cohomology(a: Arc, b: Arc, side: HammockSide) -> CohomologyVector:
    """Closed-form cohomology of the middle term of the (a -> ? -> b) triangle.

    ``side`` selects the forward (ray) or backward (coray) formula; at w = 0
    with b the suspension of a, the backward class is the identity-map
    triangle and its middle has no cohomology at all.
    """
    w = require_same_weight(a, b)
    d = w - 1
    if ext_dim(b, a) == 0:
        raise NoExtension(f"Ext^1({b},{a}) = 0 at w={w}")
    if side is HammockSide.BOTH_W0_SIGMA_A:
        raise ValueError("pick FORWARD or BACKWARD to select one of the two classes")
    ca, cb = to_coord(a), to_coord(b)
    r = ca.level
    dims: dict = {}
    if side is HammockSide.FORWARD:
        s = (ca.shift - cb.shift) // d
        i = r + s - cb.level
        if not (s >= 1 and 1 <= i <= r + 1):
            raise NoExtension(f"{b} is not in the forward Ext-hammock of {a}")
        for j in range(-s, 0):
            dims[-j * d] = 1
        for j in range(0, r - i + 1):
            dims[-j * d] = 2
        for j in range(r - i + 1, r + 1):
            dims[-j * d] = 1
    else:
        i = (cb.shift - ca.shift - 1) // d
        s = cb.level + i - r
        if (cb.shift - ca.shift - 1) % d != 0 or not (0 <= i <= r and s >= 0):
            raise NoExtension(f"{b} is not in the backward Ext-hammock of {a}")
        for j in range(0, i):
            dims[-j * d] = 1
        for j in range(r + 1, r + s + 1):
            dims[-j * d - 1] = 1
    return CohomologyVector({degree - ca.shift: dim for degree, dim in dims.items()})


def _side_for_order(a: Arc, b: Arc) -> HammockSide:
    side = hammock_side(b, a)
    if side is HammockSide.BOTH_W0_SIGMA_A:
        raise NotInHammock(
            f"{b} sits in both hammock halves of {a} (w=0 suspension); "
            "its extended ray is ambiguous"
        )
    return side


def _key_vertex(b: Arc, side: HammockSide) -> int:
    return b.t if side is HammockSide.FORWARD else b.u


class MultiExtensionOutcome(NamedTuple):
    """One possible middle multiset of a multi-term extension.

    ``map_class`` is ``generic`` except at w = 0 with the suspension of the
    base among the last terms, where the triangle depends on whether the map
    on that summand is an isomorphism.
    """

    middles: Tuple[Arc, ...]
    map_class: str


def _ordered_formula_middles(a: Arc, ordered: Sequence[Arc]) -> List[Arc]:
    # e' of the least term, the consecutive connectors, e'' of the greatest.
    sides = [_side_for_order(a, b) for b in ordered]
    out: List[Arc] = []
    first, last = ordered[0], ordered[-1]
    if sides[0] is HammockSide.FORWARD:
        e_first = _keep(a.w, a.t, first.u)
    else:
        e_first = _keep(a.w, first.t, a.t)
    if e_first is not None:
        out.append(e_first)
    for b_cur, s_cur, b_nxt, s_nxt in zip(ordered, sides, ordered[1:], sides[1:]):
        ray_vertex = _key_vertex(b_cur, s_cur)
        coray_vertex = b_nxt.u if s_nxt is HammockSide.FORWARD else b_nxt.t
        if is_admissible(a.w, ray_vertex, coray_vertex):
            out.append(arc(a.w, ray_vertex, coray_vertex))
    if sides[-1] is HammockSide.FORWARD:
        e_last = _keep(a.w, last.t, a.u)
    else:
        e_last = _keep(a.w, last.u, a.u)
    if e_last is not None:
        out.append(e_last)
    return out


def middle_term_multi(a: Arc, bs: Sequence[Arc]) -> List[MultiExtensionOutcome]:
    """Middle summands of the extension of a direct sum of hammock members by ``a``.

    Duplicate last terms split off unchanged.  The remaining distinct terms
    must be pairwise Hom-orthogonal (otherwise the triangle reduces and
    :class:`NonOrthogonalInput` reports the factoring witness); they are
    sorted along the extended-ray order and assembled by the alternating
    end-summand/connector formula.  At w = 0 a listed suspension of ``a`` is
    handled separately and two tagged outcomes come back.
    """
    if not bs:
        raise ValueError("need at least one last term")
    w = a.w
    for b in bs:
        require_same_weight(a, b)
        if ext_dim(b, a) == 0:
            raise NotInHammock(f"{b} is not in the Ext-hammock of {a}")
    counts: dict = {}
    for b in bs:
        counts[b] = counts.get(b, 0) + 1
    distinct = sorted(counts)
    extras: List[Arc] = [b for b in distinct for _ in range(counts[b] - 1)]

    sigma = suspend(a)
    if w == 0 and sigma in distinct:
        rest = [b for b in distinct if b != sigma]
        if not rest:
            iso_mid: Tuple[Arc, ...] = ()
            ar_cls = middle_terms(a, sigma)[0]
            non_iso_mid = ar_cls.middles
        else:
            _check_orthogonal(rest)
            core = _ordered_formula_middles(a, _sorted_by_exray(a, rest))
            iso_mid = tuple(sorted(rest))
            non_iso_mid = tuple(sorted(core + [sigma]))
        extra_t = tuple(sorted(extras))
        return [
            MultiExtensionOutcome(tuple(sorted(iso_mid + extra_t)), "isomorphism"),
            MultiExtensionOutcome(tuple(sorted(non_iso_mid + extra_t)), "non_isomorphism"),
        ]

    _check_orthogonal(distinct)
    core = _ordered_formula_middles(a, _sorted_by_exray(a, distinct))
    return [MultiExtensionOutcome(tuple(sorted(core + extras)), "generic")]


def _check_orthogonal(arcs_list: Sequence[Arc]) -> None:
    for i, x in enumerate(arcs_list):
        for y in arcs_list[i + 1 :]:
            if hom_dim(x, y) or hom_dim(y, x):
                raise NonOrthogonalInput(
                    f"{x} and {y} are not Hom-orthogonal; the extension reduces by "
                    "splitting the factoring summand off unchanged",
                    witness=(x, y),
                )


def _sorted_by_exray(a: Arc, arcs_list: Sequence[Arc]) -> List[Arc]:
    sign = 1 if a.w >= 2 else -1
    return sorted(arcs_list, key=lambda b: sign * _key_vertex(b, _side_for_order(a, b)))
