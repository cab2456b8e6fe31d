"""Second routes that only the tests use: the quiver hammock tests and the multi-extension oracles.

Each is an independent way to an answer the library computes otherwise:
``tests/test_hammocks.py`` checks the Hom and Ext kernels against the
hammock tests, and ``tests/test_extensions.py`` checks the extended-ray
order and ``middle_term_multi`` against iterated pair splicing.
"""

from typing import List, Optional, Sequence, Tuple

from sphtor.arcs import Arc, require_same_weight, to_coord, translation_step
from sphtor.extensions import _keep, _key_vertex, _side_for_order, _sorted_by_exray, middle_terms
from sphtor.hammocks import HammockSide, _backward_hom_ints, _forward_hom_ints, _in_interior_ints


def _in_forward_hom(a: Arc, b: Arc) -> bool:
    """True iff b lies in the forward Hom-hammock of a (same weight assumed)."""
    d = translation_step(a.w)
    ca, cb = to_coord(a), to_coord(b)
    return _forward_hom_ints(d, ca.shift, ca.level, cb.shift, cb.level)


def _in_backward_hom(a: Arc, b: Arc) -> bool:
    """True iff b lies in the backward Hom-hammock of a."""
    d = translation_step(a.w)
    ca, cb = to_coord(a), to_coord(b)
    return _backward_hom_ints(d, ca.shift, ca.level, cb.shift, cb.level)


def _incidences(b: Arc) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    # (vertex, other endpoint) for both readings of b; identical for loops.
    return ((b.t, b.u), (b.u, b.t))


def _in_backward_ext(a: Arc, b: Arc) -> bool:
    """Partial-fountain test for b in the backward Ext-hammock of a."""
    threshold = a.t - 1
    return any(
        _in_interior_ints(a.w, a.t, a.u, v, False)
        and (other <= threshold if a.w >= 2 else other >= threshold)
        for v, other in _incidences(b)
    )


def _exray_leq(a: Arc, b1: Arc, b2: Arc) -> bool:
    """Total order on extended rays inside the Ext-hammock of ``a``.

    Comparison is by a nonnegative translate power carrying one mouth anchor
    to the other (through the Serre twist when the sides differ), which at
    arc level is a divisibility-and-sign test on the two key vertices.
    """
    require_same_weight(a, b1)
    require_same_weight(a, b2)
    d = translation_step(a.w)
    k1 = _key_vertex(b1, _side_for_order(a, b1))
    k2 = _key_vertex(b2, _side_for_order(a, b2))
    diff = k2 - k1
    return diff % d == 0 and diff // d >= 0


def _middle_term_multi_by_iteration(a: Arc, bs: Sequence[Arc]) -> Tuple[Arc, ...]:
    """Independent route to the multi-extension middle: iterated pair splicing.

    Starting from the two-term calculus for the least term, each further term
    replaces the running coray-side summand with the middle of its own
    extension against that summand.  Used as the differential oracle for
    :func:`middle_term_multi`; inputs must be Hom-orthogonal non-suspension
    terms.
    """
    ordered = _sorted_by_exray(a, list(bs))
    first = ordered[0]
    current: List[Arc] = list(middle_terms(a, first)[0].middles)

    def coray_summand(b: Arc) -> Optional[Arc]:
        side = _side_for_order(a, b)
        if side is HammockSide.FORWARD:
            return _keep(a.w, b.t, a.u)
        return _keep(a.w, b.u, a.u)

    prev = coray_summand(first)
    for b in ordered[1:]:
        if prev is None:
            current.append(b)
        else:
            step = middle_terms(prev, b)
            current.remove(prev)
            current.extend(step[0].middles)
        prev = coray_summand(b)
    return tuple(sorted(current))
