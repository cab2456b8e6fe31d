import itertools

import pytest

from sphtor import (
    Arc,
    CohomologyVector,
    HammockSide,
    NoExtension,
    NonOrthogonalInput,
    NotInHammock,
    RelationKind,
    arc,
    cohomology,
    e_set,
    ext_dim,
    hammock_side,
    hom_dim,
    is_admissible,
    middle_cohomology,
    middle_term_multi,
    middle_terms,
    ptolemy_arcs,
    ptolemy_closure,
    relation,
    suspend,
)
from sphtor.arcs import QuiverCoord, from_coord

from conftest import ALL_WEIGHTS
from oracles import (
    _exray_leq as exray_leq,
    _middle_term_multi_by_iteration as middle_term_multi_by_iteration,
)


def middles_of(a, b):
    out = set()
    for cls in middle_terms(a, b):
        out.update(cls.middles)
    return out


def test_middle_terms_examples():
    classes = middle_terms(arc(2, 0, 3), arc(2, 1, 4))
    assert len(classes) == 1
    assert set(classes[0].middles) == {arc(2, 0, 4), arc(2, 1, 3)}
    assert classes[0].side is HammockSide.FORWARD

    classes = middle_terms(arc(2, 1, 4), arc(2, 0, 3))
    assert len(classes) == 1 and classes[0].middles == ()

    classes = middle_terms(arc(0, 3, 1), arc(0, 2, 0))
    assert [set(c.middles) for c in classes] == [
        {arc(0, 3, 0), arc(0, 2, 1)},
        set(),
    ]
    assert [c.side for c in classes] == [HammockSide.FORWARD, HammockSide.BACKWARD]


def test_middle_terms_rigid_pair_is_empty():
    assert middle_terms(arc(2, 0, 3), arc(2, 10, 13)) == []


def test_w0_self_extension_yields_endpoint_loops():
    a = arc(0, 3, 1)
    classes = middle_terms(a, a)
    assert len(classes) == 1
    assert set(classes[0].middles) == {arc(0, 3, 3), arc(0, 1, 1)}


def test_w0_exceptional_shared_endpoint_cases():
    # loop first term: the unique extension has the loop itself as middle
    a, b = arc(0, 4, 4), arc(0, 4, 3)
    assert ext_dim(b, a) == 1
    assert middles_of(a, b) == {a}
    assert e_set(a, b) == frozenset()
    # length-one first term against the loop at its endpoint
    a2, b2 = arc(0, 5, 4), arc(0, 4, 4)
    assert ext_dim(b2, a2) == 1
    assert middles_of(a2, b2) == {b2}
    assert e_set(a2, b2) == frozenset()


def test_e_set_examples():
    assert e_set(arc(2, 0, 3), arc(2, 1, 4)) == {arc(2, 0, 4), arc(2, 1, 3)}
    assert e_set(arc(0, 3, 1), arc(0, 2, 0)) == {
        arc(0, 3, 0),
        arc(0, 2, 1),
        arc(0, 3, 2),
        arc(0, 1, 0),
    }
    a = arc(-1, 1, 0)
    assert e_set(a, suspend(a)) == frozenset()


def test_ptolemy_examples():
    pt = ptolemy_arcs(arc(2, 0, 3), arc(2, 1, 4))
    assert pt.class_i == {arc(2, 0, 4), arc(2, 1, 3)}
    assert not pt.class_ii and not pt.class_iii

    pt = ptolemy_arcs(arc(-2, 2, 0), arc(-2, 8, 3))
    assert pt.class_ii == {arc(-2, 8, 0)}

    pt = ptolemy_arcs(arc(0, 3, 1), arc(0, 3, 1))
    assert pt.class_iii == {arc(0, 3, 3), arc(0, 1, 1)}


def test_ptolemy_class_ii_only_for_nonpositive_weights():
    # neighbouring pair at weight 2 whose connector is admissible but is not
    # a middle summand of anything
    pt = ptolemy_arcs(arc(2, 0, 3), arc(2, 4, 7))
    assert pt.all == frozenset()


def test_ptolemy_two_class_ii_realizations():
    # nested neighbours touching at both ends
    pt = ptolemy_arcs(arc(-1, 5, 0), arc(-1, 4, 1))
    assert pt.class_ii == {arc(-1, 5, 4), arc(-1, 1, 0)}


@pytest.mark.parametrize("w", ALL_WEIGHTS)
def test_ptolemy_equality_window(w, window_arcs):
    arcs = window_arcs(w, 9)
    for a, b in itertools.combinations_with_replacement(arcs, 2):
        assert e_set(a, b) == ptolemy_arcs(a, b).all, (a, b)


def _ptolemy_by_relation(a, b):
    """Connector classes I, II, III read through relation()."""
    w = a.w
    classes = (set(), set(), set())

    def connect(k, x, y):
        if is_admissible(w, x, y):
            classes[k].add(arc(w, x, y))

    if a == b:
        if w == 0 and not a.is_loop:
            classes[2].update({arc(w, a.t, a.t), arc(w, a.u, a.u)})
        return classes
    rel = relation(a, b)
    if rel.kind is RelationKind.CROSSING:
        for x in a.vertices:
            for y in b.vertices:
                connect(0, x, y)
    elif rel.kind is RelationKind.NEIGHBOURING and w <= 0:
        for p, q in rel.contacts:
            connect(1, a.t + a.u - p, b.t + b.u - q)
    elif rel.kind is RelationKind.ADJACENT:
        x = rel.shared_vertex
        classes[2].add(arc(w, x, x))
        connect(2, a.t + a.u - x, b.t + b.u - x)
    return classes


def _middle_terms_by_side(a, b):
    """(side, middles) of each extension class, from hammock_side and the end pairs."""
    w = a.w
    if ext_dim(b, a) == 0:
        return []

    def oriented(pairs):
        # (t, u) is a middle only when admissible in that orientation
        return tuple(sorted(
            Arc(t, u, w) for t, u in pairs if is_admissible(w, t, u) and arc(w, t, u).t == t
        ))

    forward = oriented([(a.t, b.u), (b.t, a.u)])
    side = hammock_side(b, a)
    if side is HammockSide.BOTH_W0_SIGMA_A:
        return [(HammockSide.FORWARD, forward), (HammockSide.BACKWARD, ())]
    if side is HammockSide.FORWARD:
        return [(side, forward)]
    return [(side, oriented([(b.t, a.t), (b.u, a.u)]))]


@pytest.mark.parametrize("w", (-5, -4, -3, -2, -1, 0, 2, 3, 4, 5))
def test_pair_kernels_match_references(w, window_arcs):
    # the class split and the side are what the CLI's ptolemy and middle print
    arcs = window_arcs(w, 9)
    for a in arcs:
        for b in arcs:
            pt = ptolemy_arcs(a, b)
            expected = tuple(map(frozenset, _ptolemy_by_relation(a, b)))
            assert (pt.class_i, pt.class_ii, pt.class_iii) == expected, (a, b)
            got = [(cls.side, cls.middles) for cls in middle_terms(a, b)]
            assert got == _middle_terms_by_side(a, b), (a, b)


@pytest.mark.parametrize("w", (-3, -2, 3, 4))
def test_rigid_crossings_have_no_admissible_connectors(w, window_arcs):
    arcs = window_arcs(w, 9)
    for a, b in itertools.combinations(arcs, 2):
        if ext_dim(b, a) == 0 and ext_dim(a, b) == 0:
            pt = ptolemy_arcs(a, b)
            assert pt.all == frozenset(), (a, b)


def test_middle_cohomology_examples():
    # ray-shape triangle with both summands present
    a = from_coord(2, QuiverCoord(0, 1))
    b = from_coord(2, QuiverCoord(-1, 1))
    assert middle_cohomology(a, b, HammockSide.FORWARD) == CohomologyVector(
        {1: 1, 0: 2, -1: 1}
    )
    # weight-0 identity-map class has a cohomology-free middle
    a0 = arc(0, 3, 1)
    assert middle_cohomology(a0, suspend(a0), HammockSide.BACKWARD).is_zero()
    with pytest.raises(NoExtension):
        middle_cohomology(arc(2, 0, 3), arc(2, 10, 13), HammockSide.FORWARD)
    with pytest.raises(ValueError):
        middle_cohomology(a0, suspend(a0), HammockSide.BOTH_W0_SIGMA_A)


@pytest.mark.parametrize("w", ALL_WEIGHTS)
def test_middle_cohomology_matches_summands(w, window_arcs):
    arcs = window_arcs(w, 8)
    for a, b in itertools.product(arcs, repeat=2):
        for cls in middle_terms(a, b):
            total = CohomologyVector()
            for middle in cls.middles:
                total = total + cohomology(middle)
            assert total == middle_cohomology(a, b, cls.side), (a, b, cls)


@pytest.mark.parametrize("w", ALL_WEIGHTS)
def test_middle_cohomology_refuses_the_other_side(w, window_arcs):
    # a pair in one half of the Ext-hammock has no class on the other side
    other = {HammockSide.FORWARD: HammockSide.BACKWARD, HammockSide.BACKWARD: HammockSide.FORWARD}
    arcs = window_arcs(w, 8)
    seen = set()
    for a, b in itertools.product(arcs, repeat=2):
        side = hammock_side(b, a) if ext_dim(b, a) else None
        if side in other:
            with pytest.raises(NoExtension, match="Ext-hammock"):
                middle_cohomology(a, b, other[side])
            seen.add(side)
    assert seen == set(other)


def test_exray_order_example_and_totality():
    a = arc(2, 0, 5)
    b_fwd, b_bwd = arc(2, 4, 6), arc(2, -2, 1)
    # the backward member anchors below the forward one here
    assert exray_leq(a, b_bwd, b_fwd)
    assert not exray_leq(a, b_fwd, b_bwd)
    assert exray_leq(a, b_fwd, b_fwd)


@pytest.mark.parametrize("w", (-2, 0, 2, 3))
def test_exray_order_total_on_orthogonal_members(w, window_arcs):
    for a in window_arcs(w, 2):
        members = [
            b
            for b in window_arcs(w, 8)
            if ext_dim(b, a) and not (w == 0 and b == suspend(a))
        ]
        for b1, b2 in itertools.combinations(members, 2):
            if hom_dim(b1, b2) or hom_dim(b2, b1):
                continue
            assert exray_leq(a, b1, b2) != exray_leq(a, b2, b1), (a, b1, b2)


def test_multi_degenerate_matches_pairwise():
    a, b = arc(2, 0, 3), arc(2, 1, 4)
    out = middle_term_multi(a, [b])
    assert len(out) == 1
    assert set(out[0].middles) == middles_of(a, b)


def test_multi_example_forward_backward():
    a = arc(2, 0, 5)
    out = middle_term_multi(a, [arc(2, 4, 6), arc(2, -2, 1)])
    assert out[0].middles == (arc(2, -2, 0), arc(2, 1, 6))


def test_multi_reduction_raises_with_witness():
    a = arc(2, 0, 5)
    with pytest.raises(NonOrthogonalInput) as info:
        middle_term_multi(a, [arc(2, 1, 6), arc(2, 2, 7)])
    assert set(info.value.witness) == {arc(2, 1, 6), arc(2, 2, 7)}


def test_multi_duplicates_split_off():
    a, b = arc(2, 0, 3), arc(2, 1, 4)
    out = middle_term_multi(a, [b, b])
    assert out[0].middles == tuple(sorted([b, arc(2, 0, 4), arc(2, 1, 3)]))


def test_multi_needs_a_last_term():
    with pytest.raises(ValueError, match="at least one last term"):
        middle_term_multi(arc(2, 0, 3), [])


def test_multi_not_in_hammock():
    with pytest.raises(NotInHammock):
        middle_term_multi(arc(2, 0, 3), [arc(2, 10, 13)])


def test_multi_w0_suspension_outcomes():
    a = arc(0, 3, 1)
    sig = suspend(a)
    out = middle_term_multi(a, [sig])
    assert [o.map_class for o in out] == ["isomorphism", "non_isomorphism"]
    assert out[0].middles == ()
    assert set(out[1].middles) == {arc(0, 3, 0), arc(0, 2, 1)}
    # with a further member the suspension splits per map class (every
    # hammock member maps onto the suspension, so no orthogonality there)
    b = arc(0, 0, -2)
    assert ext_dim(b, a) == 1
    out2 = middle_term_multi(a, [b, sig])
    assert out2[0].middles == (b,)
    core = middle_term_multi(a, [b])[0].middles
    assert out2[1].middles == tuple(sorted(core + (sig,)))


@pytest.mark.parametrize("w", (-2, -1, 0, 2, 3))
def test_multi_matches_iterated_octahedral_oracle(w, window_arcs):
    import random

    rng = random.Random(20 + w)
    for a in window_arcs(w, 2):
        members = [
            b
            for b in window_arcs(w, 9)
            if ext_dim(b, a) and not (w == 0 and b == suspend(a))
        ]
        pairs = [
            (b1, b2)
            for b1, b2 in itertools.combinations(members, 2)
            if not hom_dim(b1, b2) and not hom_dim(b2, b1)
        ]
        rng.shuffle(pairs)
        for b1, b2 in pairs[:25]:
            expect = middle_term_multi_by_iteration(a, [b1, b2])
            assert middle_term_multi(a, [b1, b2])[0].middles == expect


@pytest.mark.parametrize("w", (-2, 0, 2))
def test_multi_output_inside_ptolemy_closure(w, window_arcs):
    for a in window_arcs(w, 2):
        members = [
            b
            for b in window_arcs(w, 7)
            if ext_dim(b, a) and not (w == 0 and b == suspend(a))
        ]
        for b1, b2 in itertools.combinations(members, 2):
            if hom_dim(b1, b2) or hom_dim(b2, b1):
                continue
            closed = ptolemy_closure(w, [a, b1, b2])
            for out in middle_term_multi(a, [b1, b2]):
                assert set(out.middles) <= closed, (a, b1, b2, out)


@pytest.mark.parametrize("w", (-2, -1, 0, 2, 3))
def test_section_4_ext_vanishing_pattern(w, window_arcs):
    # for ordered Hom-orthogonal hammock members, extensions against the
    # lesser term's two middle summands vanish on the ray side and survive
    # on the coray side, and dually for the greater term
    from sphtor.extensions import _keep, _side_for_order

    def end_summands(a, b):
        side = _side_for_order(a, b)
        if side is HammockSide.FORWARD:
            return _keep(w, a.t, b.u), _keep(w, b.t, a.u)
        return _keep(w, b.t, a.t), _keep(w, b.u, a.u)

    checked = 0
    for a in window_arcs(w, 3):
        members = [
            b
            for b in window_arcs(w, 10)
            if ext_dim(b, a) and not (w == 0 and b == suspend(a))
        ]
        for b1, b2 in itertools.combinations(members, 2):
            if hom_dim(b1, b2) or hom_dim(b2, b1):
                continue
            if not exray_leq(a, b1, b2):
                b1, b2 = b2, b1
            ray1, coray1 = end_summands(a, b1)
            ray2, coray2 = end_summands(a, b2)
            if ray1 is not None:
                assert ext_dim(b2, ray1) == 0
            if coray1 is not None:
                assert ext_dim(b2, coray1) >= 1
            if coray2 is not None:
                assert ext_dim(b1, coray2) == 0
            if ray2 is not None:
                assert ext_dim(b1, ray2) >= 1
            checked += 1
    assert checked


def test_exray_order_rejects_ambiguous_suspension():
    a = arc(0, 3, 1)
    with pytest.raises(NotInHammock):
        exray_leq(a, suspend(a), arc(0, 0, -2))


@pytest.mark.parametrize("w", (-1, 0, 2))
def test_multi_triples_match_iterated_oracle(w, window_arcs):
    import random

    rng = random.Random(40 + w)
    for a in window_arcs(w, 2):
        members = [
            b
            for b in window_arcs(w, 9)
            if ext_dim(b, a) and not (w == 0 and b == suspend(a))
        ]
        triples = [
            fam
            for fam in itertools.combinations(members, 3)
            if all(
                not hom_dim(x, y) and not hom_dim(y, x)
                for x, y in itertools.combinations(fam, 2)
            )
        ]
        rng.shuffle(triples)
        for fam in triples[:15]:
            expect = middle_term_multi_by_iteration(a, list(fam))
            assert middle_term_multi(a, list(fam))[0].middles == expect
