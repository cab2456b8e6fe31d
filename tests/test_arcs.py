import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

import sphtor
from sphtor import (
    Arc,
    HammockSide,
    InvalidArc,
    RelationKind,
    WeightHasNoArcModel,
    WeightMismatch,
    arc,
    arcs_in_window,
    component,
    from_coord,
    is_admissible,
    relation,
    serre,
    suspend,
    to_coord,
    translate,
)
from sphtor.arcs import QuiverCoord, apply_functor

from conftest import ALL_WEIGHTS

weights = st.sampled_from(ALL_WEIGHTS)


@st.composite
def admissible_arcs(draw, weight=None):
    w = weight if weight is not None else draw(weights)
    shift = draw(st.integers(-30, 30))
    level = draw(st.integers(0, 8))
    return from_coord(w, QuiverCoord(shift, level))


def test_admissibility_examples():
    assert is_admissible(2, 0, 3)
    assert is_admissible(-2, 5, 0)
    assert is_admissible(0, 4, 4)
    assert not is_admissible(3, 0, 2)


def test_admissibility_is_order_insensitive():
    assert is_admissible(-2, 0, 5) and is_admissible(-2, 5, 0)
    assert arc(2, 3, 0) == arc(2, 0, 3) == Arc(0, 3, 2)
    assert arc(-2, 0, 5) == Arc(5, 0, -2)


def test_weight_one_has_no_arcs():
    with pytest.raises(WeightHasNoArcModel):
        is_admissible(1, 0, 2)
    with pytest.raises(WeightHasNoArcModel):
        arc(1, 0, 2)


PAIR_FUNCTIONS = {
    name: getattr(sphtor, name)
    for name in (
        "hom_dim",
        "ext_dim",
        "ext_dim_arc",
        "hammock_side",
        "in_forward_ext",
        "middle_terms",
        "e_set",
        "ptolemy_arcs",
        "relation",
    )
}
PAIR_FUNCTIONS["middle_cohomology"] = lambda a, b: sphtor.middle_cohomology(a, b, HammockSide.FORWARD)
PAIR_FUNCTIONS["middle_term_multi"] = lambda a, b: sphtor.middle_term_multi(a, [b])


@pytest.mark.parametrize("name", sorted(PAIR_FUNCTIONS))
def test_every_pair_function_checks_the_pair(name):
    # one rule for a pair: both arcs share a weight, and that weight is not 1
    fn = PAIR_FUNCTIONS[name]
    for a, b in ((arc(2, 0, 3), arc(3, 0, 3)), (arc(3, 0, 3), arc(2, 0, 3))):
        with pytest.raises(WeightMismatch):
            fn(a, b)
    # raw construction skips the weight check that arc() makes
    with pytest.raises(WeightHasNoArcModel):
        fn(Arc(0, 3, 1), Arc(0, 3, 1))
    # a mismatch is reported before the weight 1 of the first arc
    with pytest.raises(WeightMismatch):
        fn(Arc(0, 3, 1), arc(2, 0, 3))


def test_invalid_arc_rejected():
    with pytest.raises(InvalidArc):
        arc(3, 0, 2)
    with pytest.raises(InvalidArc):
        arc(2, 0, 1)  # too short for the minimum length at weight 2
    # raw arcs skip the check, and to_coord makes it
    for raw in (Arc(0, 1, 2), Arc(3, 0, -2)):  # too short; length off the step
        with pytest.raises(InvalidArc):
            to_coord(raw)
    with pytest.raises(InvalidArc, match="level must be >= 0"):
        from_coord(2, QuiverCoord(0, -1))


def test_functor_examples():
    assert suspend(arc(2, 0, 3)) == arc(2, -1, 2)
    assert serre(arc(-2, 5, 0)) == arc(-2, 7, 2)
    assert apply_functor("tau", 1, arc(2, 0, 3)) == arc(2, -1, 2)


@pytest.mark.parametrize("name", ["sigma", "translate", "TAU", "Suspend"])
def test_apply_functor_takes_only_the_cli_names(name):
    with pytest.raises(ValueError, match="expected suspend/tau/serre"):
        apply_functor(name, 1, arc(2, 0, 3))


@given(admissible_arcs())
def test_functor_algebra(a):
    w = a.w
    assert serre(a) == suspend(translate(a))
    assert translate(a) == suspend(a, w - 1)
    assert suspend(translate(a)) == translate(suspend(a))
    assert suspend(suspend(a), -1) == a
    assert translate(translate(a), -1) == a
    assert serre(serre(a), -1) == a


def test_functors_are_window_bijections():
    for w in ALL_WEIGHTS:
        arcs = set(arcs_in_window(w, -12, 12))
        for fn in (suspend, translate, serre):
            image = {fn(a) for a in arcs}
            assert len(image) == len(arcs)
            back = {fn(a, -1) for a in image}
            assert back == arcs


@given(admissible_arcs())
def test_coordinate_round_trip(a):
    assert from_coord(a.w, to_coord(a)) == a


def test_coordinate_examples():
    assert to_coord(arc(2, -2, 0)) == QuiverCoord(0, 0)
    assert to_coord(arc(-2, 5, 0)) == QuiverCoord(0, 1)
    assert to_coord(arc(0, 4, 4)) == QuiverCoord(-4, 0)


@given(admissible_arcs())
def test_suspend_translate_on_coordinates(a):
    d = a.w - 1
    c = to_coord(a)
    assert to_coord(suspend(a)) == QuiverCoord(c.shift + 1, c.level)
    assert to_coord(translate(a)) == QuiverCoord(c.shift + d, c.level)


def test_rays_and_corays_are_coordinate_lines():
    # same ray = same first endpoint = equal shifts along the d-progression;
    # same coray = same second endpoint
    for w in (-2, 0, 2, 3):
        arcs = list(arcs_in_window(w, -8, 8))
        for a, b in itertools.combinations(arcs, 2):
            same_ray = a.t == b.t
            same_coray = a.u == b.u
            ca, cb = to_coord(a), to_coord(b)
            d = w - 1
            ray_coords = (ca.shift - cb.shift) == d * (cb.level - ca.level)
            assert same_ray == ray_coords
            assert same_coray == (ca.shift == cb.shift)


def test_relation_examples():
    assert relation(arc(2, 0, 3), arc(2, 1, 4)).kind is RelationKind.CROSSING
    rel = relation(arc(-2, 2, 0), arc(-2, 8, 3))
    assert rel.kind is RelationKind.NEIGHBOURING
    assert rel.contacts == ((2, 3),)
    rel0 = relation(arc(0, 3, 1), arc(0, 5, 3))
    assert rel0.kind is RelationKind.ADJACENT and rel0.shared_vertex == 3


def test_relation_edge_cases():
    a = arc(0, 3, 1)
    assert relation(a, a).kind is RelationKind.EQUAL
    # shared endpoint away from weight 0 is plain disjoint at distance 0
    assert relation(arc(2, 0, 3), arc(2, 3, 6)).kind is RelationKind.DISJOINT
    # loops are excluded from adjacency but admitted as neighbours
    assert relation(arc(0, 3, 3), arc(0, 2, 0)).kind is RelationKind.NEIGHBOURING
    assert relation(arc(0, 3, 3), arc(0, 3, 1)).kind is RelationKind.DISJOINT
    with pytest.raises(WeightMismatch):
        relation(arc(2, 0, 3), arc(0, 3, 1))


def test_relation_symmetric_and_exclusive():
    for w in (-2, 0, 2):
        arcs = list(arcs_in_window(w, -6, 6))
        for a, b in itertools.combinations(arcs, 2):
            r1, r2 = relation(a, b), relation(b, a)
            assert r1.kind == r2.kind
            assert r1.distance == r2.distance


def test_component_counts():
    for w in (-3, -2, 2, 3, 4):
        d = abs(w - 1)
        comps = {component(a) for a in arcs_in_window(w, -15, 15)}
        assert comps == set(range(d))
    assert {component(a) for a in arcs_in_window(0, -5, 5)} == {0}
