import itertools
import time

import pytest

from sphtor import (
    CohomologyVector,
    HammockSide,
    NoExtension,
    WeightMismatch,
    arc,
    cohomology,
    ext_dim,
    ext_dim_arc,
    hammock_side,
    hom_dim,
    in_forward_ext,
    serre,
    suspend,
    translate,
)
from sphtor.arcs import arcs_in_window
from sphtor.closure import _closedness_margin
from sphtor.hammocks import _hom_marks_ints, _hom_nonzero_ints

from conftest import ALL_WEIGHTS
from oracles import (
    _in_backward_ext as in_backward_ext,
    _in_backward_hom as in_backward_hom,
    _in_forward_hom as in_forward_hom,
)


def test_hom_examples():
    assert hom_dim(arc(0, 3, 1), arc(0, 3, 1)) == 2
    assert hom_dim(arc(2, -2, 0), arc(2, -2, 5)) == 1
    assert hom_dim(arc(2, 0, 3), arc(2, 10, 13)) == 0


def test_ext_examples():
    assert ext_dim(arc(2, 1, 4), arc(2, 0, 3)) == 1
    assert ext_dim(arc(0, 2, 0), arc(0, 3, 1)) == 2
    assert ext_dim(arc(-2, 8, 3), arc(-2, 2, 0)) == 0
    assert ext_dim(arc(-2, 2, 0), arc(-2, 8, 3)) == 1


def test_ext_arc_examples():
    assert ext_dim_arc(arc(-2, 2, 0), arc(-2, 8, 3)) == 1
    # mouth object at weight -1: only the suspension clause fires
    a = arc(-1, 1, 0)
    assert ext_dim_arc(suspend(a), a) == 1
    assert ext_dim_arc(a, suspend(a)) == 0
    # crossing without interior-vertex incidence stays rigid
    assert ext_dim_arc(arc(3, 1, 4), arc(3, 0, 3)) == 0


def test_weight_mismatch():
    with pytest.raises(WeightMismatch):
        hom_dim(arc(2, 0, 3), arc(3, 0, 3))
    with pytest.raises(WeightMismatch):
        ext_dim_arc(arc(2, 0, 3), arc(0, 3, 1))


def test_hammock_side_examples():
    assert hammock_side(arc(2, 1, 4), arc(2, 0, 3)) is HammockSide.FORWARD
    assert hammock_side(arc(2, 0, 3), arc(2, 1, 4)) is HammockSide.BACKWARD
    assert hammock_side(arc(0, 2, 0), arc(0, 3, 1)) is HammockSide.BOTH_W0_SIGMA_A
    with pytest.raises(NoExtension):
        hammock_side(arc(2, 10, 13), arc(2, 0, 3))


@pytest.mark.parametrize("w", ALL_WEIGHTS)
def test_route_agreement_small_window(w, window_arcs):
    arcs = window_arcs(w, 10)
    for a, b in itertools.product(arcs, repeat=2):
        assert ext_dim(b, a) == ext_dim_arc(b, a), (a, b)


@pytest.mark.parametrize("w", ALL_WEIGHTS)
def test_serre_duality_dimensions(w, window_arcs):
    arcs = window_arcs(w, 10)
    for a, b in itertools.product(arcs, repeat=2):
        assert ext_dim(b, a) == hom_dim(b, suspend(a))
        assert hom_dim(a, b) == hom_dim(b, serre(a))


@pytest.mark.parametrize("w", ALL_WEIGHTS)
def test_fountain_sides_match_hammocks(w, window_arcs):
    # partial-fountain membership agrees with the ray/coray picture
    arcs = window_arcs(w, 9)
    for a, b in itertools.product(arcs, repeat=2):
        assert in_forward_ext(a, b) == in_forward_hom(translate(a, -1), b)
        assert in_backward_ext(a, b) == in_backward_hom(suspend(a), b)
        if ext_dim(b, a):
            fwd, bwd = in_forward_ext(a, b), in_backward_ext(a, b)
            if w == 0 and b == suspend(a):
                assert fwd and bwd
            else:
                assert fwd != bwd


@pytest.mark.parametrize("w", ALL_WEIGHTS)
def test_self_extension_dimensions(w, window_arcs):
    for a in window_arcs(w, 9):
        if w != 0:
            assert ext_dim(a, a) == 0
        elif a.is_loop:
            assert ext_dim(a, a) == 0
        else:
            assert ext_dim(a, a) == 1
        if w != 0:
            for b in window_arcs(w, 9):
                assert ext_dim(b, a) <= 1


@pytest.mark.parametrize("w", ALL_WEIGHTS)
def test_hom_marks_match_hom_kernel(w):
    # sources reach past both edges of the window by the perp sample's margin
    lo, hi = -6, 6
    reach = _closedness_margin(w)
    targets = list(arcs_in_window(w, lo, hi))
    d = w - 1
    for x in arcs_in_window(w, lo - reach, hi + reach):
        marks = _hom_marks_ints(w, [(x.t, x.u)], lo, hi)
        for b in targets:
            marked = bool(marks[b.t - lo] >> ((b.u - b.t - 1) // d - 1) & 1)
            assert marked == _hom_nonzero_ints(w, x.t, x.u, b.t, b.u), (x, b)


@pytest.mark.parametrize("w", [2, -2])
def test_hom_marks_cost_the_window_not_the_source(w):
    # arcs 10^6 long across and beside [-5, 5], and short ones 10^6 away
    lo, hi = -5, 5
    length = 10**6 + (w < 0)  # admissible at w = 2 and at w = -2
    sources = [arc(w, x, x + length) for x in (-length - 1, -length, -length // 2, 0, 1)]
    sources += [arc(w, x, x + 2) for x in (-(10**6), 10**6)]
    targets = list(arcs_in_window(w, lo, hi))
    d = w - 1
    for x in sources:
        start = time.perf_counter()
        marks = _hom_marks_ints(w, [(x.t, x.u)], lo, hi)
        assert time.perf_counter() - start < 1.0, x
        # no mark holds a bit past the highest level a window arc can have
        assert max(m.bit_length() for m in marks) <= hi - lo + 1, x
        for b in targets:
            marked = bool(marks[b.t - lo] >> ((b.u - b.t - 1) // d - 1) & 1)
            assert marked == _hom_nonzero_ints(w, x.t, x.u, b.t, b.u), (x, b)


def test_cohomology_examples():
    assert cohomology(arc(2, -2, 0)) == CohomologyVector({0: 1})
    assert cohomology(arc(2, 0, 3)) == CohomologyVector({2: 1, 3: 1})
    assert cohomology(arc(-2, 5, 0)) == CohomologyVector({0: 1, 3: 1})
    assert cohomology(arc(0, 4, 4)) == CohomologyVector({4: 1})


@pytest.mark.parametrize("w", ALL_WEIGHTS)
def test_cohomology_support_structure(w, window_arcs):
    d = w - 1
    for a in window_arcs(w, 8):
        vec = cohomology(a)
        support = vec.support
        assert len(support) == vec.total
        assert all(vec.dim(n) == 1 for n in support)
        # degrees form one arithmetic progression of step |d|
        diffs = {m - n for n, m in zip(support, support[1:])}
        assert diffs <= {abs(d)}
        # suspension shifts cohomology degrees down by one
        shifted = cohomology(suspend(a))
        assert shifted.support == tuple(n - 1 for n in support)


def test_cohomology_vector_algebra():
    v = CohomologyVector({0: 1, 2: 1})
    w = CohomologyVector({2: 1, -1: 1})
    assert (v + w).as_dict() == {0: 1, 2: 2, -1: 1}
    assert v.euler() == 2 and w.euler() == 0
    assert CohomologyVector().is_zero()
    with pytest.raises(ValueError):
        CohomologyVector({0: -1})
    # zero dimensions drop out, so these two are equal and hash alike
    assert len({v, CohomologyVector({0: 1, 1: 0, 2: 1})}) == 1
    # a mapping only: degree, dimension pairs are not read
    with pytest.raises(AttributeError):
        CohomologyVector([(0, 1), (0, 2)])


def test_cohomology_vector_repr_evaluates_back():
    for v in (CohomologyVector(), cohomology(arc(2, 0, 3)), CohomologyVector({-3: 2, 5: 1})):
        assert eval(repr(v), {"CohomologyVector": CohomologyVector}) == v
