import json
import random
import re
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sphtor import (
    DescriptorSet,
    FountainDescriptor,
    FountainSide,
    InvalidArc,
    TooLarge,
    Verdict,
    WeightMismatch,
    arc,
    arcs_in_window,
    ext_dim_arc,
    extension_closure_oracle,
    hom_dim,
    is_admissible,
    is_contravariantly_finite,
    is_torsion_class,
    ptolemy_arcs,
    ptolemy_closure,
    symbolic_closure,
)

from sphtor.arcs import QuiverCoord, from_coord, suspend
from sphtor import closure
from sphtor.closure import MAX_VERDICT_PAIRS, _arcs_among, _close, _closedness_margin, _grow, _perp_sample
from sphtor.extensions import _both_middles, _connectors_ints
from sphtor.hammocks import _hom_nonzero_ints

from conftest import ALL_WEIGHTS, plain_fixpoint, random_arc_sets, spy_row, symmetric_rules


def test_closure_examples():
    closed = ptolemy_closure(2, [arc(2, 0, 3), arc(2, 1, 4)])
    assert closed == {arc(2, 0, 3), arc(2, 1, 4), arc(2, 0, 4), arc(2, 1, 3)}

    full = ptolemy_closure(0, [arc(0, 3, 1), arc(0, 2, 0)])
    assert full == frozenset(arcs_in_window(0, 0, 3))
    assert len(full) == 10

    singleton = [arc(2, 0, 5)]
    assert ptolemy_closure(2, singleton) == frozenset(singleton)
    assert extension_closure_oracle(2, []) == frozenset()


@pytest.mark.parametrize("close", [ptolemy_closure, extension_closure_oracle])
def test_closures_reject_mixed_weights(close):
    mixed = [arc(2, 0, 3), arc(3, 0, 3)]
    with pytest.raises(WeightMismatch):
        close(2, mixed)
    with pytest.raises(WeightMismatch):
        close(3, iter(mixed))


@pytest.mark.parametrize("w", ALL_WEIGHTS)
def test_closure_routes_agree_on_random_sets(w):
    for sample in random_arc_sets(w, 8, 400, 6, seed_base=1000 * w):
        assert ptolemy_closure(w, sample) == extension_closure_oracle(w, sample)


@pytest.mark.parametrize("w", ALL_WEIGHTS)
def test_closure_is_a_closure_operator(w):
    samples = list(random_arc_sets(w, 7, 60, 5, seed_base=77 + w))
    for sample in samples:
        closed = ptolemy_closure(w, sample)
        assert set(sample) <= closed
        assert ptolemy_closure(w, closed) == closed
        endpoints = {v for a in sample for v in a.vertices}
        assert all(set(a.vertices) <= endpoints for a in closed)
        v = len(endpoints)
        assert len(closed) <= v * (v + 1) // 2
    for small, big in zip(samples, samples[1:]):
        union = set(small) | set(big)
        assert ptolemy_closure(w, small) <= ptolemy_closure(w, union)


@given(symmetric_rules(min_k=1), st.data())
@settings(max_examples=200, deadline=None)
def test_close_is_the_plain_fixpoint(case, data):
    k, table = case
    seed = data.draw(st.sets(st.integers(0, k - 1)))
    seen = []
    closed = _close(seed, spy_row(table, seen), k)
    assert closed == plain_fixpoint(sum(1 << x for x in seed), table)
    # the loop hands a row only members it has taken, never one outside the closure
    assert all(not done & ~closed for done in seen)


@given(symmetric_rules(min_k=1), st.data())
@settings(max_examples=200, deadline=None)
def test_grow_resumes_from_a_closed_parent(case, data):
    # _closed_sets closes a child from its closed parent A, all done, plus i
    k, table = case
    seed = data.draw(st.sets(st.integers(0, k - 1)))
    parent = plain_fixpoint(sum(1 << x for x in seed), table)
    outside = [x for x in range(k) if not parent >> x & 1]
    assume(outside)
    i = data.draw(st.sampled_from(outside))
    seen = []
    closed = _grow(parent, parent | 1 << i, spy_row(table, seen), (1 << k) - 1)
    assert closed == plain_fixpoint(parent | 1 << i, table)
    assert all(not done & ~closed for done in seen)


def test_arc_closure_member_order():
    # arc p is member p: the sorted seed, then each arc as the rule returns it
    seed = [arc(2, 1, 4), arc(2, 0, 3)]
    returned = []

    def rule(a, b):
        out = _connectors_ints(2, a.t, a.u, b.t, b.u)[1]
        returned.extend(out)
        return out

    members = closure._close_arcs(2, seed, rule)
    assert members[:2] == sorted(seed)
    assert members[2:] == list(dict.fromkeys(x for x in returned if x not in seed))
    assert members == [arc(2, 0, 3), arc(2, 1, 4), arc(2, 1, 3), arc(2, 0, 4)]


def test_arc_row_pairs_each_arc_with_the_arcs_done(monkeypatch):
    # the arc row pairs arc p with the arcs up to it, so those must be the
    # members done: p and every arc before it, as the lowest waiting bit goes first
    close, taken = closure._close, []

    def spy_close(seed, row, k):
        def spy(p, done):
            assert done == (1 << p + 1) - 1, (p, bin(done))
            taken.append(p)
            return row(p, done)

        return close(seed, spy, k)

    monkeypatch.setattr(closure, "_close", spy_close)
    for w in ALL_WEIGHTS:
        for sample in random_arc_sets(w, 6, 40, 6, seed_base=500 + w):
            assert ptolemy_closure(w, sample) == extension_closure_oracle(w, sample)
    assert len(taken) > 1000


@pytest.mark.parametrize("w", ALL_WEIGHTS)
def test_arcs_among_counts_admissible_pairs(w):
    rng = random.Random(w)
    for _ in range(300):
        points = set(rng.sample(range(-15, 16), rng.randint(0, 12)))
        # x <= y: the loops count at w = 0, where every pair is admissible
        brute = sum(is_admissible(w, x, y) for x in points for y in points if x <= y)
        assert _arcs_among(w, points) == brute
    if w == 0:
        assert _arcs_among(0, range(7)) == 7 * 8 // 2


@pytest.mark.parametrize("rule", ["_connectors_ints", "_both_middles"])
def test_closure_stops_once_it_fills_the_endpoint_arcs(monkeypatch, rule):
    calls = []
    kernel = getattr(closure, rule)
    monkeypatch.setattr(closure, rule, lambda *args: calls.append(args) or kernel(*args))
    close = closure.ptolemy_closure if rule == "_connectors_ints" else closure.extension_closure_oracle
    seed = [arc(0, 3, 1), arc(0, 2, 0)]
    full = close(0, seed)
    size = _arcs_among(0, range(4))
    assert full == frozenset(arcs_in_window(0, 0, 3)) and len(full) == size
    assert 0 < len(calls) < size * (size + 1) // 2


def test_closure_budget_counts_the_closed_arcs():
    # 40 endpoints: the closure is all 820 admissible arcs on them, 336 610 pairs
    closed = ptolemy_closure(0, [arc(0, 3 * i + 7, 3 * i) for i in range(20)])
    assert len(closed) == 820
    assert _arcs_among(0, (v for a in closed for v in a.vertices)) == 820
    # 80 endpoints: its 3240 arcs would take 5 250 420 pairs
    wide = [arc(0, 3 * i + 7, 3 * i) for i in range(40)]
    for close in (ptolemy_closure, extension_closure_oracle):
        with pytest.raises(TooLarge, match=str(MAX_VERDICT_PAIRS)):
            close(0, wide)
    # a seed past the budget is refused before any pair is visited
    seed = list(arcs_in_window(0, 0, 53))
    assert len(seed) == 54 * 55 // 2 > closure._MAX_CLOSED_ARCS
    pairs = []
    with pytest.raises(TooLarge, match=str(MAX_VERDICT_PAIRS)):
        closure._close_arcs(0, seed, lambda a, b: pairs.append((a, b)) or ())
    assert pairs == []
    with pytest.raises(TooLarge, match=str(MAX_VERDICT_PAIRS)):
        ptolemy_closure(0, seed)


def test_fountain_descriptor_validation():
    with pytest.raises(InvalidArc):
        FountainDescriptor(0, FountainSide.RIGHT, 1) and DescriptorSet(
            2, [], [FountainDescriptor(0, FountainSide.RIGHT, 1)]
        )
    with pytest.raises(InvalidArc, match="strictly left"):
        DescriptorSet(2, [], [FountainDescriptor(0, FountainSide.LEFT, 2)])
    with pytest.raises(InvalidArc, match="strictly right"):
        DescriptorSet(2, [], [FountainDescriptor(0, FountainSide.RIGHT, -2)])
    ds = DescriptorSet(2, [], [FountainDescriptor(0, FountainSide.RIGHT, 2)])
    members = ds.instantiate(-1, 6)
    assert members == {arc(2, 0, 2), arc(2, 0, 3), arc(2, 0, 4), arc(2, 0, 5), arc(2, 0, 6)}


@pytest.mark.parametrize("w", ALL_WEIGHTS)
def test_fountain_members_are_the_window_arcs_it_covers(w):
    # starts near the vertex, at the window's edge and past it, on both sides
    lo, hi = -7, 9
    window = list(arcs_in_window(w, lo, hi))
    lengths = [n for n in range(1, abs(w) + 3 * abs(w - 1) + 1) if is_admissible(w, 0, n)]
    for v in (lo, 0, hi):
        for n in lengths + [hi - lo - 1, hi - lo, hi - lo + 1]:
            for side, start in ((FountainSide.RIGHT, v + n), (FountainSide.LEFT, v - n)):
                f = FountainDescriptor(v, side, start)
                if is_admissible(w, v, start):
                    assert set(f.members(w, lo, hi)) == {b for b in window if f.covers(w, b)}, f


def test_descriptor_drops_covered_arcs():
    f = FountainDescriptor(0, FountainSide.RIGHT, 2)
    ds = DescriptorSet(2, [arc(2, 0, 4), arc(2, 1, 3)], [f])
    assert ds.arcs == {arc(2, 1, 3)}
    # an equal set built from other inputs hashes alike
    assert len({ds, DescriptorSet(2, [arc(2, 1, 3)], [f])}) == 1


def test_descriptor_json_round_trip():
    ds = DescriptorSet(
        -1,
        [arc(-1, 3, 0)],
        [FountainDescriptor(0, FountainSide.LEFT, -1)],
    )
    blob = json.dumps(ds.to_json_dict(), sort_keys=True)
    assert DescriptorSet.from_json_dict(json.loads(blob)) == ds


def test_two_sided_fountain_sorts():
    left = FountainDescriptor(0, FountainSide.LEFT, -1)
    right = FountainDescriptor(0, FountainSide.RIGHT, 1)
    ds = DescriptorSet(0, [], [right, left])
    assert repr(ds) == f"DescriptorSet(w=0, arcs=[], fountains={[left, right]})"
    assert [f["side"] for f in ds.to_json_dict()["fountains"]] == ["left", "right"]
    assert DescriptorSet.from_json_dict(ds.to_json_dict()) == ds


def test_symbolic_closure_finite_matches_plain():
    sample = [arc(2, 0, 3), arc(2, 1, 4)]
    ds = DescriptorSet(2, sample)
    assert symbolic_closure(ds).arcs == ptolemy_closure(2, sample)


def test_symbolic_closure_shared_vertex_fountains_are_closed():
    ds = DescriptorSet(
        -1,
        [],
        [
            FountainDescriptor(0, FountainSide.RIGHT, 1),
            FountainDescriptor(0, FountainSide.LEFT, -1),
        ],
    )
    closed = symbolic_closure(ds)
    assert closed == ds


def test_symbolic_closure_grows_new_fountains():
    # the closure holds right fountains at -2 and at 1, which no descriptor
    # set on the span presents, so it is refused rather than guessed
    ds = DescriptorSet(
        2, [arc(2, -2, 1)], [FountainDescriptor(0, FountainSide.RIGHT, 2)]
    )
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="new fountains") as refusal:
        symbolic_closure(ds)
    assert time.perf_counter() - start < 2
    # the arc the refusal names is closed on span ± M(w) and lies past the span
    lo0, hi0 = ds.span()
    margin = _closedness_margin(2)
    t, u = map(int, re.search(r"holds \((-?\d+),(-?\d+)\)$", str(refusal.value)).groups())
    assert arc(2, t, u) in ptolemy_closure(2, ds.instantiate(lo0 - margin, hi0 + margin))
    assert not lo0 <= min(t, u) <= max(t, u) <= hi0
    finite = ptolemy_closure(2, ds.instantiate(-10, 12))
    assert {arc(2, -2, n) for n in range(3, 13)} | {arc(2, 1, n) for n in range(4, 13)} <= finite
    assert is_torsion_class(ds, window=4).verdict is Verdict.NOT_CLOSED


def test_symbolic_closure_adds_finitely_many_arcs():
    ds = DescriptorSet(2, [arc(2, -4, -1)], [FountainDescriptor(0, FountainSide.LEFT, -2)])
    closed = symbolic_closure(ds)
    assert closed.fountains == ds.fountains
    assert closed.arcs == {arc(2, -4, -1), arc(2, -4, -2), arc(2, -3, -1)}
    assert is_torsion_class(closed, window=4).verdict is not Verdict.NOT_CLOSED


@pytest.mark.parametrize("reach", [30, 10**6])
def test_symbolic_closure_budget(reach):
    # unrefused, the closure on span ± M(w) runs for seconds at reach 30
    fountain = FountainDescriptor(0, FountainSide.RIGHT, 1)
    ds = DescriptorSet(0, [arc(0, reach, -reach)], [fountain])
    start = time.perf_counter()
    with pytest.raises(TooLarge, match=str(MAX_VERDICT_PAIRS)):
        symbolic_closure(ds)
    assert time.perf_counter() - start < 0.1


def test_contravariant_finiteness_rules():
    right = FountainDescriptor(0, FountainSide.RIGHT, 2)
    left = FountainDescriptor(0, FountainSide.LEFT, -2)
    assert is_contravariantly_finite(DescriptorSet(2, [arc(2, 0, 4)]))
    assert not is_contravariantly_finite(DescriptorSet(2, [], [right]))
    assert is_contravariantly_finite(DescriptorSet(2, [], [FountainDescriptor(0, FountainSide.LEFT, -2)]))
    assert is_contravariantly_finite(DescriptorSet(2, [], [right, left]))
    r1 = FountainDescriptor(0, FountainSide.RIGHT, 1)
    l1 = FountainDescriptor(0, FountainSide.LEFT, -1)
    assert not is_contravariantly_finite(DescriptorSet(-1, [], [l1]))
    assert is_contravariantly_finite(DescriptorSet(-1, [], [r1]))
    assert is_contravariantly_finite(DescriptorSet(-1, [], [r1, l1]))


def test_torsion_reports():
    rep = is_torsion_class(DescriptorSet(2, [arc(2, 0, 3), arc(2, 1, 4)]), window=12)
    assert rep.verdict is Verdict.NOT_CLOSED
    assert rep.missing_arc in (arc(2, 0, 4), arc(2, 1, 3))
    a, b = rep.witness_pair
    assert rep.missing_arc in ptolemy_closure(2, [a, b])

    closed_set = ptolemy_closure(2, [arc(2, 0, 3), arc(2, 1, 4)])
    rep2 = is_torsion_class(DescriptorSet(2, closed_set), window=10)
    assert rep2.verdict is Verdict.TORSION_CLASS
    for perp in rep2.perp_sample:
        assert all(hom_dim(x, perp) == 0 for x in closed_set)

    rep3 = is_torsion_class(
        DescriptorSet(-1, [], [FountainDescriptor(0, FountainSide.LEFT, -1)]),
        window=12,
    )
    assert rep3.verdict is Verdict.NOT_CONTRAVARIANTLY_FINITE
    assert rep3.witness_fountain.vertex == 0
    assert rep3.note == ""


def test_not_closed_witness_is_the_least_missing_connector():
    # the crossing pair misses two connectors, (-4, 1) and (-2, 1)
    ds = DescriptorSet(2, [arc(2, -4, -2), arc(2, -3, 1)])
    rep = is_torsion_class(ds, window=12)
    assert rep.witness_pair == (arc(2, -4, -2), arc(2, -3, 1))
    assert rep.missing_arc == arc(2, -4, 1)
    assert arc(2, -2, 1) in ptolemy_closure(2, ds.arcs)


@pytest.mark.parametrize("window", [0, -1, -5])
def test_non_positive_window_is_rejected(window):
    # a negative window once hid the members from the witness search and
    # called this crossing pair, which misses (0,4), a torsion class
    ds = DescriptorSet(2, [arc(2, 0, 3), arc(2, 1, 4)])
    with pytest.raises(ValueError, match="window must be positive"):
        is_torsion_class(ds, window=window)
    assert is_torsion_class(ds, window=1).missing_arc == arc(2, 0, 4)


def test_torsion_class_double_fountain():
    ds = DescriptorSet(
        -1,
        [],
        [
            FountainDescriptor(0, FountainSide.RIGHT, 1),
            FountainDescriptor(0, FountainSide.LEFT, -1),
        ],
    )
    rep = is_torsion_class(ds, window=12)
    assert rep.verdict is Verdict.TORSION_CLASS
    # the perp sample is exactly the window arcs that are hom-free against a
    # wide instantiation
    gens = ds.instantiate(-60, 60)
    assert rep.perp_sample == tuple(
        b for b in arcs_in_window(-1, -13, 13) if all(hom_dim(x, b) == 0 for x in gens)
    )
    assert rep.perp_sample


RUNAWAY = {"w": 2, "arcs": [[-5, 6], [-1, 6], [3, 6]],
           "fountains": [{"vertex": 4, "side": "left", "from": 0}]}
TWO_SIDED_W0 = {"w": 0, "arcs": [], "fountains": [{"vertex": 0, "side": "left", "from": -1},
                                                  {"vertex": 0, "side": "right", "from": 1}]}


def test_verdicts_take_no_closure(tmp_path, capsys, monkeypatch):
    import sphtor.closure as closure
    from sphtor.cli import run

    def refuse(*args, **kwargs):
        raise AssertionError("is_torsion_class must not close")

    monkeypatch.setattr(closure, "symbolic_closure", refuse)
    monkeypatch.setattr(closure, "ptolemy_closure", refuse)
    for doc, window in ((RUNAWAY, "8"), (TWO_SIDED_W0, "40")):
        path = tmp_path / "ds.json"
        path.write_text(json.dumps(doc))
        code = run(["torsion", "--in", str(path), "--window", window, "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["verdict"] == "not_closed"
        # the witness replays: both arcs are members, the missing arc is a
        # connector of theirs and no member
        ds = DescriptorSet.from_json_dict(doc)
        a, b = (arc(ds.w, *p) for p in out["witness_pair"])
        missing = arc(ds.w, *out["missing_arc"])
        members = ds.instantiate(-100, 100)
        assert a in members and b in members
        assert missing in set().union(*ptolemy_arcs(a, b))
        assert missing not in members


def _both_ways_closed(w, members):
    """Closedness of a finite set by the extension route, no connector kernel."""
    ordered = sorted(members)
    return all(
        m in members
        for i, a in enumerate(ordered)
        for b in ordered[i:]
        for m in _both_middles(w, a, b)
    )


@st.composite
def fountain_descriptors(draw):
    w = draw(st.sampled_from(ALL_WEIGHTS))
    lengths = [n for n in range(1, abs(w) + 3 * abs(w - 1) + 1) if is_admissible(w, 0, n)]
    pool = sorted(arcs_in_window(w, -5, 5))
    arcs_in = draw(st.lists(st.sampled_from(pool), max_size=3))
    fountains = []
    for _ in range(draw(st.integers(1, 3))):
        v = draw(st.integers(-5, 5))
        n = draw(st.sampled_from(lengths))
        side = draw(st.sampled_from(list(FountainSide)))
        fountains.append(FountainDescriptor(v, side, v + n if side is FountainSide.RIGHT else v - n))
    return DescriptorSet(w, arcs_in, fountains)


@given(fountain_descriptors(), st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_closedness_verdict_is_exact(ds, window):
    # a window of four margins holds a copy of every unclosed pair with room to spare
    reach = 4 * _closedness_margin(ds.w)
    lo0, hi0 = ds.span()
    closed = _both_ways_closed(ds.w, ds.instantiate(lo0 - reach, hi0 + reach))
    verdict = is_torsion_class(ds, window=window).verdict
    assert (verdict is not Verdict.NOT_CLOSED) == closed, ds


@given(fountain_descriptors())
@settings(max_examples=200, deadline=None)
def test_symbolic_closure_is_exact(ds):
    reach = 4 * _closedness_margin(ds.w)
    lo0, hi0 = ds.span()
    seed = ds.instantiate(lo0 - reach, hi0 + reach)
    is_closed = is_torsion_class(ds, window=1).verdict is not Verdict.NOT_CLOSED
    try:
        closed = symbolic_closure(ds)
    except TooLarge:
        assert not is_closed, ds
        return
    members = closed.instantiate(lo0 - reach, hi0 + reach)
    assert seed <= members, ds
    assert _both_ways_closed(ds.w, members), ds
    assert members <= ptolemy_closure(ds.w, seed), ds
    assert (closed == ds) == is_closed, ds


@given(fountain_descriptors(), st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_perp_sample_is_exact(ds, window):
    lo0, hi0 = ds.span()
    lo, hi = lo0 - window, hi0 + window
    # members far past the margin; Hom(x, b) by the arc route, Ext^1(x, suspension^-1 b)
    reach = 4 * (hi - lo + _closedness_margin(ds.w))
    members = ds.instantiate(lo - reach, hi + reach)
    expected = tuple(
        b
        for b in arcs_in_window(ds.w, lo, hi)
        if not any(ext_dim_arc(x, suspend(b, -1)) for x in members)
    )
    # the margin argument does not use closedness, and on torsion classes
    # alone random draws give the same samples at a margin of 0, so every
    # drawn set is checked
    margin = _closedness_margin(ds.w)
    generators = ds.instantiate(lo - margin, hi + margin)
    assert _perp_sample(ds.w, generators, lo, hi) == expected, ds
    rep = is_torsion_class(ds, window=window)
    if rep.verdict is Verdict.TORSION_CLASS:
        assert rep.perp_sample == expected, ds


def _first_ordered_hit(ds, lo, hi):
    """The witness by a scan of every ordered pair, in sorted order."""
    present = ds.instantiate(lo, hi)
    ordered = sorted(present)
    for a in ordered:
        for b in ordered:
            missing = [
                m
                for m in _connectors_ints(ds.w, a.t, a.u, b.t, b.u)[1]
                if m not in present and not any(f.covers(ds.w, m) for f in ds.fountains)
            ]
            if missing:
                return (a, b), min(missing)
    return None, None


@st.composite
def finite_descriptors(draw):
    w = draw(st.sampled_from(ALL_WEIGHTS))
    pool = sorted(arcs_in_window(w, -5, 5))
    return DescriptorSet(w, draw(st.lists(st.sampled_from(pool), max_size=6)))


@given(st.one_of(fountain_descriptors(), finite_descriptors()), st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_witness_is_the_first_ordered_hit(ds, window):
    lo0, hi0 = ds.span()
    pair, missing = _first_ordered_hit(ds, lo0 - window, hi0 + window)
    margin = _closedness_margin(ds.w)
    if pair is None and ds.fountains and margin > window:
        pair, missing = _first_ordered_hit(ds, lo0 - margin, hi0 + margin)
    rep = is_torsion_class(ds, window=window)
    assert (rep.witness_pair, rep.missing_arc) == (pair, missing), ds


def test_perp_sample_refuses_a_runaway_window():
    # a torsion class whose perp sample at window 400 tests about 1.3e8 pairs
    ds = DescriptorSet(2, [], [FountainDescriptor(0, FountainSide.LEFT, -2)])
    assert is_torsion_class(ds, window=40).verdict is Verdict.TORSION_CLASS
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="perp sample"):
        is_torsion_class(ds, window=400)
    assert time.perf_counter() - start < 2


TWO_SIDED_W2 = {"w": 2, "arcs": [], "fountains": [{"vertex": 0, "side": "left", "from": -2},
                                                  {"vertex": 0, "side": "right", "from": 2}]}
ONE_ARC_W2 = {"w": 2, "arcs": [[0, 3]], "fountains": []}


@pytest.mark.parametrize("doc, window", [(TWO_SIDED_W2, 1000), (TWO_SIDED_W2, 2000),
                                         (ONE_ARC_W2, 600), (ONE_ARC_W2, 1000)])
def test_verdict_budget_is_checked_before_either_scan(doc, window):
    # unrefused, each scan runs for seconds: the pair check over the two-sided
    # fountain's thousands of members, and the perp sample of the one arc
    # over its 700 000 or more window arcs
    ds = DescriptorSet.from_json_dict(doc)
    start = time.perf_counter()
    with pytest.raises(TooLarge, match=str(MAX_VERDICT_PAIRS)):
        is_torsion_class(ds, window=window)
    assert time.perf_counter() - start < 2


def test_verdict_budget_counts_admissible_arcs():
    # [-700, 704] holds 987 715 integer pairs but 327 834 admissible arcs at
    # w = 4, so the budget is 655 668, not 1 975 430
    ds = DescriptorSet(4, [arc(4, 0, 4)])
    rep = is_torsion_class(ds, window=700)
    assert rep.verdict is Verdict.TORSION_CLASS
    window_arcs = list(arcs_in_window(4, -700, 704))
    assert len(window_arcs) == 327834
    assert rep.perp_sample == tuple(
        b for b in window_arcs if not _hom_nonzero_ints(4, 0, 4, b.t, b.u)
    )


@pytest.mark.parametrize("w", ALL_WEIGHTS)
def test_every_finite_closed_set_is_a_torsion_class(w):
    for sample in random_arc_sets(w, 6, 25, 4, seed_base=31 * w):
        closed = ptolemy_closure(w, sample)
        rep = is_torsion_class(DescriptorSet(w, closed), window=8)
        assert rep.verdict is Verdict.TORSION_CLASS, (w, sample)


@st.composite
def small_arc_sets(draw):
    w = draw(st.sampled_from(ALL_WEIGHTS))
    coords = draw(
        st.lists(
            st.tuples(st.integers(-8, 8), st.integers(0, 3)), min_size=0, max_size=5
        )
    )
    return w, [from_coord(w, QuiverCoord(s, l)) for s, l in coords]


@given(small_arc_sets())
@settings(max_examples=150, deadline=None)
def test_closure_laws_hypothesis(case):
    w, sample = case
    closed = ptolemy_closure(w, sample)
    assert set(sample) <= closed
    assert ptolemy_closure(w, closed) == closed
    assert extension_closure_oracle(w, sample) == closed
