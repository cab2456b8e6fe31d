import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sphtor as s
from sphtor.closure import MAX_CLOSED_SETS, _closed_sets, _has_free_set
from sphtor.extensions import _connectors_ints
from sphtor.hammocks import _ext_arc_nonzero_ints, _hom_nonzero_ints
from sphtor.orbit import MAX_ROW_CELLS, _bits, _check_diagonal
from sphtor import (
    IntervalObject,
    MDiagonal,
    NoExtension,
    OrbitCategory,
    ParamsMismatch,
    TooLarge,
    ValidationFailure,
    db_hom_dim,
    db_suspend,
    db_translate,
    db_translate_inv,
)

from conftest import plain_fixpoint, seeded_symmetric_rules, spy_row, symmetric_rules, table_row

SMALL = [(1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4), (1, 3)]
# every pair of these is checked against the derived route; (1, 2) is the
# 2-gon, whose one diagonal extends itself
SWEEP = [(n, m) for m in range(2, 7) for n in range(1, 9)]


def test_db_hom_examples():
    n = 2
    assert db_hom_dim(n, IntervalObject(0, 1, 2), IntervalObject(0, 2, 2)) == 1
    assert db_hom_dim(n, IntervalObject(0, 2, 2), IntervalObject(1, 1, 1)) == 1
    assert db_hom_dim(3, IntervalObject(0, 2, 3), IntervalObject(0, 1, 2)) == 0
    # projectives have no first extensions
    assert db_hom_dim(n, IntervalObject(0, 1, 1), IntervalObject(1, 1, 1)) == 0


def test_db_functor_examples():
    n = 4
    assert db_translate(n, IntervalObject(0, 2, 3)) == IntervalObject(0, 1, 2)
    assert db_translate(n, IntervalObject(0, 1, 2)) == IntervalObject(-1, 2, n)
    # translate inverse really inverts
    for lo in range(1, n + 1):
        for hi in range(lo, n + 1):
            for deg in (-1, 0, 2):
                x = IntervalObject(deg, lo, hi)
                assert db_translate_inv(n, db_translate(n, x)) == x
                assert db_translate(n, db_translate_inv(n, x)) == x


@pytest.mark.parametrize("n", range(1, 7))
def test_suspension_square_is_inverse_translate_power(n):
    for lo in range(1, n + 1):
        for hi in range(lo, n + 1):
            x = IntervalObject(0, lo, hi)
            y = db_suspend(x, 2)
            z = x
            for _ in range(n + 1):
                z = db_translate_inv(n, z)
            assert y == z


def test_parameter_validation():
    with pytest.raises(ValidationFailure):
        OrbitCategory(0, 2)
    with pytest.raises(ValidationFailure):
        OrbitCategory(3, 1)
    with pytest.raises(TooLarge):
        OrbitCategory(257, 2)  # 66 049 objects, past MAX_OBJECTS


@pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 7) for m in range(2, 5)])
def test_count_gate(n, m):
    cat = OrbitCategory(n, m)
    assert len(cat.objects) == len(cat.diagonals)
    assert len(cat.objects) == m * n * (n + 1) // 2 - n
    if m == 2:
        assert len(cat.objects) == n * n


@pytest.mark.parametrize("n", range(1, 9))
def test_squared_count_for_two_divisible_diagonals(n):
    # the m = 2 model validates out to n = 8 with n^2 objects
    cat = OrbitCategory(n, 2)
    assert len(cat.objects) == len(cat.diagonals) == n * n


def test_known_diagonal_sets():
    hexagon = OrbitCategory(3, 2)
    assert len(hexagon.diagonals) == 9
    short = [d for d in hexagon.diagonals if (d.j - d.i) % 6 in (1, 5)]
    long = [d for d in hexagon.diagonals if (d.j - d.i) % 6 == 3]
    assert len(short) == 6 and len(long) == 3

    tencorners = OrbitCategory(3, 3)
    assert set(tencorners.diagonals) == {
        MDiagonal(i, j)
        for i, j in [
            (1, 3), (2, 4), (3, 5), (4, 6), (5, 7), (6, 8), (7, 9), (8, 10),
            (1, 9), (2, 10),
            (1, 6), (2, 7), (3, 8), (4, 9), (5, 10),
        ]
    }
    assert len(tencorners.diagonals) == 15


@pytest.mark.parametrize("n,m", SMALL)
def test_bijection_equivariance(n, m):
    cat = OrbitCategory(n, m)
    for i, x in enumerate(cat.objects):
        d = cat.to_diagonal(x)
        # object i lies on the i-th diagonal
        assert d == cat.diagonals[i]
        assert cat.from_diagonal(d) == x
        assert cat.to_diagonal(cat.sigma(x)) == cat.rotate(d, 1)
        # translate is the inverse m-th rotation, and the Serre twist is the
        # weight w = 1 - m as a rotation
        assert cat.to_diagonal(cat.tau(x)) == cat.rotate(d, -m)
        assert cat.to_diagonal(cat.serre(x)) == cat.rotate(d, 1 - m)


def _diagonal_of(cat, x):
    return MDiagonal(1 + x.degree + cat.m * (x.lo - 1), x.degree + cat.m * x.hi)


@pytest.mark.parametrize(
    "formula",
    [
        # bijections onto the diagonals, in the wrong order
        lambda cat, x: cat.rotate(_diagonal_of(cat, x), 1),
        lambda cat, x: cat.diagonals[-1 - cat._index[x]],
        # not injective: every interval onto the diagonal of its first simple
        lambda cat, x: _diagonal_of(cat, x._replace(hi=x.lo)),
    ],
    ids=["rotated", "reversed", "not_injective"],
)
def test_a_wrong_diagonal_map_is_refused(monkeypatch, formula):
    monkeypatch.setattr(OrbitCategory, "_diagonal_formula", formula)
    with pytest.raises(ValidationFailure, match="not a bijection"):
        OrbitCategory(3, 3)


def test_a_suspension_that_does_not_rotate_is_refused(monkeypatch):
    monkeypatch.setattr(OrbitCategory, "sigma", lambda cat, x: x)
    with pytest.raises(ValidationFailure, match="suspension equivariance fails"):
        OrbitCategory(3, 3)


def test_a_translate_that_does_not_rotate_is_refused(monkeypatch):
    monkeypatch.setattr(OrbitCategory, "tau", lambda cat, x: x)
    with pytest.raises(ValidationFailure, match="translate equivariance fails"):
        OrbitCategory(3, 3)


def _shift_by_steps(cat, x, k):
    """The k-th power of the orbit functor, one step at a time: the reference."""
    for _ in range(abs(k)):
        if k > 0:
            x = db_suspend(db_translate(cat.n, x), cat.m)
        else:
            x = db_translate_inv(cat.n, db_suspend(x, -cat.m))
    return x


def _normalize_by_steps(cat, x):
    while not cat._in_domain(x):
        x = _shift_by_steps(cat, x, -1 if x.degree >= cat.m - 1 else 1)
    return x


@pytest.mark.parametrize("n,m", [(1, 2), (3, 2), (2, 3), (4, 5), (5, 4)])
def test_orbit_shift_and_normalize_match_the_steps(n, m):
    # F^(n+1) = suspension^N: a period is one suspension, not n + 1 steps
    cat = OrbitCategory(n, m)
    period = n + 1
    for lo in range(1, n + 1):
        for hi in range(lo, n + 1):
            for degree in range(-2 * cat.N - 1, 2 * cat.N + 2):
                x = IntervalObject(degree, lo, hi)
                assert cat.normalize(x) == _normalize_by_steps(cat, x)
                for k in range(-2 * period - 1, 2 * period + 2):
                    assert cat.orbit_shift(x, k) == _shift_by_steps(cat, x, k)


def test_orbit_shift_and_normalize_are_fast_at_huge_values():
    cat = OrbitCategory(3, 2)
    x = cat.objects[1]
    d = cat.to_diagonal(x)
    start = time.process_time()
    for k in (10**12, -(10**12), 4 * 10**12 + 3):
        assert cat.normalize(cat.orbit_shift(x, k)) == x
    for degree in (10**12, -(10**12)):
        far = db_suspend(x, degree)
        # suspension is rotation by +1 on diagonals
        assert cat.to_diagonal(cat.normalize(far)) == cat.rotate(d, degree)
        assert cat.to_diagonal(cat.sigma(far)) == cat.rotate(d, degree + 1)
        assert cat.to_diagonal(cat.tau(far)) == cat.rotate(d, degree - cat.m)
        assert cat.to_diagonal(cat.serre(far)) == cat.rotate(d, degree + 1 - cat.m)
    assert time.process_time() - start < 0.1


@pytest.mark.parametrize("n,m", SMALL)
def test_orbit_functor_window_vanishing(n, m):
    cat = OrbitCategory(n, m)
    if len(cat.objects) > 30:
        pytest.skip("window sweep bounded at 30 indecomposables")
    for a, b in itertools.product(cat.objects, repeat=2):
        contributions = [
            k for k in range(-3, 5) if db_hom_dim(n, a, cat.orbit_shift(b, k))
        ]
        assert all(k in (0, 1) for k in contributions)
        assert len(contributions) <= 1


def test_hom_examples_on_hexagon():
    cat = OrbitCategory(3, 2)
    a = cat.from_diagonal(MDiagonal(1, 4))
    b = cat.from_diagonal(MDiagonal(3, 6))
    assert cat.hom_dim(a, b) == 1
    assert cat.diagonal_hom_nonzero(MDiagonal(1, 4), MDiagonal(3, 6))
    for x in cat.objects:
        assert cat.hom_dim(x, x) >= 1


@pytest.mark.parametrize("n,m", SWEEP)
def test_diagonal_rules_match_derived_route(n, m):
    cat = OrbitCategory(n, m)
    for a, b in itertools.product(cat.objects, repeat=2):
        da, db = cat.to_diagonal(a), cat.to_diagonal(b)
        # the derived sum over the twists k = 0, 1 stays the reference for the row bit
        assert cat.hom_dim(a, b) == db_hom_dim(n, a, b) + db_hom_dim(n, a, cat.orbit_shift(b, 1))
        assert bool(cat.hom_dim(a, b)) == cat.diagonal_hom_nonzero(da, db)
        assert bool(cat.ext_dim(b, a)) == cat.diagonal_ext_nonzero(db, da)


@pytest.mark.parametrize("n,m", [(n, m) for n, m in SWEEP if n * m <= 12])
def test_no_cut_over_reports(n, m):
    # the invariant the two-cut rule rests on: opening the polygon at any edge
    # can hide a contact but invents none, so Hom reads the same at every cut,
    # and an Ext or a connector seen at some cut is one of the derived route
    cat = OrbitCategory(n, m)
    w = 1 - m
    for a, b in itertools.product(cat.objects, repeat=2):
        da, db = cat.to_diagonal(a), cat.to_diagonal(b)
        allowed = {cat.to_diagonal(x) for x in cat.e_set(a, b)} | {da, db}
        for cut in range(cat.N):
            lifts = (*cat._lift(da, cut), *cat._lift(db, cut))
            assert _hom_nonzero_ints(w, *lifts) == bool(cat.hom_dim(a, b)), (da, db, cut)
            assert cat.ext_dim(b, a) or not _ext_arc_nonzero_ints(w, *lifts), (da, db, cut)
            for c in _connectors_ints(w, *lifts)[1]:
                t, u = cat._lift(c.vertices, cut)
                assert MDiagonal(u, t) in allowed, (da, db, cut, c)


@pytest.mark.parametrize("n,m", SMALL)
def test_rigidity_and_ext_values(n, m):
    cat = OrbitCategory(n, m)
    for a in cat.objects:
        # every object is rigid except in the degenerate two-gon (n, m) =
        # (1, 2), where the suspension is isomorphic to the identity
        assert cat.ext_dim(a, a) == (1 if (n, m) == (1, 2) else 0)
    for a, b in itertools.product(cat.objects, repeat=2):
        assert cat.ext_dim(b, a) in (0, 1)


def test_paper_cross_category_example():
    cat = OrbitCategory(3, 2)
    x, y = s.arc(-1, 2, 1), s.arc(-1, 6, 5)
    assert s.ext_dim(x, y) == 0 and s.ext_dim(y, x) == 0
    d1, d2 = MDiagonal(1, 2), MDiagonal(5, 6)
    o1, o2 = cat.from_diagonal(d1), cat.from_diagonal(d2)
    assert cat.ext_dim(o1, o2) == 1


def test_frames_properties():
    cat = OrbitCategory(2, 2)
    a = cat.from_diagonal(MDiagonal(1, 2))
    starts, ends = cat.frames(a)
    assert {cat.to_diagonal(x) for x in starts} == {MDiagonal(1, 2), MDiagonal(1, 4)}
    assert {cat.to_diagonal(x) for x in ends} == {MDiagonal(1, 2), MDiagonal(2, 3)}
    for n, m in SMALL:
        c = OrbitCategory(n, m)
        for x in c.objects:
            fs, fe = c.frames(x)
            assert (x in fs) == (c.ext_dim(x, x) == 0)
            assert (x in fe) == (c.ext_dim(x, x) == 0)
            fs2, fe2 = c.frames(c.serre(x))
            assert len(fs) == len(fe2)


def test_middle_term_examples():
    cat = OrbitCategory(3, 2)
    a = IntervalObject(0, 1, 3)
    b = cat.sigma(IntervalObject(0, 1, 1))
    assert cat.middle_term(a, b) == (IntervalObject(0, 2, 3),)
    for i in (1, 2, 3):
        p = IntervalObject(0, 1, i)
        sp = cat.sigma(p)
        assert cat.ext_dim(sp, p) == 1
        assert cat.middle_term(p, sp) == ()
        assert cat.ext_dim(p, sp) in (0, 1)
    with pytest.raises(NoExtension):
        cat.middle_term(a, a)

    square = OrbitCategory(2, 2)
    d12, d34 = MDiagonal(1, 2), MDiagonal(3, 4)
    o1, o2 = square.from_diagonal(d12), square.from_diagonal(d34)
    assert {square.to_diagonal(x) for x in square.e_set(o1, o2)} == {
        MDiagonal(2, 3),
        MDiagonal(1, 4),
    }


@pytest.mark.parametrize("n,m", SWEEP)
def test_middle_terms_small_and_match_ptolemy(n, m):
    cat = OrbitCategory(n, m)
    for a, b in itertools.product(cat.objects, repeat=2):
        da, db = cat.to_diagonal(a), cat.to_diagonal(b)
        image = {cat.to_diagonal(x) for x in cat.e_set(a, b)}
        assert image == cat.ptolemy(da, db), (da, db)
        if cat.ext_dim(b, a):
            assert len(cat.middle_term(a, b)) <= 2


def test_ptolemy_examples():
    square = OrbitCategory(2, 2)
    assert square.ptolemy(MDiagonal(1, 2), MDiagonal(3, 4)) == {
        MDiagonal(2, 3),
        MDiagonal(1, 4),
    }
    assert square.ptolemy(MDiagonal(1, 2), MDiagonal(1, 2)) == frozenset()


@pytest.mark.parametrize("n,m", [(3, 3), (4, 3), (2, 4)])
def test_rigid_crossings_yield_no_m_diagonals(n, m):
    cat = OrbitCategory(n, m)
    for a, b in itertools.product(cat.objects, repeat=2):
        da, db = cat.to_diagonal(a), cat.to_diagonal(b)
        if (
            cat.diagonals_cross(da, db)
            and not cat.ext_dim(b, a)
            and not cat.ext_dim(a, b)
        ):
            assert cat.ptolemy(da, db) == frozenset()


def test_closure_examples():
    cat = OrbitCategory(2, 2)
    assert cat.closure([]) == frozenset()
    assert cat.closure(cat.objects) == frozenset(cat.objects)
    seed = [MDiagonal(1, 2), MDiagonal(3, 4)]
    assert cat.closure_diagonals(seed) == frozenset(cat.diagonals)


def test_params_mismatch_rejected():
    cat = OrbitCategory(2, 2)
    with pytest.raises(ParamsMismatch):
        cat.hom_dim(IntervalObject(0, 1, 3), cat.objects[0])
    with pytest.raises(ParamsMismatch):
        cat.from_diagonal(MDiagonal(1, 3))
    # the polygon relations answer for m-diagonals only; {1,3} and {2,4} are
    # chords of the square but not 2-diagonals
    with pytest.raises(ParamsMismatch):
        cat.ptolemy(MDiagonal(1, 3), MDiagonal(2, 4))
    with pytest.raises(ParamsMismatch):
        cat.diagonal_ext_nonzero(MDiagonal(2, 4), MDiagonal(1, 3))
    with pytest.raises(ParamsMismatch):
        cat.diagonal_hom_nonzero(MDiagonal(1, 2), MDiagonal(1, 3))
    assert cat.diagonals_cross(MDiagonal(1, 3), MDiagonal(2, 4))  # geometry on any chord


@pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 7) for m in range(2, 7)])
def test_m_diagonals_are_decided_without_the_category(n, m):
    cat = OrbitCategory(n, m)
    passed = set()
    for i in range(-1, cat.N + 3):
        for j in range(-1, cat.N + 3):
            try:
                _check_diagonal(n, m, MDiagonal(i, j))
                passed.add(MDiagonal(i, j))
            except ParamsMismatch:
                pass
    assert passed == set(cat.diagonals)


def test_closure_rejects_objects_of_other_parameters():
    cat = OrbitCategory(2, 2)
    foreign = OrbitCategory(3, 2).objects
    stranger = next(x for x in foreign if x not in cat.objects)
    with pytest.raises(ParamsMismatch):
        cat.closure([cat.objects[0], stranger])


FROZEN_TORSION_COUNTS = {
    (1, 2): 2,
    (2, 2): 10,
    (3, 2): 80,
    (2, 3): 51,
    (2, 4): 277,
    (3, 3): 1224,
    (4, 2): 834,
    (5, 2): 10302,
    (3, 4): 21170,
    (2, 7): 43721,
    (4, 3): 44007,
}


@pytest.mark.parametrize("n,m", sorted(FROZEN_TORSION_COUNTS))
def test_torsion_enumeration_counts(n, m):
    cat = OrbitCategory(n, m)
    classes = cat.torsion_classes()
    assert len(classes) == FROZEN_TORSION_COUNTS[(n, m)]
    assert classes == sorted(classes)
    assert () in classes and tuple(sorted(cat.diagonals)) in classes


@pytest.mark.parametrize("m", range(2, 18))
def test_torsion_counts_for_one_vertex(m):
    # n = 1: every subset of the m - 1 objects is closed
    assert len(OrbitCategory(1, m).torsion_classes()) == 2 ** (m - 1)


def _next_closure(k, table):
    """Ganter's NextClosure over the round-based ``plain_fixpoint``: the reference lectic order."""
    current = plain_fixpoint(0, table)
    while True:
        yield current
        for i in reversed(range(k)):
            below = (1 << i) - 1
            if not current >> i & 1:
                successor = plain_fixpoint(current & below | 1 << i, table)
                if not successor & ~current & below:
                    current = successor
                    break
        else:
            return


# big and dense enough that canonicity fails below the root, so the failures
# the descendants inherit prune children
dense_symmetric_rules = symmetric_rules(min_k=6, max_k=12, densities=(0.2, 0.4, 0.6))
# masks wider than a byte, so candidates are walked and leaves skipped above
# bit 8; these densities keep a case to a few thousand closed sets, far
# under the cap
wide_symmetric_rules = seeded_symmetric_rules(min_k=13, max_k=20, densities=(0.2, 0.3, 0.4))


@given(symmetric_rules() | wide_symmetric_rules)
@settings(max_examples=300, deadline=None)
def test_closed_sets_follow_next_closure(case):
    k, table = case
    assert _closed_sets(k, spy_row(table, [])) == list(_next_closure(k, table))


@given(dense_symmetric_rules)
@settings(max_examples=100, deadline=None)
def test_closed_sets_follow_next_closure_when_failures_are_inherited(case):
    k, table = case
    assert _closed_sets(k, spy_row(table, [])) == list(_next_closure(k, table))


def test_closed_sets_refuse_past_the_cap():
    # a rule that adds nothing closes all 2^17 subsets of 17 elements
    nothing = lambda x, done: 0
    assert sorted(_closed_sets(16, nothing)) == list(range(MAX_CLOSED_SETS))
    with pytest.raises(TooLarge, match=str(MAX_CLOSED_SETS)):
        _closed_sets(17, nothing)


@given(symmetric_rules(max_k=8), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_a_free_set_is_a_count_of_closed_sets(case, size):
    # every subset of the members the walk keeps is closed
    k, table = case
    if _has_free_set(k, table_row(table), size):
        assert len(list(_next_closure(k, table))) >= 2**size


def test_enumeration_guard():
    # (1, 18) has 17 indecomposables and every subset is closed
    with pytest.raises(TooLarge, match=str(MAX_CLOSED_SETS)):
        OrbitCategory(1, 18).torsion_classes()


@pytest.mark.parametrize(
    "n,m,limit",
    [(20, 20, MAX_CLOSED_SETS), (60, 3, MAX_CLOSED_SETS), (100, 12, MAX_CLOSED_SETS),
     (250, 2, MAX_ROW_CELLS)],
)
def test_a_free_set_refuses_before_any_listing(n, m, limit):
    # the first 17 objects have no middle term outside any of their pairs, so
    # all 2^17 of their subsets are torsion classes: the walk reads the four
    # rows of each frame, 68 rows, and at (250, 2) 68 rows pass the row budget
    cat = OrbitCategory(n, m)
    start = time.process_time()
    with pytest.raises(TooLarge, match=str(limit)):
        cat.torsion_classes()
    assert time.process_time() - start < 0.5
    assert len(cat._rows) == (67 if limit == MAX_ROW_CELLS else 68)


def test_enumeration_guard_work_follows_sets_visited():
    # 4180 objects: Hom rows of every object would take 4180 scans of all of
    # them; the free-set walk refuses after 68
    cat = OrbitCategory(20, 20)
    scans = []
    row = cat._row

    def counted(i):
        if i not in cat._rows:
            scans.append(i)
        return row(i)

    cat._row = counted
    # CPU time, so that other processes on the host do not count
    start = time.process_time()
    with pytest.raises(TooLarge, match=str(MAX_CLOSED_SETS)):
        cat.torsion_classes()
    assert time.process_time() - start < 2
    assert 0 < len(scans) == len(set(scans)) < len(cat.objects)


def test_runaway_closure_is_refused_by_the_row_budget():
    # 120 degree-0 and degree-1 simples close to all 5430 objects: up to 5430^2 Hom cells
    cat = OrbitCategory(60, 3)
    seed = [IntervalObject(d, i, i) for d in (0, 1) for i in range(1, 61)]
    start = time.process_time()
    with pytest.raises(TooLarge, match=str(MAX_ROW_CELLS)):
        cat.closure(seed)
    assert time.process_time() - start < 5
    assert len(cat._rows) * len(cat.objects) <= MAX_ROW_CELLS
    # the budget ends with the call: a point query may still scan a new row
    fresh = next(i for i in range(len(cat.objects)) if i not in cat._rows)
    assert cat.hom_dim(cat.objects[fresh], cat.objects[fresh]) == 1


def test_row_budget_is_charged_per_call():
    # every second simple: all 46 close to everything and are refused fresh
    seed = [IntervalObject(0, i, i) for i in range(1, 47, 2)]
    # 2116 objects: point queries read the rows of all but the first seed, past the budget
    cat = OrbitCategory(46, 2)
    for a in cat.objects:
        if a != seed[0]:
            cat.hom_dim(a, a)
    assert len(cat._rows) * len(cat.objects) > MAX_ROW_CELLS
    # the closure scans the one row left, and the rows cached before it cost it nothing
    assert cat.closure(seed) == OrbitCategory(46, 2).closure(seed)
    assert len(cat._rows) == len(cat.objects)


def _derived_scan(cat, i):
    """The targets of object i by the derived rule over the twists k = 0, 1: the reference row."""
    a = cat.objects[i]
    twist = cat.orbit_shift(a, -1)
    return sum(
        1 << j
        for j, b in enumerate(cat.objects)
        if db_hom_dim(cat.n, a, b) or db_hom_dim(cat.n, twist, b)
    )


@pytest.mark.parametrize(
    "n,m,sample",
    [(n, m, None) for n, m in sorted(set(SWEEP) | set(FROZEN_TORSION_COUNTS))]
    + [(20, 20, 30), (40, 3, 30), (60, 3, 30)],
)
def test_rows_are_the_derived_scan(n, m, sample):
    # every row of the small categories, and seeded rows past 2000 objects
    cat = OrbitCategory(n, m)
    k = len(cat.objects)
    rows = range(k) if sample is None else random.Random(k).sample(range(k), sample)
    for i in rows:
        assert cat._row(i) == _derived_scan(cat, i), cat.objects[i]


def test_rows_cost_runs_not_objects():
    # 62 500 objects: a derived scan of 20 rows takes about 0.7 s (2-CPU host)
    cat = OrbitCategory(250, 2)
    rows = random.Random(0).sample(range(len(cat.objects)), 20)
    start = time.process_time()
    for i in rows:
        cat._row(i)
    assert time.process_time() - start < 0.3


@pytest.mark.parametrize("n,m", SWEEP)
def test_ext_row_is_the_hom_row_of_the_inverse_translate(n, m):
    # Ext^1(j, i) = Hom(i, tau j): the bit of tau j in the row of i stays the reference
    cat = OrbitCategory(n, m)
    k = len(cat.objects)
    tau = [cat.objects.index(cat.tau(x)) for x in cat.objects]
    tau_inv = [tau.index(i) for i in range(k)]
    for i in range(k):
        out = cat._row(i)
        expected = sum(1 << j for j in range(k) if out >> tau[j] & 1)
        assert cat._row(tau_inv[i]) == expected
        # the Ext row ext_dim reads, of suspension^m i, is that row
        assert cat._suspended(i, m) == tau_inv[i]


@pytest.mark.parametrize("n,m", SWEEP)
def test_sources_are_the_targets_of_a_suspension(n, m):
    # Serre duality with S = suspension^(1-m): Hom(b, a) = D Hom(suspension^(m-1) a, b).
    # The derived scan of the sources of a, over the twists k = 0, 1, stays the reference.
    cat = OrbitCategory(n, m)
    for i, a in enumerate(cat.objects):
        twist = cat.orbit_shift(a, 1)
        sources = sum(
            1 << j
            for j, b in enumerate(cat.objects)
            if db_hom_dim(n, b, a) or db_hom_dim(n, b, twist)
        )
        assert cat._row(cat._suspended(i, m - 1)) == sources, a


@pytest.mark.parametrize("n,m", SWEEP)
def test_e_row_is_the_union_of_its_pair_cells(n, m):
    # the row of i with a set is the OR of its pair cells (its rows with one
    # member each, from a fresh category) and the meet of i's frames with the
    # opposite frames of the members
    cat, single = OrbitCategory(n, m), OrbitCategory(n, m)
    k = len(cat.objects)
    rng = random.Random(k)
    for i in range(k):
        ext_out, ext_in, starts, ends = cat._frame(i)
        for _ in range(3):
            done = rng.getrandbits(k) | 1 << i
            union = to_ends = to_starts = 0
            for j in _bits(done):
                union |= single._e_row(i, 1 << j)
                if ext_out >> j & 1:
                    to_ends |= cat._frame(j)[3]
                if ext_in >> j & 1:
                    to_starts |= cat._frame(j)[2]
            assert cat._e_row(i, done) == union == starts & to_ends | ends & to_starts


def _subset_scan(cat):
    """Sorted diagonal tuples of every subset closed under ``e_set``, by brute force."""
    objs = cat.objects
    k = len(objs)
    index = {x: i for i, x in enumerate(objs)}
    required = [[0] * k for _ in range(k)]
    for i, a in enumerate(objs):
        for j, b in enumerate(objs):
            for x in cat.e_set(a, b):
                required[i][j] |= 1 << index[x]
    out = []
    for mask in range(1 << k):
        members = [i for i in range(k) if mask >> i & 1]
        if all(not required[i][j] & ~mask for i in members for j in members):
            out.append(tuple(sorted(cat.to_diagonal(objs[i]) for i in members)))
    return sorted(out)


SCANNABLE = [
    (n, m) for n in range(1, 7) for m in range(2, 15) if m * n * (n + 1) // 2 - n <= 13
]


@pytest.mark.parametrize("n,m", SCANNABLE)
def test_enumeration_matches_subset_scan(n, m):
    cat = OrbitCategory(n, m)
    assert cat.torsion_classes() == _subset_scan(cat)


def _closed_families(cat):
    """Closed index sets under the extension rule and under the Ptolemy rule.

    Each family is a list of bitmasks in lectic order, so equal families are
    equal lists, and a repeated set would show in the count.
    """
    objs = cat.objects
    diags = [cat.to_diagonal(x) for x in objs]
    index = {x: i for i, x in enumerate(objs)}
    by_diag = {d: i for i, d in enumerate(diags)}
    eset = [[sum(1 << index[x] for x in cat.e_set(a, b)) for b in objs] for a in objs]
    ptol = [[sum(1 << by_diag[d] for d in cat.ptolemy(da, db)) for db in diags] for da in diags]
    k = len(objs)
    return _closed_sets(k, table_row(eset)), _closed_sets(k, table_row(ptol))


@pytest.mark.parametrize("n,m", [(5, 2), (3, 4), (2, 7), (4, 3)])
def test_theorem_b_past_subset_scan(n, m):
    # extension-closed = Ptolemy-closed beyond criterion 9's 2^16 subsets
    extension_closed, ptolemy_closed = _closed_families(OrbitCategory(n, m))
    assert extension_closed == ptolemy_closed
    assert len(extension_closed) == FROZEN_TORSION_COUNTS[(n, m)]


@pytest.mark.parametrize("n,m", sorted(FROZEN_TORSION_COUNTS))
def test_window_lattice_at_two_cuts_lists_torsion_classes(n, m):
    # a fourth Theorem B route, from the arc model alone: a set of m-diagonals
    # is a torsion class exactly when its lifts at cuts 0 and 1 are both
    # connector-closed sets of T_{1-m} arcs on [1, N]; it reads no Hom row,
    # no e_set and no polygon relation
    cat = OrbitCategory(n, m)
    w = 1 - m
    arcs = list(s.arcs_in_window(w, 1, cat.N))
    index = {a.vertices: x for x, a in enumerate(arcs)}
    table = [[0] * len(arcs) for _ in arcs]
    for (x, a), (y, b) in itertools.product(enumerate(arcs), repeat=2):
        for c in _connectors_ints(w, *a.vertices, *b.vertices)[1]:
            table[x][y] |= 1 << index[c.vertices]
    lattice = _closed_sets(len(arcs), table_row(table))
    read = []
    for cut in (0, 1):
        rank = [cat._rank[MDiagonal(*reversed(cat._lift(a.vertices, cut)))] for a in arcs]
        read.append({sum(1 << rank[x] for x in _bits(mask)) for mask in lattice})
    classes = [sum(1 << cat._rank[d] for d in cls) for cls in cat.torsion_classes()]
    assert sorted(read[0] & read[1]) == sorted(classes)
    # one cut misses the contacts across its edge, so the lattice alone is
    # larger, except on the 2-gon's one diagonal; at (3, 3), 1529 sets
    assert len(lattice) > len(classes) or (n, m) == (1, 2)
    assert (n, m) != (3, 3) or len(lattice) == 1529


def _galois_closure(cat):
    """X -> ⊥(X^⊥) on index bitmasks, from the Hom rows of ``_row``.

    X^⊥ is the objects no member of X maps to (the out-rows), and ⊥Y the
    objects that map to no member of Y (the in-rows).  The in-rows are the
    transposed out-rows, not rows of a suspension, so this route does not
    rest on the Serre duality the orbit layer reads its sources by.
    """
    k = len(cat.objects)
    full = (1 << k) - 1
    out_rows = [cat._row(i) for i in range(k)]
    in_rows = [sum(1 << i for i in range(k) if out_rows[i] >> j & 1) for j in range(k)]

    def close(x):
        reached = 0
        for i in _bits(x):
            reached |= out_rows[i]
        reaching = 0
        for j in _bits(full & ~reached):
            reaching |= in_rows[j]
        return full & ~reaching

    return close


def _galois_closed_sets(k, close):
    """Ganter's NextClosure over ``close`` on bitmasks: every fixed point, in lectic order."""
    current = close(0)
    out = []
    while True:
        out.append(current)
        for i in reversed(range(k)):
            below = (1 << i) - 1
            if not current >> i & 1:
                successor = close(current & below | 1 << i)
                if not successor & ~current & below:
                    current = successor
                    break
        else:
            return out


# the categories of the orbit_enumerate benchmark: at most 16 objects, n = 1 up to m = 12
ENUMERABLE = [
    (n, m)
    for n in range(1, 7)
    for m in range(2, 18)
    if m * n * (n + 1) // 2 - n <= 16 and (n > 1 or m <= 12)
]


@pytest.mark.parametrize("n,m", ENUMERABLE)
def test_galois_closure_lists_torsion_classes(n, m):
    # a third route: torsion classes of a finite category are the sets X with
    # X = ⊥(X^⊥), found from Hom alone, with no extension or middle term
    cat = OrbitCategory(n, m)
    masks = _galois_closed_sets(len(cat.objects), _galois_closure(cat))
    listed = sorted(tuple(cat.diagonals[i] for i in _bits(mask)) for mask in masks)
    assert listed == cat.torsion_classes()


@pytest.mark.parametrize("n,m", sorted(FROZEN_TORSION_COUNTS))
def test_torsion_classes_are_galois_fixed_points(n, m):
    cat = OrbitCategory(n, m)
    close = _galois_closure(cat)
    for cls in cat.torsion_classes():
        mask = 0
        for d in cls:
            mask |= 1 << cat._rank[d]
        assert close(mask) == mask, cls


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3)])
def test_closure_agrees_with_enumeration(n, m):
    cat = OrbitCategory(n, m)
    classes = {frozenset(cls) for cls in cat.torsion_classes()}
    # closure of any subset of a torsion class stays inside it, and closure
    # output is itself enumerated
    for cls in sorted(classes, key=len)[:40]:
        closed = cat.closure_diagonals(cls)
        assert frozenset(closed) in classes


def test_innerarc_consistency():
    # arcs strictly inside a defining arc map onto the diagonals, reversing
    # the vertex line; extensions push forward one way only
    for n, m in [(2, 2), (3, 2), (3, 3), (2, 3)]:
        cat = OrbitCategory(n, m)
        w = 1 - m
        length = m * (n + 1) - 1

        def image(a):
            flip = lambda v: ((-v) % cat.N) or cat.N
            i, j = flip(a.t), flip(a.u)
            return MDiagonal(min(i, j), max(i, j))

        inner = list(s.arcs_in_window(w, 1, length - 1))
        assert len(inner) == len(cat.objects)
        assert {image(a) for a in inner} == set(cat.diagonals)
        one_way = 0
        for x, y in itertools.product(inner, repeat=2):
            if s.ext_dim(y, x):
                assert cat.diagonal_ext_nonzero(image(y), image(x)), (n, m, x, y)
            elif cat.diagonal_ext_nonzero(image(y), image(x)):
                one_way += 1
        assert one_way > 0  # the converse genuinely fails
