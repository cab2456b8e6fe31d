"""Negative Calabi-Yau orbit categories of the type-A derived category.

For ``m >= 2`` the orbit category is the bounded derived category of the
linearly oriented A_n quiver (arrows i+1 -> i) modulo the power
``suspension^m . translate``.  Indecomposables are interval modules with a
degree; a fundamental domain holds the degree 0..m-2 intervals plus the
degree m-1 non-injectives.  The polygon model labels them by the diagonals of
an N-gon, N = m(n+1) - 2, that cut it into pieces with vertex counts
divisible by m.  The derived-category construction is authoritative; the
bijection is checked at construction (it fails hard if the counts or the
rotation equivariance do not come out).  On diagonals the relations are the
T_{1-m} kernels read at two fixed cuts: the m-diagonals are the arcs on the
line 1..N at weight w = 1 - m, ``_lift(d, s)`` places a diagonal on that line
cut open at the polygon edge {s, s + 1}, and a cut hides only the contacts
across its edge, so every contact of a pair shows at cut 0 or cut 1.  There
is one index space: the domain listed in (lo, degree, hi) order is in the
order of the diagonals its objects lie on, so object i lies on
``diagonals[i]``, the i-th diagonal in sorted order.  On objects, Hom is
decided once per object: ``_row`` reads the rectangles of the derived rule as
runs of indices and caches the targets as a bitmask over them; a closure or
an enumeration is refused once its new rows pass ``MAX_ROW_CELLS`` cells,
rows times objects.  The category is
(1-m)-Calabi-Yau, its Serre functor is suspension^(1-m), and the suspension
rotates diagonals by +1, so every other row is the row of a suspension: the
sources of i are the targets of suspension^(m-1) i, and the j with
Ext^1(j, i) nonzero are the targets of suspension^m i.  ``hom_dim`` and
``ext_dim`` read one bit of a row.  ``_frame`` keeps, per object, its two
Ext rows and its starting and ending frames, each a mask of Hom rows.  The
middles of an extension are the starting frame of one object met with the
ending frame of the other, so ``_e_row(i, done)`` pairs object i with the
members the closure loop has already taken, i included: it meets the frames
of i with the opposite frames of the members its Ext rows hit.  Torsion
classes are the sets closed under middle terms, and ``_e_row`` is the row
of the closure module's one loop: ``closure`` closes one seed with
``_close``, and ``torsion_classes`` lists every closed set with
``_closed_sets`` (lazy FCbO) as bitmasks over the same indices, which byte
tables of sorted diagonal tuples turn into classes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

from .arcs import _crossing_ints, arcs_in_window, is_admissible
from .closure import _close, _closed_sets
from .errors import NoExtension, ParamsMismatch, TooLarge, ValidationFailure
from .extensions import _connectors_ints
from .hammocks import _ext_arc_nonzero_ints, _hom_nonzero_ints

MAX_OBJECTS = 1 << 16  # checked before the fundamental domain is built
MAX_ROW_CELLS = 1 << 22  # Hom cells one closure or enumeration may scan: rows times objects

_Frame = Tuple[int, int, int, int]  # ext_out, ext_in, starts, ends as bitmasks


class IntervalObject(NamedTuple):
    """A (de)suspended interval module: degree ``k`` on the interval [lo, hi]."""

    degree: int
    lo: int
    hi: int

    def __str__(self) -> str:
        return f"M[{self.lo},{self.hi}]@{self.degree}"


class MDiagonal(NamedTuple):
    """Polygon diagonal {i, j} with representatives 1 <= i < j <= N."""

    i: int
    j: int

    def __str__(self) -> str:
        return f"{{{self.i},{self.j}}}"


def db_hom_dim(n: int, x: IntervalObject, y: IntervalObject) -> int:
    """Hom dimension in the derived category of the A_n quiver.

    Degree gap zero is the interval-overlap rule for module maps, gap one the
    translate-shifted rule for first extensions; all other gaps vanish by
    heredity.
    """
    gap = y.degree - x.degree
    if gap == 0:
        return int(x.lo <= y.lo <= x.hi <= y.hi)
    if gap == 1:
        return int(y.lo <= x.lo - 1 <= y.hi <= x.hi - 1)
    return 0


def db_suspend(x: IntervalObject, k: int = 1) -> IntervalObject:
    return IntervalObject(x.degree + k, x.lo, x.hi)


def db_translate(n: int, x: IntervalObject) -> IntervalObject:
    """AR translate; projectives wrap to desuspended injectives."""
    if x.lo >= 2:
        return IntervalObject(x.degree, x.lo - 1, x.hi - 1)
    return IntervalObject(x.degree - 1, x.hi, n)


def db_translate_inv(n: int, x: IntervalObject) -> IntervalObject:
    if x.hi <= n - 1:
        return IntervalObject(x.degree, x.lo + 1, x.hi + 1)
    return IntervalObject(x.degree + 1, 1, x.lo)


def _check_params(n: int, m: int) -> None:
    """Raise ``ValidationFailure`` unless n >= 1 and m >= 2."""
    if n < 1:
        raise ValidationFailure("need n >= 1")
    if m < 2:
        raise ValidationFailure("need m >= 2 (weight w = 1 - m <= -1)")


def _check_diagonal(n: int, m: int, d: MDiagonal) -> None:
    """Raise ``ParamsMismatch`` unless ``d`` is an m-diagonal of C_m(A_n), without building it.

    The m-diagonals are the T_{1-m} arcs on the vertex line 1..N, the
    predicate ``OrbitCategory.diagonals`` is listed by.
    """
    i, j = d
    if not (1 <= i < j <= m * (n + 1) - 2 and is_admissible(1 - m, i, j)):
        raise ParamsMismatch(f"{d} is not an m-diagonal for (n={n}, m={m})")


def _bits(mask: int) -> List[int]:
    """The indices of the set bits of a mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class OrbitCategory:
    """The orbit category at parameters (n, m), with its polygon model.

    Construction refuses more than ``MAX_OBJECTS`` objects with
    :class:`TooLarge` before it builds any.  It lists the fundamental domain
    in (lo, degree, hi) order, which is the order of the diagonals its
    objects lie on, and the m-diagonals, sorted, so object i lies on
    ``diagonals[i]``; it raises :class:`ValidationFailure` if that is not a
    bijection or not rotation-equivariant.
    """

    def __init__(self, n: int, m: int):
        _check_params(n, m)
        count = m * n * (n + 1) // 2 - n
        if count > MAX_OBJECTS:
            raise TooLarge(f"refusing C_{m}(A_{n}): {count} objects, more than {MAX_OBJECTS}")
        self.n = n
        self.m = m
        self.N = m * (n + 1) - 2
        # (lo, degree, hi) order is the diagonal order: object i lies on diagonal i
        self.objects: Tuple[IntervalObject, ...] = tuple(
            IntervalObject(degree, lo, hi)
            for lo in range(1, n + 1)
            for degree in range(m)
            for hi in range(lo, n if degree == m - 1 else n + 1)
        )
        # the m-diagonals are the T_{1-m} arcs on the vertex line
        self.diagonals: Tuple[MDiagonal, ...] = tuple(
            sorted(MDiagonal(a.u, a.t) for a in arcs_in_window(1 - m, 1, self.N))
        )
        self._index: Dict[IntervalObject, int] = {x: i for i, x in enumerate(self.objects)}
        self._rank: Dict[MDiagonal, int] = {d: i for i, d in enumerate(self.diagonals)}
        self._rows: Dict[int, int] = {}
        self._row_start: Optional[int] = None  # rows cached when a budgeted call began
        self._frames: List[Optional[_Frame]] = [None] * len(self.objects)
        self._validate([self._diagonal_formula(x) for x in self.objects])

    # -- construction ---------------------------------------------------------

    def _diagonal_formula(self, x: IntervalObject) -> MDiagonal:
        """The diagonal of a domain object M[lo, hi]@d: {1 + d + m(lo - 1), d + m hi}.

        No end wraps: i <= 1 + (m - 1) + m(n - 1) = mn <= N, j <= N (hi <= n
        below degree m - 1, hi <= n - 1 at it), and j - i = m(hi - lo + 1) - 1
        >= 1.  As 0 <= d <= m - 1, i grows with (lo, d) and then j with hi,
        so the domain in (lo, degree, hi) order is in diagonal order, which
        ``_validate`` checks.
        """
        return MDiagonal(1 + x.degree + self.m * (x.lo - 1), x.degree + self.m * x.hi)

    def _validate(self, formula: List[MDiagonal]) -> None:
        """The gates, given the diagonal ``_diagonal_formula`` puts each object on, in order."""
        if formula != list(self.diagonals):
            raise ValidationFailure(
                f"object-to-diagonal map is not a bijection at (n={self.n}, m={self.m}): "
                f"{len(formula)} objects, {len(self.diagonals)} diagonals"
            )
        for i, x in enumerate(self.objects):
            if self.rotate(self.diagonals[i], 1) != self.to_diagonal(self.sigma(x)):
                raise ValidationFailure(f"suspension equivariance fails at {x}")
            if self.rotate(self.diagonals[i], -self.m) != self.to_diagonal(self.tau(x)):
                raise ValidationFailure(f"translate equivariance fails at {x}")

    # -- normal forms and functors --------------------------------------------

    def _in_domain(self, x: IntervalObject) -> bool:
        if 0 <= x.degree <= self.m - 2:
            return True
        return x.degree == self.m - 1 and x.hi <= self.n - 1

    def orbit_shift(self, x: IntervalObject, k: int = 1) -> IntervalObject:
        """Apply the k-th power of the orbit functor in derived coordinates.

        On the derived category of A_n, translate^(n+1) = suspension^-2, so
        F^(n+1) = suspension^N: whole multiples of n + 1 (k truncated toward
        zero) are one suspension, and at most n steps remain.
        """
        q, steps = divmod(abs(k), self.n + 1)
        if q:
            x = db_suspend(x, self.N * q if k > 0 else -self.N * q)
        for _ in range(steps):
            if k > 0:
                x = db_suspend(db_translate(self.n, x), self.m)
            else:
                x = db_translate_inv(self.n, db_suspend(x, -self.m))
        return x

    def normalize(self, x: IntervalObject) -> IntervalObject:
        """Fundamental-domain representative of an arbitrary derived object.

        Suspension^N is F^(n+1) (see ``orbit_shift``), so a degree outside
        -1..N-2 is first taken into that range mod N, and the loop takes O(n)
        steps whatever the degree.
        """
        if not -1 <= x.degree <= self.N - 2:
            x = IntervalObject((x.degree + 1) % self.N - 1, x.lo, x.hi)
        while not self._in_domain(x):
            x = self.orbit_shift(x, -1 if x.degree >= self.m - 1 else 1)
        return x

    def sigma(self, x: IntervalObject) -> IntervalObject:
        return self.normalize(db_suspend(x))

    def tau(self, x: IntervalObject) -> IntervalObject:
        return self.normalize(db_translate(self.n, x))

    def serre(self, x: IntervalObject) -> IntervalObject:
        return self.normalize(db_suspend(db_translate(self.n, x)))

    def _idx(self, x: IntervalObject) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise ParamsMismatch(f"{x} is not an object of C_{self.m}(A_{self.n})") from None

    # -- hom and ext: one cached row per object ----------------------------------

    def _row(self, i: int) -> int:
        """The objects object i maps to, as a bitmask over indices.

        Orbit Hom is the derived Hom into the orbit-functor twists k = 0 and
        1 (the others vanish).  F is an autoequivalence of the derived
        category, so Hom(a, F b) = Hom(F^-1 a, b), and the row is the targets
        of x = a and x = F^-1 a by :func:`db_hom_dim`: the M[lo, hi]@d with
        x.lo <= lo <= x.hi <= hi, and the M[lo, hi]@(d + 1) with lo <= x.lo - 1
        <= hi <= x.hi - 1, d the degree of x.  In the domain's (lo, degree, hi)
        order each rectangle is one run of indices per lo, cut at hi <= n - 1
        in degree m - 1, so a row is at most 2n runs.  Every other row is the
        row of a suspension (see ``_frame``).  Cached.  Inside ``_budgeted``,
        a row that would take the rows cached since it began past
        ``MAX_ROW_CELLS`` cells, rows times objects, raises ``TooLarge``;
        point queries are not budgeted.
        """
        row = self._rows.get(i)
        if row is None:
            if self._row_start is not None:
                rows, k = len(self._rows) - self._row_start + 1, len(self.objects)
                if rows * k > MAX_ROW_CELLS:
                    raise TooLarge(
                        f"refusing to scan more than {MAX_ROW_CELLS} Hom cells of "
                        f"C_{self.m}(A_{self.n}) in one call: {rows} rows of {k} objects"
                    )
            row, a, n = 0, self.objects[i], self.n
            for x in (a, self.orbit_shift(a, -1)):
                # (degree, lo, first, last): the run of M[lo, hi]@degree, first <= hi <= last
                runs = [(x.degree, lo, x.hi, n) for lo in range(x.lo, x.hi + 1)]
                runs += [(x.degree + 1, lo, x.lo - 1, x.hi - 1) for lo in range(1, x.lo)]
                for d, lo, first, last in runs:
                    # None when degree d or M[lo, first]@d lies outside the domain
                    start = self._index.get(IntervalObject(d, lo, first))
                    if start is not None:
                        top = min(last, n - 1 if d == self.m - 1 else n)
                        row |= ((2 << top - first) - 1) << start
            self._rows[i] = row
        return row

    def _suspended(self, i: int, k: int) -> int:
        """The index of the k-th suspension of object i: its diagonal rotated by k."""
        return self._rank[self.rotate(self.diagonals[i], k)]

    def hom_dim(self, a: IntervalObject, b: IntervalObject) -> int:
        """dim Hom(a, b): bit b of ``_row`` of a, the targets of a.

        The bit is the whole dimension.  Hom(a, b) is the sum of the derived
        Homs from a into b and into F b = suspension^m tau b, and each needs
        a degree gap of 0 or 1.  F b has degree d_b + m, or d_b + m - 1 when
        b.lo = 1, so both terms can be nonzero only at m = 2, d_a = d_b,
        b.lo = 1, with F b = M[b.hi, n]@(d_b + 1).  Then Hom(a, b) needs
        a.lo = 1, and Hom(a, F b) needs b.hi <= a.lo - 1 = 0, which fails.
        """
        return self._row(self._idx(a)) >> self._idx(b) & 1

    def ext_dim(self, b: IntervalObject, a: IntervalObject) -> int:
        """dim Ext^1(b, a) = dim Hom(suspension^m a, b): bit b of the row of suspension^m a.

        Ext^1(b, a) = Hom(b, suspension a), dual to Hom(suspension a, S b) by
        Serre duality, and S = suspension^(1-m).
        """
        return self._row(self._suspended(self._idx(a), self.m)) >> self._idx(b) & 1

    def _frame(self, i: int) -> _Frame:
        """``(ext_out, ext_in, starts, ends)`` of object i as bitmasks, cached.

        Every mask is read off the row of a suspension of i.  The Serre
        functor is S = suspension^(1-m), so Hom(j, i) = D Hom(i, S j) =
        D Hom(suspension^(m-1) i, j): the sources of i are the targets of
        suspension^(m-1) i.  ``ext_out`` holds the j with Ext^1(j, i) =
        Hom(suspension^m i, j) nonzero (see ``ext_dim``), ``ext_in`` the j
        with Ext^1(i, j) = Hom(i, suspension j) = Hom(suspension^-1 i, j)
        nonzero.  The starting frame keeps the targets of i with no extension
        by i, and the ending frame the sources of i with no extension of i.
        """
        frame = self._frames[i]
        if frame is None:
            row, m = self._row, self.m
            ext_out = row(self._suspended(i, m))
            ext_in = row(self._suspended(i, -1))
            starts = row(i) & ~ext_out
            ends = row(self._suspended(i, m - 1)) & ~ext_in
            frame = self._frames[i] = (ext_out, ext_in, starts, ends)
        return frame

    def _e_row(self, i: int, done: int) -> int:
        """The ``e_set`` of object i with every object of ``done``, as a bitmask.

        The row of the closure loop: ``done`` holds i and the members taken
        before it.  The middles of the extension of j by i are the starting
        frame of i met with the ending frame of j, so the ending frames of the
        objects of ``done`` that i extends meet its starting frame, and the
        starting frames of those extending i meet its ending frame.  The bit
        loop is inlined: with a generator and a call per partner,
        ``torsion_classes`` at (2, 6) ran a fifth slower or more (best of 7,
        2-CPU host).
        """
        frames = self._frames
        ext_out, ext_in, starts, ends = frames[i] or self._frame(i)
        to_ends = to_starts = 0
        pick = done & (ext_out | ext_in)
        while pick:
            low = pick & -pick
            j = low.bit_length() - 1
            other = frames[j] or self._frame(j)
            if ext_out & low:
                to_ends |= other[3]
            if ext_in & low:
                to_starts |= other[2]
            pick ^= low
        return starts & to_ends | ends & to_starts

    def _objects_in(self, mask: int) -> List[IntervalObject]:
        """The objects of a bitmask, in the order of ``self.objects`` (by diagonal)."""
        return [self.objects[j] for j in _bits(mask)]

    def frames(self, a: IntervalObject) -> Tuple[FrozenSet[IntervalObject], FrozenSet[IntervalObject]]:
        """Starting and ending frames: Hom-reachable, Ext-rigid neighbourhoods."""
        _, _, starts, ends = self._frame(self._idx(a))
        return frozenset(self._objects_in(starts)), frozenset(self._objects_in(ends))

    def middle_term(self, a: IntervalObject, b: IntervalObject) -> Tuple[IntervalObject, ...]:
        """Middle summands of the unique non-split extension of b by a."""
        i, j = self._idx(a), self._idx(b)
        ext_out, _, starts, _ = self._frame(i)
        if not ext_out >> j & 1:
            raise NoExtension(f"Ext^1({b},{a}) = 0 in C_{self.m}(A_{self.n})")
        return tuple(self._objects_in(starts & self._frame(j)[3]))

    def e_set(self, a: IntervalObject, b: IntervalObject) -> FrozenSet[IntervalObject]:
        """Middle summands of the extensions in both directions, minus a and b."""
        i, j = self._idx(a), self._idx(b)
        return frozenset(self._objects_in(self._e_row(i, 1 << j) & ~(1 << i | 1 << j)))

    # -- polygon layer ----------------------------------------------------------

    def to_diagonal(self, x: IntervalObject) -> MDiagonal:
        return self.diagonals[self._idx(x)]

    def _rank_of(self, d: MDiagonal) -> int:
        if d not in self._rank:
            _check_diagonal(self.n, self.m, d)  # raises: the ranks hold every m-diagonal
        return self._rank[d]

    def from_diagonal(self, d: MDiagonal) -> IntervalObject:
        return self.objects[self._rank_of(d)]

    def rotate(self, d: MDiagonal, k: int) -> MDiagonal:
        i, j = (d.i + k - 1) % self.N + 1, (d.j + k - 1) % self.N + 1
        return MDiagonal(min(i, j), max(i, j))

    def _lift(self, d: Tuple[int, int], s: int) -> Tuple[int, int]:
        """The chord ``d`` as the T_{1-m} arc ``(t, u)`` on the line 1..N at cut ``s``.

        The map v -> (s - v) mod N + 1 is a rotation followed by a reflection
        and its own inverse, so it also maps an arc back to its chord.  The
        reflection turns the rotation by +1 (the suspension on diagonals)
        into the shift by -1 (the suspension on arcs).  It sends vertex s
        (N when s = 0) to 1 and vertex s + 1 to N, and keeps every other pair
        of neighbours at distance 1, so the lift hides the contacts across
        the polygon edge {s, s + 1} and no crossing.
        """
        i, j = ((s - v) % self.N + 1 for v in d)
        return max(i, j), min(i, j)

    def diagonal_hom_nonzero(self, da: MDiagonal, db: MDiagonal) -> bool:
        """Hom on diagonals: the T_{1-m} Hom kernel at cut 0 (independent of db_hom_dim).

        The kernel gives the same answer at every cut.  Raises
        ``ParamsMismatch`` unless both are m-diagonals, as do ``ptolemy`` and
        ``diagonal_ext_nonzero``.
        """
        self._rank_of(da), self._rank_of(db)
        return _hom_nonzero_ints(1 - self.m, *self._lift(da, 0), *self._lift(db, 0))

    def diagonal_ext_nonzero(self, db: MDiagonal, da: MDiagonal) -> bool:
        """Ext^1(db, da) on diagonals: the T_{1-m} Ext kernel at cut 0 or cut 1.

        No cut over-reports, and a cut hides only the contacts across its
        edge, so every extension but one shows at cut 0 or cut 1.
        Ext^1(suspension da, da) is never zero, and the kernel reads it as a
        shift of both ends by -1; for da = {1, N}, an m-diagonal at m = 2
        only (the 2-gon's included), that shift crosses both hidden edges,
        so the rotation clause answers it.
        """
        self._rank_of(da), self._rank_of(db)
        return db == self.rotate(da, 1) or any(
            _ext_arc_nonzero_ints(1 - self.m, *self._lift(da, s), *self._lift(db, s)) for s in (0, 1)
        )

    def diagonals_cross(self, da: MDiagonal, db: MDiagonal) -> bool:
        # chords of a polygon labelled 1..N cross exactly when their endpoints
        # interleave on the line
        return _crossing_ints(da.i, da.j, db.i, db.j)

    def ptolemy(self, da: MDiagonal, db: MDiagonal) -> FrozenSet[MDiagonal]:
        """Connector diagonals of a pair: the T_{1-m} connectors at cuts 0 and 1, mapped back.

        Each connector of the pair lives on one contact or crossing, and
        every one shows at one of the two cuts.
        """
        self._rank_of(da), self._rank_of(db)
        out = set()
        for s in (0, 1):
            for c in _connectors_ints(1 - self.m, *self._lift(da, s), *self._lift(db, s))[1]:
                t, u = self._lift(c.vertices, s)
                out.add(MDiagonal(u, t))
        return frozenset(out) - {da, db}

    # -- closure and enumeration ------------------------------------------------

    def _budgeted(self, run, *args):
        """``run(*args)``, with ``_row`` refusing past ``MAX_ROW_CELLS`` new cells."""
        self._row_start = len(self._rows)
        try:
            return run(*args)
        finally:
            self._row_start = None

    def closure(self, seed: Iterable[IntervalObject]) -> FrozenSet[IntervalObject]:
        """Least extension-closed object set containing the seed.

        Raises ``TooLarge`` rather than scan more than ``MAX_ROW_CELLS`` Hom
        cells it has not cached before.
        """
        mask = self._budgeted(_close, [self._idx(x) for x in seed], self._e_row, len(self.objects))
        return frozenset(self._objects_in(mask))

    def closure_diagonals(self, seed: Iterable[MDiagonal]) -> FrozenSet[MDiagonal]:
        """Least extension-closed diagonal set containing the seed, closed on diagonal ranks.

        Same row budget as ``closure``.
        """
        ranks = [self._rank_of(d) for d in seed]
        mask = self._budgeted(_close, ranks, self._e_row, len(self.diagonals))
        return frozenset([self.diagonals[i] for i in _bits(mask)])

    def torsion_classes(self) -> List[Tuple[MDiagonal, ...]]:
        """All torsion classes, as sorted diagonal tuples in lexicographic order.

        Every extension-closed subset qualifies (the category is finite, so
        approximations exist for free).  Lazy FCbO lists them as bitmasks
        over object indices.  Object i lies on ``diagonals[i]``, so byte b of
        a mask, read in a table of the 256 sorted diagonal tuples of the
        objects 8b..8b+7, gives that byte's share of the class in order, and
        a class is the concatenation of its bytes' tuples.  The tables are
        built once the enumeration has returned, and the list is sorted once:
        sorting the masks by an int lexicographic-rank key, or one ``sorted``
        over tuples built per class, took two to three times as long at (2, 6)
        and (4, 3) (2-CPU host).
        Past 2^16 classes, or ``MAX_ROW_CELLS`` Hom cells not cached before
        the call, it raises ``TooLarge``.  Past 16 objects a walk runs first
        (``closure._has_free_set``): it takes objects in index order whose
        pairs have no middle term outside the pair, and refuses at 17 of
        them, whose 2^17 subsets are all torsion classes, before FCbO lists
        any.  At (20, 20), (60, 3) and (100, 12) the first 17 objects
        qualify, so the refusal reads their frames, 68 Hom rows; at
        (250, 2) those rows pass ``MAX_ROW_CELLS``.  The rows read only the
        frames of objects the walk or the enumeration reaches, not all k.
        """
        masks = self._budgeted(_closed_sets, len(self.objects), self._e_row)
        tables = []
        for low in range(0, len(self.objects), 8):
            table: List[Tuple[MDiagonal, ...]] = [()]
            for d in self.diagonals[low : low + 8]:
                table += [cls + (d,) for cls in table]
            tables.append(table)
        classes = []
        for mask in masks:
            cls: Tuple[MDiagonal, ...] = ()
            for table in tables:
                cls += table[mask & 255]
                mask >>= 8
            classes.append(cls)
        classes.sort()
        return classes
