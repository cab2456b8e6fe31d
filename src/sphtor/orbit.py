"""Negative Calabi-Yau orbit categories of the type-A derived category.

For ``m >= 2`` the orbit category is the bounded derived category of the
linearly oriented A_n quiver (arrows i+1 -> i) modulo the power
``suspension^m . translate``.  Indecomposables are interval modules with a
degree; a fundamental domain holds the degree 0..m-2 intervals plus the
degree m-1 non-injectives.  The polygon model labels them by the diagonals of
an N-gon, N = m(n+1) - 2, that cut it into pieces with vertex counts
divisible by m.  The derived-category construction is authoritative; the
polygon layer is a validated view (construction fails hard if the counts or
the rotation equivariance do not come out).  Torsion classes are the sets
closed under middle terms: ``closure`` closes one seed with the closure
module's ``_close``, and ``torsion_classes`` lists them all with its
``_closed_sets``, Close-by-One with an incremental closure loop of its own.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Tuple

from .arcs import _crossing_ints
from .closure import _close, _closed_sets
from .errors import NoExtension, ParamsMismatch, ValidationFailure


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


def db_serre(n: int, x: IntervalObject) -> IntervalObject:
    return db_suspend(db_translate(n, x))


def _circular_in_order(N: int, *vertices: int) -> bool:
    # weak clockwise circular order: repeated vertices allowed
    total = 0
    for cur, nxt in zip(vertices, vertices[1:] + vertices[:1]):
        total += (nxt - cur) % N
    return total == N or total == 0


class OrbitCategory:
    """The orbit category at parameters (n, m), with its polygon model.

    Construction enumerates the fundamental domain, the m-diagonals, and the
    rotation-equivariant bijection between them, and raises
    :class:`ValidationFailure` if any gate (counts, equivariance,
    bijectivity) fails.
    """

    def __init__(self, n: int, m: int):
        if n < 1:
            raise ValidationFailure("need n >= 1")
        if m < 2:
            raise ValidationFailure("need m >= 2 (weight w = 1 - m <= -1)")
        self.n = n
        self.m = m
        self.N = m * (n + 1) - 2
        self.objects: Tuple[IntervalObject, ...] = tuple(sorted(self._domain()))
        self.diagonals: Tuple[MDiagonal, ...] = tuple(sorted(self._all_diagonals()))
        self._to_diag: Dict[IntervalObject, MDiagonal] = {
            x: self._diagonal_formula(x) for x in self.objects
        }
        self._from_diag: Dict[MDiagonal, IntervalObject] = {
            d: x for x, d in self._to_diag.items()
        }
        self._hom_cache: Dict[Tuple[IntervalObject, IntervalObject], int] = {}
        self._tau_cache: Dict[IntervalObject, IntervalObject] = {}
        self._validate()

    # -- construction ---------------------------------------------------------

    def _domain(self) -> List[IntervalObject]:
        out = []
        for degree in range(self.m - 1):
            for lo in range(1, self.n + 1):
                for hi in range(lo, self.n + 1):
                    out.append(IntervalObject(degree, lo, hi))
        for lo in range(1, self.n + 1):
            for hi in range(lo, self.n):
                out.append(IntervalObject(self.m - 1, lo, hi))
        return out

    def is_m_diagonal(self, i: int, j: int) -> bool:
        if i == j:
            return False
        gap = (j - i) % self.N
        return gap % self.m == self.m - 1

    def _all_diagonals(self) -> List[MDiagonal]:
        return [
            MDiagonal(i, j)
            for i in range(1, self.N + 1)
            for j in range(i + 1, self.N + 1)
            if self.is_m_diagonal(i, j)
        ]

    def _wrap(self, v: int) -> int:
        return (v - 1) % self.N + 1

    def _diagonal_formula(self, x: IntervalObject) -> MDiagonal:
        base = x.degree + self.m * (x.lo - 1)
        i = self._wrap(1 + base)
        j = self._wrap((x.hi - x.lo + 1) * self.m + base)
        return MDiagonal(min(i, j), max(i, j))

    def _validate(self) -> None:
        if len(self.objects) != len(self.diagonals):
            raise ValidationFailure(
                f"count gate failed at (n={self.n}, m={self.m}): "
                f"{len(self.objects)} objects vs {len(self.diagonals)} diagonals"
            )
        image = set(self._to_diag.values())
        if image != set(self.diagonals):
            raise ValidationFailure("object-to-diagonal map is not a bijection")
        for x in self.objects:
            if self.rotate(self._to_diag[x], 1) != self._to_diag[self.sigma(x)]:
                raise ValidationFailure(f"suspension equivariance fails at {x}")
            if self.rotate(self._to_diag[x], -self.m) != self._to_diag[self.tau(x)]:
                raise ValidationFailure(f"translate equivariance fails at {x}")

    # -- normal forms and functors --------------------------------------------

    def _in_domain(self, x: IntervalObject) -> bool:
        if 0 <= x.degree <= self.m - 2:
            return True
        return x.degree == self.m - 1 and x.hi <= self.n - 1

    def orbit_shift(self, x: IntervalObject, k: int = 1) -> IntervalObject:
        """Apply the k-th power of the orbit functor in derived coordinates."""
        for _ in range(abs(k)):
            if k > 0:
                x = db_suspend(db_translate(self.n, x), self.m)
            else:
                x = db_translate_inv(self.n, db_suspend(x, -self.m))
        return x

    def normalize(self, x: IntervalObject) -> IntervalObject:
        """Fundamental-domain representative of an arbitrary derived object."""
        while not self._in_domain(x):
            x = self.orbit_shift(x, -1 if x.degree >= self.m - 1 else 1)
        return x

    def sigma(self, x: IntervalObject) -> IntervalObject:
        return self.normalize(db_suspend(x))

    def tau(self, x: IntervalObject) -> IntervalObject:
        cached = self._tau_cache.get(x)
        if cached is None:
            cached = self._tau_cache[x] = self.normalize(db_translate(self.n, x))
        return cached

    def serre(self, x: IntervalObject) -> IntervalObject:
        return self.normalize(db_serre(self.n, x))

    def _require(self, x: IntervalObject) -> None:
        if x not in self._to_diag:
            raise ParamsMismatch(f"{x} is not an object of C_{self.m}(A_{self.n})")

    # -- hom and ext -----------------------------------------------------------

    def hom_dim(self, a: IntervalObject, b: IntervalObject) -> int:
        """dim Hom: derived Hom into the orbit-functor twists k = 0 and 1."""
        key = (a, b)
        cached = self._hom_cache.get(key)
        if cached is None:
            self._require(a)
            self._require(b)
            cached = db_hom_dim(self.n, a, b) + db_hom_dim(
                self.n, a, self.orbit_shift(b, 1)
            )
            self._hom_cache[key] = cached
        return cached

    def ext_dim(self, b: IntervalObject, a: IntervalObject) -> int:
        """dim Ext^1(b, a) via the AR formula against the translate of b."""
        return self.hom_dim(a, self.tau(b))

    def frames(self, a: IntervalObject) -> Tuple[FrozenSet[IntervalObject], FrozenSet[IntervalObject]]:
        """Starting and ending frames: Hom-reachable, Ext-rigid neighbourhoods."""
        self._require(a)
        starts = frozenset(
            b for b in self.objects if self.hom_dim(a, b) and not self.ext_dim(b, a)
        )
        ends = frozenset(
            b for b in self.objects if self.hom_dim(b, a) and not self.ext_dim(a, b)
        )
        return starts, ends

    def middle_term(self, a: IntervalObject, b: IntervalObject) -> Tuple[IntervalObject, ...]:
        """Middle summands of the unique non-split extension of b by a."""
        if self.ext_dim(b, a) == 0:
            raise NoExtension(f"Ext^1({b},{a}) = 0 in C_{self.m}(A_{self.n})")
        # the starting frame of a met with the ending frame of b, in one scan
        return tuple(sorted(
            x for x in self.objects
            if self.hom_dim(a, x) and self.hom_dim(x, b)
            and not self.ext_dim(x, a) and not self.ext_dim(b, x)
        ))

    def e_set(self, a: IntervalObject, b: IntervalObject) -> FrozenSet[IntervalObject]:
        out = set()
        if self.ext_dim(b, a):
            out.update(self.middle_term(a, b))
        if self.ext_dim(a, b):
            out.update(self.middle_term(b, a))
        out.discard(a)
        out.discard(b)
        return frozenset(out)

    # -- polygon layer ----------------------------------------------------------

    def to_diagonal(self, x: IntervalObject) -> MDiagonal:
        self._require(x)
        return self._to_diag[x]

    def from_diagonal(self, d: MDiagonal) -> IntervalObject:
        try:
            return self._from_diag[d]
        except KeyError:
            raise ParamsMismatch(f"{d} is not an m-diagonal for (n={self.n}, m={self.m})") from None

    def rotate(self, d: MDiagonal, k: int) -> MDiagonal:
        i, j = self._wrap(d.i + k), self._wrap(d.j + k)
        return MDiagonal(min(i, j), max(i, j))

    def tau_diag(self, d: MDiagonal) -> MDiagonal:
        return self.rotate(d, -self.m)

    def diagonal_hom_nonzero(self, da: MDiagonal, db: MDiagonal) -> bool:
        """Circular-order Hom rule on diagonals (independent of db_hom_dim)."""
        a1, a2 = da
        for b1, b2 in ((db.i, db.j), (db.j, db.i)):
            d1 = (b1 - a2) % self.N
            d2 = (b2 - a1) % self.N
            if d1 % self.m == 0 and d2 % self.m == 0 and _circular_in_order(
                self.N, a2, b1, a1, b2
            ):
                return True
        return False

    def diagonal_ext_nonzero(self, db: MDiagonal, da: MDiagonal) -> bool:
        """Arc-level Ext rule on diagonals (independent of db_hom_dim).

        Extensions of ``db`` by ``da`` exist exactly at: a neighbour touching
        the clockwise successor of either endpoint of ``da``; a crossing
        whose endpoints differ from ``da``'s by multiples of m; or ``db``
        the rotation of ``da`` by one.
        """
        a1, a2 = da
        if db == self.rotate(da, 1):
            return True
        if self.diagonals_cross(da, db):
            for b1, b2 in ((db.i, db.j), (db.j, db.i)):
                d1 = (b1 - a2) % self.N
                d2 = (b2 - a1) % self.N
                if (
                    d1 % self.m == 0
                    and d2 % self.m == 0
                    and d1 >= self.m
                    and d2 >= self.m
                    and _circular_in_order(
                        self.N,
                        self._wrap(a2 + self.m),
                        b1,
                        self._wrap(a1 + self.m),
                        b2,
                    )
                ):
                    return True
            return False
        if {da.i, da.j} & {db.i, db.j}:
            return False
        # with no shared vertex, touching a successor is circular distance 1
        return self._wrap(a1 + 1) in (db.i, db.j) or self._wrap(a2 + 1) in (db.i, db.j)

    def diagonals_cross(self, da: MDiagonal, db: MDiagonal) -> bool:
        # chords of a polygon labelled 1..N cross exactly when their endpoints
        # interleave on the line
        return _crossing_ints(da.i, da.j, db.i, db.j)

    def ptolemy(self, da: MDiagonal, db: MDiagonal) -> FrozenSet[MDiagonal]:
        """Connector diagonals of a pair, filtered to m-diagonals.

        Crossing pairs contribute the class-I connectors; neighbouring pairs
        (non-crossing, circular distance one) the class-II connectors; all
        other pairs contribute nothing.
        """
        if da == db:
            return frozenset()
        out = set()
        if self.diagonals_cross(da, db):
            vertices = {da.i, da.j, db.i, db.j}
            for x, y in itertools.combinations(sorted(vertices), 2):
                if {x, y} in ({da.i, da.j}, {db.i, db.j}):
                    continue
                if self.is_m_diagonal(x, y):
                    out.add(MDiagonal(x, y))
            return frozenset(out)
        if {da.i, da.j} & {db.i, db.j}:
            return frozenset()
        endpoints = [da.i, da.j, db.i, db.j]
        for p, q in itertools.product((da.i, da.j), (db.i, db.j)):
            if min((p - q) % self.N, (q - p) % self.N) != 1:
                continue
            rest = list(endpoints)
            rest.remove(p)
            rest.remove(q)
            if self.is_m_diagonal(rest[0], rest[1]):
                out.add(MDiagonal(min(rest), max(rest)))
        return frozenset(out)

    # -- closure and enumeration ------------------------------------------------

    def closure(self, seed: Iterable[IntervalObject]) -> FrozenSet[IntervalObject]:
        """Least extension-closed object set containing the seed."""
        seed = list(seed)
        for x in seed:
            self._require(x)
        return _close(seed, self.e_set)

    def closure_diagonals(self, seed: Iterable[MDiagonal]) -> FrozenSet[MDiagonal]:
        objs = self.closure(self.from_diagonal(d) for d in seed)
        return frozenset(self.to_diagonal(x) for x in objs)

    def torsion_classes(self) -> List[Tuple[MDiagonal, ...]]:
        """All torsion classes, as sorted diagonal tuples in lexicographic order.

        Every extension-closed subset qualifies (the category is finite, so
        approximations exist for free).  Close-by-One lists them over
        ``e_set`` on object indices, or raises ``TooLarge`` past 2^16.
        ``e_set`` is called once per unordered pair the enumeration reaches,
        so the work before ``TooLarge`` follows the sets visited, not the
        object count.
        """
        objs = self.objects
        index = {x: i for i, x in enumerate(objs)}
        diagonals = [self.to_diagonal(x) for x in objs]
        classes = _closed_sets(
            len(objs), lambda i, j: [index[x] for x in self.e_set(objs[i], objs[j])]
        )
        return sorted(tuple(sorted(diagonals[i] for i in cls)) for cls in classes)
