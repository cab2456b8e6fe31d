"""The weight-1 category: integer-indexed homogeneous tubes.

No arc model exists here; indecomposables are (shift, level) pairs, one
homogeneous tube per shift.  Hom dimensions follow the min-plus-one rule
between a tube and its right neighbour, extension families come from
kernel/cokernel bookkeeping inside a tube, and the torsion-pair landscape
collapses to suspensions of the standard t-structure.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple, Union

from .errors import NoExtension, TooLarge, _json_int

MAX_FAMILIES = 1 << 12  # t1_extensions lists min(r, target.level) + 1 families


class TubeObject(NamedTuple):
    """Indecomposable of the weight-1 category: level ``r`` in tube ``shift``."""

    shift: int
    level: int


def t1_hom_dim(a: TubeObject, b: TubeObject) -> int:
    """dim Hom(a, b): min(levels)+1 into the same or next tube, else 0."""
    if a.level < 0 or b.level < 0:
        raise ValueError("tube levels must be nonnegative")
    if b.shift in (a.shift, a.shift + 1):
        return min(a.level, b.level) + 1
    return 0


def t1_ext_dim(b: TubeObject, a: TubeObject) -> int:
    """dim Ext^1(b, a) = dim Hom(a, b), by the 1-Calabi-Yau property."""
    return t1_hom_dim(a, b)


def t1_extensions(r: int, target: TubeObject) -> List[Tuple[TubeObject, ...]]:
    """Middle multisets of non-split extensions of ``target`` by level ``r``.

    ``target`` is read relative to the base tube: shift 0 means same tube
    (abelian extensions, both summands unshifted), shift 1 the suspended one
    (cone of a map down into level r; one summand suspended).  Zero summands
    are dropped from the emitted multisets.  Any other shift has no
    extension, and raises ``NoExtension``.  There is one family per
    extension class, min(r, target.level) + 1 of them; past ``MAX_FAMILIES``
    it raises ``TooLarge`` before listing any.
    """
    if r < 0 or target.level < 0:
        raise ValueError("tube levels must be nonnegative")
    if target.shift not in (0, 1):  # Ext^1(target, level r) = Hom(level r, target)
        raise NoExtension(
            f"Ext^1({target}, level {r}) = 0: the target sits in neither the same nor the "
            f"suspended tube"
        )
    s = target.level
    dim = t1_ext_dim(target, TubeObject(0, r))
    if dim > MAX_FAMILIES:  # one family per extension class
        raise TooLarge(f"refusing {dim} extension families, more than {MAX_FAMILIES}")
    out: List[Tuple[TubeObject, ...]] = []
    if target.shift == 0:
        n, m = min(r, s), max(r, s)
        for i in range(1, n + 2):
            middle = [TubeObject(0, m + i)]
            if n - i >= 0:
                middle.append(TubeObject(0, n - i))
            out.append(tuple(sorted(middle)))
    else:
        # cone of a rank-rho map from level s to level r, rho = image length
        for rho in range(1, min(r, s) + 2):
            middle = []
            if s - rho >= 0:
                middle.append(TubeObject(1, s - rho))
            if r - rho >= 0:
                middle.append(TubeObject(0, r - rho))
            out.append(tuple(sorted(middle)))
    return out


TubeContent = Union[str, FrozenSet[int]]  # "all" or an explicit level set


def _level(value) -> int:
    """A tube level of a JSON document; ValueError unless a nonnegative integer."""
    if _json_int(value, "a tube level") < 0:
        raise ValueError(f"a tube level must be nonnegative, got {value!r}")
    return value


class T1Descriptor(NamedTuple):
    """Finite presentation of an additive subcategory of the tube category.

    ``pattern`` is one of ``empty``, ``all``, ``upper`` (all tubes with shift
    >= ``n``) or ``explicit`` (exactly the listed content, nothing more).
    """

    pattern: str
    n: Optional[int] = None
    tubes: Optional[Dict[int, TubeContent]] = None

    def to_json_dict(self) -> dict:
        data: dict = {"w": 1, "pattern": self.pattern}
        if self.pattern == "upper":
            data["n"] = self.n
        if self.pattern == "explicit":
            data["tubes"] = {
                str(shift): content if content == "all" else sorted(content)
                for shift, content in (self.tubes or {}).items()
            }
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "T1Descriptor":
        pattern = data["pattern"]
        if pattern == "upper":
            return cls("upper", n=_json_int(data["n"], "n"))
        if pattern == "explicit":
            given = data.get("tubes", {})
            if not isinstance(given, dict):
                raise ValueError(f"tubes must be an object mapping shifts to levels, got {given!r}")
            tubes: Dict[int, TubeContent] = {}
            for shift, content in given.items():
                tubes[int(shift)] = "all" if content == "all" else frozenset(map(_level, content))
            return cls("explicit", tubes=tubes)
        if pattern in ("empty", "all"):
            return cls(pattern)
        raise ValueError(f"unknown pattern {pattern!r}")


class T1Verdict(NamedTuple):
    kind: str  # trivial_zero | trivial_all | t_structure | not_torsion_class
    n: Optional[int] = None

    def __str__(self) -> str:
        if self.kind == "t_structure":
            return f"t-structure (X_{self.n}, Y_{self.n})"
        return self.kind.replace("_", " ")


def t1_classify(desc: T1Descriptor) -> T1Verdict:
    """Classify a descriptor against the full torsion-pair list.

    The only torsion classes are the zero subcategory, everything, and the
    upper tube sets; an explicit finite presentation can only realize the
    first of these.
    """
    if desc.pattern == "empty":
        return T1Verdict("trivial_zero")
    if desc.pattern == "all":
        return T1Verdict("trivial_all")
    if desc.pattern == "upper":
        if desc.n is None:
            raise ValueError("upper pattern requires n")
        return T1Verdict("t_structure", n=desc.n)
    if desc.pattern == "explicit":
        tubes = desc.tubes or {}
        if not any(content == "all" or content for content in tubes.values()):
            return T1Verdict("trivial_zero")
        return T1Verdict("not_torsion_class")
    raise ValueError(f"unknown pattern {desc.pattern!r}")
