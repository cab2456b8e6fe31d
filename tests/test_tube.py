import itertools
import json

import pytest

from sphtor import (
    NoExtension,
    T1Descriptor,
    TooLarge,
    TubeObject,
    t1_classify,
    t1_ext_dim,
    t1_extensions,
    t1_hom_dim,
)
from sphtor.tube import MAX_FAMILIES


def test_hom_examples():
    assert t1_hom_dim(TubeObject(0, 2), TubeObject(0, 3)) == 3
    assert t1_hom_dim(TubeObject(0, 2), TubeObject(2, 5)) == 0
    assert t1_hom_dim(TubeObject(0, 2), TubeObject(1, 0)) == 1


def test_ext_equals_hom_of_swap():
    objs = [TubeObject(i, r) for i in (-2, -1, 0, 1, 2) for r in range(4)]
    for a, b in itertools.product(objs, repeat=2):
        assert t1_ext_dim(b, a) == t1_hom_dim(a, b)


def test_extension_family_examples():
    assert t1_extensions(1, TubeObject(0, 2)) == [
        (TubeObject(0, 0), TubeObject(0, 3)),
        (TubeObject(0, 4),),
    ]
    assert t1_extensions(0, TubeObject(0, 0)) == [(TubeObject(0, 1),)]
    # suspended target at equal level: one split-free family plus the
    # zero-middle identity class
    assert t1_extensions(1, TubeObject(1, 1)) == [
        (TubeObject(0, 0), TubeObject(1, 0)),
        (),
    ]
    for shift in (-1, 2):
        with pytest.raises(NoExtension, match="neither the same nor the suspended tube"):
            t1_extensions(1, TubeObject(shift, 3))


def test_extension_family_count_matches_ext_dimension():
    for r in range(5):
        for s in range(5):
            fams = t1_extensions(r, TubeObject(0, s))
            assert len(fams) == t1_ext_dim(TubeObject(0, s), TubeObject(0, r))
            fams = t1_extensions(r, TubeObject(1, s))
            assert len(fams) == t1_ext_dim(TubeObject(1, s), TubeObject(0, r))


def test_extension_families_conserve_levels():
    # same-tube families keep the total length; suspended-target families
    # realize every kernel/cokernel split of a rank-rho map
    for r in range(6):
        for s in range(6):
            for fam in t1_extensions(r, TubeObject(0, s)):
                lengths = sum(x.level + 1 for x in fam)
                assert lengths == r + s + 2
            seen = set(t1_extensions(r, TubeObject(1, s)))
            expect = set()
            for rho in range(1, min(r, s) + 2):
                fam = []
                if s - rho >= 0:
                    fam.append(TubeObject(1, s - rho))
                if r - rho >= 0:
                    fam.append(TubeObject(0, r - rho))
                expect.add(tuple(sorted(fam)))
            assert seen == expect


def test_classification_verdicts():
    assert str(t1_classify(T1Descriptor("upper", n=5))) == "t-structure (X_5, Y_5)"
    assert t1_classify(T1Descriptor("empty")).kind == "trivial_zero"
    assert t1_classify(T1Descriptor("all")).kind == "trivial_all"
    assert t1_classify(T1Descriptor("explicit", tubes={0: "all"})).kind == "not_torsion_class"
    assert (
        t1_classify(T1Descriptor("explicit", tubes={0: frozenset({0, 1})})).kind
        == "not_torsion_class"
    )
    assert t1_classify(T1Descriptor("explicit", tubes={})).kind == "trivial_zero"


def test_t_structure_is_split_and_hom_free():
    n = 2
    verdict = t1_classify(T1Descriptor("upper", n=n))
    assert verdict.kind == "t_structure" and verdict.n == n
    for shift in range(-6, 7):
        for level in range(5):
            x = TubeObject(shift, level)
            in_class = shift >= n
            for shift2 in range(-6, 7):
                for level2 in range(5):
                    y = TubeObject(shift2, level2)
                    if in_class and shift2 < n:
                        assert t1_hom_dim(x, y) == 0


def test_descriptor_json_round_trip():
    for desc in (
        T1Descriptor("upper", n=5),
        T1Descriptor("empty"),
        T1Descriptor("all"),
        T1Descriptor("explicit", tubes={0: "all", 2: frozenset({0, 3})}),
    ):
        blob = json.dumps(desc.to_json_dict(), sort_keys=True)
        again = T1Descriptor.from_json_dict(json.loads(blob))
        assert t1_classify(again) == t1_classify(desc)
        assert again.pattern == desc.pattern


@pytest.mark.parametrize("shift", [0, 1])
def test_extension_families_refuse_past_their_budget(shift):
    level = MAX_FAMILIES - 1  # min(r, s) + 1 families
    assert len(t1_extensions(level, TubeObject(shift, level + 5))) == MAX_FAMILIES
    with pytest.raises(TooLarge, match=str(MAX_FAMILIES)):
        t1_extensions(level + 1, TubeObject(shift, level + 1))


@pytest.mark.parametrize("tubes", [[1, 2], None, "all"])
def test_descriptor_rejects_non_object_tubes(tubes):
    with pytest.raises(ValueError, match="tubes"):
        T1Descriptor.from_json_dict({"w": 1, "pattern": "explicit", "tubes": tubes})


def test_negative_levels_are_refused():
    for a, b in ((TubeObject(0, -1), TubeObject(0, 0)), (TubeObject(0, 0), TubeObject(1, -1))):
        with pytest.raises(ValueError, match="nonnegative"):
            t1_hom_dim(a, b)
    for r, target in ((-1, TubeObject(0, 0)), (0, TubeObject(1, -1))):
        with pytest.raises(ValueError, match="nonnegative"):
            t1_extensions(r, target)


def test_unknown_or_incomplete_patterns_are_refused():
    with pytest.raises(ValueError, match="unknown pattern"):
        T1Descriptor.from_json_dict({"w": 1, "pattern": "lower"})
    # built by hand, a descriptor skips the document checks
    with pytest.raises(ValueError, match="requires n"):
        t1_classify(T1Descriptor("upper"))
    with pytest.raises(ValueError, match="unknown pattern"):
        t1_classify(T1Descriptor("lower"))
