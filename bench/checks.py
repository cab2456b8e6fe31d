"""Checks of every timed answer, run after the timed phase in another process.

Each ``check_<workload>`` takes the workload (rebuilt from the same seed) and
a map from operation index to its recorded outcome, ``{"answer": ...}`` or
``{"raised": "ExceptionName"}``, and returns a map from operation index to
``OK``, ``FAILED`` (the operation did not complete, or is a known fault) or a
string that says what is wrong with the answer.  A check recomputes the
answer by a separate route or tests a property of it; none of them calls the
function it checks with the same arguments and compares.
"""

from __future__ import annotations

import itertools
import json
from typing import Callable, Dict, FrozenSet, Iterable, List, Set

import sphtor
from sphtor import Arc, DescriptorSet, arcs_in_window, ext_dim_arc, suspend
from sphtor.closure import FountainSide
from sphtor.orbit import MDiagonal, OrbitCategory

from workloads import BAD_REQUESTS

OK = "ok"
FAILED = "failed"

BRUTE_FORCE_MAX_OBJECTS = 13


class PairTable:
    """Memo of the public pair functions, shared by all checks of one run."""

    def __init__(self):
        self._ptolemy: Dict[tuple, FrozenSet[Arc]] = {}
        self._eset: Dict[tuple, FrozenSet[Arc]] = {}

    def ptolemy(self, a: Arc, b: Arc) -> FrozenSet[Arc]:
        try:
            return self._ptolemy[a, b]
        except KeyError:
            out = self._ptolemy[a, b] = sphtor.ptolemy_arcs(a, b).all
            return out

    def eset(self, a: Arc, b: Arc) -> FrozenSet[Arc]:
        try:
            return self._eset[a, b]
        except KeyError:
            out = self._eset[a, b] = sphtor.e_set(a, b)
            return out


def plain_fixpoint(seed: Iterable, pair: Callable[[object, object], Iterable]) -> Set:
    """Round-by-round least fixpoint: each round applies ``pair`` to every
    ordered pair that involves an element added in the previous round."""
    current = set(seed)
    new = set(current)
    while new:
        found: Set = set()
        for a in new:
            for b in current:
                found.update(pair(a, b))
                found.update(pair(b, a))
        new = found - current
        current |= new
    return current


def closure_problems(seed: Iterable[Arc], result: Iterable[Arc], table: PairTable) -> List[str]:
    """Why ``result`` is not the closure of ``seed``; empty when it is.

    Equality with the plain fixpoint also shows that ``result`` is closed
    under ``ptolemy_arcs``: the fixpoint has applied it to every pair.
    """
    seed = set(seed)
    result = set(result)
    problems = []
    if not seed <= result:
        problems.append(f"misses seed arcs {sorted(seed - result)}")
    ends = {v for a in seed for v in a.vertices}
    strays = sorted(a for a in result if not set(a.vertices) <= ends)
    if strays:
        problems.append(f"uses endpoints outside the seed: {strays[:3]}")
    fix = plain_fixpoint(seed, table.ptolemy)
    if fix != result:
        problems.append(
            f"differs from the plain fixpoint: extra {sorted(result - fix)[:3]}, "
            f"missing {sorted(fix - result)[:3]}"
        )
    eset = table.eset
    open_pair = next(((a, b) for a in result for b in result if not eset(a, b) <= result), None)
    if open_pair:
        problems.append(f"not closed under e_set at {open_pair[0]},{open_pair[1]}")
    return problems


def _arcs(w: int, pairs) -> List[Arc]:
    return [Arc(t, u, w) for t, u in pairs]


# ---------------------------------------------------------------------------
# finite_closures


def check_finite_closures(wl, outcomes: Dict[int, dict]) -> Dict[int, str]:
    table = PairTable()
    status: Dict[int, str] = {}
    by_set: Dict[tuple, Dict[str, int]] = {}
    for i in outcomes:
        route, w, sample = wl.ops[i]
        by_set.setdefault((w, sample), {})[route] = i
    for (w, sample), routes in by_set.items():
        answers = {}
        for route, i in routes.items():
            if "raised" in outcomes[i]:
                status[i] = FAILED
            else:
                answers[route] = frozenset(_arcs(w, outcomes[i]["answer"]))
        if len(set(answers.values())) > 1:
            for route in answers:
                status[routes[route]] = "the two closure routes disagree"
            continue
        if answers:
            problems = closure_problems(sample, next(iter(answers.values())), table)
            for route in answers:
                status[routes[route]] = "; ".join(problems) if problems else OK
    return status


# ---------------------------------------------------------------------------
# torsion_verdicts


def fountain_rule(w: int, kind: str) -> str:
    """Verdict the sidedness rule gives a bare fountain family."""
    if w == 0:
        # members of a fountain are pairwise adjacent at its vertex
        return "not_closed"
    wrong_side = "R" if w >= 2 else "L"
    return "not_contravariantly_finite" if kind == wrong_side else "torsion_class"


def perp_problems(ds: DescriptorSet, lo: int, hi: int, sample: Iterable[Arc]) -> List[str]:
    """Re-check a perp sample in both directions by the arc-level Ext route.

    Hom(x, b) = Ext^1(x, suspend(b, -1)); the generators are instantiated on
    a margin wider than the one the library uses.
    """
    w = ds.w
    d = abs(w - 1)
    margin = (hi - lo) + 4 * d + abs(w) + 6
    generators = ds.instantiate(lo - margin, hi + margin)
    sample = set(sample)
    problems = []
    for b in arcs_in_window(w, lo, hi):
        sb = suspend(b, -1)
        receives = any(ext_dim_arc(x, sb) for x in generators)
        if receives and b in sample:
            problems.append(f"{b} is in the perp sample but receives a map")
        elif not receives and b not in sample:
            problems.append(f"{b} receives no map but is missing from the perp sample")
    outside = [b for b in sample if not (lo <= min(b.vertices) and max(b.vertices) <= hi)]
    if outside:
        problems.append(f"perp sample leaves the window: {outside[:3]}")
    return problems[:3]


def verdict_problems(wl, op, rep: dict, table: PairTable) -> List[str]:
    kind, w, family, _, _, window = op
    ds = wl.descriptor(op)
    lo0, hi0 = ds.span()
    lo, hi = lo0 - window, hi0 + window
    if kind == "family":
        expected = fountain_rule(w, family)
    else:
        closed = plain_fixpoint(ds.arcs, table.ptolemy) == set(ds.arcs)
        expected = "torsion_class" if closed else "not_closed"
    verdict = rep["verdict"]
    if verdict != expected:
        return [f"verdict {verdict}, expected {expected}"]
    if verdict == "torsion_class":
        return perp_problems(ds, lo, hi, _arcs(w, rep["perp_sample"]))
    if verdict == "not_contravariantly_finite":
        f = rep["witness_fountain"]
        if f is None:
            return ["no witness fountain"]
        vertex, side, start = f
        have = {(g.vertex, g.side.value, g.start) for g in ds.fountains}
        sides = {(g.vertex, g.side.value) for g in ds.fountains}
        wrong = "right" if w >= 2 else "left"
        partner = "left" if side == "right" else "right"
        if (vertex, side, start) not in have or side != wrong or (vertex, partner) in sides:
            return [f"witness fountain {f} is not a one-sided {wrong} fountain of the set"]
        return []
    # not_closed: replay the witness
    if rep["witness_pair"] is not None:
        a, b = _arcs(w, rep["witness_pair"])
        m = Arc(*rep["missing_arc"], w)
        present = ds.instantiate(lo, hi)
        if a not in present or b not in present:
            return [f"witness pair {a},{b} is not in the set"]
        if m not in table.ptolemy(a, b):
            return [f"missing arc {m} is not a connector of {a},{b}"]
        if m in ds.arcs or any(f.covers(w, m) for f in ds.fountains):
            return [f"missing arc {m} is in the set"]
        return []
    f = rep["witness_fountain"]
    if f is None:
        return ["not_closed without a witness"]
    if (f[0], FountainSide(f[1]), f[2]) in {tuple(g) for g in ds.fountains}:
        return [f"witness fountain {f} is already in the set"]
    return []


def check_torsion_verdicts(wl, outcomes: Dict[int, dict]) -> Dict[int, str]:
    table = PairTable()
    status = {}
    for i, outcome in outcomes.items():
        if "raised" in outcome:
            status[i] = FAILED
            continue
        problems = verdict_problems(wl, wl.ops[i], outcome["answer"], table)
        status[i] = "; ".join(problems) if problems else OK
    return status


# ---------------------------------------------------------------------------
# orbit_enumerate


class OrbitTables:
    """Pair masks of one category: the polygon rule and ``e_set``, by index."""

    def __init__(self, n: int, m: int):
        cat = self.cat = OrbitCategory(n, m)
        self.diagonals = cat.diagonals
        self.index = {d: i for i, d in enumerate(self.diagonals)}
        k = len(self.diagonals)
        objs = [cat.from_diagonal(d) for d in self.diagonals]
        self.ptolemy = [[0] * k for _ in range(k)]
        self.both = [[0] * k for _ in range(k)]
        for i, j in itertools.product(range(k), repeat=2):
            pt = self.mask(cat.ptolemy(self.diagonals[i], self.diagonals[j]))
            es = self.mask(cat.to_diagonal(x) for x in cat.e_set(objs[i], objs[j]))
            self.ptolemy[i][j] = pt
            self.both[i][j] = pt | es

    def mask(self, diags: Iterable[MDiagonal]) -> int:
        mask = 0
        for d in diags:
            mask |= 1 << self.index[d]
        return mask

    def closed(self, mask: int, table) -> bool:
        members = [i for i in range(len(self.diagonals)) if mask >> i & 1]
        return all(not table[i][j] & ~mask for i in members for j in members)

    def fixpoint(self, seed: Iterable[MDiagonal]) -> Set[MDiagonal]:
        return plain_fixpoint(seed, self.cat.ptolemy)


def classes_problems(tables: OrbitTables, classes: List[tuple]) -> List[str]:
    problems = []
    masks = []
    for cls in classes:
        try:
            masks.append(tables.mask(MDiagonal(i, j) for i, j in cls))
        except KeyError:
            return [f"class {cls} holds a chord that is not an m-diagonal"]
    if len(set(masks)) != len(masks):
        problems.append("a class appears twice")
    bad = [cls for cls, mask in zip(classes, masks) if not tables.closed(mask, tables.both)]
    if bad:
        problems.append(f"{len(bad)} classes not closed under ptolemy/e_set, e.g. {bad[0]}")
    listed = set(masks)
    k = len(tables.diagonals)
    if k <= BRUTE_FORCE_MAX_OBJECTS:
        count = sum(tables.closed(mask, tables.ptolemy) for mask in range(1 << k))
        if count != len(classes):
            problems.append(f"{len(classes)} classes, brute force counts {count}")
    for seed in itertools.chain(
        ((d,) for d in tables.diagonals), itertools.combinations(tables.diagonals, 2)
    ):
        if tables.mask(tables.fixpoint(seed)) not in listed:
            problems.append(f"the closure of {seed} is not listed")
            break
    return problems


def check_orbit_enumerate(wl, outcomes: Dict[int, dict]) -> Dict[int, str]:
    status: Dict[int, str] = {}
    tables: Dict[tuple, OrbitTables] = {}
    listed: Dict[tuple, set] = {}

    def tables_for(n, m):
        if (n, m) not in tables:
            tables[n, m] = OrbitTables(n, m)
        return tables[n, m]

    for i, outcome in outcomes.items():
        kind, n, m, _ = wl.ops[i]
        if kind != "enumerate":
            continue
        if "raised" in outcome:
            status[i] = FAILED
            continue
        classes = [tuple(tuple(d) for d in cls) for cls in outcome["answer"]]
        problems = classes_problems(tables_for(n, m), classes)
        status[i] = "; ".join(problems) if problems else OK
        listed[n, m] = set(classes)
    for i, outcome in outcomes.items():
        kind, n, m, seed = wl.ops[i]
        if kind != "closure":
            continue
        if "raised" in outcome:
            status[i] = FAILED
            continue
        t = tables_for(n, m)
        result = tuple(tuple(d) for d in outcome["answer"])
        own = tuple(sorted((d.i, d.j) for d in t.fixpoint(MDiagonal(*d) for d in seed)))
        if result != own:
            status[i] = f"closure {result} differs from the Ptolemy fixpoint {own}"
        elif (n, m) in listed and result not in listed[n, m]:
            status[i] = f"closure {result} is not among the listed torsion classes"
        elif (n, m) not in listed:
            status[i] = f"no enumeration of ({n}, {m}) answered to list the closure against"
        else:
            status[i] = OK
    return status


# ---------------------------------------------------------------------------
# cli_requests


def _options(words) -> tuple:
    """Split request words into the command words and an option dict."""
    command = []
    options = {}
    it = iter(words)
    for word in it:
        if word.startswith("--"):
            options[word[2:]] = next(it)
        else:
            command.append(word)
    return tuple(command), options


def _pair(text: str) -> tuple:
    x, y = text.split(",")
    return int(x), int(y)


def _pairs(text: str) -> list:
    return [_pair(chunk) for chunk in text.split(";") if chunk.strip()]


def _aj(a) -> list:
    return [a.t, a.u]


def expected_cli(wl, op) -> tuple:
    """(kind, value): the payload or text the request must print, from the library."""
    from sphtor import tube
    from sphtor.render import svg_arc_diagram, svg_polygon_diagram

    command, o = _options(op[1:])
    if command[0] in ("admissible", "act", "hom", "ext", "middle", "eset", "ptolemy", "closure"):
        w = int(o["w"])
    if command == ("admissible",):
        return "json", {"admissible": sphtor.is_admissible(w, *_pair(o["arc"]))}
    if command == ("act",):
        out = sphtor.apply_functor(o["functor"], int(o["k"]), sphtor.arc(w, *_pair(o["arc"])))
        return "json", {"arc": _aj(out)}
    if command[0] in ("hom", "ext", "middle", "eset", "ptolemy"):
        a, b = sphtor.arc(w, *_pair(o["a"])), sphtor.arc(w, *_pair(o["b"]))
        if command == ("hom",):
            return "json", {"dim": sphtor.hom_dim(a, b)}
        if command == ("ext",):
            dim = sphtor.ext_dim(b, a)
            if dim != ext_dim_arc(b, a):
                return "error", f"ext_dim {dim} and ext_dim_arc {ext_dim_arc(b, a)} disagree"
            return "json", {"dim": dim}
        if command == ("middle",):
            return "json", {"classes": [
                {"side": c.side.value, "middles": [_aj(x) for x in c.middles]}
                for c in sphtor.middle_terms(a, b)
            ]}
        if command == ("eset",):
            return "json", {"arcs": [_aj(x) for x in sorted(sphtor.e_set(a, b))]}
        pt = sphtor.ptolemy_arcs(a, b)
        return "json", {
            "class_i": [_aj(x) for x in sorted(pt.class_i)],
            "class_ii": [_aj(x) for x in sorted(pt.class_ii)],
            "class_iii": [_aj(x) for x in sorted(pt.class_iii)],
        }
    if command == ("closure",):
        arcs = [sphtor.arc(w, *p) for p in _pairs(o["arcs"])]
        return "json", {"w": w, "arcs": [_aj(x) for x in sorted(sphtor.ptolemy_closure(w, arcs))]}
    if command == ("torsion",):
        doc = wl.descriptors[o["in"].rsplit("/", 1)[-1]]
        rep = sphtor.is_torsion_class(DescriptorSet.from_json_dict(doc), window=int(o["window"]))
        f = rep.witness_fountain
        return "json", {
            "verdict": rep.verdict.value,
            "witness_pair": [_aj(x) for x in rep.witness_pair] if rep.witness_pair else None,
            "missing_arc": _aj(rep.missing_arc) if rep.missing_arc else None,
            "witness_fountain": {"vertex": f.vertex, "side": f.side.value} if f else None,
            "perp_sample": [_aj(x) for x in rep.perp_sample],
            "note": rep.note,
        }
    if command == ("t1", "classify"):
        v = tube.t1_classify(tube.T1Descriptor("upper", n=int(o["n"])))
        return "json", {"verdict": v.kind, "n": v.n}
    if command == ("t1", "hom"):
        a, b = tube.TubeObject(*_pair(o["a"])), tube.TubeObject(*_pair(o["b"]))
        return "json", {"dim": tube.t1_hom_dim(a, b)}
    if command == ("t1", "extensions"):
        fams = tube.t1_extensions(int(o["r"]), tube.TubeObject(*_pair(o["target"])))
        return "json", {"families": [[[x.shift, x.level] for x in fam] for fam in fams]}
    if command[0] == "render":
        if "diagonals" in o:
            diags = [MDiagonal(min(p), max(p)) for p in _pairs(o["diagonals"])]
            return "text", svg_polygon_diagram(int(o["n"]), int(o["m"]), diags)
        w = int(o["w"])
        return "text", svg_arc_diagram(
            w, [sphtor.arc(w, *p) for p in _pairs(o["arcs"])],
            [sphtor.arc(w, *p) for p in _pairs(o["dashed"])],
        )
    # orbit subcommands
    n, m = int(o["n"]), int(o["m"])
    cat = OrbitCategory(n, m)
    sub = command[1]
    if sub == "list":
        rows = sorted((cat.to_diagonal(x), x) for x in cat.objects)
        return "json", {
            "n": n, "m": m, "N": cat.N,
            "diagonals": [[d.i, d.j] for d, _ in rows],
            "objects": [[x.degree, x.lo, x.hi] for _, x in rows],
        }
    if sub == "enumerate":
        return "enumerate", [[[d.i, d.j] for d in cls] for cls in cat.torsion_classes()]
    if sub == "closure":
        seed = [MDiagonal(min(p), max(p)) for p in _pairs(o["diagonals"])]
        closed = sorted(cat.closure_diagonals(seed))
        return "json", {"n": n, "m": m, "diagonals": [[d.i, d.j] for d in closed]}
    xa = cat.from_diagonal(MDiagonal(*sorted(_pair(o["a"]))))
    xb = cat.from_diagonal(MDiagonal(*sorted(_pair(o["b"]))))
    if sub == "hom":
        return "json", {"dim": cat.hom_dim(xa, xb)}
    if sub == "ext":
        return "json", {"dim": cat.ext_dim(xb, xa)}
    mids = sorted(cat.to_diagonal(x) for x in cat.middle_term(xa, xb))
    return "json", {"middles": [[d.i, d.j] for d in mids]}


def cli_problems(wl, op, answer: dict) -> List[str]:
    if answer["exit"] != 0:
        return [f"exit {answer['exit']} on a well-formed request"]
    kind, value = expected_cli(wl, op)
    text = answer["stdout"]
    if kind == "error":
        return [value]
    if kind == "text":
        return [] if text == value else ["output differs from the direct library call"]
    if kind == "enumerate":
        lines = text.splitlines()
        options = _options(op[1:])[1]
        n, m = options["n"], options["m"]
        docs = [json.loads(line) for line in lines[:-2]]
        if lines[-2:] != ["n,m,count", f"{n},{m},{len(value)}"]:
            return ["enumerate summary line is wrong"]
        if [doc["diagonals"] for doc in docs] != value:
            return ["enumerated classes differ from torsion_classes()"]
        return []
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return ["stdout is not one JSON document"]
    if payload != value:
        return [f"payload {payload} differs from the library's {value}"]
    return []


def check_cli_requests(wl, outcomes: Dict[int, dict]) -> Dict[int, str]:
    known_faults = {name for name, _, fault in BAD_REQUESTS if fault}
    status = {}
    for i, outcome in outcomes.items():
        op = wl.ops[i]
        if op[0] == "bad":
            code = outcome["answer"]["exit"] if "answer" in outcome else None
            if code in (2, 64):
                status[i] = OK
            elif op[1] in known_faults:
                status[i] = FAILED
            else:
                ending = f"exit {code}" if code is not None else outcome["raised"]
                status[i] = f"bad input {op[1]} ended in {ending}, not exit 2 or 64"
            continue
        if "raised" in outcome:
            status[i] = FAILED
            continue
        problems = cli_problems(wl, op, outcome["answer"])
        status[i] = "; ".join(problems) if problems else OK
    return status


CHECKS = {
    "finite_closures": check_finite_closures,
    "torsion_verdicts": check_torsion_verdicts,
    "orbit_enumerate": check_orbit_enumerate,
    "cli_requests": check_cli_requests,
}
