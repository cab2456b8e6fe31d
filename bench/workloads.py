"""The four benchmark workloads: seeded inputs, the timed operations, answers.

A workload is a list of *operations* (plain tuples, so the checker process
can rebuild them from the same seed) grouped into *rounds*.  Every round of
a workload has the same make-up, so a run that attempts whole rounds fails
the same share of operations whatever its length.  ``Workload.run`` performs
one operation and returns the library's raw answer; ``Workload.encode`` turns
it into the JSON form that is digested, stored and checked.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from typing import Any, Dict, List, Tuple

WEIGHTS = (-3, -2, -1, 0, 2, 3, 4)

Op = Tuple[Any, ...]


def _arcs_json(arcs) -> list:
    return [[a.t, a.u] for a in sorted(arcs)]


def _diags_json(diags) -> list:
    return [[d.i, d.j] for d in sorted(diags)]


class Workload:
    """Base class: ``ops`` (all distinct operations) and ``rounds`` of indices."""

    name = ""

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ops: List[Op] = []
        self.rounds: List[List[int]] = []
        self.warmup: List[Op] = []
        self._index: Dict[Op, int] = {}

    def add(self, op: Op) -> int:
        """Index of ``op``; equal operations share one index."""
        if op not in self._index:
            self._index[op] = len(self.ops)
            self.ops.append(op)
        return self._index[op]

    @contextlib.contextmanager
    def fixed_inputs(self):
        """Draw from a generator that ignores the seed while in the block.

        The warm-up is drawn this way, so that set-up does the same work on
        every seed: seeded warm-up inputs made ``setup_s`` measure the seed.
        """
        seeded, self.rng = self.rng, random.Random(f"{self.name}:warm-up")
        try:
            yield
        finally:
            self.rng = seeded

    def prepare(self, workdir: str) -> None:
        """Untimed construction before the warm-up (categories, files)."""

    def run(self, op: Op):
        raise NotImplementedError

    def encode(self, op: Op, answer) -> Any:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# finite_closures


class FiniteClosures(Workload):
    """Closures of small random arc sets by both routes.

    Each round holds, at every weight, one set of each size 3..6 drawn from
    the arcs inside [-8, 8]; every set is closed by ``ptolemy_closure`` and
    by ``extension_closure_oracle``.  The pool holds more rounds than one run
    gets through at today's speed, so the timed sets are all distinct.

    Sets of 0-2 arcs are left out.  Away from w = 0 their closures take
    2-30 us, mostly call overhead; with them the median fell on the step
    between those calls and real closures.
    """

    name = "finite_closures"
    RADIUS = 8
    MIN_SIZE = 3
    MAX_SIZE = 6
    POOL_ROUNDS = 256
    WARMUP_ROUNDS = 3

    def __init__(self, seed: int):
        super().__init__(seed)
        from sphtor import arcs_in_window

        pools = {w: list(arcs_in_window(w, -self.RADIUS, self.RADIUS)) for w in WEIGHTS}

        def one_round() -> List[Op]:
            out = []
            for w in WEIGHTS:
                for size in range(self.MIN_SIZE, self.MAX_SIZE + 1):
                    sample = tuple(self.rng.sample(pools[w], size))
                    out.append(("ptolemy", w, sample))
                    out.append(("oracle", w, sample))
            return out

        for _ in range(self.POOL_ROUNDS):
            self.rounds.append([self.add(op) for op in one_round()])
        with self.fixed_inputs():
            for _ in range(self.WARMUP_ROUNDS):
                self.warmup.extend(one_round())

    def run(self, op: Op):
        import sphtor

        route, w, sample = op
        if route == "ptolemy":
            return sphtor.ptolemy_closure(w, sample)
        return sphtor.extension_closure_oracle(w, sample)

    def encode(self, op: Op, answer) -> Any:
        return _arcs_json(answer)


# ---------------------------------------------------------------------------
# torsion_verdicts


def fountain_start_offset(w: int) -> int:
    """Smallest admissible distance from a fountain's vertex (criterion 11)."""
    d = abs(w - 1)
    return w if w >= 2 else d - 1 if w < 0 else 1


class TorsionVerdicts(Workload):
    """``is_torsion_class`` on fountain families, random finite sets, closures.

    One round, repeated for the whole run:

    * at w != 0: right, left and two-sided fountains at two starts and the
      windows 6, 8, 10, 12 (144 verdicts);
    * at w = 0: the right and the left fountain twice at each of the windows
      6, 7, 8, and the two-sided fountain at window 6 (13 verdicts);
    * at every weight, 30 random sets of 1-4 arcs in [-6, 6] and their
      closures, at a window of 6, 7 or 8 (420 verdicts).

    The twelve one-sided w = 0 verdicts rank 2-13 by cost among 577, so the
    99th percentile falls inside them.

    Vertices and sets are drawn from the seed.  The fountain costs depend on
    the vertex only through a translation, so the seed moves the inputs
    without moving the work.  The one exception is the two-sided w = 0
    verdict, which opens every round at the fixed vertex 0.  It alone sets
    the process's peak memory, and that peak moves with its vertex: from
    20.3 to 26.6 MB over vertices in [-30, 30].  Fixed in vertex and place,
    it lets ``peak_rss_mb`` measure the program rather than the seed.
    """

    name = "torsion_verdicts"
    FAMILY_WINDOWS = (6, 8, 10, 12)
    ZERO_WINDOWS = (6, 7, 8)
    ZERO_COPIES = 2
    ZERO_TWO_SIDED_WINDOW = 6
    ZERO_TWO_SIDED_VERTEX = 0
    RANDOM_PER_WEIGHT = 30
    RANDOM_RADIUS = 6

    def __init__(self, seed: int):
        super().__init__(seed)
        ops = self._verdicts()
        two_sided_zero = ("family", 0, "RL", (), self.fountains("RL", self.ZERO_TWO_SIDED_VERTEX, 1),
                          self.ZERO_TWO_SIDED_WINDOW)
        # warm-up: one w = 0 fountain and every fourth of the cheaper verdicts
        with self.fixed_inputs():
            cheaper = [op for op in self._verdicts() if op[1] != 0 or op[0] != "family"]
        self.warmup = [("family", 0, "R", (), self.fountains("R", 0, 1), 6)] + cheaper[::4]
        # shuffled, so that each kind of verdict is timed all through the round
        self.rng.shuffle(ops)
        self.rounds.append([self.add(op) for op in [two_sided_zero] + ops])

    @staticmethod
    def fountains(kind: str, v: int, off: int) -> tuple:
        right = (v, "right", v + off)
        left = (v, "left", v - off)
        return {"R": (right,), "L": (left,), "RL": (right, left)}[kind]

    def _verdicts(self) -> List[Op]:
        """The round's verdicts but the two-sided w = 0 one, from ``self.rng``."""
        import sphtor

        rng = self.rng
        fountains = self.fountains
        ops: List[Op] = []
        for w in WEIGHTS:
            if w == 0:
                continue
            base = fountain_start_offset(w)
            for off in (base, base + abs(w - 1)):
                for kind in ("R", "L", "RL"):
                    for window in self.FAMILY_WINDOWS:
                        v = rng.randint(-30, 30)
                        ops.append(("family", w, kind, (), fountains(kind, v, off), window))
        for kind in ("R", "L"):
            for window in self.ZERO_WINDOWS * self.ZERO_COPIES:
                v = rng.randint(-30, 30)
                ops.append(("family", 0, kind, (), fountains(kind, v, 1), window))
        for w in WEIGHTS:
            pool = list(sphtor.arcs_in_window(w, -self.RANDOM_RADIUS, self.RANDOM_RADIUS))
            for _ in range(self.RANDOM_PER_WEIGHT):
                sample = rng.sample(pool, rng.randint(1, 4))
                window = rng.choice(self.ZERO_WINDOWS)
                closed = sphtor.ptolemy_closure(w, sample)
                ops.append(("random", w, "", tuple((a.t, a.u) for a in sample), (), window))
                ops.append(("closure", w, "", tuple((a.t, a.u) for a in sorted(closed)), (), window))
        return ops

    @staticmethod
    def descriptor(op: Op):
        from sphtor import DescriptorSet

        _, w, _, arcs, fountains, _ = op
        return DescriptorSet.from_json_dict(
            {
                "w": w,
                "arcs": [list(p) for p in arcs],
                "fountains": [{"vertex": v, "side": s, "from": f} for v, s, f in fountains],
            }
        )

    def run(self, op: Op):
        import sphtor

        return sphtor.is_torsion_class(self.descriptor(op), window=op[5])

    def encode(self, op: Op, answer) -> Any:
        f = answer.witness_fountain
        return {
            "verdict": answer.verdict.value,
            "witness_pair": [[a.t, a.u] for a in answer.witness_pair]
            if answer.witness_pair
            else None,
            "missing_arc": [answer.missing_arc.t, answer.missing_arc.u]
            if answer.missing_arc
            else None,
            "witness_fountain": [f.vertex, f.side.value, f.start] if f else None,
            "perp_sample": _arcs_json(answer.perp_sample),
        }


# ---------------------------------------------------------------------------
# orbit_enumerate


def enumerable_params(max_objects: int = 16, max_n1: int = 12) -> List[Tuple[int, int]]:
    """(n, m) with at most ``max_objects`` indecomposables; n = 1 up to m = max_n1."""
    out = []
    for n in range(1, 7):
        for m in range(2, 18):
            k = m * n * (n + 1) // 2 - n
            if k <= max_objects and (n > 1 or m <= max_n1):
                out.append((n, m))
    return out


class OrbitEnumerate(Workload):
    """``OrbitCategory(n, m).torsion_classes()`` and ``closure_diagonals``.

    One round enumerates every (n, m) of ``enumerable_params`` once, plus
    ``EXTRA_HEAVY`` more times the largest one, (2, 6); and it makes 100
    ``closure_diagonals`` calls on random seeds of 4-5 diagonals in each of
    the categories of ``CLOSURE_PARAMS``, built once during set-up.  The
    extra enumerations put the 99th percentile inside one kind of operation.

    Seeds of one to three diagonals are left out.  A single diagonal never
    grows and only 29 % of pairs do, so many of those calls take 3-50 us of
    call overhead; with them the median fell on the step between those
    calls and real closures and moved by up to a third between runs.
    """

    name = "orbit_enumerate"
    CLOSURE_PARAMS = ((3, 2), (2, 5), (3, 3), (4, 2), (2, 6))
    CLOSURES_PER_CATEGORY = 100
    SEED_SIZES = (4, 5)
    HEAVY = (2, 6)
    EXTRA_HEAVY = 9
    POOL_ROUNDS = 8

    def __init__(self, seed: int):
        super().__init__(seed)
        from sphtor.orbit import OrbitCategory

        diagonals = {nm: OrbitCategory(*nm).diagonals for nm in self.CLOSURE_PARAMS}
        enumerations = [("enumerate", n, m, ()) for n, m in enumerable_params()]
        enumerations += [("enumerate", *self.HEAVY, ())] * self.EXTRA_HEAVY

        def closures(count: int) -> List[Op]:
            out = []
            for nm in self.CLOSURE_PARAMS:
                for _ in range(count):
                    size = self.rng.randint(*self.SEED_SIZES)
                    seed_diags = self.rng.sample(diagonals[nm], size)
                    out.append(("closure", *nm, tuple(sorted((d.i, d.j) for d in seed_diags))))
            return out

        for _ in range(self.POOL_ROUNDS):
            ops = enumerations + closures(self.CLOSURES_PER_CATEGORY)
            self.rng.shuffle(ops)
            self.rounds.append([self.add(op) for op in ops])
        # the categories' Hom caches fill during the warm-up's closures
        with self.fixed_inputs():
            self.warmup = [("enumerate", 4, 2, ()), ("enumerate", 3, 3, ())] + closures(
                self.CLOSURES_PER_CATEGORY
            )
        self.categories: Dict[Tuple[int, int], Any] = {}

    def prepare(self, workdir: str) -> None:
        from sphtor.orbit import OrbitCategory

        self.categories = {nm: OrbitCategory(*nm) for nm in self.CLOSURE_PARAMS}

    def run(self, op: Op):
        from sphtor.orbit import MDiagonal, OrbitCategory

        kind, n, m, seed_diags = op
        if kind == "enumerate":
            return OrbitCategory(n, m).torsion_classes()
        return self.categories[n, m].closure_diagonals(MDiagonal(i, j) for i, j in seed_diags)

    def encode(self, op: Op, answer) -> Any:
        if op[0] == "enumerate":
            return [[[d.i, d.j] for d in cls] for cls in answer]
        return _diags_json(answer)


# ---------------------------------------------------------------------------
# cli_requests

# Bad inputs whose documented outcome is exit 2 or 64.  The ones marked
# ``known_fault`` do not reach it today; they count as failed operations.
BAD_REQUESTS: Tuple[Tuple[str, Tuple[str, ...], bool], ...] = (
    ("missing_file", ("torsion", "--in", "{work}/missing.json", "--window", "6"), True),
    ("malformed_json", ("torsion", "--in", "{work}/malformed.json", "--window", "6"), True),
    ("no_weight", ("torsion", "--in", "{work}/no_weight.json", "--window", "6"), True),
    ("t1_negative_level", ("t1", "hom", "--a", "0,-1", "--b", "0,0"), True),
    ("render_non_diagonal", ("render", "--n", "3", "--m", "2", "--diagonals", "1,3"), True),
    ("weight_one", ("hom", "--w", "1", "--a", "0,3", "--b", "0,3"), False),
    ("missing_option", ("hom", "--w", "2", "--a", "0,3"), False),
)


class CliRequests(Workload):
    """In-process ``sphtor.cli.run(argv)`` calls with stdout captured.

    One round is 41 well-formed requests over every subcommand with seeded
    small arguments, plus the 7 fixed bad inputs of ``BAD_REQUESTS``.  The
    ``orbit enumerate`` requests are fixed: (2, 5), whose 1497 classes make
    it the one request well above the others (about 35 ms against 4-5 ms),
    so that it alone sets the 99th percentile; and (3, 2).  The pool holds
    ``POOL_ROUNDS`` rounds of distinct arguments and is cycled.
    """

    name = "cli_requests"
    POOL_ROUNDS = 16
    ENUMERATE = ((2, 5), (3, 2))
    RADIUS = 5

    def __init__(self, seed: int):
        super().__init__(seed)
        import sphtor

        self.descriptors: Dict[str, dict] = {}
        self.workdir = ""
        self._pools = {
            w: list(sphtor.arcs_in_window(w, -self.RADIUS, self.RADIUS)) for w in WEIGHTS
        }
        for r in range(self.POOL_ROUNDS):
            ops = self._good_round(f"r{r}") + [("bad", name) for name, _, _ in BAD_REQUESTS]
            self.rng.shuffle(ops)
            self.rounds.append([self.add(op) for op in ops])
        with self.fixed_inputs():
            self.warmup = self._good_round("warm")

    # -- seeded arguments -------------------------------------------------------

    def _arc(self, w: int):
        return self.rng.choice(self._pools[w])

    def _good_round(self, tag: str) -> List[Op]:
        import sphtor
        from sphtor.orbit import OrbitCategory

        rng = self.rng
        pair = lambda a: f"{a.t},{a.u}"  # noqa: E731
        ops: List[Op] = []
        for _ in range(2):
            w = rng.choice(WEIGHTS)
            ops.append(("good", "admissible", "--w", str(w), "--arc",
                        f"{rng.randint(-6, 6)},{rng.randint(-6, 6)}"))
            w = rng.choice(WEIGHTS)
            ops.append(("good", "act", "--w", str(w), "--functor",
                        rng.choice(("suspend", "tau", "serre")), "--k",
                        str(rng.randint(-2, 2)), "--arc", pair(self._arc(w))))
            for cmd in ("hom", "ext", "middle", "eset", "ptolemy"):
                w = rng.choice(WEIGHTS)
                ops.append(("good", cmd, "--w", str(w), "--a", pair(self._arc(w)),
                            "--b", pair(self._arc(w))))
            w = rng.choice(WEIGHTS)
            arcs = ";".join(pair(self._arc(w)) for _ in range(rng.randint(1, 2)))
            ops.append(("good", "closure", "--w", str(w), "--arcs", arcs))
        # torsion descriptors: a random finite set, its closure, a fountain
        for j, kind in enumerate(("random", "closed", "fountain")):
            w = rng.choice([x for x in WEIGHTS if x != 0])
            if kind == "fountain":
                off = fountain_start_offset(w)
                v = rng.randint(-10, 10)
                side = rng.choice(("left", "right"))
                doc = {"w": w, "arcs": [], "fountains": [
                    {"vertex": v, "side": side, "from": v + off if side == "right" else v - off}]}
            else:
                arcs = [self._arc(w) for _ in range(2)]
                if kind == "closed":
                    arcs = sorted(sphtor.ptolemy_closure(w, arcs))
                doc = {"w": w, "arcs": [[a.t, a.u] for a in arcs], "fountains": []}
            name = f"{tag}_{j}.json"
            self.descriptors[name] = doc
            ops.append(("good", "torsion", "--in", "{work}/" + name, "--window",
                        str(rng.choice((6, 7, 8)))))
        for _ in range(2):
            ops.append(("good", "t1", "classify", "--pattern", "upper", "--n", str(rng.randint(-4, 4))))
            ops.append(("good", "t1", "hom", "--a", f"{rng.randint(-2, 2)},{rng.randint(0, 4)}",
                        "--b", f"{rng.randint(-2, 2)},{rng.randint(0, 4)}"))
            ops.append(("good", "t1", "extensions", "--r", str(rng.randint(0, 3)),
                        "--target", f"{rng.randint(0, 1)},{rng.randint(0, 4)}"))
        for enumerate_nm in self.ENUMERATE:
            n, m = rng.choice(((3, 2), (2, 3), (2, 2), (4, 2)))
            cat = OrbitCategory(n, m)
            ops.append(("good", "orbit", "list", "--n", str(n), "--m", str(m)))
            da, db = rng.sample(cat.diagonals, 2)
            for cmd in ("hom", "ext"):
                ops.append(("good", "orbit", cmd, "--n", str(n), "--m", str(m),
                            "--a", f"{da.i},{da.j}", "--b", f"{db.i},{db.j}"))
            a, b = rng.choice([
                (x, y) for x in cat.diagonals for y in cat.diagonals
                if cat.ext_dim(cat.from_diagonal(y), cat.from_diagonal(x))
            ])
            ops.append(("good", "orbit", "middle", "--n", str(n), "--m", str(m),
                        "--a", f"{a.i},{a.j}", "--b", f"{b.i},{b.j}"))
            seed = rng.sample(cat.diagonals, rng.randint(1, 3))
            ops.append(("good", "orbit", "closure", "--n", str(n), "--m", str(m),
                        "--diagonals", ";".join(f"{d.i},{d.j}" for d in seed)))
            ops.append(("good", "orbit", "enumerate", "--n", str(enumerate_nm[0]),
                        "--m", str(enumerate_nm[1])))
            w = rng.choice(WEIGHTS)
            arcs = ";".join(pair(self._arc(w)) for _ in range(rng.randint(1, 3)))
            dashed = ";".join(pair(self._arc(w)) for _ in range(rng.randint(0, 2)))
            ops.append(("good", "render", "--w", str(w), "--arcs", arcs, "--dashed", dashed))
            d = rng.sample(cat.diagonals, rng.randint(1, 3))
            ops.append(("good", "render", "--n", str(n), "--m", str(m),
                        "--diagonals", ";".join(f"{x.i},{x.j}" for x in d)))
        return ops

    # -- files and requests -------------------------------------------------------

    def prepare(self, workdir: str) -> None:
        self.workdir = workdir
        for name, doc in self.descriptors.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        with open(os.path.join(workdir, "malformed.json"), "w", encoding="utf-8") as fh:
            fh.write('{"w": 2, "arcs": [[0, 3], ')
        with open(os.path.join(workdir, "no_weight.json"), "w", encoding="utf-8") as fh:
            json.dump({"arcs": [[0, 3]], "fountains": []}, fh)

    def argv(self, op: Op, workdir: str) -> List[str]:
        """Request words as ``--option=value``, with ``--format json`` last.

        The ``=`` form lets a list that starts with a negative number through,
        and global flags only take effect after the subcommand.
        """
        if op[0] == "bad":
            words = next(words for name, words, _ in BAD_REQUESTS if name == op[1])
        else:
            words = op[1:]
        out: List[str] = []
        it = iter(words)
        for word in it:
            if word.startswith("--"):
                word = f"{word}={next(it, '')}"
            out.append(word.replace("{work}", workdir))
        return out + ["--format=json"]

    def run(self, op: Op):
        from sphtor import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(self.argv(op, self.workdir))
        return code, out.getvalue()

    def encode(self, op: Op, answer) -> Any:
        code, text = answer
        return {"exit": code, "stdout": text}


WORKLOADS = {
    cls.name: cls for cls in (FiniteClosures, TorsionVerdicts, OrbitEnumerate, CliRequests)
}
