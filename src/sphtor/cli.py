"""Command-line front end.

Exit codes: 0 on success, 2 on domain errors (bad mathematical input),
64 on usage errors (bad options, unreadable or malformed input files).
Machine output (--format json) is stable-ordered and a
pure function of the inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import List, Sequence

from . import (
    DescriptorSet,
    SphtorError,
    T1Descriptor,
    apply_functor,
    arc,
    e_set,
    ext_dim,
    hom_dim,
    is_admissible,
    is_torsion_class,
    middle_terms,
    ptolemy_arcs,
    ptolemy_closure,
    t1_classify,
    t1_extensions,
    t1_hom_dim,
)
from .closure import DEFAULT_WINDOW
from .orbit import MDiagonal, OrbitCategory, _check_diagonal, _check_params
from .render import _polygon_vertices, svg_arc_diagram, svg_polygon_diagram
from .tube import TubeObject

USAGE_EXIT = 64
DOMAIN_EXIT = 2


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let values like "-3", "-2,0" or "-5,4;-4,5" through as arguments,
        # not option names
        self._negative_number_matcher = re.compile(r"^-\d+(,-?\d+)*(;\s*-?\d+(,-?\d+)*)*;?$")

    def error(self, message):  # exit 64 instead of argparse's default 2
        raise UsageError(message)


def _pair(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected 'x,y', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"expected integers in {text!r}") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _tube_object(text: str) -> TubeObject:
    shift, level = _pair(text)
    if level < 0:
        raise UsageError(f"tube levels must be nonnegative, got {text!r}")
    return TubeObject(shift, level)


def _read_document(path: str, decode):
    """Decode a JSON input file; unreadable or malformed files are usage errors."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from None
    try:
        return decode(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{path} is not a valid document: {exc!r}") from None


def _arc_list(w: int, text: str) -> list:
    if not text.strip():
        return []
    return [arc(w, *_pair(chunk)) for chunk in text.split(";") if chunk.strip()]


def _diag(text: str) -> MDiagonal:
    i, j = _pair(text)
    return MDiagonal(min(i, j), max(i, j))


def _diag_list(text: str) -> List[MDiagonal]:
    return [_diag(chunk) for chunk in text.split(";") if chunk.strip()]


def _emit(args, text: str, payload) -> None:
    """Write text, or the payload under --format json, to --out or stdout.

    A None payload marks text that is the output in both formats, written as
    it is.  An unwritable --out file is a usage error.
    """
    if payload is not None:
        text = (text if args.format == "text" else json.dumps(payload, sort_keys=True)) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc.strerror}") from None


def _arcs_json(arcs) -> list:
    return [[a.t, a.u] for a in sorted(arcs)]


def _dim(dim: int):
    return str(dim), {"dim": dim}


# -- handlers: one per leaf subcommand, each returning (text, payload) --------


def _admissible(args):
    ok = is_admissible(args.w, *_pair(args.arc))
    return "admissible" if ok else "not admissible", {"admissible": ok}


def _act(args):
    out = apply_functor(args.functor, args.k, arc(args.w, *_pair(args.arc)))
    return str(out), {"arc": [out.t, out.u]}


def _arc_pair(args) -> tuple:
    return arc(args.w, *_pair(args.a)), arc(args.w, *_pair(args.b))


def _hom(args):
    return _dim(hom_dim(*_arc_pair(args)))


def _ext(args):
    a, b = _arc_pair(args)
    return _dim(ext_dim(b, a))


def _middle(args):
    classes = middle_terms(*_arc_pair(args))
    text = "\n".join(
        f"{cls.side.value}: " + (" + ".join(map(str, cls.middles)) or "0")
        for cls in classes
    ) or "no extension"
    return text, {"classes": [{"side": cls.side.value, "middles": _arcs_json(cls.middles)}
                              for cls in classes]}


def _eset(args):
    arcs = sorted(e_set(*_arc_pair(args)))
    return " ".join(map(str, arcs)) or "(empty)", {"arcs": _arcs_json(arcs)}


def _ptolemy(args):
    pt = ptolemy_arcs(*_arc_pair(args))
    groups = (("I", pt.class_i), ("II", pt.class_ii), ("III", pt.class_iii))
    text = "\n".join(
        f"class {label}: " + (" ".join(map(str, sorted(group))) or "(empty)")
        for label, group in groups
    )
    return text, {f"class_{label.lower()}": _arcs_json(group) for label, group in groups}


def _closure(args):
    closed = sorted(ptolemy_closure(args.w, _arc_list(args.w, args.arcs)))
    return " ".join(map(str, closed)) or "(empty)", {"w": args.w, "arcs": _arcs_json(closed)}


def _torsion(args):
    ds = _read_document(args.infile, DescriptorSet.from_json_dict)
    rep = is_torsion_class(ds, window=args.window)
    f = rep.witness_fountain
    text = rep.verdict.value
    if rep.witness_pair:
        text += f" witness={rep.witness_pair[0]},{rep.witness_pair[1]} missing={rep.missing_arc}"
    if f:
        text += f" fountain=({f.vertex},{f.side.value})"
    payload = {
        "verdict": rep.verdict.value,
        # the pair keeps its order: the missing arc is a connector of (first, second)
        "witness_pair": [[a.t, a.u] for a in rep.witness_pair] if rep.witness_pair else None,
        "missing_arc": [rep.missing_arc.t, rep.missing_arc.u] if rep.missing_arc else None,
        "witness_fountain": {"vertex": f.vertex, "side": f.side.value} if f else None,
        "perp_sample": _arcs_json(rep.perp_sample),
        "note": rep.note,
    }
    return text, payload


def _t1_classify(args):
    if args.infile:
        desc = _read_document(args.infile, T1Descriptor.from_json_dict)
        if desc.pattern != args.pattern:
            raise UsageError(
                f"--pattern {args.pattern}, but the document's pattern is {desc.pattern}"
            )
        # --n is read only by the upper pattern, with or without --in
        if desc.n is not None and args.n is not None and args.n != desc.n:
            raise UsageError(f"--n {args.n}, but the document's n is {desc.n}")
    elif args.pattern == "upper":
        if args.n is None:
            raise UsageError("upper pattern requires --n")
        desc = T1Descriptor("upper", n=args.n)
    elif args.pattern == "explicit":
        raise UsageError("explicit pattern requires --in FILE.json")
    else:
        desc = T1Descriptor(args.pattern)
    verdict = t1_classify(desc)
    return str(verdict), {"verdict": verdict.kind, "n": verdict.n}


def _t1_hom(args):
    return _dim(t1_hom_dim(_tube_object(args.a), _tube_object(args.b)))


def _t1_extensions(args):
    if args.r < 0:
        raise UsageError(f"tube levels must be nonnegative, got --r {args.r}")
    fams = t1_extensions(args.r, _tube_object(args.target))
    text = "\n".join(
        " + ".join(f"X_{x.level}@{x.shift}" for x in fam) if fam else "0"
        for fam in fams
    )
    return text, {"families": [[[x.shift, x.level] for x in fam] for fam in fams]}


def _orbit_pair(args) -> tuple:
    cat = OrbitCategory(args.n, args.m)
    return cat, cat.from_diagonal(_diag(args.a)), cat.from_diagonal(_diag(args.b))


def _orbit_list(args):
    cat = OrbitCategory(args.n, args.m)
    text = "\n".join(f"{d}  <->  {x}" for d, x in zip(cat.diagonals, cat.objects))
    return text, {"n": args.n, "m": args.m, "N": cat.N,
                  "diagonals": [[d.i, d.j] for d in cat.diagonals],
                  "objects": [[x.degree, x.lo, x.hi] for x in cat.objects]}


def _orbit_hom(args):
    cat, a, b = _orbit_pair(args)
    return _dim(cat.hom_dim(a, b))


def _orbit_ext(args):
    cat, a, b = _orbit_pair(args)
    return _dim(cat.ext_dim(b, a))


def _orbit_middle(args):
    cat, a, b = _orbit_pair(args)
    mids = sorted(cat.to_diagonal(x) for x in cat.middle_term(a, b))
    return " + ".join(map(str, mids)) or "0", {"middles": [[d.i, d.j] for d in mids]}


def _orbit_closure(args):
    cat = OrbitCategory(args.n, args.m)
    closed = sorted(cat.closure_diagonals(_diag_list(args.diagonals)))
    return " ".join(map(str, closed)) or "(empty)", {
        "n": args.n, "m": args.m, "diagonals": [[d.i, d.j] for d in closed]
    }


def _orbit_enumerate(args):
    """One JSON document per torsion class, then a CSV summary line."""
    cat = OrbitCategory(args.n, args.m)
    classes = cat.torsion_classes()
    # json renders the envelope and each diagonal once; a class line joins them
    envelope = json.dumps({"diagonals": [], "m": args.m, "n": args.n}, sort_keys=True)
    head, tail = envelope.split("[]")
    rendered = {d: json.dumps([d.i, d.j]) for d in cat.diagonals}
    lines = [f"{head}[{', '.join(map(rendered.__getitem__, cls))}]{tail}" for cls in classes]
    lines += ["n,m,count", f"{args.n},{args.m},{len(classes)}"]
    return "\n".join(lines) + "\n", None


def _render(args):
    polygon, arcs = (args.n, args.m, args.diagonals), (args.w, args.arcs, args.dashed)
    if any(v is not None for v in polygon):
        if any(v is not None for v in arcs):
            raise UsageError("--n/--m/--diagonals and --w/--arcs/--dashed do not mix")
        if None in polygon:
            raise UsageError("polygon rendering requires --n, --m and --diagonals")
        diagonals = _diag_list(args.diagonals)
        _polygon_vertices(args.n, args.m)
        _check_params(args.n, args.m)
        for d in diagonals:
            _check_diagonal(args.n, args.m, d)  # no category: its objects may pass MAX_OBJECTS
        return svg_polygon_diagram(args.n, args.m, diagonals), None
    if args.w is None or args.arcs is None:
        raise UsageError("arc rendering requires --w and --arcs")
    dashed = _arc_list(args.w, args.dashed or "")
    return svg_arc_diagram(args.w, _arc_list(args.w, args.arcs), dashed), None


def _add_global_flags(parser: Parser, top: bool) -> None:
    """Add --format/--out/--window, with their defaults on the top parser only.

    Every subparser repeats these flags; its copies default to SUPPRESS, so
    they never reset a flag given before the subcommand.
    """

    def default(value):
        return value if top else argparse.SUPPRESS

    parser.add_argument("--format", choices=("text", "json"), default=default("text"))
    parser.add_argument("--out", default=default(None),
                        help="write output to a file instead of stdout")
    parser.add_argument("--window", type=_positive_int, default=default(DEFAULT_WINDOW),
                        help="report window radius")


def build_parser() -> Parser:
    common = Parser(add_help=False)
    _add_global_flags(common, top=False)
    p = Parser(prog="sphtor", description=__doc__)
    _add_global_flags(p, top=True)
    sub = p.add_subparsers(dest="command", required=True, parser_class=Parser)

    def add_parser(owner, name, handler=None, **kw):
        kw.setdefault("parents", [common])
        sp = owner.add_parser(name, **kw)
        sp.set_defaults(handler=handler)  # None on the t1 and orbit groups
        return sp

    def arcish(sp, names=("--a", "--b")):
        sp.add_argument("--w", type=int, required=True)
        for name in names:
            sp.add_argument(name, required=True, metavar="T,U")

    sp = add_parser(sub, "admissible", _admissible, help="test admissibility of a pair")
    sp.add_argument("--w", type=int, required=True)
    sp.add_argument("--arc", required=True, metavar="X,Y")

    sp = add_parser(sub, "act", _act, help="apply suspend/tau/serre to an arc")
    sp.add_argument("--w", type=int, required=True)
    sp.add_argument("--functor", required=True, choices=("suspend", "tau", "serre"))
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--arc", required=True, metavar="T,U")

    arcish(add_parser(sub, "hom", _hom, help="dim Hom(a, b)"))
    arcish(add_parser(sub, "ext", _ext, help="dim Ext^1(b, a)"))
    arcish(add_parser(sub, "middle", _middle, help="middle terms of extensions of b by a"))
    arcish(add_parser(sub, "eset", _eset, help="two-sided middle-summand set of a pair"))
    arcish(add_parser(sub, "ptolemy", _ptolemy, help="connector arcs of a pair"))

    sp = add_parser(sub, "closure", _closure, help="connector-arc closure of a finite arc set")
    sp.add_argument("--w", type=int, required=True)
    sp.add_argument("--arcs", required=True, metavar="T,U;T,U;...")

    sp = add_parser(sub, "torsion", _torsion, help="torsion-class verdict for a descriptor set")
    sp.add_argument("--in", dest="infile", required=True, metavar="FILE.json")

    t1 = add_parser(sub, "t1", help="weight-1 tube category").add_subparsers(
        dest="t1_command", required=True, parser_class=Parser
    )
    sp = add_parser(t1, "classify", _t1_classify)
    sp.add_argument("--pattern", required=True, choices=("empty", "all", "upper", "explicit"))
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--in", dest="infile", default=None, metavar="FILE.json")
    sp = add_parser(t1, "hom", _t1_hom)
    sp.add_argument("--a", required=True, metavar="SHIFT,LEVEL")
    sp.add_argument("--b", required=True, metavar="SHIFT,LEVEL")
    sp = add_parser(t1, "extensions", _t1_extensions)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--target", required=True, metavar="SHIFT,LEVEL")

    orbit = add_parser(sub, "orbit", help="orbit categories of type A").add_subparsers(
        dest="orbit_command", required=True, parser_class=Parser
    )

    def orbitish(sp, diagonals=()):
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--m", type=int, required=True)
        for name in diagonals:
            sp.add_argument(name, required=True, metavar="I,J")

    orbitish(add_parser(orbit, "list", _orbit_list))
    orbitish(add_parser(orbit, "hom", _orbit_hom), ("--a", "--b"))
    orbitish(add_parser(orbit, "ext", _orbit_ext), ("--a", "--b"))
    orbitish(add_parser(orbit, "middle", _orbit_middle), ("--a", "--b"))
    sp = add_parser(orbit, "closure", _orbit_closure)
    orbitish(sp)
    sp.add_argument("--diagonals", required=True, metavar="I,J;I,J;...")
    orbitish(add_parser(orbit, "enumerate", _orbit_enumerate))

    sp = add_parser(sub, "render", _render, help="SVG diagram of arcs or polygon diagonals")
    sp.add_argument("--w", type=int, default=None)
    sp.add_argument("--arcs", default=None, metavar="T,U;...")
    sp.add_argument("--dashed", default=None, metavar="T,U;...")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--diagonals", default=None, metavar="I,J;...")
    return p


@functools.lru_cache(maxsize=None)
def _parser() -> Parser:
    """The parser, built on the first request; parsing leaves it unchanged."""
    return build_parser()


def run(argv: Sequence[str]) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        _emit(args, *args.handler(args))
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return USAGE_EXIT
    except SphtorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_EXIT


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
