import json
import os
import subprocess
import sys
import time

import pytest

from conftest import cli_leaves
from sphtor.cli import build_parser, run
from sphtor.closure import MAX_CLOSED_SETS, MAX_VERDICT_PAIRS
from sphtor.orbit import MAX_OBJECTS, OrbitCategory
from sphtor.render import MAX_TICKS
from sphtor.tube import MAX_FAMILIES


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eset_json_example(capsys):
    code, out, _ = invoke(capsys, "eset", "--w", "2", "--a", "0,3", "--b", "1,4",
                          "--format", "json")
    assert code == 0
    assert json.loads(out) == {"arcs": [[0, 4], [1, 3]]}


def test_t1_classify_text_example(capsys):
    code, out, _ = invoke(capsys, "t1", "classify", "--pattern", "upper", "--n", "5")
    assert code == 0
    assert out.strip() == "t-structure (X_5, Y_5)"


def test_orbit_enumerate_summary(capsys):
    code, out, _ = invoke(capsys, "orbit", "enumerate", "--n", "2", "--m", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-2] == "n,m,count"
    assert lines[-1] == "2,2,10"
    docs = [json.loads(line) for line in lines[:-2]]
    assert len(docs) == 10
    assert docs[0]["diagonals"] == []


def test_admissible_and_act(capsys):
    code, out, _ = invoke(capsys, "admissible", "--w", "-2", "--arc", "5,0")
    assert code == 0 and out.strip() == "admissible"
    code, out, _ = invoke(capsys, "act", "--w", "-2", "--functor", "serre",
                          "--k", "1", "--arc", "5,0")
    assert code == 0 and out.strip() == "(7,2)"


def test_hom_ext_with_negative_endpoints(capsys):
    code, out, _ = invoke(capsys, "hom", "--w", "2", "--a", "-2,0", "--b", "-2,5",
                          "--format", "json")
    assert code == 0 and json.loads(out) == {"dim": 1}
    code, out, _ = invoke(capsys, "ext", "--w", "0", "--b", "2,0", "--a", "3,1")
    assert code == 0 and out.strip() == "2"


def test_closure_command(capsys):
    code, out, _ = invoke(capsys, "closure", "--w", "2", "--arcs", "0,3;1,4",
                          "--format", "json")
    assert code == 0
    assert json.loads(out) == {"w": 2, "arcs": [[0, 3], [0, 4], [1, 3], [1, 4]]}


def test_middle_and_ptolemy(capsys):
    code, out, _ = invoke(capsys, "middle", "--w", "0", "--a", "3,1", "--b", "2,0",
                          "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "classes": [
            {"side": "forward", "middles": [[2, 1], [3, 0]]},
            {"side": "backward", "middles": []},
        ]
    }
    code, out, _ = invoke(capsys, "ptolemy", "--w", "0", "--a", "3,1", "--b", "3,1",
                          "--format", "json")
    assert json.loads(out)["class_iii"] == [[1, 1], [3, 3]]


def test_torsion_command(tmp_path, capsys):
    blob = {"w": -1, "arcs": [],
            "fountains": [{"vertex": 0, "side": "left", "from": -1}]}
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(blob))
    code, out, _ = invoke(capsys, "torsion", "--in", str(path), "--window", "10",
                          "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "not_contravariantly_finite"
    assert data["witness_fountain"] == {"vertex": 0, "side": "left"}


def test_domain_error_exit_code(capsys):
    code, _, err = invoke(capsys, "hom", "--w", "1", "--a", "0,1", "--b", "0,2")
    assert code == 2
    assert "no arc model" in err


def test_usage_error_exit_code(capsys):
    code, _, err = invoke(capsys, "hom", "--w", "2", "--a", "0,3")
    assert code == 64
    code, _, err = invoke(capsys, "admissible", "--w", "2", "--arc", "zero,three")
    assert code == 64


def test_render_to_file(tmp_path, capsys):
    out_path = tmp_path / "pic.svg"
    code, out, _ = invoke(capsys, "render", "--w", "2", "--arcs", "0,3;1,4",
                          "--dashed", "0,4;1,3", "--out", str(out_path))
    assert code == 0 and out == ""
    text = out_path.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    # byte-identical on re-render
    out2 = tmp_path / "pic2.svg"
    invoke(capsys, "render", "--w", "2", "--arcs", "0,3;1,4",
           "--dashed", "0,4;1,3", "--out", str(out2))
    assert out2.read_text() == text


def test_orbit_subcommands(capsys):
    code, out, _ = invoke(capsys, "orbit", "list", "--n", "2", "--m", "2",
                          "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["N"] == 4 and len(data["diagonals"]) == 4
    code, out, _ = invoke(capsys, "orbit", "middle", "--n", "3", "--m", "2",
                          "--a", "1,6", "--b", "2,3", "--format", "json")
    assert json.loads(out) == {"middles": [[3, 6]]}
    code, out, _ = invoke(capsys, "orbit", "closure", "--n", "2", "--m", "2",
                          "--diagonals", "1,2;3,4", "--format", "json")
    assert json.loads(out)["diagonals"] == [[1, 2], [1, 4], [2, 3], [3, 4]]


def test_t1_classify_from_json(tmp_path, capsys):
    blob = {"w": 1, "pattern": "explicit", "tubes": {"0": "all", "2": [0, 1]}}
    path = tmp_path / "t1.json"
    path.write_text(json.dumps(blob))
    code, out, _ = invoke(capsys, "t1", "classify", "--pattern", "explicit",
                          "--in", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == "not_torsion_class"


def test_orbit_enumerate_guard_exit_code(capsys):
    code, out, err = invoke(capsys, "orbit", "enumerate", "--n", "1", "--m", "18")
    assert code == 2 and out == ""
    assert str(MAX_CLOSED_SETS) in err


def test_orbit_category_budget_exit_code(capsys):
    # 4 000 000 objects: refused before any is built
    start = time.perf_counter()
    code, out, err = invoke(capsys, "orbit", "list", "--n", "2000", "--m", "2")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert str(MAX_OBJECTS) in err


def test_closure_budget_exit_code(capsys):
    # at w = 0 the closure is all 3240 admissible arcs on the 80 endpoints:
    # refused once it holds 1448 (about 15 s to close in full); CPU time, so
    # that other processes on the host do not count
    arcs = ";".join(f"{3 * i + 7},{3 * i}" for i in range(40))
    start = time.process_time()
    code, out, err = invoke(capsys, "closure", "--w", "0", "--arcs", arcs)
    assert time.process_time() - start < 1
    assert code == 2 and out == ""
    assert "1048576" in err


def test_torsion_perp_budget_exit_code(tmp_path, capsys):
    blob = {"w": 2, "arcs": [], "fountains": [{"vertex": 0, "side": "left", "from": -2}]}
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(blob))
    code, out, err = invoke(capsys, "torsion", "--in", str(path), "--window", "400")
    assert code == 2 and out == ""
    assert str(MAX_VERDICT_PAIRS) in err


@pytest.mark.parametrize("doc, window", [
    ({"w": 2, "arcs": [], "fountains": [{"vertex": 0, "side": "left", "from": -2},
                                        {"vertex": 0, "side": "right", "from": 2}]}, "1000"),
    ({"w": 2, "arcs": [[0, 3]], "fountains": []}, "600"),
])
def test_torsion_scan_budget_exit_code(tmp_path, capsys, doc, window):
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "torsion", "--in", str(path), "--window", window)
    assert code == 2 and out == ""
    assert str(MAX_VERDICT_PAIRS) in err


def test_orbit_enumerate_past_sixteen_objects(capsys):
    code, out, _ = invoke(capsys, "orbit", "enumerate", "--n", "5", "--m", "2")
    assert code == 0
    assert out.endswith("n,m,count\n5,2,10302\n")


@pytest.mark.parametrize("n,m", [(2, 5), (3, 3), (1, 12)])
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("to_file", [False, True])
def test_orbit_enumerate_lines_are_json_of_each_class(tmp_path, capsys, n, m, fmt, to_file):
    # the golden file pins (2, 2) only; every line must be json.dumps of its class
    argv = ["orbit", "enumerate", "--n", str(n), "--m", str(m), "--format", fmt]
    path = tmp_path / "classes.txt"
    code, out, _ = invoke(capsys, *argv, *(["--out", str(path)] if to_file else []))
    assert code == 0
    if to_file:
        assert out == ""
        out = path.read_text(encoding="utf-8")
    classes = OrbitCategory(n, m).torsion_classes()
    expected = [
        json.dumps({"n": n, "m": m, "diagonals": [[d.i, d.j] for d in cls]}, sort_keys=True)
        for cls in classes
    ]
    assert out == "\n".join(expected + ["n,m,count", f"{n},{m},{len(classes)}"]) + "\n"


UNWRITABLE = {
    "hom": ("hom", "--w", "2", "--a", "0,3", "--b", "1,4"),
    "orbit_enumerate": ("orbit", "enumerate", "--n", "2", "--m", "2"),
    "render": ("render", "--w", "2", "--arcs", "0,3;1,4"),
}


@pytest.mark.parametrize("name", sorted(UNWRITABLE))
def test_unwritable_out_is_usage_error(tmp_path, capsys, name):
    path = tmp_path / "missing" / "x"
    code, out, err = invoke(capsys, *UNWRITABLE[name], "--out", str(path))
    assert code == 64 and out == ""
    assert f"cannot write {path}" in err


def test_global_flags_before_subcommand(capsys):
    code, out, _ = invoke(capsys, "--format", "json", "hom", "--w", "2",
                          "--a", "0,3", "--b", "1,4")
    assert code == 0 and json.loads(out) == {"dim": 1}
    # a flag after the subcommand still wins over one before it
    code, out, _ = invoke(capsys, "--format", "json", "hom", "--w", "2",
                          "--a", "0,3", "--b", "1,4", "--format", "text")
    assert code == 0 and out.strip() == "1"


def test_arc_list_starting_negative(capsys):
    code, out, _ = invoke(capsys, "closure", "--w", "3", "--arcs", "-5,4;-4,5",
                          "--format", "json")
    assert code == 0
    assert json.loads(out) == {"w": 3, "arcs": [[-5, 4], [-4, 5]]}


@pytest.mark.parametrize("before", [False, True])
@pytest.mark.parametrize("window", ["0", "-3"])
def test_non_positive_window_is_usage_error(tmp_path, capsys, window, before):
    path = tmp_path / "ds.json"
    path.write_text(json.dumps({"w": 2, "arcs": [[0, 3]], "fountains": []}))
    flag, request = ["--window", window], ["torsion", "--in", str(path)]
    code, out, err = invoke(capsys, *(flag + request if before else request + flag))
    assert code == 64 and out == ""
    assert "--window" in err


BAD_INPUTS = {
    "missing_file": (("torsion", "--in", "{tmp}/missing.json"), 64),
    "malformed_json": (("torsion", "--in", "{tmp}/malformed.json"), 64),
    "no_weight": (("torsion", "--in", "{tmp}/no_weight.json"), 64),
    "float_endpoint": (("torsion", "--in", "{tmp}/float_endpoint.json"), 64),
    "float_weight": (("torsion", "--in", "{tmp}/float_weight.json"), 64),
    "bool_weight": (("torsion", "--in", "{tmp}/bool_weight.json"), 64),
    "float_fountain": (("torsion", "--in", "{tmp}/float_fountain.json"), 64),
    "t1_float_n": (("t1", "classify", "--pattern", "upper", "--in", "{tmp}/t1_float_n.json"), 64),
    "t1_float_level": (("t1", "classify", "--pattern", "explicit", "--in",
                        "{tmp}/t1_float_level.json"), 64),
    "t1_tubes_list": (("t1", "classify", "--pattern", "explicit", "--in",
                       "{tmp}/t1_tubes_list.json"), 64),
    "t1_tubes_null": (("t1", "classify", "--pattern", "explicit", "--in",
                       "{tmp}/t1_tubes_null.json"), 64),
    "t1_negative_file_level": (("t1", "classify", "--pattern", "explicit", "--in",
                                "{tmp}/t1_negative_level.json"), 64),
    "t1_negative_level": (("t1", "hom", "--a", "0,-1", "--b", "0,0"), 64),
    "render_non_diagonal": (("render", "--n", "3", "--m", "2", "--diagonals", "1,3"), 2),
    "render_mixed_options": (("render", "--n", "3", "--m", "2", "--diagonals", "1,2",
                              "--w", "2", "--arcs", "0,3"), 64),
}


USAGE_PATHS = {
    "arc_not_a_pair": (("admissible", "--w", "2", "--arc", "5"), 64,
                       "usage error: expected 'x,y', got '5'", ""),
    "window_not_an_int": (("torsion", "--in", "ds.json", "--window", "abc"), 64,
                          "usage error: argument --window: invalid int value: 'abc'", ""),
    "render_polygon_incomplete": (("render", "--n", "3"), 64,
                                  "usage error: polygon rendering requires --n, --m and "
                                  "--diagonals", ""),
    "render_arcs_incomplete": (("render", "--w", "2"), 64,
                               "usage error: arc rendering requires --w and --arcs", ""),
    "t1_upper_without_n": (("t1", "classify", "--pattern", "upper"), 64,
                           "usage error: upper pattern requires --n", ""),
    "t1_explicit_without_in": (("t1", "classify", "--pattern", "explicit"), 64,
                               "usage error: explicit pattern requires --in FILE.json", ""),
    "t1_empty": (("t1", "classify", "--pattern", "empty"), 0, None, "trivial zero\n"),
    "t1_all": (("t1", "classify", "--pattern", "all"), 0, None, "trivial all\n"),
    "t1_pattern_differs_from_file": (("t1", "classify", "--pattern", "empty", "--in",
                                      "{tmp}/t1_all.json"), 64,
                                     "usage error: --pattern empty, but the document's "
                                     "pattern is all", ""),
    "t1_n_differs_from_file": (("t1", "classify", "--pattern", "upper", "--n", "5", "--in",
                                "{tmp}/t1_upper.json"), 64,
                               "usage error: --n 5, but the document's n is 2", ""),
    "t1_negative_r": (("t1", "extensions", "--r", "-1", "--target", "0,0"), 64,
                      "usage error: tube levels must be nonnegative, got --r -1", ""),
}


@pytest.mark.parametrize("name", sorted(USAGE_PATHS))
def test_usage_paths(tmp_path, capsys, name):
    (tmp_path / "t1_all.json").write_text(json.dumps({"pattern": "all"}))
    (tmp_path / "t1_upper.json").write_text(json.dumps({"pattern": "upper", "n": 2}))
    words, expected, first_err, expected_out = USAGE_PATHS[name]
    code, out, err = invoke(capsys, *(w.replace("{tmp}", str(tmp_path)) for w in words))
    assert code == expected and out == expected_out
    assert (err.splitlines() or [None])[0] == first_err


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_exit_code(tmp_path, capsys, name):
    (tmp_path / "malformed.json").write_text('{"w": 2, "arcs": [[0, 3], ')
    documents = {
        "no_weight": {"arcs": [[0, 3]], "fountains": []},
        "float_endpoint": {"w": 2, "arcs": [[0, 3.0]]},
        "float_weight": {"w": 2.5},
        "bool_weight": {"w": True, "arcs": [[0, 1]]},
        "float_fountain": {"w": 2, "fountains": [{"vertex": 0, "side": "right", "from": 2.0}]},
        "t1_float_n": {"w": 1, "pattern": "upper", "n": 2.5},
        "t1_float_level": {"w": 1, "pattern": "explicit", "tubes": {"0": [1.5]}},
        "t1_tubes_list": {"w": 1, "pattern": "explicit", "tubes": [1, 2]},
        "t1_tubes_null": {"w": 1, "pattern": "explicit", "tubes": None},
        "t1_negative_level": {"pattern": "explicit", "tubes": {"1": [-1]}},
    }
    for stem, doc in documents.items():
        (tmp_path / f"{stem}.json").write_text(json.dumps(doc))
    words, expected = BAD_INPUTS[name]
    code, out, err = invoke(capsys, *(w.replace("{tmp}", str(tmp_path)) for w in words))
    assert code == expected and out == ""
    assert err.strip()


RUNAWAY = {
    "render_far_arcs": (("render", "--w", "2", "--arcs", "0,3;1000000000,1000000003"), MAX_TICKS),
    "render_huge_polygon": (("render", "--n", "1", "--m", "60000", "--diagonals", "1,3"), MAX_TICKS),
    "t1_high_levels": (("t1", "extensions", "--r", "1000000000", "--target", "0,1000000000"),
                       MAX_FAMILIES),
}


@pytest.mark.parametrize("name", sorted(RUNAWAY))
def test_runaway_inputs_are_refused_at_once(capsys, name):
    # each cost grows with the magnitude of the input, not its length
    words, limit = RUNAWAY[name]
    start = time.process_time()
    code, out, err = invoke(capsys, *words)
    assert time.process_time() - start < 0.5
    assert code == 2 and out == ""
    assert err.startswith("error: refusing") and str(limit) in err


def test_render_non_diagonal_matches_orbit_hom(capsys):
    _, _, render_err = invoke(capsys, "render", "--n", "3", "--m", "2", "--diagonals", "1,3")
    code, _, hom_err = invoke(capsys, "orbit", "hom", "--n", "3", "--m", "2",
                              "--a", "1,3", "--b", "1,6")
    assert code == 2 and render_err == hom_err


def test_render_polygon_of_a_category_past_the_object_cap(tmp_path, capsys):
    # C_2(A_300) has 90 000 objects, but its polygon has N = 2 * 301 - 2 = 600 vertices
    assert 2 * 300 * 301 // 2 - 300 > MAX_OBJECTS and 2 * 301 - 2 <= MAX_TICKS
    out_path = tmp_path / "polygon.svg"
    start = time.process_time()
    code, out, err = invoke(capsys, "render", "--n", "300", "--m", "2", "--diagonals", "1,4;2,597",
                            "--out", str(out_path))
    assert time.process_time() - start < 0.5
    assert (code, out, err) == (0, "", "")
    assert out_path.read_text().count("</text>") == 600  # one label per vertex
    # the chord and parameter checks of the category still apply, with its messages
    for n, diagonals, message in (("300", "1,3", "error: {1,3} is not an m-diagonal for (n=300, m=2)"),
                                  ("300", "1,599", "error: {1,599} is not an m-diagonal for (n=300, m=2)"),
                                  ("0", "1,4", "error: need n >= 1")):
        code, out, err = invoke(capsys, "render", "--n", n, "--m", "2", "--diagonals", diagonals)
        assert (code, out, err.strip()) == (2, "", message)


def test_parser_is_reused_without_carrying_state(capsys, monkeypatch):
    import sphtor.cli as cli

    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    hom = ("hom", "--w", "2", "--a", "0,3", "--b", "1,4")
    code, out, _ = invoke(capsys, *hom, "--format", "json")
    assert code == 0 and json.loads(out) == {"dim": 1}
    code, out, _ = invoke(capsys, *hom)
    assert code == 0 and out.strip() == "1"
    code, out, err = invoke(capsys, "hom", "--w", "2", "--a", "0,3")
    assert code == 64 and out == "" and "usage" in err
    code, out, _ = invoke(capsys, "ext", "--w", "0", "--b", "2,0", "--a", "3,1")
    assert code == 0 and out.strip() == "2"
    assert len(built) <= 1


def test_every_leaf_subcommand_has_a_handler():
    leaves = cli_leaves(build_parser())
    assert ("orbit", "enumerate") in leaves and ("t1", "hom") in leaves
    for path, parser in leaves.items():
        assert callable(parser.get_default("handler")), path


@pytest.mark.parametrize(
    "argv,code",
    [
        (("hom", "--w", "2", "--a", "0,3", "--b", "1,4"), 0),
        (("hom", "--w", "1", "--a", "0,1", "--b", "0,2"), 2),
        (("hom", "--w", "2", "--a", "0,3"), 64),
    ],
    ids=["answer", "domain_error", "missing_option"],
)
def test_module_entry_point_exits_with_the_run_code(capsys, argv, code):
    # python -m sphtor.cli runs main(), which exits with the code of run()
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "sphtor.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == code, result.stderr
    assert (code, result.stdout) == invoke(capsys, *argv)[:2]
