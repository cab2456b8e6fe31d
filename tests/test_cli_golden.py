"""Golden output of every leaf subcommand: stdout and exit code, in both formats.

The expected outputs live in ``cli_golden.json`` next to this file, keyed by
case name and format.  A request's words may name ``{tmp}``, the directory
that holds the input documents of ``DOCUMENTS``.
"""

import json
from pathlib import Path

import pytest

from conftest import cli_leaves
from sphtor.cli import build_parser, run

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))

DOCUMENTS = {
    "not_closed": {"w": 2, "arcs": [[0, 3], [1, 4]], "fountains": []},
    "torsion_class": {"w": 2, "arcs": [[0, 3]], "fountains": []},
    "wrong_fountain": {"w": -1, "arcs": [],
                       "fountains": [{"vertex": 0, "side": "left", "from": -1}]},
    "t1_explicit": {"w": 1, "pattern": "explicit", "tubes": {"0": "all", "2": [0, 1]}},
}

CASES = {
    "admissible": ("admissible", "--w", "-2", "--arc", "5,0"),
    "admissible_not": ("admissible", "--w", "2", "--arc", "0,1"),
    "act": ("act", "--w", "-2", "--functor", "serre", "--k", "1", "--arc", "5,0"),
    "hom": ("hom", "--w", "2", "--a", "0,3", "--b", "1,4"),
    "hom_weight_one": ("hom", "--w", "1", "--a", "0,1", "--b", "0,2"),
    "ext": ("ext", "--w", "0", "--b", "2,0", "--a", "3,1"),
    "middle": ("middle", "--w", "0", "--a", "3,1", "--b", "2,0"),
    "middle_none": ("middle", "--w", "2", "--a", "0,3", "--b", "0,3"),
    "eset": ("eset", "--w", "2", "--a", "0,3", "--b", "1,4"),
    "eset_empty": ("eset", "--w", "2", "--a", "0,3", "--b", "0,3"),
    "ptolemy": ("ptolemy", "--w", "0", "--a", "3,1", "--b", "3,1"),
    "closure": ("closure", "--w", "2", "--arcs", "0,3;1,4"),
    "closure_empty": ("closure", "--w", "2", "--arcs", ""),
    "torsion_not_closed": ("torsion", "--in", "{tmp}/not_closed.json", "--window", "3"),
    "torsion_class": ("torsion", "--in", "{tmp}/torsion_class.json", "--window", "3"),
    "torsion_fountain": ("torsion", "--in", "{tmp}/wrong_fountain.json", "--window", "4"),
    "t1_classify": ("t1", "classify", "--pattern", "upper", "--n", "5"),
    "t1_classify_file": ("t1", "classify", "--pattern", "explicit",
                         "--in", "{tmp}/t1_explicit.json"),
    "t1_hom": ("t1", "hom", "--a", "0,1", "--b", "0,2"),
    "t1_extensions": ("t1", "extensions", "--r", "2", "--target", "0,3"),
    "t1_extensions_split": ("t1", "extensions", "--r", "1", "--target", "1,1"),
    "orbit_list": ("orbit", "list", "--n", "2", "--m", "2"),
    "orbit_hom": ("orbit", "hom", "--n", "3", "--m", "2", "--a", "2,3", "--b", "1,6"),
    "orbit_hom_not_diagonal": ("orbit", "hom", "--n", "3", "--m", "2",
                               "--a", "1,3", "--b", "1,6"),
    "orbit_ext": ("orbit", "ext", "--n", "3", "--m", "2", "--a", "1,6", "--b", "2,3"),
    "orbit_middle": ("orbit", "middle", "--n", "3", "--m", "2", "--a", "1,6", "--b", "2,3"),
    "orbit_closure": ("orbit", "closure", "--n", "2", "--m", "2", "--diagonals", "1,2;3,4"),
    "orbit_closure_empty": ("orbit", "closure", "--n", "2", "--m", "2", "--diagonals", ""),
    "orbit_enumerate": ("orbit", "enumerate", "--n", "2", "--m", "2"),
    "render_arcs": ("render", "--w", "2", "--arcs", "0,3;1,4", "--dashed", "0,4;1,3"),
    "render_polygon": ("render", "--n", "3", "--m", "2", "--diagonals", "1,2;3,6"),
}


def request(tmp_path, name, fmt):
    for stem, doc in DOCUMENTS.items():
        (tmp_path / f"{stem}.json").write_text(json.dumps(doc))
    words = [w.replace("{tmp}", str(tmp_path)) for w in CASES[name]]
    return words + ["--format", fmt]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(tmp_path, capsys, name, fmt):
    code = run(request(tmp_path, name, fmt))
    assert [code, capsys.readouterr().out] == GOLDEN[name][fmt]


def test_golden_cases_cover_every_leaf():
    leaves = cli_leaves(build_parser())
    covered = {path for path in leaves for words in CASES.values() if words[:len(path)] == path}
    assert covered == set(leaves)
    assert set(GOLDEN) == set(CASES)
