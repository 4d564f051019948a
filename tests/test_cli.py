import json

import pytest

from effhom.chains import homology_groups, normalized_chains
from effhom.cli import (InputError, main, parse_document, serialize_sset)
from helpers import RP2_FACETS, run_cli

S2_DOC = {"kind": "facets", "facets": [[0, 1, 2], [0, 1, 3],
                                       [0, 2, 3], [1, 2, 3]]}
S1_MIN_DOC = {"kind": "simplicial_set",
              "cells": {"0": ["v"], "1": ["e"]},
              "faces": {"e": [["v", []], ["v", []]]}}


def write_doc(tmp_path, doc, name="in.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_parse_facets_s2():
    X = parse_document(S2_DOC)
    assert homology_groups(normalized_chains(X), 2)[2].render() == "Z"


def test_parse_minimal_circle():
    X = parse_document(S1_MIN_DOC)
    assert [g.render() for g in homology_groups(normalized_chains(X), 1)] \
        == ["Z", "Z"]


def test_parse_rejects_duplicate_vertex():
    with pytest.raises(InputError, match="facet #1"):
        parse_document({"kind": "facets", "facets": [[0, 1], [0, 2, 2]]})


def test_parse_rejects_bad_face_table():
    doc = {"kind": "simplicial_set",
           "cells": {"0": ["v", "w"], "1": ["e"]},
           "faces": {"e": [["v", []]]}}
    with pytest.raises(InputError, match="face entries"):
        parse_document(doc)
    doc = {"kind": "simplicial_set",
           "cells": {"0": ["v"], "1": ["e"]},
           "faces": {"e": [["v", []], ["x", []]]}}
    with pytest.raises(InputError, match="unknown cell"):
        parse_document(doc)


def test_parse_rejects_face_table_that_is_not_an_object(tmp_path, capsys):
    doc = {"kind": "simplicial_set",
           "cells": {"0": ["v"], "1": ["e"]},
           "faces": [["v", []], ["v", []]]}
    with pytest.raises(InputError, match="'faces' must map"):
        parse_document(doc)
    assert main(["homology", write_doc(tmp_path, doc)]) == 2
    assert "input error" in capsys.readouterr().err


def test_parse_rejects_inconsistent_faces():
    # a 2-cell whose face table violates d_i d_j = d_{j-1} d_i
    doc = {"kind": "simplicial_set",
           "cells": {"0": ["a", "b", "c"], "1": ["ab", "bc", "ac"],
                     "2": ["t"]},
           "faces": {"ab": [["b", []], ["a", []]],
                     "bc": [["c", []], ["b", []]],
                     "ac": [["c", []], ["a", []]],
                     "t": [["bc", []], ["ac", []], ["bc", []]]}}
    with pytest.raises(InputError, match="inconsistent"):
        parse_document(doc)


def test_document_round_trip():
    for doc in (S2_DOC, S1_MIN_DOC):
        X = parse_document(doc)
        doc2 = serialize_sset(X)
        X2 = parse_document(doc2)
        assert serialize_sset(X2) == doc2


def test_cmd_homology_examples(tmp_path, capsys):
    assert main(["homology", write_doc(tmp_path, S2_DOC)]) == 0
    assert capsys.readouterr().out.strip() == "Z, 0, Z"
    rp2 = {"kind": "facets", "facets": [list(f) for f in RP2_FACETS]}
    assert main(["homology", write_doc(tmp_path, rp2, "rp2.json")]) == 0
    assert capsys.readouterr().out.strip() == "Z, Z/2, 0"


def test_cmd_homology_parse_failure_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["homology", str(bad)]) == 2


def test_cmd_pi_s2(tmp_path, capsys):
    path = write_doc(tmp_path, S2_DOC)
    assert main(["pi", path, "--k", "3", "--assume-simply-connected"]) == 0
    assert capsys.readouterr().out.strip() == "pi_2 = Z, pi_3 = Z"


def test_cmd_pi_non_simply_connected(tmp_path, capsys):
    circ = {"kind": "facets", "facets": [[1, 2], [2, 3], [1, 3]]}
    path = write_doc(tmp_path, circ)
    assert main(["pi", path, "--k", "2", "--assume-simply-connected"]) == 1
    assert "simply connected" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["homology", "--max-dim", "-3"],
    ["pi", "--k", "3", "--degree-cap", "2"],
    ["pi", "--k", "3", "--degree-cap", "4", "--assume-simply-connected"],
    ["postnikov", "--k", "2", "--degree-cap", "3"],
])
def test_cmd_bad_flags_exit_2(tmp_path, capsys, args):
    path = write_doc(tmp_path, S2_DOC)
    assert main([args[0], path, *args[1:]]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "input error" in out.err


def test_cmd_postnikov_dump_and_eval(tmp_path, capsys):
    path = write_doc(tmp_path, S2_DOC)
    assert main(["postnikov", path, "--k", "2", "--dump"]) == 0
    out = capsys.readouterr().out
    assert "pi_2 = Z" in out and "effective ranks" in out
    assert main(["postnikov", path, "--k", "2", "--eval", "2:0,1,2"]) == 0
    out = capsys.readouterr().out
    assert "phi_2" in out and "k_1" in out
    assert main(["postnikov", path, "--k", "2", "--eval", "2:9,9"]) == 2


def test_cmd_verify_suites(capsys):
    assert main(["verify", "--suite", "smith", "--samples", "10"]) == 0
    assert main(["verify", "--suite", "injected-fault"]) == 0
    out = capsys.readouterr().out
    assert "fg=id" in out
    assert main(["verify", "--suite", "nope"]) == 2


def test_verify_seed_change_keeps_pass(capsys):
    assert main(["verify", "--suite", "smith", "--seed", "7",
                 "--samples", "10"]) == 0


def test_pi_json_byte_identical_across_processes(tmp_path):
    path = write_doc(tmp_path, S2_DOC)
    runs = [run_cli(["pi", path, "--k", "3", "--assume-simply-connected",
                     "--json"], seed) for seed in ("1", "2")]
    assert runs[0] == runs[1]
    assert json.loads(runs[0])["groups"] == ["Z", "Z"]
