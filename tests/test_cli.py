import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from effhom.chains import homology_groups, normalized_chains
from effhom.cli import InputError, main, parse_document
from helpers import RP2_FACETS, run_cli, serialize_sset, stacked_sphere

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


@pytest.mark.parametrize("doc, message", [
    # s_1 of the 0-cell v: a 0-simplex only has s_0
    ({"kind": "simplicial_set", "cells": {"0": ["v"], "2": ["t"]},
      "faces": {"t": [["v", [0]], ["v", [1]], ["v", [0]]]}},
     "do not apply"),
    ({"kind": "simplicial_set", "cells": {"0": ["v"], "1": ["e"]},
      "faces": {"e": [[["v"], []], ["v", []]]}},
     "malformed"),
    # a string is not a list of cell names
    ({"kind": "simplicial_set", "cells": {"0": "vw"}, "faces": {}},
     "list of cell names"),
    # JSON booleans are not vertices
    ({"kind": "facets", "facets": [[True, False, 2], [0, 1, 3], [0, 2, 3],
                                   [1, 2, 3]]},
     "facet #0 is not a list of integers"),
    # face entries for an undeclared cell and for a 0-cell
    ({"kind": "simplicial_set", "cells": {"0": ["v"], "2": ["c"]},
      "faces": {"c": [["v", [0]]] * 3, "zz": []}},
     "entry for 'zz'"),
    ({"kind": "simplicial_set", "cells": {"0": ["v"], "2": ["c"]},
      "faces": {"c": [["v", [0]]] * 3, "v": []}},
     "entry for 'v'"),
])
def test_parse_rejects_malformed_cells_and_faces(tmp_path, capsys, doc,
                                                 message):
    assert main(["homology", write_doc(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and message in err


_NAMES = st.sampled_from(["v", "w", "e", "f", "t"])
_LEAF = st.one_of(st.none(), st.booleans(), st.integers(-2, 3), _NAMES)
_FACE = st.one_of(
    st.tuples(st.one_of(_NAMES, st.lists(_NAMES, max_size=1), _LEAF),
              st.lists(st.integers(-1, 3), max_size=3)).map(list),
    _LEAF, st.lists(_LEAF, max_size=3))
_SSET_DOCS = st.fixed_dictionaries({
    "kind": st.just("simplicial_set"),
    "cells": st.one_of(
        st.dictionaries(st.sampled_from(["0", "1", "2", "3", "-1", "x"]),
                        st.one_of(st.lists(_NAMES, max_size=3, unique=True),
                                  _LEAF),
                        max_size=4),
        _LEAF),
    "faces": st.one_of(
        st.dictionaries(_NAMES, st.one_of(st.lists(_FACE, max_size=4), _LEAF),
                        max_size=5),
        _LEAF),
})


@settings(max_examples=300, deadline=None)
@given(doc=_SSET_DOCS)
def test_homology_of_any_simplicial_set_document_exits_0_or_2(
        tmp_path_factory, doc):
    path = write_doc(tmp_path_factory.mktemp("doc"), doc)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(["homology", path]) in (0, 2)


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


@pytest.mark.parametrize("doc, reason", [
    ({"kind": "facets", "facets": [[0, 1], [2, 3]]},
     "not connected: it has 2 components"),
    ({"kind": "simplicial_set", "cells": {}}, "empty"),
], ids=["two-edges", "empty"])
@pytest.mark.parametrize("args", [
    ["pi", "--k", "2"], ["pi", "--k", "2", "--assume-simply-connected"],
    ["postnikov", "--k", "2"]], ids=["pi", "pi-assume", "postnikov"])
def test_tower_commands_refuse_empty_or_disconnected_input(
        tmp_path, capsys, doc, reason, args):
    path = write_doc(tmp_path, doc)
    assert main(args[:1] + [path] + args[1:]) == 1
    out = capsys.readouterr()
    assert f"error: the input is {reason}" in out.err
    assert out.out == ""


@pytest.mark.parametrize("args", [
    ["homology", "--max-dim", "-3"],
    ["pi", "--k", "1"],
    ["pi", "--k", "1", "--assume-simply-connected"],
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


def test_cmd_postnikov_dump_of_a_wedge_has_the_minimal_stage_2(
        tmp_path, capsys, own_caches):
    # P_2 of a wedge of three two-spheres is K(Z^3,2), whose minimal
    # effective complex is the tensor cube of that of K(Z,2)
    cells = ["c0", "c1", "c2"]
    doc = {"kind": "simplicial_set", "cells": {"0": ["v"], "2": cells},
           "faces": {c: [["v", [0]]] * 3 for c in cells}}
    path = write_doc(tmp_path, doc)
    assert main(["postnikov", path, "--k", "3", "--dump"]) == 0
    assert "stage 2: pi_2 = Z + Z + Z, effective ranks [1, 0, 3, 0, 6, 0]" \
        in capsys.readouterr().out.splitlines()


def test_cmd_postnikov_eval_names_a_multi_digit_vertex(tmp_path, capsys):
    doc = {"kind": "facets", "facets": [[10, 11, 12], [10, 11, 13],
                                        [10, 12, 13], [11, 12, 13]]}
    path = write_doc(tmp_path, doc)
    assert main(["postnikov", path, "--k", "2", "--eval", "2:12"]) == 0
    assert "phi_2(12) = " in capsys.readouterr().out
    # 1011 is no vertex, and its digits (1, 0, 1, 1) name no simplex
    assert main(["postnikov", path, "--k", "2", "--eval", "2:1011"]) == 2
    assert main(["postnikov", path, "--k", "2", "--eval", "2:10,11"]) == 0


def test_cmd_verify_suites(capsys):
    assert main(["verify", "--suite", "smith", "--samples", "10"]) == 0
    assert main(["verify", "--suite", "injected-fault"]) == 0
    out = capsys.readouterr().out
    assert "fg=id" in out
    assert main(["verify", "--suite", "nope"]) == 2


@pytest.mark.parametrize("suite", ["smith", "injected-fault", "all"])
def test_verify_refuses_fewer_than_one_sample(capsys, suite):
    assert main(["verify", "--suite", suite, "--samples", "0"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "--samples must be at least 1" in out.err


def test_verify_reduction_axioms_covers_the_collapses(capsys):
    assert main(["verify", "--suite", "reduction-axioms",
                 "--samples", "5"]) == 0
    out = capsys.readouterr().out
    assert "collapse of S2: pass" in out and "collapse of S3: pass" in out


def test_verify_seed_change_keeps_pass(capsys):
    assert main(["verify", "--suite", "smith", "--seed", "7",
                 "--samples", "10"]) == 0


def test_pi_json_byte_identical_across_processes(tmp_path):
    path = write_doc(tmp_path, S2_DOC)
    runs = [run_cli(["pi", path, "--k", "3", "--assume-simply-connected",
                     "--json"], seed) for seed in ("1", "2")]
    assert runs[0] == runs[1]
    assert json.loads(runs[0])["groups"] == ["Z", "Z"]


def test_postnikov_eval_byte_identical_across_hash_seeds(tmp_path):
    # cells named by strings, whose hashes change with the hash seed
    doc = serialize_sset(stacked_sphere(24, 5))
    path = write_doc(tmp_path, doc)
    triangle = doc["cells"]["2"][7]
    runs = [run_cli(["postnikov", path, "--k", "3", "--eval",
                     f"3:{triangle}"], seed) for seed in ("0", "1")]
    assert runs[0] == runs[1]
    assert runs[0].startswith(f"phi_3({triangle}) = ".encode())
