import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import urygrid
from urygrid import cli, laws
from urygrid.cli import main

SRC = os.path.dirname(os.path.dirname(urygrid.__file__))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def space_file(tmp_path):
    p = tmp_path / "space.json"
    p.write_text(json.dumps({"points": ["a", "b"], "denominator": 4,
                             "dist": [[0, 2], [2, 0]]}))
    return str(p)


@pytest.fixture
def word_file(tmp_path):
    p = tmp_path / "word.json"
    p.write_text(json.dumps({
        "alphabet": {"points": ["x", "y"], "denominator": 10,
                     "dist": [[0, 3], [3, 0]]},
        "weights": [4, 6],
        "word": "x y^-1"}))
    return str(p)


@pytest.fixture
def instance_file(tmp_path):
    p = tmp_path / "instance.json"
    p.write_text(json.dumps({
        "X": {"points": ["x1", "x2"], "denominator": 10, "dist": [[0, 4], [4, 0]]},
        "Y": {"points": ["y1", "y2"], "denominator": 10, "dist": [[0, 8], [8, 0]]}}))
    return str(p)


class TestValidate:
    def test_valid_space(self, capsys, space_file):
        code, out, _ = run(capsys, "validate", space_file)
        assert code == 0 and out.strip() == "valid"

    def test_invalid_space_exits_one(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"points": ["a", "b"], "denominator": 4,
                                 "dist": [[0, 1], [2, 0]]}))
        code, out, _ = run(capsys, "validate", str(p))
        assert code == 1 and "symmetry" in out

    def test_missing_file_is_input_error(self, capsys):
        code = main(["validate", "/nonexistent/space.json"])
        assert code == 1

    @pytest.mark.parametrize("content, problem", [
        ('{"points": ["\xe9"], "denominator": 1, "dist": [[0]]}'.encode("latin-1"),
         "not UTF-8"),
        (b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply"),
        (b'{"points": ["a"], "denominator": ' + b"1" * 5000 + b', "dist": [[0]]}',
         "not valid JSON"),
    ], ids=["latin-1", "deep", "long-integer"])
    def test_unreadable_json_is_input_error(self, capsys, tmp_path, content, problem):
        p = tmp_path / "bad.json"
        p.write_bytes(content)
        code, out, err = run(capsys, "validate", str(p))
        assert code == 1 and out == ""
        assert err.startswith(f"error: {p}: {problem} (") and err.count("\n") == 1


class TestPseudoFlag:
    """``"pseudo"`` is JSON true or false; anything else is refused rather
    than read by truthiness."""

    @pytest.fixture
    def pseudo_file(self, tmp_path):
        def write(*value):
            obj = {"points": ["a", "b"], "denominator": 2, "dist": [[0, 0], [0, 0]]}
            if value:
                obj["pseudo"] = value[0]
            p = tmp_path / "pseudo.json"
            p.write_text(json.dumps(obj))
            return str(p)
        return write

    @pytest.mark.parametrize("command", ["validate", "isogroup"])
    @pytest.mark.parametrize("value", ["false", 1, [0], None])
    def test_non_boolean_exits_one(self, capsys, pseudo_file, command, value):
        code, out, err = run(capsys, command, pseudo_file(value))
        assert code == 1 and out == ""
        assert err == "error: space field 'pseudo' must be true or false\n"

    def test_true_admits_zero_distance(self, capsys, pseudo_file):
        code, out, _ = run(capsys, "--json", "validate", pseudo_file(True))
        assert code == 0 and json.loads(out)["valid"]
        code, out, _ = run(capsys, "--json", "isogroup", pseudo_file(True))
        assert code == 0 and json.loads(out)["order"] == 2

    @pytest.mark.parametrize("value", [(False,), ()], ids=["false", "absent"])
    def test_false_or_absent_means_metric(self, capsys, pseudo_file, value):
        code, out, _ = run(capsys, "--json", "validate", pseudo_file(*value))
        assert code == 1 and json.loads(out)["problems"][0]["kind"] == "identity"
        code, out, err = run(capsys, "isogroup", pseudo_file(*value))
        assert code == 1 and out == "" and "distance 0" in err


class TestComplete:
    def test_single_chain(self, capsys, tmp_path):
        p = tmp_path / "partial.json"
        p.write_text(json.dumps({"points": ["a", "b", "c"], "denominator": 4,
                                 "entries": [[0, 1, None], [1, 0, 1], [None, 1, 0]]}))
        code, out, _ = run(capsys, "--json", "complete", str(p))
        assert code == 0
        assert json.loads(out)["dist"][0][2] == 2

    def test_denominator_past_the_kernel_sentinel_exits_one(self, capsys, tmp_path):
        p = tmp_path / "partial.json"
        p.write_text(json.dumps({"points": ["a", "b"], "denominator": 2 ** 31,
                                 "entries": [[0, 2 ** 30], [2 ** 30, 0]]}))
        code, out, err = run(capsys, "complete", str(p))
        assert code == 1 and out == ""
        assert err == "error: denominator 2147483648 is not below 2^29 = 536870912\n"

    def test_bool_entry_exits_one(self, capsys, tmp_path):
        p = tmp_path / "partial.json"
        p.write_text(json.dumps({"points": ["a", "b"], "denominator": 2,
                                 "entries": [[0, True], [True, 0]]}))
        code, out, err = run(capsys, "complete", str(p))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and "True" in err


# `--json complete` and `--json amalgam` on a small corpus: name -> input and
# sha256 of stdout, recorded when every completion still went through the
# validating constructor
COMPLETE_CORPUS = {
    "chain": ({"points": ["a", "b", "c"], "denominator": 4,
               "entries": [[0, 1, None], [1, 0, 1], [None, 1, 0]]},
              "156c53081103dc77dd50a615814725008d85024bde25f76224608706ed300e07"),
    "capped": ({"points": ["a", "b", "c"], "denominator": 4,
                "entries": [[0, 3, None], [3, 0, 3], [None, 3, 0]]},
               "48ca256d29c9c5bf1590bc72191f4ae123bcba9b5c54cd6f1a531996b9ec2f0c"),
    "pseudo": ({"points": ["a", "b", "c", "d"], "denominator": 3,
                "entries": [[0, 0, None, None], [0, 0, 2, None],
                            [None, 2, 0, 1], [None, None, 1, 0]]},
               "092d9718f1d76f7395dfbf48ff1062b7f8678e4e17dc19c8aa8696f74bfa91b4"),
    "holes": ({"points": ["p", "q", "r", "s", "t"], "denominator": 7,
               "entries": [[None, 5, None, 2, None], [5, 0, 1, None, None],
                           [None, 1, None, 3, 6], [2, None, 3, 0, None],
                           [None, None, 6, None, 0]]},
              "58f392c2146719ed5ff667d1372db2b0312165e44ec6dd0f87db361b6c2156f8"),
}
COMPLETE_REFUSED = {
    # each edge given one way only: the closure is asymmetric
    "one-sided": ({"points": ["a", "b", "c"], "denominator": 4,
                   "entries": [[0, 1, None], [None, 0, 1], [4, None, 0]]},
                  "error: invalid space: d(a,b) = 1 but d(b,a) = 4; "
                  "d(a,c) = 2 but d(c,a) = 4; d(b,c) = 1 but d(c,b) = 4\n"),
    "disconnected": ({"points": ["a", "b", "c"], "denominator": 4,
                      "entries": [[0, 1, None], [1, 0, None], [None, None, 0]]},
                     "error: no chain of specified entries connects a and c\n"),
}
AMALGAM_CORPUS = {
    "chain": ({"points": ["a", "m"], "denominator": 4, "dist": [[0, 1], [1, 0]]},
              {"points": ["m", "b"], "denominator": 4, "dist": [[0, 1], [1, 0]]}, ["m=m"],
              "48d452e786be306b9bfdbc2eb359085553f4eff70b3bac932147a617e68eb691"),
    "no glue": ({"points": ["a", "b"], "denominator": 2, "dist": [[0, 1], [1, 0]]},
                {"points": ["c"], "denominator": 3, "dist": [[0]]}, [],
                "f1f6a7540732611e1f07f5e9200b5dea7658b6843560f6961b0290c0c1bb0ef3"),
    "mixed grids": ({"points": ["a", "b", "c"], "denominator": 2,
                     "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
                    {"points": ["u", "v", "w"], "denominator": 3,
                     "dist": [[0, 3, 2], [3, 0, 2], [2, 2, 0]]}, ["a=u", "c=v"],
                    "42caeb57c04fc1815ab4bef82f29d6f61ec66d87624b4dfad0c425894475ec32"),
    "pseudo": ({"points": ["a", "a2", "m"], "denominator": 2, "pseudo": True,
                "dist": [[0, 0, 1], [0, 0, 1], [1, 1, 0]]},
               {"points": ["m", "b"], "denominator": 2, "dist": [[0, 2], [2, 0]]}, ["m=m"],
               "edbbe73048c6684ca7078eb92aa99f2f84dbf289c4ac8002218973c27c0e243a"),
}


class TestCompletionCorpus:
    @pytest.mark.parametrize("name", COMPLETE_CORPUS)
    def test_complete_json_is_pinned(self, capsys, tmp_path, name):
        obj, digest = COMPLETE_CORPUS[name]
        p = tmp_path / "partial.json"
        p.write_text(json.dumps(obj))
        code, out, err = run(capsys, "--json", "complete", str(p))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("name", COMPLETE_REFUSED)
    def test_complete_refusal_is_pinned(self, capsys, tmp_path, name):
        obj, message = COMPLETE_REFUSED[name]
        p = tmp_path / "partial.json"
        p.write_text(json.dumps(obj))
        assert run(capsys, "--json", "complete", str(p)) == (1, "", message)

    @pytest.mark.parametrize("name", AMALGAM_CORPUS)
    def test_amalgam_json_is_pinned(self, capsys, tmp_path, name):
        x, y, glue, digest = AMALGAM_CORPUS[name]
        (tmp_path / "x.json").write_text(json.dumps(x))
        (tmp_path / "y.json").write_text(json.dumps(y))
        code, out, err = run(capsys, "--json", "amalgam", str(tmp_path / "x.json"),
                             str(tmp_path / "y.json"), *(a for g in glue for a in ("--glue", g)))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestAmalgam:
    def test_chain_through_glue(self, capsys, tmp_path):
        x = tmp_path / "x.json"
        x.write_text(json.dumps({"points": ["a", "m"], "denominator": 4,
                                 "dist": [[0, 1], [1, 0]]}))
        y = tmp_path / "y.json"
        y.write_text(json.dumps({"points": ["m", "b"], "denominator": 4,
                                 "dist": [[0, 1], [1, 0]]}))
        code, out, _ = run(capsys, "--json", "amalgam", str(x), str(y), "--glue", "m=m")
        assert code == 0
        obj = json.loads(out)
        i, j = obj["points"].index("a"), obj["points"].index("b")
        assert obj["dist"][i][j] == 2

    def test_point_glued_twice_exits_one(self, capsys, tmp_path):
        x = tmp_path / "x.json"
        x.write_text(json.dumps({"points": ["a", "m"], "denominator": 4,
                                 "dist": [[0, 1], [1, 0]]}))
        y = tmp_path / "y.json"
        y.write_text(json.dumps({"points": ["p", "r"], "denominator": 4,
                                 "dist": [[0, 1], [1, 0]]}))
        # either pair alone is a valid glue; together they must not keep one
        code, out, err = run(capsys, "amalgam", str(x), str(y),
                             "--glue", "a=p", "--glue", "a=r")
        assert code == 1 and out == ""
        assert err == "error: point 'a' is glued twice ('p' and 'r')\n"


class TestKatetov:
    def test_check_and_extend(self, capsys, tmp_path, space_file):
        f = tmp_path / "f.json"
        f.write_text(json.dumps({"space": "space.json", "support": ["a"],
                                 "values": [1]}))
        code, out, _ = run(capsys, "katetov", "check", str(f))
        assert code == 0 and "katetov" in out
        code, out, _ = run(capsys, "katetov", "extend", str(f))
        assert code == 0 and "3/4" in out

    def test_bool_value_exits_one(self, capsys, tmp_path, space_file):
        f = tmp_path / "f.json"
        f.write_text(json.dumps({"space": "space.json", "support": ["a"],
                                 "values": [True]}))
        code, out, err = run(capsys, "katetov", "check", str(f))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1

    def test_non_katetov_exits_one(self, capsys, tmp_path, space_file):
        f = tmp_path / "f.json"
        f.write_text(json.dumps({"space": "space.json", "support": ["a", "b"],
                                 "values": [0, 1]}))
        code, out, _ = run(capsys, "katetov", "check", str(f))
        assert code == 1


class TestGraev:
    def test_norm_oracle_and_dp_print_identically(self, capsys, word_file):
        code1, out1, _ = run(capsys, "graev", "norm", word_file)
        code2, out2, _ = run(capsys, "graev", "norm", word_file, "--oracle")
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.strip() == "3/10"

    def test_oracle_refuses_a_word_past_the_enumeration_bound(self, capsys, word_file):
        with open(word_file) as fh:
            obj = json.load(fh)
        obj["word"] = " ".join(["x y^-1"] * 7 + ["x"])
        with open(word_file, "w") as fh:
            json.dump(obj, fh)
        code, out, err = run(capsys, "graev", "norm", word_file, "--oracle")
        assert (code, out) == (2, "")
        assert err == ("refused: word of length 15 exceeds the enumeration bound 14; "
                       "use the dynamic program\n")
        assert run(capsys, "graev", "norm", word_file)[0] == 0

    # recorded when the CLI still built u^-1 v itself: it reduces to
    # x^-1 y y, whose cheapest pairing arcs x^-1 to one y (3) and leaves
    # the other unpaired (6)
    @pytest.mark.parametrize("oracle", [(), ("--oracle",)], ids=["dp", "oracle"])
    @pytest.mark.parametrize("fmt, expected", [((), "9/10\n"),
                                               (("--json",), '{"distance":[9,10]}\n')],
                             ids=["text", "json"])
    def test_dist_output_is_pinned(self, capsys, word_file, oracle, fmt, expected):
        with open(word_file) as fh:
            obj = json.load(fh)
        obj.update(u="x y^-1 x", v="x y")
        with open(word_file, "w") as fh:
            json.dump(obj, fh)
        assert run(capsys, *fmt, "graev", "dist", word_file, *oracle) == (0, expected, "")

    def test_dist_needs_two_words(self, capsys, word_file):
        code, _, err = run(capsys, "graev", "dist", word_file)
        assert code == 1 and "u" in err

    @pytest.mark.parametrize("field, value", [
        ("weights", [True, 1]), ("word", 5), ("word", ["x"]), ("u", None),
        ("weights", [1 << 62, 1 << 62])])
    def test_malformed_field_exits_one(self, capsys, word_file, field, value):
        with open(word_file) as fh:
            obj = json.load(fh)
        obj[field] = value
        with open(word_file, "w") as fh:
            json.dump(obj, fh)
        code, out, err = run(capsys, "graev", "norm", word_file)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1


class TestGh:
    def test_formula_and_oracle_print_identically(self, capsys, instance_file):
        code1, out1, _ = run(capsys, "gh", "dist", instance_file)
        code2, out2, _ = run(capsys, "gh", "dist", instance_file, "--oracle")
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.strip() == "2/10"

    def test_oracle_on_a_huge_grid_answers_at_once(self, capsys, tmp_path):
        q = 2 ** 28
        p = tmp_path / "instance.json"
        p.write_text(json.dumps({
            "X": {"points": ["x1", "x2"], "denominator": q, "dist": [[0, 1], [1, 0]]},
            "Y": {"points": ["y1", "y2"], "denominator": q, "dist": [[0, q], [q, 0]]}}))
        start = time.perf_counter()
        assert run(capsys, "gh", "dist", str(p), "--oracle") == \
            run(capsys, "gh", "dist", str(p)) == (0, f"{q - 1}/{2 * q}\n", "")
        assert time.perf_counter() - start < 1.0


class TestTheta:
    def test_bf_prints_routing_idempotent(self, capsys, space_file):
        code, out, _ = run(capsys, "--json", "theta", "bf", space_file,
                           "--points", "a")
        assert code == 0
        assert json.loads(out)["entries"] == [[0, 2], [2, 4]]

    def test_classify_counts(self, capsys, space_file):
        code, out, _ = run(capsys, "--json", "theta", "classify", space_file)
        assert code == 0
        assert json.loads(out)["count"] == 4

    def test_classify_four_points_within_the_budget(self, capsys, tmp_path):
        # (q + 1)^(n^2) = 4^16 matrices, but the walk takes 5,242 candidates
        from urygrid import fileio
        from urygrid.spaces import random_grid_space
        p = tmp_path / "four.json"
        p.write_text(json.dumps(fileio.space_to_obj(random_grid_space(4, 3, 1277))))
        code, out, _ = run(capsys, "theta", "classify", str(p))
        assert code == 0
        assert out.splitlines()[0] == "16 idempotents dominate the metric"

    def test_bool_entry_exits_one(self, capsys, tmp_path, space_file):
        m = tmp_path / "m.json"
        m.write_text(json.dumps({"space": "space.json",
                                 "entries": [[0, 2], [True, 0]]}))
        code, out, err = run(capsys, "theta", "star", str(m))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and "True" in err

    def test_invert_metric(self, capsys, tmp_path, space_file):
        m = tmp_path / "m.json"
        m.write_text(json.dumps({"space": "space.json",
                                 "entries": [[0, 2], [2, 0]]}))
        code, out, _ = run(capsys, "--json", "theta", "invert", str(m))
        assert code == 0
        assert json.loads(out)["isometry"] == ["a", "b"]

    @pytest.fixture
    def metric_file(self, tmp_path, space_file):
        m = tmp_path / "m.json"
        m.write_text(json.dumps({"space": "space.json",
                                 "entries": [[0, 2], [2, 0]]}))
        return str(m)

    # the count is checked before any file is read
    @pytest.mark.parametrize("action, count, message", [
        ("product", 1, "theta product takes 2 files, got 1"),
        ("product", 3, "theta product takes 2 files, got 3"),
        ("star", 2, "theta star takes 1 file, got 2"),
        ("bf", 2, "theta bf takes 1 file, got 2"),
        ("classify", 2, "theta classify takes 1 file, got 2"),
        ("invert", 2, "theta invert takes 1 file, got 2")])
    def test_wrong_file_count_exits_one(self, capsys, metric_file, action, count, message):
        code, out, err = run(capsys, "theta", action, *[metric_file] * count)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_greatest_takes_at_least_one_file(self, capsys, metric_file):
        code, out, err = run(capsys, "theta", "greatest")
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        for count in (1, 3):
            code, out, _ = run(capsys, "--json", "theta", "greatest", *[metric_file] * count)
            assert code == 0
            assert json.loads(out)["entries"] == [[0, 2], [2, 0]]


class TestHomog:
    @pytest.fixture
    def rel_file(self, tmp_path):
        p = tmp_path / "rels.json"
        p.write_text(json.dumps({
            "space": {"points": ["a", "b"], "denominator": 4,
                      "dist": [[0, 2], [2, 0]]},
            "relations": [{"name": "s", "pairs": [["a", "b"]]},
                          {"name": "t", "pairs": [["a", "a"], ["b", "b"]]}],
            "word": "s t^-1"}))
        return str(p)

    def test_phi(self, capsys, rel_file):
        code, out, _ = run(capsys, "--json", "homog", "phi", rel_file)
        assert code == 0
        assert json.loads(out)["pairs"] == [["a", "b"]]

    def test_nu_with_singletons(self, capsys, tmp_path):
        p = tmp_path / "stock.json"
        p.write_text(json.dumps({
            "space": {"points": ["a", "b"], "denominator": 4,
                      "dist": [[0, 2], [2, 0]]},
            "relations": [{"name": "rab", "pairs": [["a", "b"]]},
                          {"name": "rba", "pairs": [["b", "a"]]},
                          {"name": "raa", "pairs": [["a", "a"]]},
                          {"name": "rbb", "pairs": [["b", "b"]]}]}))
        code, out, _ = run(capsys, "homog", "nu", str(p), "--from", "a",
                           "--to", "b", "--max-len", "2")
        assert code == 0 and out.startswith("2/4")

    def test_mixed_type_pairs_exit_one(self, capsys, tmp_path):
        p = tmp_path / "rel.json"
        p.write_text(json.dumps({
            "space": {"points": ["a", "b"], "denominator": 4, "dist": [[0, 2], [2, 0]]},
            "relations": [{"name": "s", "pairs": [["a", "b"], [0, "b"]]}],
            "word": "s"}))
        code, out, err = run(capsys, "homog", "phi", str(p))
        assert code == 1 and out == ""
        assert err == "error: unknown point 0\n"

    def test_lemma42(self, capsys, rel_file):
        code, out, _ = run(capsys, "homog", "lemma42", rel_file, "--word", "s")
        assert code == 0 and "all bounded below" in out

    def test_lemma43(self, capsys, rel_file):
        code, out, _ = run(capsys, "homog", "lemma43", rel_file, "--case", "3",
                           "--names", "s,t", "--signs", "+,+")
        assert code == 0

    @pytest.mark.parametrize("extra", [
        ("--case", "1", "--names", "s,t", "--signs=+,-"),
        ("--case", "1"),
        ("--case", "2", "--names", "s,t,s", "--signs=+"),
        ("--case", "3", "--names", "s", "--signs=+,+"),
        ("--case", "3", "--signs=+,+")])
    def test_lemma43_wrong_arity_exits_one(self, capsys, rel_file, extra):
        code, out, err = run(capsys, "homog", "lemma43", rel_file, *extra)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and "takes" in err


class TestRelationsCommand:
    def test_carrier_size(self, capsys, tmp_path):
        p = tmp_path / "s2.json"
        p.write_text(json.dumps({"points": ["a", "b"], "denominator": 2,
                                 "dist": [[0, 1], [1, 0]]}))
        code, out, _ = run(capsys, "--json", "relations", "k", str(p))
        assert code == 0
        assert json.loads(out)["size"] == 7

    def test_roundtrip(self, capsys, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({
            "space": {"points": ["a", "b"], "denominator": 2,
                      "dist": [[0, 1], [1, 0]]},
            "entries": [[0, 1], [1, 0]]}))
        code, out, _ = run(capsys, "relations", "roundtrip", str(p))
        assert code == 0 and "exact" in out


class TestApproximant:
    def test_build_then_verify(self, capsys, tmp_path):
        p = tmp_path / "seed.json"
        p.write_text(json.dumps({"points": ["a"], "denominator": 2,
                                 "dist": [[0]]}))
        code, out, _ = run(capsys, "--json", "approximant", "build", str(p),
                           "--subset", "1", "--cap", "32")
        assert code == 0
        obj = json.loads(out)
        assert obj["status"] == "closed"
        built = tmp_path / "built.json"
        built.write_text(json.dumps({k: obj[k] for k in ("points", "denominator", "dist")}))
        code, out, _ = run(capsys, "approximant", "verify", str(built),
                           "--subset", "1")
        assert code == 0 and "0 unrealized" in out

    @pytest.mark.parametrize("grid", ["0", "-2"])
    def test_bad_grid_exits_one(self, capsys, tmp_path, grid):
        p = tmp_path / "seed.json"
        p.write_text(json.dumps({"points": ["a"], "denominator": 2, "dist": [[0]]}))
        code, out, err = run(capsys, "approximant", "build", str(p), "--grid", grid,
                             "--subset", "1", "--cap", "8")
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and "denominator" in err

    def test_too_many_profiles_exit_two(self, capsys, tmp_path):
        p = tmp_path / "fine.json"
        p.write_text(json.dumps({"points": ["a", "b"], "denominator": 10 ** 6,
                                 "dist": [[0, 1], [1, 0]]}))
        for action in ("build", "verify"):
            code, out, err = run(capsys, "approximant", action, str(p), "--subset", "2")
            assert code == 2 and out == ""
            assert len(err.splitlines()) == 1
            assert err == ("refused: profile listing on a 1-point support at q=1000000: "
                           "used 1000001 candidates, limit 100000\n")

    def test_subset_zero_exits_one(self, capsys, tmp_path):
        p = tmp_path / "seed.json"
        p.write_text(json.dumps({"points": ["a"], "denominator": 2,
                                 "dist": [[0]]}))
        for action in ("build", "verify"):
            code, out, err = run(capsys, "approximant", action, str(p),
                                 "--subset", "0", "--cap", "8")
            assert code == 1 and out == ""
            assert len(err.splitlines()) == 1


class TestFileShape:
    SPACE = {"points": ["a", "b"], "denominator": 2, "dist": [[0, 1], [1, 0]]}

    @pytest.mark.parametrize("command, content", [
        (("validate",), [1, 2]),
        (("relations", "h"), [1, 2]),
        (("homog", "phi"), {"space": SPACE, "relations": [{"name": "s"}], "word": "s"}),
        (("isogroup",), dict(SPACE, points="ab")),
        (("homog", "phi"), {"space": SPACE, "relations": [{"pairs": [["a", "b"]]}],
                            "word": 5}),
        (("homog", "phi"), {"space": SPACE, "relations": [{"pairs": [["a", ["b"]]]}],
                            "word": "r0"}),
    ], ids=["validate-array", "relations-h-array", "homog-no-pairs", "points-string",
            "homog-word-number", "homog-pair-list"])
    def test_malformed_file_exits_one(self, capsys, tmp_path, command, content):
        p = tmp_path / "in.json"
        p.write_text(json.dumps(content))
        code, out, err = run(capsys, *command, str(p))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_relation_index_out_of_range_exits_one(self, capsys, tmp_path):
        p = tmp_path / "h.json"
        p.write_text(json.dumps({"space": self.SPACE, "pairs": [[0, 99]]}))
        code, out, err = run(capsys, "relations", "h", str(p))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1


class TestErrorChannels:
    def test_unknown_flag_rejected(self, capsys, space_file):
        code = main(["validate", space_file, "--frobnicate"])
        assert code == 1

    def test_guard_refusal_exits_two(self, capsys, tmp_path):
        from urygrid.spaces import random_grid_space
        from urygrid import fileio
        big = random_grid_space(11, 3, 0)
        p = tmp_path / "big.json"
        p.write_text(json.dumps(fileio.space_to_obj(big)))
        code = main(["isogroup", str(p)])
        assert code == 2

    def test_unexpected_exception_exits_three(self, capsys, monkeypatch, space_file):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_validate", broken)
        code, out, err = run(capsys, "validate", space_file)
        assert code == 3 and out == ""
        assert err == "internal error: RuntimeError: boom\n"

    def test_json_output_is_deterministic(self, capsys, word_file):
        _, out1, _ = run(capsys, "--json", "graev", "norm", word_file)
        _, out2, _ = run(capsys, "--json", "graev", "norm", word_file)
        assert out1 == out2


class TestSelftest:
    NAMES = ["capped-addition", "membership-characterization", "semigroup-laws",
             "idempotent-classification", "invertibles", "invariant-idempotents",
             "amalgam-product-oracle", "graev-dp-vs-enumeration", "graev-seminorm-laws",
             "orbit-distance-exact", "weight-bounds", "function-space-roundtrip",
             "gh-formula-vs-oracle", "approximant-closure"]

    def test_selftest_passes(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert out.splitlines() == [f"PASS {name}" for name in self.NAMES] \
            + ["all checks passed (14/14)"]

    def test_a_failing_law_is_reported_and_exits_three(self, capsys, monkeypatch):
        def broken(scale):
            raise AssertionError("counterexample")

        monkeypatch.setattr(laws, "LAWS", [("capped-addition", laws.capped_addition),
                                           ("broken", broken)])
        code, out, _ = run(capsys, "selftest")
        assert code == 3
        assert out.splitlines() == ["PASS capped-addition",
                                    "FAIL broken: AssertionError: counterexample",
                                    "CHECKS FAILED (1/2)"]
        code, out, _ = run(capsys, "--json", "selftest")
        assert code == 3
        assert json.loads(out) == {"ok": False, "results": [
            {"name": "capped-addition", "ok": True, "detail": None},
            {"name": "broken", "ok": False, "detail": "AssertionError: counterexample"}]}


class TestChildProcess:
    """The CLI as users start it: one fresh interpreter per command."""

    # what every command may load: the package and the space reader
    BASE = {"urygrid", "urygrid.errors", "urygrid.grid", "urygrid.spaces",
            "urygrid.fileio", "urygrid.cli"}

    # either kernel backend, which only the commands that run a kernel load
    KERNELS = {"urygrid._kernels", "urygrid._kernels._fallback", "urygrid._kernels._ext"}
    RUNS_KERNEL = {"complete", "amalgam", "theta", "graev", "homog", "gh", "relations"}

    # stdlib modules that cost a one-shot process more than they give it:
    # dataclasses alone pulls in inspect, ast, dis and tokenize
    HEAVY = ("dataclasses", "inspect")

    # prints the loaded urygrid modules, then the loaded HEAVY ones, as the
    # last stdout line
    CHILD = ("import json, sys\n"
             "import urygrid.cli\n"
             "code = urygrid.cli.main(sys.argv[1:])\n"
             "print(json.dumps([sorted(m for m in sys.modules"
             " if m.partition('.')[0] == 'urygrid'),"
             f" [m for m in {HEAVY!r} if m in sys.modules]]))\n"
             "sys.exit(code)\n")

    @pytest.fixture(scope="class")
    def heavy_at_startup(self, tmp_path_factory):
        """The HEAVY modules a bare interpreter already loads (a site .pth
        file may import them before any urygrid code runs)."""
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys; print(*(m for m in {self.HEAVY!r}"
             " if m in sys.modules))"],
            cwd=tmp_path_factory.mktemp("bare"), capture_output=True, check=True)
        return set(proc.stdout.decode().split())

    @pytest.fixture
    def corpus(self, tmp_path, space_file, word_file, instance_file):
        from urygrid import fileio
        from urygrid.spaces import random_grid_space

        two = {"points": ["a", "b"], "denominator": 4, "dist": [[0, 2], [2, 0]]}
        files = {
            "partial.json": {"points": ["a", "b", "c"], "denominator": 4,
                             "entries": [[0, 1, None], [1, 0, 1], [None, 1, 0]]},
            "x.json": {"points": ["a", "m"], "denominator": 4, "dist": [[0, 1], [1, 0]]},
            "y.json": {"points": ["m", "b"], "denominator": 4, "dist": [[0, 1], [1, 0]]},
            "f.json": {"space": "space.json", "support": ["a"], "values": [1]},
            "seed.json": {"points": ["a"], "denominator": 2, "dist": [[0]]},
            "m.json": {"space": "space.json", "entries": [[0, 2], [2, 0]]},
            "rels.json": {"space": two, "word": "s t^-1",
                          "relations": [{"name": "s", "pairs": [["a", "b"]]},
                                        {"name": "t", "pairs": [["a", "a"], ["b", "b"]]}]},
            "big.json": fileio.space_to_obj(random_grid_space(11, 3, 0)),
        }
        for name, obj in files.items():
            (tmp_path / name).write_text(json.dumps(obj))
        return tmp_path  # beside space.json, word.json and instance.json

    def child(self, cwd, *argv, module=False):
        head = ["-m", "urygrid.cli"] if module else ["-c", self.CHILD]
        return subprocess.run([sys.executable, *head, *argv], cwd=cwd, capture_output=True,
                              env=dict(os.environ, PYTHONPATH=SRC))

    # each id is a fixed string, not built from extra, so that a change to
    # what a command may load keeps the test's name
    @pytest.mark.parametrize("argv, extra", [
        pytest.param(("validate", "space.json"), "", id="validate space.json-base"),
        pytest.param(("complete", "partial.json"), "", id="complete partial.json-base"),
        pytest.param(("amalgam", "x.json", "y.json", "--glue", "m=m"), "",
                     id="amalgam x.json-base"),
        pytest.param(("katetov", "check", "f.json"), "katetov isometry",
                     id="katetov check-katetov"),
        pytest.param(("approximant", "build", "seed.json", "--subset", "1", "--cap", "8"),
                     "katetov isometry", id="approximant build-katetov"),
        pytest.param(("isogroup", "space.json"), "isometry", id="isogroup space.json-katetov"),
        pytest.param(("theta", "star", "m.json"), "bikatetov", id="theta star-bikatetov"),
        pytest.param(("theta", "invert", "m.json"), "bikatetov isometry",
                     id="theta invert-bikatetov katetov"),
        pytest.param(("graev", "norm", "word.json"), "graev", id="graev norm-graev"),
        pytest.param(("homog", "phi", "rels.json"), "graev homog", id="homog phi-graev homog"),
        pytest.param(("gh", "dist", "instance.json"), "gh", id="gh dist-gh"),
        pytest.param(("relations", "k", "space.json"), "bikatetov graev homog relations",
                     id="relations k-bikatetov graev homog relations"),
    ])
    def test_command_loads_only_its_modules(self, corpus, heavy_at_startup, argv, extra):
        proc = self.child(corpus, *argv)
        assert proc.returncode == 0, proc.stderr
        loaded, heavy = json.loads(proc.stdout.decode().splitlines()[-1])
        allowed = self.BASE | {"urygrid." + m for m in extra.split()}
        if argv[0] in self.RUNS_KERNEL:
            allowed |= self.KERNELS
        assert set(loaded) <= allowed, sorted(set(loaded) - allowed)
        assert set(heavy) <= heavy_at_startup, heavy

    def test_bare_import_loads_only_errors(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, urygrid; print(sorted(m for m in sys.modules"
             " if m.partition('.')[0] == 'urygrid'))"],
            cwd=tmp_path, capture_output=True, env=dict(os.environ, PYTHONPATH=SRC))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode().strip() == "['urygrid', 'urygrid.errors']"

    @pytest.mark.parametrize("argv, code", [
        (("--json", "validate", "space.json"), 0),
        (("--json", "theta", "star", "m.json"), 0),
        (("--json", "graev", "norm", "word.json"), 0),
        (("--json", "graev", "dist", "word.json"), 1),
        (("validate", "space.json", "--frobnicate"), 1),
        (("--json", "isogroup", "big.json"), 2),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
    def test_module_entry_point_matches_main(self, capsys, monkeypatch, corpus, argv, code):
        monkeypatch.chdir(corpus)
        assert main(list(argv)) == code
        expected = capsys.readouterr().out.encode()
        proc = self.child(corpus, *argv, module=True)
        assert proc.returncode == code
        assert proc.stdout == expected
        if code == 0:
            assert proc.stderr == b""
        else:
            assert len(proc.stderr.decode().splitlines()) == 1, proc.stderr
