import json

import pytest

from urygrid.cli import main


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


class TestComplete:
    def test_single_chain(self, capsys, tmp_path):
        p = tmp_path / "partial.json"
        p.write_text(json.dumps({"points": ["a", "b", "c"], "denominator": 4,
                                 "entries": [[0, 1, None], [1, 0, 1], [None, 1, 0]]}))
        code, out, _ = run(capsys, "--json", "complete", str(p))
        assert code == 0
        assert json.loads(out)["dist"][0][2] == 2


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

    def test_dist_needs_two_words(self, capsys, word_file):
        code, _, err = run(capsys, "graev", "dist", word_file)
        assert code == 1 and "u" in err


class TestGh:
    def test_formula_and_oracle_print_identically(self, capsys, instance_file):
        code1, out1, _ = run(capsys, "gh", "dist", instance_file)
        code2, out2, _ = run(capsys, "gh", "dist", instance_file, "--oracle")
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.strip() == "2/10"


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

    def test_invert_metric(self, capsys, tmp_path, space_file):
        m = tmp_path / "m.json"
        m.write_text(json.dumps({"space": "space.json",
                                 "entries": [[0, 2], [2, 0]]}))
        code, out, _ = run(capsys, "--json", "theta", "invert", str(m))
        assert code == 0
        assert json.loads(out)["isometry"] == ["a", "b"]


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

    def test_subset_zero_exits_one(self, capsys, tmp_path):
        p = tmp_path / "seed.json"
        p.write_text(json.dumps({"points": ["a"], "denominator": 2,
                                 "dist": [[0]]}))
        for action in ("build", "verify"):
            code, out, err = run(capsys, "approximant", action, str(p),
                                 "--subset", "0", "--cap", "8")
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

    def test_json_output_is_deterministic(self, capsys, word_file):
        _, out1, _ = run(capsys, "--json", "graev", "norm", word_file)
        _, out2, _ = run(capsys, "--json", "graev", "norm", word_file)
        assert out1 == out2


class TestSelftest:
    def test_selftest_passes(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert "all checks passed" in out
