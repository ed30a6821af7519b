"""Command-line behavior: outputs, exit codes, determinism."""
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from fractions import Fraction as Q
from pathlib import Path

import pytest

import tsinorm
from tsinorm import fj_norm, import_norming_set, parse_vector, tau, tsirelson_spec
from tsinorm import cli
from tsinorm.cli import main
from tsinorm.core import DEFAULT_NORMING_BUDGET
from tsinorm.norming import _maximal_patterns


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def no_floats(doc):
    if isinstance(doc, float):
        return False
    if isinstance(doc, dict):
        return all(no_floats(v) for v in doc.values())
    if isinstance(doc, list):
        return all(no_floats(v) for v in doc)
    return True


class TestNorm:
    def test_fj_example(self, capsys):
        assert run(capsys, ["norm", "fj", "3:1 4:1 5:1"]) == (0, "3/2\n", "")

    def test_dual_example(self, capsys):
        code, out, _ = run(capsys, ["norm", "dual", "--space", "tsirelson",
                                    "3:1 4:1 5:1"])
        assert (code, out) == (0, "2\n")

    def test_fj_zero(self, capsys):
        assert run(capsys, ["norm", "fj", ""]) == (0, "0\n", "")

    def test_mixed_tsirelson_matches_fj(self, capsys):
        code, out, _ = run(capsys, ["norm", "mixed", "4:1 5:1 6:1 7:1"])
        assert (code, out) == (0, "2\n")

    def test_mixed_schlumprecht_point(self, capsys):
        code, out, _ = run(capsys, ["norm", "mixed", "--space", "schlumprecht",
                                    "1:1 2:1 3:1"])
        assert code == 0
        assert out == "[3/2, 3/2]\n"

    @pytest.mark.parametrize("m", [9, 10])
    def test_schlumprecht_preset_has_a_level_per_point(self, capsys, m):
        # the preset's default 8 levels would drop card<=9 and beyond
        literal = " ".join(f"{i}:1" for i in range(1, m + 1))
        value, _ = tsinorm.mixed_norm(tsinorm.schlumprecht_spec(m), parse_vector(literal))
        assert run(capsys, ["norm", "mixed", "--space", "schlumprecht", literal]) == (
            0, f"{value}\n", "")
        truncated, _ = tsinorm.mixed_norm(tsinorm.schlumprecht_spec(), parse_vector(literal))
        assert truncated.hi < value.lo

    def test_dual_bounds_enclosure(self, capsys):
        code, out, _ = run(capsys, ["norm", "dual-bounds", "--space",
                                    "schlumprecht", "1:1 2:1",
                                    "--precision", "16"])
        assert code == 0
        assert out.startswith("[") and out.rstrip().endswith("]")
        lo, hi = out.strip()[1:-1].split(", ")
        assert Q(lo) <= Q(hi)

    def test_fj_certify(self, capsys):
        code, out, _ = run(capsys, ["norm", "fj", "3:1 4:1 5:1", "--certify"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "3/2"
        assert lines[1].startswith("witness: (split 0 1/2 ")

    def test_dual_certify(self, capsys):
        code, out, _ = run(capsys, ["norm", "dual", "3:1 4:1 5:1", "--certify"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "2"
        assert any(l.startswith("hull ") for l in lines)
        assert any(l.startswith("ball-vector: ") for l in lines)
        assert any(l.startswith("ball-witness: ") for l in lines)

    def test_json_no_floats(self, capsys):
        code, out, _ = run(capsys, ["norm", "dual", "3:1 4:1 5:1",
                                    "--format", "json", "--certify"])
        assert code == 0
        doc = json.loads(out)
        assert no_floats(doc)
        assert doc["value"] == "2"
        assert doc["decimal"] == "2"
        assert doc["certificate"]["hull"][0]["weight"] == "2"

    def test_json_interval(self, capsys):
        code, out, _ = run(capsys, ["norm", "dual-bounds", "--space",
                                    "schlumprecht", "1:1 2:1", "--format", "json"])
        doc = json.loads(out)
        assert code == 0
        assert set(doc["value"]) == {"lo", "hi", "lo_decimal", "hi_decimal"}
        assert no_floats(doc)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "v.txt"
        code, out, _ = run(capsys, ["norm", "fj", "3:1 4:1 5:1",
                                    "--out", str(path)])
        assert code == 0 and out == ""
        assert path.read_text() == "3/2\n"


class TestNormErrors:
    def test_unknown_space(self, capsys):
        code, _, err = run(capsys, ["norm", "fj", "3:1", "--space", "nosuch"])
        assert code == 2
        assert "unknown space" in err

    @pytest.mark.parametrize("command", [["norm", "fj"], ["certify"]],
                             ids=["norm-fj", "certify"])
    def test_bad_vector(self, capsys, command):
        assert run(capsys, command + ["not a vector"]) == (
            2, "", "error: bad token 'not': expected index:value\n")

    def test_fj_rejects_other_space(self, capsys):
        code, _, err = run(capsys, ["norm", "fj", "1:1", "--space",
                                    "schlumprecht"])
        assert code == 2
        assert "mixed" in err

    def test_dual_rejects_symbolic(self, capsys):
        code, _, err = run(capsys, ["norm", "dual", "--space", "schlumprecht",
                                    "1:1"])
        assert code == 2
        assert "dual-bounds" in err

    def test_dual_bounds_rejects_certify(self, capsys):
        code, _, err = run(capsys, ["norm", "dual-bounds", "1:1", "--certify"])
        assert code == 2

    def test_bad_precision(self, capsys):
        code, _, err = run(capsys, ["norm", "dual-bounds", "--space",
                                    "schlumprecht", "1:1", "--precision", "0"])
        assert code == 2

    @pytest.mark.parametrize("space", ["schlumprecht", "tsirelson"])
    @pytest.mark.parametrize("flags,bits", [(["--precision", "0"], 0),
                                            (["--precision", "-5"], -5),
                                            (["--precision-cap", "-3"], -3)])
    def test_precision_below_one(self, capsys, space, flags, bits):
        assert run(capsys, ["norm", "mixed", "--space", space, "1:1 2:1"] + flags) == (
            2, "", f"error: precision must be >= 1, got {bits}\n")

    def test_undecided_comparison(self, capsys):
        assert run(capsys, ["norm", "mixed", "--space", "schlumprecht", "1:2 2:1 3:1",
                            "--precision", "4", "--precision-cap", "4"]) == (
            3, "", "error: branch comparison undecided at precision cap 4: "
                   "cannot order branch values [2, 2] and [336/169, 1312/625]\n")

    def test_tie_of_levels_sharing_a_prime(self, capsys):
        # theta_2 * 8 and theta_8 * 16 are equal reals, as log2 9 = 2 log2 3;
        # log2 9's enclosure is exactly twice log2 3's, so the tie is decided
        assert run(capsys, ["norm", "mixed", "--space", "schlumprecht",
                            "1:2 2:1 3:2 4:2 5:2 6:1 7:2 8:4"]) == (
            0, "[4611686018427387904/913668675538433085, "
               "147573952589676412928/29237397617229858719]\n", "")

    @pytest.mark.parametrize("flags,bits", [(["--precision", "16000"], 16000),
                                            (["--precision-cap", "257"], 257)])
    def test_precision_above_the_cap(self, capsys, flags, bits):
        assert run(capsys, ["norm", "mixed", "--space", "schlumprecht", "1:1 2:1/2 3:2"]
                   + flags) == (3, "", f"error: precision {bits} exceeds the cap 256\n")

    def test_budget_exhaustion(self, capsys):
        tsinorm.clear_caches()
        code, _, err = run(capsys, ["norm", "dual", "1:1 2:1", "--budget", "2"])
        assert code == 3
        assert "budget" in err

    def test_budget_env(self, capsys, monkeypatch):
        tsinorm.clear_caches()
        monkeypatch.setenv("TSINORM_BUDGET", "3")
        code, _, _ = run(capsys, ["norm", "dual", "1:1 2:1"])
        assert code == 3
        # the flag wins over the environment
        tsinorm.clear_caches()
        code, out, _ = run(capsys, ["norm", "dual", "1:1 2:1",
                                    "--budget", "1000"])
        assert (code, out) == (0, "2\n")

    def test_budget_env_garbage(self, capsys, monkeypatch):
        monkeypatch.setenv("TSINORM_BUDGET", "banana")
        code, _, err = run(capsys, ["norm", "dual", "1:1 2:1"])
        assert code == 2
        assert "TSINORM_BUDGET" in err

    @pytest.mark.parametrize("token", ["1e5000", "1e-5000", "1e999999999",
                                       "1" * 3000 + "." + "3" * 3000])
    def test_number_beyond_digit_limit(self, capsys, token):
        # more digits than sys.get_int_max_str_digits() (4300 by default)
        code, out, err = run(capsys, ["norm", "fj", f"1:{token}"])
        assert (code, out) == (2, "")
        assert err.startswith("error: bad value")

    def test_bad_format_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["norm", "fj", "1:1", "--format", "csv"])
        assert exc.value.code == 2


class TestConfigFile:
    def test_roundtrip_preset_config(self, capsys, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(
            tsinorm.spec_to_config(tsirelson_spec())))
        code, out, _ = run(capsys, ["norm", "dual", "3:1 4:1 5:1",
                                    "--space", str(path)])
        assert (code, out) == (0, "2\n")

    def test_custom_card_space(self, capsys, tmp_path):
        doc = {"name": "card-demo",
               "levels": [{"family": "schreier1", "theta": "1/2"},
                          {"family": {"card_at_most": 2}, "theta": "1/3"}]}
        path = tmp_path / "card.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, ["norm", "mixed", "1:1 2:1 3:1",
                                    "--space", str(path)])
        assert code == 0
        assert Q(out.strip()) >= 1

    def test_huge_explicit_index_stays_small(self, capsys, tmp_path):
        # the singletons {1}..{10^8} this family admits are never listed
        doc = {"name": "huge",
               "levels": [{"family": {"explicit": [[1, 100000000]]},
                           "theta": "2/3"}]}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        cert = tmp_path / "cert.txt"
        run(capsys, ["certify", "3:1 4:1 5:1", "--out", str(cert)])
        lines = cert.read_text().splitlines()
        lines[1] = "space: " + json.dumps(doc)
        cert.write_text("\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            mixed = run(capsys, ["norm", "mixed", "1:1 100000000:1",
                                 "--space", str(path)])
            checked = run(capsys, ["certify", "--check", str(cert)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mixed == (0, "4/3\n", "")
        assert checked[0] == 1 and checked[1].startswith("certificate rejected:")
        assert peak < 4 * 2 ** 20

    @pytest.mark.parametrize("level", [3 * 2 ** 300 - 1, 2 ** 200], ids=["wide", "unfactored"])
    def test_huge_schlumprecht_level(self, capsys, tmp_path, level):
        # log2(3 * 2^300) is wider than the default bit-extraction width;
        # 2^200 + 1 keeps a 167-bit cofactor past the trial-division bound
        doc = {"name": "huge",
               "levels": [{"family": {"card_at_most": 2}, "theta": {"schlumprecht": level}}]}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, ["norm", "mixed", "1:1 2:1", "--space", str(path)]) == (
            0, "[1, 1]\n", "")

    def test_malformed_config(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["norm", "fj", "1:1", "--space", str(path)])
        assert code == 2

    @pytest.mark.parametrize("name, level", [
        ("bad", {"family": {"card_at_most": [2]}, "theta": "1/3"}),
        ("bad", {"family": {"card_at_most": "x"}, "theta": "1/3"}),
        ("bad", {"family": {"explicit": 5}, "theta": "1/3"}),
        ("bad", {"family": {"explicit": [[1, "a"]]}, "theta": "1/3"}),
        ("bad", {"family": {"card_at_most": 2.7}, "theta": "1/3"}),
        ("bad", {"family": {"card_at_most": True}, "theta": "1/3"}),
        ("bad", {"family": {"card_at_most": 2}, "theta": {"schlumprecht": 2.5}}),
        (5, {"family": {"card_at_most": 2}, "theta": "schlumprecht"}),
    ], ids=["card-list", "card-string", "explicit-int", "explicit-string-member",
            "card-float", "card-bool", "schlumprecht-float", "name-int"])
    def test_invalid_config_rejected(self, capsys, tmp_path, name, level):
        doc = {"name": name,
               "levels": [{"family": "schreier1", "theta": "1/2"}, level]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        for kind in ("mixed", "dual-bounds"):
            code, _, err = run(capsys, ["norm", kind, "1:1 2:1",
                                        "--space", str(path)])
            assert code == 2
            assert err.startswith("error:")

        cert = tmp_path / "cert.txt"
        run(capsys, ["certify", "3:1 4:1 5:1", "--out", str(cert)])
        lines = cert.read_text().splitlines()
        assert lines[1].startswith("space: ")
        lines[1] = "space: " + json.dumps(doc)
        cert.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, ["certify", "--check", str(cert)])
        assert code == 1
        assert out.startswith("certificate rejected:")


class TestTable:
    def test_basis_growth_example(self, capsys):
        code, out, _ = run(capsys, ["table", "basis-growth",
                                    "--start", "2", "--end", "4"])
        assert code == 0
        assert out == "n,value,decimal\n2,1,1\n3,3/2,1.5\n4,2,2\n"

    def test_schreier_block_growth(self, capsys):
        code, out, _ = run(capsys, ["table", "schreier-block-growth",
                                    "--start", "1", "--end", "6"])
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        values = {int(n): Q(v) for n, v, _ in rows}
        # initial segments: e1+...+en
        assert values[1] == 1 and values[4] == 1
        assert values[5] == Q(3, 2) and values[6] == Q(3, 2)

    def test_byte_identical(self, capsys):
        a = run(capsys, ["table", "basis-growth", "--start", "2", "--end", "5"])
        b = run(capsys, ["table", "basis-growth", "--start", "2", "--end", "5"])
        assert a == b

    def test_empty_range_header_only(self, capsys):
        code, out, _ = run(capsys, ["table", "basis-growth",
                                    "--start", "5", "--end", "4"])
        assert (code, out) == (0, "n,value,decimal\n")

    def test_json_rows(self, capsys):
        code, out, _ = run(capsys, ["table", "basis-growth", "--start", "2",
                                    "--end", "3", "--format", "json"])
        doc = json.loads(out)
        assert code == 0 and no_floats(doc)
        assert doc["rows"] == [
            {"n": 2, "value": "1", "decimal": "1"},
            {"n": 3, "value": "3/2", "decimal": "1.5"}]

    def test_symbolic_space_rejected(self, capsys):
        code, _, err = run(capsys, ["table", "basis-growth",
                                    "--space", "schlumprecht"])
        assert code == 2

    def test_bad_start(self, capsys):
        code, _, err = run(capsys, ["table", "basis-growth", "--start", "0"])
        assert code == 2


class TestCheck:
    def test_lemmas_pass(self, capsys):
        code, out, _ = run(capsys, ["check", "lemmas", "--support", "4",
                                    "--sample", "25", "--pairs", "30"])
        assert code == 0
        assert out.count("PASS") == 4
        assert "seed: 0" in out

    def test_lemmas_deterministic(self, capsys):
        argv = ["check", "lemmas", "--support", "4", "--sample", "15",
                "--pairs", "15", "--seed", "7"]
        assert run(capsys, argv) == run(capsys, argv)

    def test_duality_hull_columns_are_patterns(self, capsys):
        # the hull program has one column per maximal pattern, as the ball
        # program has one row
        code, out, _ = run(capsys, ["check", "duality", "--support", "5",
                                    "--sample", "12", "--format", "json"])
        doc = json.loads(out)
        assert code == 0
        assert doc["max_hull_columns"] == doc["max_ball_rows"] > 1

    def test_duality_reports_lp_size(self, capsys):
        code, out, _ = run(capsys, ["check", "duality", "--support", "4",
                                    "--sample", "12"])
        assert code == 0
        assert "PASS lp-duality-and-certificates" in out
        assert "max-hull-columns:" in out and "max-ball-rows:" in out

    def test_implicit_eq(self, capsys):
        code, out, _ = run(capsys, ["check", "implicit-eq", "--support", "4",
                                    "--sample", "10"])
        assert code == 0
        assert "PASS implicit-equation" in out

    @pytest.mark.parametrize("support,entries,pairs", [
        ("3", "1,-1", 351), ("3", "1,-1,1/2", 2016), ("3", "1,1/2,2", 2016),
        ("4", "1,-1", 3240), ("4", "1,1/2", 3240), ("4", "1,2", 3240)])
    def test_falsify_exhausted(self, capsys, support, entries, pairs):
        code, out, _ = run(capsys, ["check", "ell1-falsify", "--support", support,
                                    "--entries", entries])
        assert code == 0
        assert out == f"exhausted after {pairs} pairs (cap hits: 0)\n"

    def test_falsify_counterexample(self, capsys):
        code, out, _ = run(capsys, ["check", "ell1-falsify", "--support", "5",
                                    "--entries", "1,-1"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "counterexample"
        data = dict(l.split(" = ") for l in lines[1:])
        x = parse_vector(data["x"])
        y = parse_vector(data["y"])
        sx, conv = tsinorm.sigma_ell1_variant(tsirelson_spec(), x)
        sy, conv2 = tsinorm.sigma_ell1_variant(tsirelson_spec(), y)
        ss, conv3 = tsinorm.sigma_ell1_variant(tsirelson_spec(), x + y)
        assert conv and conv2 and conv3
        assert (sx, sy, ss) == (Q(data["sigma(x)"]), Q(data["sigma(y)"]),
                                Q(data["sigma(x+y)"]))
        assert ss > sx + sy

    def test_falsify_json(self, capsys):
        code, out, _ = run(capsys, ["check", "ell1-falsify", "--support", "5",
                                    "--entries", "1,-1", "--format", "json"])
        doc = json.loads(out)
        assert code == 0 and no_floats(doc)
        assert doc["status"] == "counterexample"
        assert doc["witness"]["sigma_x"] == "5"

    def test_falsify_bad_entries(self, capsys):
        code, _, err = run(capsys, ["check", "ell1-falsify",
                                    "--entries", "1,zebra"])
        assert code == 2

    def test_falsify_bad_support(self, capsys):
        code, _, err = run(capsys, ["check", "ell1-falsify", "--support", "0"])
        assert code == 2

    def test_falsify_cap_hits(self, capsys):
        # cap 2: the 20 vectors of 2 or 3 points are capped, the 6
        # singletons are usable, and 12 of their 21 pair sums are capped
        code, out, _ = run(capsys, ["check", "ell1-falsify", "--support", "3",
                                    "--entries", "1,-1", "--cap", "2"])
        assert (code, out) == (0, "exhausted after 9 pairs (cap hits: 32)\n")

    def test_falsify_bad_cap(self, capsys):
        code, out, err = run(capsys, ["check", "ell1-falsify", "--support", "3",
                                      "--entries", "1,-1", "--cap", "0"])
        assert (code, out) == (2, "")
        assert "iteration cap must be >= 1, got 0" in err

    @pytest.mark.parametrize("argv,message", [
        (["lemmas", "--pairs", "-3"], "--pairs must be >= 0, got -3"),
        (["implicit-eq", "--support", "0"], "--support must be >= 1, got 0"),
        (["implicit-eq", "--support", "-2"], "--support must be >= 1, got -2"),
        (["lemmas", "--sample", "-1"], "--sample must be >= 0, got -1"),
    ])
    def test_bad_counts_rejected(self, capsys, argv, message):
        code, out, err = run(capsys, ["check"] + argv)
        assert (code, out) == (2, "")
        assert message in err

    def test_symbolic_space_rejected(self, capsys):
        for suite in ("lemmas", "ell1-falsify"):
            code, out, err = run(capsys, ["check", suite, "--space",
                                          "schlumprecht", "--sample", "2"])
            assert (code, out) == (2, "")
            assert err == f"error: {suite} needs rational weights at every level\n"


class TestNormingSet:
    def test_symbolic_space_rejected(self, capsys):
        code, out, err = run(capsys, ["norming-set", "3", "--space", "schlumprecht"])
        assert (code, out) == (2, "")
        assert err == "error: norming-set needs rational weights at every level\n"

    def test_window_one(self, capsys):
        code, out, err = run(capsys, ["norming-set", "1"])
        assert code == 0
        body = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert len(body) == 2
        assert "cardinality=2" in err

    def test_window_three_contains_half_pair(self, capsys):
        code, out, err = run(capsys, ["norming-set", "3"])
        assert code == 0
        assert any("2:1/2 3:1/2" in line for line in out.splitlines())

    def test_out_file_and_reimport(self, capsys, tmp_path):
        path = tmp_path / "v3.txt"
        code, out, _ = run(capsys, ["norming-set", "3", "--out", str(path)])
        assert code == 0
        assert "cardinality=" in out and "generation=" in out
        vset = import_norming_set(path.read_text(), tsirelson_spec())
        for literal in ("1:1", "1:1 2:-1", "1:1 2:1 3:1", "2:2 3:-1/2", ""):
            x = parse_vector(literal)
            assert tau(vset, x) == fj_norm(x)[0]

    def test_json(self, capsys):
        code, out, _ = run(capsys, ["norming-set", "2", "--format", "json"])
        doc = json.loads(out)
        assert code == 0
        # pairs starting at 1 fail admissibility, so only the four signed units
        assert doc["cardinality"] == 4
        assert doc["stabilized"] is True

    def test_bad_window(self, capsys):
        code, _, err = run(capsys, ["norming-set", "0"])
        assert code == 2


class TestCertify:
    def test_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "cert.txt"
        code, out, _ = run(capsys, ["certify", "3:1 4:1 5:1",
                                    "--out", str(path)])
        assert code == 0
        assert "value=2" in out
        code, out, _ = run(capsys, ["certify", "--check", str(path)])
        assert code == 0
        assert out.startswith("certificate ok:")

    def test_stdout_document(self, capsys):
        code, out, _ = run(capsys, ["certify", "1:1 2:-1"])
        assert code == 0
        assert out.startswith("tsinorm-certificate\n")
        assert "value: 2" in out

    def test_tampered_value(self, capsys, tmp_path):
        path = tmp_path / "cert.txt"
        run(capsys, ["certify", "3:1 4:1 5:1", "--out", str(path)])
        path.write_text(path.read_text().replace("value: 2", "value: 3"))
        code, out, _ = run(capsys, ["certify", "--check", str(path)])
        assert code == 1
        assert out.startswith("certificate rejected:")

    @pytest.mark.parametrize("field, extra", [
        ("space", "vector: 9:7"),
        ("space", None), ("vector", None), ("value", None),
        ("ball-vector", None), ("ball-witness", None),
    ], ids=["other-vector", "space", "vector", "value", "ball-vector", "ball-witness"])
    def test_repeated_line_rejected(self, capsys, tmp_path, field, extra):
        # extra goes after the field's line, or a copy of that line; the
        # importer must not let either copy win
        path = tmp_path / "cert.txt"
        run(capsys, ["certify", "3:1 4:1 5:1", "--out", str(path)])
        lines = path.read_text().splitlines(True)
        (at,) = [n for n, line in enumerate(lines) if line.startswith(field + ":")]
        lines.insert(at + 1, lines[at] if extra is None else extra + "\n")
        path.write_text("".join(lines))
        code, out, _ = run(capsys, ["certify", "--check", str(path)])
        assert code == 1
        assert out.startswith("certificate rejected: repeated certificate line ")

    def test_explicit_certificate_stays_small(self, capsys, tmp_path):
        space = tmp_path / "wide.json"
        space.write_text(json.dumps(
            {"name": "wide", "levels": [{"family": {"explicit": [[1, 1000000]]},
                                         "theta": "2/3"}]}))
        path = tmp_path / "cert.txt"
        code, _, _ = run(capsys, ["certify", "1:1 1000000:1", "--space", str(space),
                                  "--out", str(path)])
        assert code == 0
        assert len(path.read_bytes()) < 1024
        code, out, _ = run(capsys, ["certify", "--check", str(path)])
        assert code == 0 and out.startswith("certificate ok:")

    def test_padded_hull_with_an_outside_ball_vector_rejected(self, capsys, tmp_path):
        # 18 is the dual norm.  The padding f and -f at 3/4 each cancels in
        # the sum but adds 3/2 to the weights, and the ball vector pairs to
        # 39/2 only because (2/3)(e3 + e6 + e8), through the subset
        # {1, 4, 8} of the listed {1, 4, 7, 8}, is a norming functional
        # that puts it outside the unit ball.
        path = tmp_path / "forged.txt"
        path.write_text(
            "tsinorm-certificate\n"
            'space: {"name": "explicit-forge", "levels": [{"family": {"explicit": '
            '[[2, 3], [3, 5, 6], [1, 4, 7, 8], [2, 5]]}, "theta": "2/3"}, '
            '{"family": "schreier1", "theta": "1/2"}]}\n'
            "vector: 1:-1 3:3 6:12 7:-1 8:12\n"
            "value: 39/2\n"
            "hull 6: (2/3 e1 e6 e7 e8)\n"
            "hull 15/2: (2/3 -e1 e6 -e7 e8)\n"
            "hull 9/4: (2/3 e3 e6 e7 e8)\n"
            "hull 9/4: (2/3 e3 e6 -e7 e8)\n"
            "hull 3/4: (2/3 e3 e6 e7 e8)\n"
            "hull 3/4: (2/3 -e3 -e6 -e7 -e8)\n"
            "ball-vector: 3:1/2 6:1/2 8:1\n"
            "ball-witness: (leaf 8)\n")
        code, out, _ = run(capsys, ["certify", "--check", str(path)])
        assert code == 1 and out.startswith("certificate rejected:")
        assert "outside the unit ball" in out

    def test_tampered_witness(self, capsys, tmp_path):
        path = tmp_path / "cert.txt"
        run(capsys, ["certify", "3:1 4:1 5:1", "--out", str(path)])
        path.write_text(path.read_text().replace(
            "ball-vector: 3:1 4:1", "ball-vector: 3:1 4:1 5:1"))
        code, out, _ = run(capsys, ["certify", "--check", str(path)])
        assert code == 1

    @pytest.mark.parametrize("old, new", [
        ("value: 2", "value: two"),
        ("hull 2:", "hull x/0:"),
        ("hull 2:", "hull 1/0:"),
        ("(leaf 3)", "(leaf abc)"),
        ("(leaf 3)", "(split x 1/2 ((3) (4)) (leaf 3) (leaf 4))"),
        ("(leaf 3)", "(split 0 (1/2) ((3) (4)) (leaf 3) (leaf 4))"),
        ("(leaf 3)", "(split 0 1/2 ((3) (x)) (leaf 3) (leaf 4))"),
        ('"family": "schreier1"', '"family": {"card_at_most": [2]}'),
        ("(1/2 e3 e4 e5)", "(1/2 e3 e4 e5) e9"),
        pytest.param("e5", "e\u00b2", id="superscript-leaf-index"),
        pytest.param("(leaf 3)", "(" * 3000 + "leaf 3" + ")" * 3000,
                     id="deep-witness"),
        pytest.param("(1/2 e3 e4 e5)", "(1/2 " * 3000 + "e3 e4 e5" + ")" * 3000,
                     id="deep-hull-tree"),
    ])
    def test_mutated_document_rejected(self, capsys, tmp_path, old, new):
        path = tmp_path / "cert.txt"
        run(capsys, ["certify", "3:1 4:1 5:1", "--out", str(path)])
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        code, out, _ = run(capsys, ["certify", "--check", str(path)])
        assert code == 1
        assert out.startswith("certificate rejected:")

    @pytest.mark.parametrize("old, new", [
        ("value: 2", "value: 1e999999999"),
        ("vector: 3:1", "vector: 3:1e999999999"),
        ("hull 2:", "hull 1e-999999999:"),
        ("ball-vector: 3:1", "ball-vector: 3:1e5000"),
        ('"theta": "1/2"', '"theta": "1e999999999"'),
    ])
    def test_number_beyond_digit_limit_rejected(self, capsys, tmp_path, old, new):
        path = tmp_path / "cert.txt"
        run(capsys, ["certify", "3:1 4:1 5:1", "--out", str(path)])
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))
        code, out, _ = run(capsys, ["certify", "--check", str(path)])
        assert code == 1
        assert out.startswith("certificate rejected:")

    def test_large_support_round_trip(self, capsys, tmp_path):
        # all ones on {2..7}: 82 maximal patterns, 1952 signed functionals
        tsinorm.clear_caches()
        path = tmp_path / "cert.txt"
        code, out, _ = run(capsys, ["certify", "2:1 3:1 4:1 5:1 6:1 7:1",
                                    "--out", str(path)])
        assert (code, out) == (0, "certificate written: value=19/5\n")
        code, out, _ = run(capsys, ["certify", "--check", str(path)])
        assert code == 0
        assert out.startswith("certificate ok:") and out.endswith(" value=19/5\n")
        # all ones on {2..8}: a ball program of 202 rows
        code, out, _ = run(capsys, ["certify", "2:1 3:1 4:1 5:1 6:1 7:1 8:1",
                                    "--out", str(path)])
        assert (code, out) == (0, "certificate written: value=4\n")
        code, out, _ = run(capsys, ["certify", "--check", str(path)])
        assert code == 0
        assert out.startswith("certificate ok:") and out.endswith(" value=4\n")
        # all ones on {2..9}: 503 maximal patterns
        code, out, _ = run(capsys, ["certify", "2:1 3:1 4:1 5:1 6:1 7:1 8:1 9:1",
                                    "--out", str(path)])
        assert (code, out) == (0, "certificate written: value=4\n")
        code, out, _ = run(capsys, ["certify", "--check", str(path)])
        assert code == 0
        assert out.startswith("certificate ok:") and out.endswith(" value=4\n")

        ts = tsirelson_spec()
        support = tuple(range(2, 9))
        patterns = _maximal_patterns(ts, support, DEFAULT_NORMING_BUDGET)
        assert _maximal_patterns(ts, support, DEFAULT_NORMING_BUDGET) is patterns
        pairs, unit = patterns
        assert len(pairs) == 202
        # the cache holds patterns, as positive int keys in one unit, not
        # the 8766 signed functionals they stand for
        assert all(type(c) is int and c > 0 for key, _ in pairs for _, c in key)
        assert type(unit) is int and unit > 0
        assert sum(2 ** len(key) for key, _ in pairs) == 8766

    def test_check_json(self, capsys, tmp_path):
        path = tmp_path / "cert.txt"
        run(capsys, ["certify", "3:1 4:1 5:1", "--out", str(path)])
        code, out, _ = run(capsys, ["certify", "--check", str(path),
                                    "--format", "json"])
        doc = json.loads(out)
        assert code == 0
        assert doc["status"] == "ok" and doc["value"] == "2"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["certify", "--check", "/nonexistent/c.txt"])
        assert code == 2

    def test_no_vector_no_check(self, capsys):
        code, _, err = run(capsys, ["certify"])
        assert code == 2

    def test_symbolic_space_rejected(self, capsys):
        code, _, err = run(capsys, ["certify", "1:1", "--space",
                                    "schlumprecht"])
        assert code == 2


# The child processes below import the tsinorm package this process
# imported, not whatever copy is installed elsewhere.
CHECKOUT_ENV = {**os.environ,
                "PYTHONPATH": str(Path(tsinorm.__file__).resolve().parent.parent)}


class TestParserReuse:
    # budget from the environment, a usage error, the other budget, --help
    CALLS = [
        ("3", ["norm", "dual", "1:1 2:1"]),
        ("3", ["norm", "dual", "1:1 2:1", "--format", "csv"]),
        ("1000", ["norm", "dual", "1:1 2:1"]),
        (None, ["norm", "--help"]),
    ]

    def test_calls_in_one_process_match_fresh_processes(self, capsys, monkeypatch):
        builds = []
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda: builds.append(1) or build_parser())
        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setenv("COLUMNS", "80")
        child_env = {k: v for k, v in CHECKOUT_ENV.items() if k != "TSINORM_BUDGET"}
        child_env["COLUMNS"] = "80"
        script = "import sys\nfrom tsinorm.cli import main\nsys.exit(main())\n"
        codes = []
        for budget, argv in self.CALLS:
            env = dict(child_env)
            if budget is None:
                monkeypatch.delenv("TSINORM_BUDGET", raising=False)
            else:
                monkeypatch.setenv("TSINORM_BUDGET", budget)
                env["TSINORM_BUDGET"] = budget
            fresh = subprocess.run([sys.executable, "-c", script, *argv],
                                   capture_output=True, text=True, env=env)
            tsinorm.clear_caches()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
            codes.append(code)
        assert codes == [3, 2, 0, 0]
        assert len(builds) == 1


def run_console_script(*argv):
    """Run the ``tsinorm`` entry of ``[project.scripts]`` in a child process.

    The target is read from ``pyproject.toml`` and called the way the
    setuptools-generated script calls it, ``sys.exit(func())``, so a renamed
    entry, or an ``entry`` that drops ``main()``'s exit code, fails here.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["tsinorm"]
    module, _, func = target.partition(":")
    script = (f"import sys\n"
              f"from {module} import {func}\n"
              f"sys.argv[0] = 'tsinorm'\n"
              f"sys.exit({func}())\n")
    return subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=CHECKOUT_ENV)


def test_console_script():
    result = run_console_script("norm", "fj", "3:1 4:1 5:1")
    assert result.returncode == 0
    assert result.stdout == "3/2\n"

    result = run_console_script("norm", "fj", "3:x")
    assert result.returncode == 2
    assert any(line.startswith("error:")
               for line in result.stderr.splitlines())


def test_module_entry_point():
    def run_module(module, *argv):
        return subprocess.run([sys.executable, "-m", module, *argv],
                              capture_output=True, text=True, env=CHECKOUT_ENV)

    for module in ("tsinorm.cli", "tsinorm"):
        result = run_module(module, "norm", "fj", "3:1 4:1 5:1")
        assert (result.returncode, result.stdout) == (0, "3/2\n")
        assert run_module(module, "norm", "fj", "3:x").returncode == 2


@pytest.mark.skipif(shutil.which("tsinorm") is None,
                    reason="no tsinorm console script on PATH")
def test_installed_console_script():
    result = subprocess.run(["tsinorm", "norm", "fj", "3:1 4:1 5:1"],
                            capture_output=True, text=True, env=CHECKOUT_ENV)
    assert result.returncode == 0
    assert result.stdout == "3/2\n"
