import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wordlen
from wordlen.cli import main
from wordlen.report import read_histogram_csv

SRC = str(Path(wordlen.__file__).resolve().parents[1])


def run(args):
    return main([str(a) for a in args])


def run_python(*args):
    """A fresh interpreter that imports this checkout's ``wordlen``."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True,
                          text=True, env=env, check=False)


def parse_csv(path):
    """(comments, header, rows) of one of our CSV artifacts."""
    comments, header, rows = [], None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            comments.append(line[1:].strip())
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return comments, header, rows


class TestHistogramCommand:
    def test_csv_contract(self, reference_style_wordlist, tmp_path):
        out = tmp_path / "hist.csv"
        assert run(["histogram", reference_style_wordlist, "--out", out]) == 0
        comments, header, rows = parse_csv(out)
        assert header == ["length", "count"]
        assert "source=wordlist" in comments
        by_length = {r["length"]: r["count"] for r in rows}
        assert by_length["2"] == "93"
        assert by_length["3"] == "754"
        assert by_length["overflow"] == "0"

    def test_csv_json_same_content(self, reference_style_wordlist, tmp_path):
        out_csv, out_json = tmp_path / "h.csv", tmp_path / "h.json"
        run(["histogram", reference_style_wordlist, "--out", out_csv])
        run(["histogram", reference_style_wordlist, "--format", "json", "--out", out_json])
        payload = json.loads(out_json.read_text())
        _, _, rows = parse_csv(out_csv)
        counts = [int(r["count"]) for r in rows if r["length"] != "overflow"]
        assert counts == payload["counts"]
        overflow = [int(r["count"]) for r in rows if r["length"] == "overflow"]
        assert overflow == [payload["overflow"]]

    def test_roundtrip_through_reader(self, reference_style_wordlist, tmp_path):
        out = tmp_path / "h.csv"
        run(["histogram", reference_style_wordlist, "--out", out])
        hist = read_histogram_csv(out)
        assert hist.count(2) == 93 and hist.count(3) == 754

    def test_missing_file_fails(self, tmp_path, capsys):
        assert run(["histogram", tmp_path / "nope.txt"]) == 1
        assert "nope.txt" in capsys.readouterr().err

    def test_strict_mode_propagates(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("ok\nnaïve\n", encoding="utf-8")
        assert run(["histogram", bad, "--strict"]) == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("strict", [[], ["--strict"]])
    def test_byte_order_mark_is_not_part_of_first_word(self, tmp_path, strict):
        wl = tmp_path / "bom.txt"
        wl.write_bytes(b"\xef\xbb\xbfcat\ndog\n")
        out = tmp_path / "h.csv"
        assert run(["histogram", wl, "--out", out, *strict]) == 0
        assert read_histogram_csv(out).count(3) == 2

    def test_undecodable_input_fails(self, tmp_path, capsys):
        bad = tmp_path / "latin1.txt"
        # not valid UTF-8; the offset counts a leading byte order mark
        for data, offset in ((b"caf\xe9\n", 3), (b"\xef\xbb\xbfcat\ncaf\xe9\n", 10)):
            bad.write_bytes(data)
            assert run(["histogram", bad]) == 1
            assert capsys.readouterr().err.splitlines() == [
                f"wordlen histogram: {bad}: not UTF-8: cannot decode byte 0xe9 at offset {offset}"]

    @pytest.mark.parametrize("command", ["histogram", "entropy"])
    def test_strict_line_numbers_agree_across_loaders(self, tmp_path, capsys, command):
        # \x0b ends a line for str.splitlines, so the bad symbol is on line 3
        bad = tmp_path / "vt.txt"
        bad.write_text("cat\x0bdog\nnaïve\n", encoding="utf-8")
        assert run([command, bad, "--strict"]) == 1
        assert "line 3: symbol 'ï'" in capsys.readouterr().err


class TestFitCommand:
    def test_recovers_generating_p_with_report_columns(self, model_wordlist, tmp_path):
        out = tmp_path / "fit.json"
        assert run(["fit", model_wordlist, "--label", "synthetic",
                    "--format", "json", "--out", out]) == 0
        rep = json.loads(out.read_text())
        assert rep["label"] == "synthetic"
        assert rep["symbols"] == 27
        assert abs(rep["p"] - 0.85) < 1e-3
        p = rep["p"]
        assert rep["mean_approx"] == pytest.approx(-1.0 / (p * np.log(p)))
        assert rep["sd_approx"] == pytest.approx(1.0 / (p * (1.0 - p)))
        assert rep["df"] == 48
        assert 0.0 <= rep["p_value"] <= 1.0
        # the repo's reference statistic for this deterministic fixture;
        # residuals come only from rounding the generated counts
        assert rep["chi_square"] == pytest.approx(3.979276962455219, rel=1e-9)
        assert rep["exponent_b"] > 0
        # the solved exponent reproduces the observed vocabulary
        assert rep["vocab_approx"] == pytest.approx(rep["vocab_observed"], rel=1e-9)
        assert rep["reliable_length_limit"] == pytest.approx(
            rep["mean_approx"] + rep["sd_approx"]
        )

    def test_csv_and_json_agree(self, model_wordlist, tmp_path):
        out_csv, out_json = tmp_path / "f.csv", tmp_path / "f.json"
        run(["fit", model_wordlist, "--out", out_csv])
        run(["fit", model_wordlist, "--format", "json", "--out", out_json])
        rep = json.loads(out_json.read_text())
        _, header, rows = parse_csv(out_csv)
        assert header == list(rep)
        row = rows[0]
        for key, value in rep.items():
            if isinstance(value, float):
                assert float(row[key]) == pytest.approx(value, rel=1e-12)
            elif isinstance(value, int):
                assert int(row[key]) == value
            else:
                assert row[key] == str(value)

    def test_curve_output(self, model_wordlist, tmp_path):
        out, curve = tmp_path / "f.csv", tmp_path / "curve.csv"
        run(["fit", model_wordlist, "--out", out, "--curve-out", curve])
        _, header, rows = parse_csv(curve)
        assert header == ["length", "observed", "expected", "reliable"]
        assert len(rows) == 50
        assert rows[0]["reliable"] == "true"
        assert rows[-1]["reliable"] == "false"

    def test_unfittable_wordlist_fails_cleanly(self, tmp_path, capsys):
        wl = tmp_path / "short.txt"
        wl.write_text("a\nb\n", encoding="utf-8")
        assert run(["fit", wl]) == 1
        assert "nonzero" in capsys.readouterr().err


class TestEntropyCommand:
    def test_periodic_corpus_has_zero_second_order(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("ab" * 2000, encoding="utf-8")
        out = tmp_path / "e.csv"
        assert run(["entropy", corpus, "--max-order", "2", "--out", out]) == 0
        _, header, rows = parse_csv(out)
        assert header == ["order", "entropy_bits", "windows", "adequate"]
        assert rows[0]["entropy_bits"] == "4.75"  # log2(27) at table precision
        assert rows[2]["entropy_bits"] == "0.00"

    def test_small_corpus_flags_inadequate_orders(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("the cat sat on the mat", encoding="utf-8")
        out = tmp_path / "e.csv"
        with pytest.warns(UserWarning):
            run(["entropy", corpus, "--max-order", "3", "--out", out])
        _, _, rows = parse_csv(out)
        assert rows[0]["adequate"] == "true"
        assert rows[3]["adequate"] == "false"

    def test_csv_rounds_json_keeps_precision(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("abcabd " * 300, encoding="utf-8")
        out_csv, out_json = tmp_path / "e.csv", tmp_path / "e.json"
        run(["entropy", corpus, "--max-order", "2", "--out", out_csv])
        run(["entropy", corpus, "--max-order", "2", "--format", "json", "--out", out_json])
        payload = json.loads(out_json.read_text())
        _, _, rows = parse_csv(out_csv)
        for row, entry in zip(rows, payload["orders"]):
            assert int(row["order"]) == entry["order"]
            assert int(row["windows"]) == entry["windows"]
            assert (row["adequate"] == "true") == entry["adequate"]
            # documented rendering rule: entropies print at 2 decimals
            assert row["entropy_bits"] == f"{entry['entropy_bits']:.2f}"


    def test_byte_order_mark_is_not_a_symbol(self, tmp_path):
        corpus = tmp_path / "bom.txt"
        corpus.write_bytes(b"\xef\xbb\xbf" + b"ab\n" * 300)
        out = tmp_path / "p.json"
        assert run(["entropy", corpus, "--strict", "--max-order", "1",
                    "--format", "json", "--out", out]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["sample_tokens"] == 899


class TestPredictCommand:
    def test_explicit_entropy_value(self, tmp_path, capsys):
        assert run(["predict", "--entropy-bits", "3.56", "--length", "2"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "length,entropy_bits,predicted_words,predicted_rounded"
        assert out.splitlines()[1].endswith(",139")

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_profile_driven_batch(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("abcabd abdacb " * 400, encoding="utf-8")
        profile = tmp_path / "p.json"
        run(["entropy", corpus, "--max-order", "3", "--format", "json", "--out", profile])
        out = tmp_path / "pred.csv"
        assert run(["predict", "--profile", profile, "--orders", "2,3", "--out", out]) == 0
        _, _, rows = parse_csv(out)
        assert [r["length"] for r in rows] == ["2", "3"]

    def test_requires_an_input(self, capsys):
        assert run(["predict"]) == 1
        assert "either" in capsys.readouterr().err

    def test_byte_order_mark_profile(self, tmp_path, capsys):
        profile = tmp_path / "p.json"
        body = json.dumps({"orders": [{"order": 2, "entropy_bits": 3.56}]})
        profile.write_bytes(b"\xef\xbb\xbf" + body.encode())
        assert run(["predict", "--profile", profile, "--orders", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[1].endswith(",139")

    @pytest.mark.parametrize("bits, length, problem", [
        ("5", "300", "2**(300 * 5.0) is too large for a double"),
        ("inf", "2", "entropy must be finite and >= 0, got inf"),
        ("nan", "2", "entropy must be finite and >= 0, got nan"),
    ], ids=["overflow", "inf", "nan"])
    def test_bad_entropy_fails_in_one_line(self, bits, length, problem):
        proc = run_python("-m", "wordlen.cli", "predict", "--entropy-bits", bits,
                          "--length", length)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [f"wordlen predict: {problem}"]

    @pytest.mark.parametrize("bits, shown", [("-1", "-1.0"), ("NaN", "nan")],
                             ids=["negative", "nan"])
    def test_bad_profile_entry_names_path_and_order(self, tmp_path, bits, shown):
        profile = tmp_path / "p.json"
        profile.write_text('{"orders": [{"order": 2, "entropy_bits": 3.5}, '
                           f'{{"order": 3, "entropy_bits": {bits}}}]}}', encoding="utf-8")
        proc = run_python("-m", "wordlen.cli", "predict", "--profile", profile)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"wordlen predict: {profile}: order 3: entropy must be finite and >= 0, got {shown}"]

    def test_zero_entropy_predicts_one_string(self, capsys):
        assert run(["predict", "--entropy-bits", "0", "--length", "9"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("9,0.00,1.0,1")


class TestImpliedCommand:
    def test_from_wordlist(self, reference_style_wordlist, tmp_path):
        out = tmp_path / "imp.csv"
        assert run(["implied", reference_style_wordlist, "--max-length", "5",
                    "--out", out]) == 0
        _, header, rows = parse_csv(out)
        assert header == ["length", "word_count", "entropy_bits", "has_data"]
        by_length = {r["length"]: r for r in rows}
        assert by_length["2"]["entropy_bits"] == "3.27"
        assert by_length["2"]["word_count"] == "93"
        assert by_length["4"]["has_data"] == "false"
        assert by_length["4"]["entropy_bits"] == "0.00"

    def test_from_histogram_file(self, reference_style_wordlist, tmp_path):
        hist_path = tmp_path / "h.csv"
        run(["histogram", reference_style_wordlist, "--max-length", "30",
             "--out", hist_path])
        out = tmp_path / "imp.csv"
        assert run(["implied", "--histogram", hist_path, "--out", out]) == 0
        _, _, rows = parse_csv(out)
        by_length = {r["length"]: r for r in rows}
        assert by_length["3"]["entropy_bits"] == "3.19"

    def test_single_word_row_prints_zero_with_data(self, tmp_path):
        wl = tmp_path / "one.txt"
        wl.write_text("abcdefghijklmnopqrstuvwxyzab\n", encoding="utf-8")
        out = tmp_path / "imp.csv"
        run(["implied", wl, "--max-length", "28", "--out", out])
        _, _, rows = parse_csv(out)
        last = rows[-1]
        assert last["length"] == "28" and last["word_count"] == "1"
        assert last["entropy_bits"] == "0.00" and last["has_data"] == "true"

    def test_requires_an_input(self, capsys):
        assert run(["implied"]) == 1
        assert "histogram" in capsys.readouterr().err

    def test_byte_order_mark_histogram(self, tmp_path):
        hist = tmp_path / "h.csv"
        hist.write_bytes(b"\xef\xbb\xbflength,count\n1,5\n2,7\noverflow,0\n")
        out = tmp_path / "imp.csv"
        assert run(["implied", "--histogram", hist, "--out", out]) == 0
        _, _, rows = parse_csv(out)
        assert [r["word_count"] for r in rows] == ["5", "7"]

    def test_bad_histogram_file_fails_in_one_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("length,count\n1,5\n2,7\n2,1\noverflow,0\n", encoding="utf-8")
        proc = run_python("-m", "wordlen.cli", "implied", "--histogram", bad)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [f"wordlen implied: {bad}: length 2 is listed twice"]
        assert proc.stdout == ""

    def test_csv_json_agree(self, reference_style_wordlist, tmp_path):
        out_csv, out_json = tmp_path / "i.csv", tmp_path / "i.json"
        run(["implied", reference_style_wordlist, "--max-length", "4", "--out", out_csv])
        run(["implied", reference_style_wordlist, "--max-length", "4",
             "--format", "json", "--out", out_json])
        payload = json.loads(out_json.read_text())
        _, _, rows = parse_csv(out_csv)
        for row, entry in zip(rows, payload["rows"]):
            assert int(row["word_count"]) == entry["word_count"]
            assert row["entropy_bits"] == f"{entry['entropy_bits']:.2f}"
            assert (row["has_data"] == "true") == entry["has_data"]


class TestSimulateCommand:
    def test_identical_seeds_byte_identical_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["simulate", "--p", "0.883", "--symbols", "27",
                "--words", "20000", "--seed", "99"]
        assert run(base + ["--out", a]) == 0
        assert run(base + ["--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["simulate", "--p", "0.883", "--symbols", "27", "--words", "20000",
             "--seed", "1", "--out", a])
        run(["simulate", "--p", "0.883", "--symbols", "27", "--words", "20000",
             "--seed", "2", "--out", b])
        assert a.read_bytes() != b.read_bytes()

    def test_histogram_schema_with_simulated_flag(self, tmp_path):
        out = tmp_path / "s.csv"
        run(["simulate", "--p", "0.7", "--symbols", "10", "--words", "5000",
             "--seed", "4", "--out", out])
        comments, header, rows = parse_csv(out)
        assert "source=simulated" in comments
        assert header == ["length", "count"]
        hist = read_histogram_csv(out)
        assert hist.total() == 5000

    def test_mode_flag_switches_processes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        common = ["simulate", "--p", "0.7", "--symbols", "10", "--words", "5000",
                  "--seed", "4"]
        run(common + ["--mode", "forced_first_letter", "--out", a])
        run(common + ["--mode", "reject_empty", "--out", b])
        assert a.read_bytes() != b.read_bytes()

    def test_json_reports_both_means(self, tmp_path):
        out = tmp_path / "s.json"
        run(["simulate", "--p", "0.883", "--symbols", "27", "--words", "50000",
             "--seed", "6", "--format", "json", "--out", out])
        payload = json.loads(out.read_text())
        assert payload["token_mean_analytic"] == pytest.approx(1 / 0.117)
        assert payload["distinct_word_mean_model"] == pytest.approx(9.1015, abs=1e-3)
        assert payload["empirical_mean_length"] == pytest.approx(1 / 0.117, abs=0.2)
        assert payload["source"] == "simulated"


class TestInventoryOption:
    def test_inventory_file_is_accepted(self, tmp_path):
        inv = tmp_path / "inv.json"
        inv.write_text(json.dumps({"letters": ["a", "b"], "separator": " "}),
                       encoding="utf-8")
        wl = tmp_path / "wl.txt"
        wl.write_text("ab\nba\naa\n", encoding="utf-8")
        out = tmp_path / "h.csv"
        assert run(["histogram", wl, "--inventory", inv, "--out", out]) == 0
        _, _, rows = parse_csv(out)
        assert {r["length"]: r["count"] for r in rows}["2"] == "3"

    def test_byte_order_mark_inventory(self, tmp_path):
        inv = tmp_path / "inv.json"
        inv.write_bytes(b"\xef\xbb\xbf" + json.dumps({"letters": ["a", "b"]}).encode())
        wl = tmp_path / "wl.txt"
        wl.write_text("ab\nba\n", encoding="utf-8")
        out = tmp_path / "h.csv"
        assert run(["histogram", wl, "--inventory", inv, "--strict", "--out", out]) == 0
        assert read_histogram_csv(out).count(2) == 2

    @pytest.mark.parametrize("spec, problem", [
        ({"letters": ["a", 1]}, "'letters' must be a list of strings"),
        ({"letters": ["a", "b"], "separator": 5}, "'separator' must be a string"),
    ])
    def test_mistyped_inventory_file_fails_in_one_line(self, tmp_path, spec, problem):
        inv = tmp_path / "inv.json"
        inv.write_text(json.dumps(spec), encoding="utf-8")
        wl = tmp_path / "wl.txt"
        wl.write_text("ab\n", encoding="utf-8")
        proc = run_python("-m", "wordlen.cli", "histogram", wl, "--inventory", inv)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [f"wordlen histogram: {inv}: {problem}"]

    def test_unknown_inventory_fails(self, tmp_path, capsys):
        wl = tmp_path / "wl.txt"
        wl.write_text("a\n", encoding="utf-8")
        assert run(["histogram", wl, "--inventory", "klingon"]) == 1
        assert "neither" in capsys.readouterr().err


class TestHistogramReader:
    @pytest.mark.parametrize("rows, problem", [
        # a length-0 row used to land in the last cell, replacing the length-4 count
        (["1,5", "2,7", "4,1", "0,3"], "length 0 is not a length >= 1"),
        # a repeated length used to overwrite the earlier row
        (["1,5", "2,7", "2,1"], "length 2 is listed twice"),
        (["1,5", "2,7", "4,1"], "length 3 has no row"),
    ])
    def test_rows_must_list_each_length_once(self, tmp_path, rows, problem):
        path = tmp_path / "h.csv"
        path.write_text("\n".join(["length,count", *rows, "overflow,0"]) + "\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=f"h.csv: {problem}"):
            read_histogram_csv(path)

    @pytest.mark.parametrize("rows, problem", [
        (["1,5", "x,3"], "line 3: cannot read 'x,3'"),
        (["1,5", "2,7x"], "line 3: cannot read '2,7x'"),
        (["1,5", "2,-3"], "line 3: negative count -3"),
        (["1,5", "overflow,-1"], "line 3: negative count -1"),
    ])
    def test_bad_rows_name_path_and_line(self, tmp_path, rows, problem):
        path = tmp_path / "h.csv"
        path.write_text("\n".join(["length,count", *rows]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"h.csv: {problem}"):
            read_histogram_csv(path)

    def test_far_length_reports_first_gap_in_bounded_memory(self, tmp_path):
        # listing every absent length up to 10**9 would need gigabytes; the
        # child's address space is capped so that such a reader fails fast
        path = tmp_path / "h.csv"
        path.write_text("length,count\n1,5\n1000000000,1\n", encoding="utf-8")
        proc = run_python("-c", (
            "import resource, sys; cap = 1 << 30; "
            "resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); "
            "from wordlen.report import read_histogram_csv\n"
            "try: read_histogram_csv(sys.argv[1])\n"
            "except ValueError as err: print(err)"), path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"{path}: length 2 has no row"


def test_import_does_not_load_scipy():
    proc = run_python("-c", "import sys, wordlen.cli; print(sorted("
                            "m for m in sys.modules if m.startswith('scipy')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
