import ast
import collections
import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import wordlen
from wordlen import cli, simulate
from wordlen.cli import main
from wordlen.report import Artifact, read_histogram_csv

SRC = str(Path(wordlen.__file__).resolve().parents[1])
# read when numpy loads; a child sees them only where a test sets them
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run(args):
    return main([str(a) for a in args])


def run_python(*args, env=None):
    """A fresh interpreter that imports this checkout's ``wordlen``, with the
    variables in ``env`` added and no BLAS thread count inherited."""
    inherited = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True,
                          env={**inherited, "PYTHONPATH": SRC, **(env or {})}, check=False)


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

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_non_finite_scale_fails_in_one_line(self, model_wordlist, scale):
        # JSON has no NaN or Infinity, so such a scale_a is refused, not written
        proc = run_python("-m", "wordlen.cli", "fit", model_wordlist, "--format", "json",
                          "--scale-a", scale)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.splitlines() == [
            f"wordlen fit: scale_a must be finite and > 0, got {scale}"]

    def test_no_artifact_writes_non_finite_json(self):
        artifact = Artifact({"x": math.inf}, (), ("x",), ((math.inf,),))
        with pytest.raises(ValueError):
            artifact.to_json()


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

    def test_small_corpus_flags_inadequate_orders(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("the cat sat on the mat", encoding="utf-8")
        out = tmp_path / "e.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # none may escape the command
            assert run(["entropy", corpus, "--max-order", "3", "--out", out]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "wordlen entropy: warning: stream of 22 tokens cannot adequately sample "
            "order >= 1 over 27 symbols"
        ]
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

    def test_memory_grows_by_at_most_2_5_bytes_per_character(self, tmp_path):
        # the text is held once and the stream takes one byte per symbol;
        # each child is started from a small launcher, since on Linux a
        # child's ru_maxrss includes the peak RSS of the process that
        # started it, and this one has loaded the test suite
        launcher = ("import os, subprocess, sys\n"
                    "proc = subprocess.Popen(sys.argv[1:])\n"
                    "_, status, usage = os.wait4(proc.pid, 0)\n"
                    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")
        rng = random.Random(3)
        words = ["".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=rng.randint(1, 11)))
                 for _ in range(4000)]
        picked = rng.choices(words, k=320_000)
        line_block = "".join(" ".join(picked[i : i + 10]) + ".\n"
                             for i in range(0, len(picked), 10))
        peaks = {}
        for copies in (1, 4):
            corpus = tmp_path / f"corpus{copies}.txt"
            corpus.write_text(line_block * copies, encoding="utf-8")
            proc = run_python("-c", launcher, sys.executable, "-m", "wordlen.cli", "entropy",
                              corpus, "--out", os.devnull)
            code, peak_kb = map(int, proc.stdout.split())
            assert code == 0, proc.stderr
            peaks[len(line_block) * copies] = peak_kb * 1024
        (small, small_peak), (large, large_peak) = sorted(peaks.items())
        assert small > 1_900_000 and large > 7_600_000
        slope = (large_peak - small_peak) / (large - small)
        assert slope <= 2.5, f"{slope:.2f} bytes per character"

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

    @pytest.mark.parametrize("body, problem", [
        ('{"orders": [', "not JSON: Expecting value: line 1 column 13 (char 12)"),
        ('{"orders": [{"order": "x", "entropy_bits": 3.5}]}', "not an entropy profile file"),
    ], ids=["truncated", "non-integer-order"])
    def test_unreadable_profile_names_path(self, tmp_path, body, problem):
        profile = tmp_path / "p.json"
        profile.write_text(body, encoding="utf-8")
        proc = run_python("-m", "wordlen.cli", "predict", "--profile", profile)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [f"wordlen predict: {profile}: {problem}"]

    def test_non_integer_order_names_flag_and_value(self, tmp_path, capsys):
        profile = tmp_path / "p.json"
        profile.write_text('{"orders": [{"order": 2, "entropy_bits": 3.5}]}', encoding="utf-8")
        assert run(["predict", "--profile", profile, "--orders", "2, x"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "wordlen predict: --orders: 'x' is not a whole number"]

    def test_zero_entropy_predicts_one_string(self, capsys):
        assert run(["predict", "--entropy-bits", "0", "--length", "9"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("9,0.00,1.0,1")

    @pytest.fixture
    def profile_0_to_3(self, tmp_path):
        """A profile holding orders 0..3, with order 3 undersampled."""
        profile = tmp_path / "p.json"
        profile.write_text(json.dumps({"orders": [
            {"order": n, "entropy_bits": h, "adequate": n < 3}
            for n, h in enumerate([4.75, 4.1, 3.56, 3.3])]}), encoding="utf-8")
        return profile

    @pytest.mark.parametrize("flags, problem", [
        (["--orders", "2,7"], "{profile} has no order 7; it holds orders 0, 1, 2, 3"),
        (["--orders", "9,2,7"], "{profile} has no order 7, 9; it holds orders 0, 1, 2, 3"),
        (["--orders", "0,2"], "--orders: 0 is not a word length; orders start at 1"),
        (["--entropy-bits", "3", "--length", "2"],
         "--entropy-bits and --length cannot be used with --profile"),
        (["--length", "2"], "--entropy-bits and --length cannot be used with --profile"),
    ], ids=["missing", "two-missing", "order-0", "explicit-pair", "length"])
    def test_refuses_what_profile_cannot_give(self, profile_0_to_3, capsys, flags, problem):
        assert run(["predict", "--profile", profile_0_to_3, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"wordlen predict: {problem.format(profile=profile_0_to_3)}"]

    def test_orders_need_a_profile(self, capsys):
        assert run(["predict", "--orders", "2", "--entropy-bits", "3", "--length", "2"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "wordlen predict: --orders cannot be used without --profile"]

    def test_undersampled_order_warns_and_keeps_bytes(self, profile_0_to_3, tmp_path, capsys):
        assert run(["predict", "--profile", profile_0_to_3]) == 0
        warned = capsys.readouterr()
        assert warned.err.splitlines() == [
            f"wordlen predict: warning: order 3 is undersampled in {profile_0_to_3}"]
        # the same entries without "adequate" keys, as in a hand-written profile
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps({"orders": [
            {k: v for k, v in entry.items() if k != "adequate"}
            for entry in json.loads(profile_0_to_3.read_text(encoding="utf-8"))["orders"]]}),
            encoding="utf-8")
        assert run(["predict", "--profile", bare]) == 0
        quiet = capsys.readouterr()
        assert quiet.err == ""
        assert quiet.out == warned.out
        assert [line.split(",")[0] for line in quiet.out.splitlines()[1:]] == ["2", "3"]
        # an adequate order asked for alone gives no warning
        assert run(["predict", "--profile", profile_0_to_3, "--orders", "1,2"]) == 0
        assert capsys.readouterr().err == ""


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

    @pytest.mark.parametrize("flags, named", [
        (["--max-length", "3"], "--max-length"),
        (["--inventory", "nosuch"], "--inventory"),
        (["--strict"], "--strict"),
        (["words.txt"], "a word list"),
        (["--max-length", "50", "--strict", "--inventory", "english"],
         "--max-length, --inventory, --strict"),
    ], ids=["max-length", "inventory", "strict", "wordlist", "all"])
    def test_histogram_refuses_the_flags_it_ignores(self, tmp_path, capsys, flags, named):
        # the histogram file is missing: it is refused before any file is read
        missing = tmp_path / "missing.csv"
        assert run(["implied", "--histogram", missing, *flags]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"wordlen implied: {named} cannot be used with --histogram"]

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

    def test_overflow_only_histogram_fails_in_one_line(self, tmp_path):
        # overflowing words have no length to imply an entropy at, so no row has data
        hist = tmp_path / "h.csv"
        hist.write_text("length,count\n1,0\n2,0\noverflow,5\n", encoding="utf-8")
        proc = run_python("-m", "wordlen.cli", "implied", "--histogram", hist)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["wordlen implied: all 5 words are longer than 2"]
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


IMPLIED_CSV = """\
# label=tiny
length,word_count,entropy_bits,has_data
1,1,0.00,true
2,3,0.79,true
3,0,0.00,false
"""
IMPLIED_JSON = """\
{
  "label": "tiny",
  "rows": [
    {
      "length": 1,
      "word_count": 1,
      "entropy_bits": 0.0,
      "has_data": true
    },
    {
      "length": 2,
      "word_count": 3,
      "entropy_bits": 0.792481250360578,
      "has_data": true
    },
    {
      "length": 3,
      "word_count": 0,
      "entropy_bits": 0.0,
      "has_data": false
    }
  ]
}
"""
PREDICT_CSV = """\
# label=demo
length,entropy_bits,predicted_words,predicted_rounded
2,3.56,139.10206240333545,139
3,3.30,955.4257833336899,955
"""
PREDICT_JSON = """\
{
  "label": "demo",
  "predictions": [
    {
      "length": 2,
      "entropy_bits": 3.56,
      "predicted_words": 139.10206240333545
    },
    {
      "length": 3,
      "entropy_bits": 3.3,
      "predicted_words": 955.4257833336899
    }
  ]
}
"""


@pytest.mark.parametrize("fmt, implied, predicted", [
    ("csv", IMPLIED_CSV, PREDICT_CSV), ("json", IMPLIED_JSON, PREDICT_JSON),
])
def test_implied_and_predict_exact_bytes(tmp_path, capsys, fmt, implied, predicted):
    hist = tmp_path / "h.csv"
    hist.write_text("# source=wordlist\n# label=tiny\nlength,count\n1,1\n2,3\n3,0\n"
                    "overflow,2\n", encoding="utf-8")
    profile = tmp_path / "p.json"
    profile.write_text(json.dumps({"orders": [{"order": 0, "entropy_bits": 4.75},
                                              {"order": 2, "entropy_bits": 3.56},
                                              {"order": 3, "entropy_bits": 3.3}]}),
                       encoding="utf-8")
    assert run(["implied", "--histogram", hist, "--format", fmt]) == 0
    assert capsys.readouterr().out == implied
    assert run(["predict", "--profile", profile, "--label", "demo", "--format", fmt]) == 0
    assert capsys.readouterr().out == predicted


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
        assert "source=simulated" in comments and "label=simulated" in comments
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

    def test_truncated_inventory_file_names_path(self, tmp_path):
        inv = tmp_path / "inv.json"
        inv.write_text('{"letters": ["a",', encoding="utf-8")
        wl = tmp_path / "wl.txt"
        wl.write_text("ab\n", encoding="utf-8")
        proc = run_python("-m", "wordlen.cli", "histogram", wl, "--inventory", inv)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"wordlen histogram: {inv}: not JSON: Expecting value: line 1 column 18 (char 17)"]

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
        # a second overflow row used to replace the first
        (["1,5", "2,7", "overflow,3", "overflow,9"], "line 5: overflow is listed twice"),
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


def packages_loaded_by(*argv):
    """Top-level packages loaded once one ``wordlen`` call has run in a fresh interpreter."""
    proc = run_python("-c", "import sys; from wordlen.cli import main; code = main(sys.argv[1:]); "
                            "print(sorted({m.split('.')[0] for m in sys.modules})); sys.exit(code)",
                      *argv)
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout))


def test_predict_loads_neither_numpy_nor_scipy(tmp_path):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"orders": [{"order": 2, "entropy_bits": 3.3}]}),
                       encoding="utf-8")
    for argv in (["--entropy-bits", "3.56", "--length", "2"], ["--profile", profile]):
        loaded = packages_loaded_by("predict", *argv, "--out", tmp_path / "out.csv")
        assert "wordlen" in loaded
        assert not loaded & {"numpy", "scipy"}, argv


def test_implied_from_histogram_loads_no_numpy(tmp_path):
    hist = tmp_path / "h.csv"
    hist.write_text("length,count\n1,5\n2,7\noverflow,0\n", encoding="utf-8")
    loaded = packages_loaded_by("implied", "--histogram", hist, "--out", tmp_path / "i.csv")
    assert "wordlen" in loaded and "numpy" not in loaded


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="threads are read from /proc")
def test_numpy_commands_start_no_blas_thread(tmp_path):
    code = ("import os, sys; from wordlen.cli import main; code = main(sys.argv[1:]); "
            "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS']); "
            "sys.exit(code)")
    argv = ["simulate", "--p", "0.5", "--symbols", "27", "--words", "100",
            "--out", tmp_path / "s.csv"]
    proc = run_python("-c", code, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1"]
    # a thread count the caller set is left as it is
    proc = run_python("-c", code, *argv, env={"OPENBLAS_NUM_THREADS": "2"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[1] == "2"


@pytest.mark.parametrize("argv", [
    ["histogram", "words.txt"],
    ["fit", "words.txt"],
    ["implied", "words.txt"],
    ["simulate", "--p", "0.5", "--symbols", "27", "--words", "100000000"],
], ids=lambda argv: argv[0])
def test_max_length_is_checked_before_any_work(monkeypatch, capsys, tmp_path, argv):
    def unreachable(*args, **kwargs):
        raise AssertionError("work started before --max-length was checked")

    for module, name in ((cli, "read_utf8"), (cli, "load_wordlist"),
                         (simulate, "draw_word_lengths")):
        monkeypatch.setattr(module, name, unreachable)
    (tmp_path / "words.txt").write_text("a\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run([*argv, "--max-length", "0"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"wordlen {argv[0]}: max_length must be >= 1"]


def test_fit_does_not_load_scipy(model_wordlist, tmp_path):
    # the word-list commands run in plain Python; only the array commands load numpy
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("the cat sat on the mat " * 20, encoding="utf-8")
    out = tmp_path / "out.csv"
    for argv in (["histogram", model_wordlist], ["fit", model_wordlist],
                 ["implied", model_wordlist]):
        loaded = packages_loaded_by(*argv, "--out", out)
        assert "wordlen" in loaded and not loaded & {"numpy", "scipy"}, argv
    for argv in (["entropy", corpus, "--max-order", "1"],
                 ["simulate", "--p", "0.5", "--symbols", "27", "--words", "100"]):
        loaded = packages_loaded_by(*argv, "--out", out)
        assert "numpy" in loaded and "scipy" not in loaded, argv


def _cpu_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


AVX512_DISPATCH = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


@pytest.mark.skipif(not any(_cpu_features().get(f) for f in AVX512_DISPATCH),
                    reason="numpy dispatches to none of the AVX-512 targets here")
def test_fit_writes_the_same_bytes_at_every_simd_level(model_wordlist, tmp_path):
    outputs = []
    for disabled in ("", " ".join(AVX512_DISPATCH)):
        fit, curve = tmp_path / f"fit{len(outputs)}.json", tmp_path / f"curve{len(outputs)}.json"
        proc = run_python("-m", "wordlen.cli", "fit", model_wordlist, "--format", "json",
                          "--out", fit, "--curve-out", curve,
                          env={"NPY_DISABLE_CPU_FEATURES": disabled})
        assert proc.returncode == 0, proc.stderr
        outputs.append((fit.read_bytes(), curve.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("text", ["", "# only a comment\n\n"], ids=["empty", "comments"])
def test_empty_word_list(tmp_path, capsys, text):
    # no words is a histogram of zeros; what needs words fails in one line
    words = tmp_path / "words.txt"
    words.write_text(text, encoding="utf-8")
    out = tmp_path / "h.json"
    assert run(["histogram", words, "--max-length", "3", "--format", "json", "--out", out]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["counts"] == [0, 0, 0] and payload["overflow"] == 0
    assert run(["implied", words]) == 1
    assert run(["fit", words]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "wordlen implied: empty histogram",
        "wordlen fit: histogram needs at least 3 nonzero cells to fit"]


def test_runs_as_a_module(reference_style_wordlist):
    # as __main__, the commands still reach the layer functions loaded on first use
    proc = run_python("-m", "wordlen.cli", "histogram", reference_style_wordlist)
    assert proc.returncode == 0, proc.stderr
    assert "2,93" in proc.stdout.splitlines()


@pytest.mark.parametrize("command, text, flags", [
    ("fit", "ab\ncd\n", []),  # fewer than 3 nonzero cells: a FitError
    ("histogram", "ok\nnaïve\n", ["--strict"]),  # a TokenizationError
])
def test_layer_errors_exit_1_in_one_line(tmp_path, command, text, flags):
    # an error raised inside a layer reaches stderr as one line
    words = tmp_path / "words.txt"
    words.write_text(text, encoding="utf-8")
    proc = run_python("-c", "import sys; from wordlen.cli import main; sys.exit(main())",
                      command, words, *flags)
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"wordlen {command}: "), proc.stderr


def test_layer_calls_go_through_cli_names(monkeypatch, model_wordlist, tmp_path):
    # bench/traced.py replaces these four names in wordlen.cli and reads a
    # word list's text as the first positional argument, so every subcommand
    # must reach its layers through them
    calls = collections.Counter()

    def count(name):
        real = getattr(cli, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            if name == "load_wordlist":
                assert isinstance(args[0], str)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)

    for name in ("load_wordlist", "word_length_histogram", "load_corpus", "entropy_profile"):
        count(name)
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("the cat sat on the mat " * 20, encoding="utf-8")
    out = tmp_path / "out.csv"
    for argv in (["histogram", model_wordlist], ["fit", model_wordlist],
                 ["implied", model_wordlist], ["entropy", corpus, "--max-order", "1"],
                 ["simulate", "--p", "0.5", "--symbols", "27", "--words", "100"]):
        assert run([*argv, "--out", out]) == 0
    assert calls == {"load_wordlist": 3, "word_length_histogram": 4,
                     "load_corpus": 1, "entropy_profile": 1}
