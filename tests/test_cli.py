import ast
import collections
import errno
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import wordlen
from wordlen import cli, lengthmodel, simulate
from wordlen.cli import main
from wordlen.report import Artifact, WordLengthHistogram, _write_std, read_histogram_csv

SRC = str(Path(wordlen.__file__).resolve().parents[1])
# read when numpy loads; a child sees them only where a test sets them
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run(args):
    return main([str(a) for a in args])


def run_python(*args, env=None, text=True, timeout=None):
    """A fresh interpreter that imports this checkout's ``wordlen``, with the
    variables in ``env`` added and no BLAS thread count inherited.

    Whatever the locale, each ``bytes`` argument reaches it as it is and any
    other as UTF-8 (a lone surrogate as the byte it escapes), and its output
    is read as UTF-8 text, or as bytes unless ``text``.
    """
    inherited = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    argv = [a if isinstance(a, bytes) else str(a).encode("utf-8", "surrogateescape")
            for a in args]
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          encoding="utf-8" if text else None,
                          env={**inherited, "PYTHONPATH": SRC, **(env or {})}, check=False,
                          timeout=timeout)


def cli_peak_rss(*argv):
    """Peak RSS in bytes of one ``wordlen`` call that writes to the null device.

    The call is started from a small launcher, since on Linux a child's
    ru_maxrss includes the peak RSS of the process that started it, and
    this one has loaded the test suite.
    """
    launcher = ("import os, subprocess, sys\n"
                "proc = subprocess.Popen(sys.argv[1:])\n"
                "_, status, usage = os.wait4(proc.pid, 0)\n"
                "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")
    proc = run_python("-c", launcher, sys.executable, "-m", "wordlen.cli", *argv,
                      "--out", os.devnull)
    code, peak_kb = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    return peak_kb * 1024


# a profile holding orders 0..3, with order 3 undersampled
PROFILE_0_TO_3 = json.dumps({"orders": [
    {"order": n, "entropy_bits": h, "adequate": n < 3}
    for n, h in enumerate([4.75, 4.1, 3.56, 3.3])]})


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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_curve_output(self, model_wordlist, tmp_path, fmt):
        # one --format governs both outputs
        out, curve = tmp_path / f"f.{fmt}", tmp_path / f"curve.{fmt}"
        assert run(["fit", model_wordlist, "--format", fmt, "--out", out,
                    "--curve-out", curve]) == 0
        if fmt == "json":
            assert json.loads(out.read_text())["symbols"] == 27
            curve = json.loads(curve.read_text())
            assert list(curve) == ["symbols", "p", "reliable_length_limit", "lengths",
                                   "observed", "expected"]
            assert curve["lengths"] == list(range(1, 51))
            assert len(curve["observed"]) == len(curve["expected"]) == 50
            assert 1 <= curve["reliable_length_limit"] < 50
            return
        assert parse_csv(out)[1][:2] == ["label", "symbols"]
        _, header, rows = parse_csv(curve)
        assert header == ["length", "observed", "expected", "reliable"]
        assert len(rows) == 50
        assert rows[0]["reliable"] == "true"
        assert rows[-1]["reliable"] == "false"

    def test_unwritable_curve_fails_in_one_line(self, model_wordlist, tmp_path, capsys):
        # the report is written first; the curve's destination
        # then fails like any other output path
        out = tmp_path / "f.csv"
        assert run(["fit", model_wordlist, "--out", out,
                    "--curve-out", tmp_path / "missing" / "c.csv"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and out.is_file()
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("wordlen fit: ") and "c.csv" in captured.err

    def test_vocabulary_not_above_the_scale_leaves_the_exponent_empty(self, model_wordlist,
                                                                      tmp_path):
        # no positive b reproduces a vocabulary at or below scale_a
        out = tmp_path / "f.json"
        assert run(["fit", model_wordlist, "--scale-a", "1e6", "--format", "json",
                    "--out", out]) == 0
        vocab = json.loads(out.read_text())["vocab_observed"]
        assert vocab < 1e6
        for scale in ("1e6", str(vocab)):
            assert run(["fit", model_wordlist, "--scale-a", scale, "--format", "json",
                        "--out", out]) == 0
            rep = json.loads(out.read_text())
            assert (rep["scale_a"], rep["exponent_b"], rep["vocab_approx"]) == (
                float(scale), None, None)
            assert run(["fit", model_wordlist, "--scale-a", scale, "--out", out]) == 0
            row = parse_csv(out)[2][0]
            assert (row["scale_a"], row["exponent_b"], row["vocab_approx"]) == (
                repr(float(scale)), "", "")

    def test_unfittable_wordlist_fails_cleanly(self, tmp_path, capsys):
        wl = tmp_path / "short.txt"
        wl.write_text("a\nb\n", encoding="utf-8")
        assert run(["fit", wl]) == 1
        assert "nonzero" in capsys.readouterr().err

    def test_trim_tail_drops_the_cells_past_the_longest_word(self, model_wordlist, tmp_path):
        hist_csv, full, trimmed = tmp_path / "h.csv", tmp_path / "full.json", tmp_path / "t.json"
        assert run(["histogram", model_wordlist, "--out", hist_csv]) == 0
        assert run(["fit", model_wordlist, "--format", "json", "--out", full]) == 0
        assert run(["fit", model_wordlist, "--format", "json", "--trim-tail",
                    "--out", trimmed]) == 0
        hist = read_histogram_csv(hist_csv)
        longest = max(n for n in range(1, 51) if hist.count(n))
        assert longest == 34  # 16 empty cells to trim
        full, trimmed = json.loads(full.read_text()), json.loads(trimmed.read_text())
        assert trimmed["df"] == full["df"] - (50 - longest)
        assert trimmed["p"] == lengthmodel.fit_p(hist, 27, trim_tail=True).p

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


LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
               "\u2029"]


class TestCsvLayout:
    """A comment or text cell that would break the CSV layout is refused in
    one line that names it, before ``--out`` is opened; JSON carries it."""

    @pytest.mark.parametrize("label", ["en,GB", 'en "GB"', "en\nGB", "en\u2028GB"])
    def test_fit_label_cell(self, model_wordlist, tmp_path, capsys, label):
        # "en,GB" used to write 19 cells under an 18-column header
        out = tmp_path / "fit.csv"
        assert run(["fit", model_wordlist, "--label", label, "--out", out]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"wordlen fit: CSV column 'label' cannot hold {label!r}: it has a comma, "
            "a double quote or a line break"]
        assert not out.exists()
        assert run(["fit", model_wordlist, "--label", label, "--format", "json",
                    "--out", out]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["label"] == label

    @pytest.mark.parametrize("brk", LINE_BREAKS)
    def test_entropy_label_comment(self, tmp_path, capsys, brk):
        # a "\n" used to write a stray line after the comment
        corpus = tmp_path / "c.txt"
        corpus.write_text("the cat sat on the mat\n" * 20, encoding="utf-8")
        out = tmp_path / "profile.csv"
        label = f"x{brk}y"
        assert run(["entropy", corpus, "--max-order", "1", "--label", label, "--out", out]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"wordlen entropy: CSV comment {'label=' + label!r} cannot hold a line break"]
        assert not out.exists()

    def test_histogram_label_from_the_file_stem(self, tmp_path, capsys):
        # this used to write a CSV that implied --histogram refused with
        # "line 3: cannot read 'ird'"
        words = tmp_path / "b\nird.txt"
        words.write_text("cat\ndog\n", encoding="utf-8")
        out = tmp_path / "hist.csv"
        assert run(["histogram", words, "--out", out]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "wordlen histogram: CSV comment 'label=b\\nird' cannot hold a line break"]
        assert not out.exists()
        assert run(["histogram", words, "--format", "json", "--out", out]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["label"] == "b\nird"

    def test_what_keeps_the_layout_is_written_as_before(self):
        artifact = Artifact({}, ("label=a b;c#",), ("name", "n"), (("a b;c", 1.5),))
        assert artifact.to_csv() == "# label=a b;c#\nname,n\na b;c,1.5\n"
        for brk in LINE_BREAKS:
            with pytest.raises(ValueError) as err:
                Artifact({}, (), ("name", "n"), ((f"a{brk}b", 1),)).to_csv()
            assert str(err.value).splitlines() == [
                f"CSV column 'name' cannot hold {f'a{brk}b'!r}: it has a comma, "
                "a double quote or a line break"]


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

    def test_no_entropy_prints_as_negative_zero(self, tmp_path, capsys):
        # one window of order 1 gave -(0.0), printed as -0.00 and -0.0
        corpus = tmp_path / "ab.txt"
        corpus.write_text("ab", encoding="utf-8")
        assert run(["entropy", corpus, "--max-order", "2"]) == 0
        assert capsys.readouterr().out == (
            "# label=ab\norder,entropy_bits,windows,adequate\n"
            "0,4.75,2,true\n1,0.00,1,false\n2,0.00,1,false\n")
        assert run(["entropy", corpus, "--max-order", "2", "--format", "json"]) == 0
        orders = json.loads(capsys.readouterr().out)["orders"]
        assert [math.copysign(1.0, o["entropy_bits"]) for o in orders] == [1.0] * 3

    def test_entropy_never_rises_with_order(self, tmp_path):
        # H_3 was written one rounding step above H_2, as 0.3333333333333335
        inventory = tmp_path / "inv.json"
        inventory.write_text(json.dumps({"letters": ["a", "A", "b"], "case_fold": False}),
                             encoding="utf-8")
        corpus = tmp_path / "c.txt"
        corpus.write_text("aaA aAba", encoding="utf-8")
        out = tmp_path / "p.json"
        assert run(["entropy", corpus, "--inventory", inventory, "--max-order", "3",
                    "--format", "json", "--out", out]) == 0
        h = [entry["entropy_bits"] for entry in json.loads(out.read_text())["orders"]]
        assert h[2] == 0.33333333333333326
        assert h[3] == h[2]

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

    @pytest.mark.parametrize("preset, max_order, line_end", [
        ("english", 3, "\n"), ("swahili", 4, "\n"), ("english", 3, " "), ("swahili", 4, " "),
    ], ids=["english-3", "swahili-4", "english-3-one-line", "swahili-4-one-line"])
    def test_memory_grows_by_at_most_2_5_bytes_per_character(self, tmp_path, preset, max_order,
                                                             line_end):
        # the text is held once and the stream takes one byte per symbol;
        # the Swahili words hold the digraph ch, one symbol, and count a
        # denser order; with a space for every line end, the text is one
        # line, which used to be normalised and coded whole
        letters = {"english": "abcdefghijklmnopqrstuvwxyz",
                   "swahili": tuple("abdefghijklmnoprstuvwyz") + ("ch",)}[preset]
        rng = random.Random(3)
        words = ["".join(rng.choices(letters, k=rng.randint(1, 11))) for _ in range(4000)]
        picked = rng.choices(words, k=320_000)
        line_block = "".join(" ".join(picked[i : i + 10]) + "." + line_end
                             for i in range(0, len(picked), 10))
        peaks = {}
        for copies in (1, 4):
            corpus = tmp_path / f"corpus{copies}.txt"
            corpus.write_text(line_block * copies, encoding="utf-8")
            peaks[len(line_block) * copies] = cli_peak_rss(
                "entropy", corpus, "--inventory", preset, "--max-order", max_order)
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

    @pytest.mark.parametrize("entries, problem", [
        ('{"order": 2, "entropy_bits": 3.5}, {"order": 2, "entropy_bits": 3.4}',
         "order 2: listed twice"),
        ('{"order": 2, "entropy_bits": 3.5, "adequate": "no"}',
         'order 2: adequate must be true or false, got "no"'),
        ('{"order": 2, "entropy_bits": 3.5, "adequate": 1}',
         "order 2: adequate must be true or false, got 1"),
        ('{"order": 2, "entropy_bits": 3.5, "adequate": null}',
         "order 2: adequate must be true or false, got null"),
        ('{"order": 2.7, "entropy_bits": 3.0}', "entry 1: order must be an integer, not 2.7"),
        ('{"order": 2, "entropy_bits": 3.5}, {"order": true, "entropy_bits": 3.0}',
         "entry 2: order must be an integer, not True"),
        ('{"order": 2, "entropy_bits": "4.5"}', "order 2: entropy must be a number, not '4.5'"),
        ('{"order": 2, "entropy_bits": false}', "order 2: entropy must be a number, not False"),
        ('{"order": 2, "entropy_bits": 1' + "0" * 400 + "}",
         "order 2: entropy must be finite and >= 0, got inf"),
    ], ids=["repeated-order", "adequate-string", "adequate-number", "adequate-null",
            "order-float", "order-bool", "entropy-string", "entropy-bool", "entropy-huge"])
    def test_refuses_inconsistent_profile(self, tmp_path, entries, problem):
        # a repeated order used to print two rows, "no" to pass as adequate,
        # 2.7 and true to pass as orders 2 and 1, and "4.5" as an entropy
        profile = tmp_path / "p.json"
        profile.write_text(f'{{"orders": [{entries}]}}', encoding="utf-8")
        proc = run_python("-m", "wordlen.cli", "predict", "--profile", profile, "--orders", "2")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.splitlines() == [f"wordlen predict: {profile}: {problem}"]

    @pytest.mark.parametrize("body, problem", [
        ('{"orders": [', "not JSON: Expecting value: line 1 column 13 (char 12)"),
        ('{"orders": [{"order": "x", "entropy_bits": 3.5}]}',
         "entry 1: order must be an integer, not 'x'"),
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
            "wordlen predict: --orders must be an integer, not 'x'"]

    @pytest.mark.parametrize("orders, problem", [
        # int() read the first two as order 2
        ("0_2", "--orders must be an integer, not '0_2'"),
        ("3,+2", "--orders must be an integer, not '+2'"),
        ("-2", "--orders must be an integer, not '-2'"),
        ("9" * 5000, "--orders must have at most 4300 digits, not 5000"),
    ], ids=["underscore", "sign", "negative", "long"])
    def test_orders_are_ascii_digits(self, tmp_path, capsys, orders, problem):
        profile = tmp_path / "p.json"
        profile.write_text('{"orders": [{"order": 2, "entropy_bits": 3.5}]}', encoding="utf-8")
        assert run(["predict", "--profile", profile, "--orders", orders]) == 1
        assert capsys.readouterr() == ("", f"wordlen predict: {problem}\n")

    def test_negative_order_is_refused(self, tmp_path, capsys):
        # it used to be held: "it holds orders -4, 2"
        profile = tmp_path / "p.json"
        profile.write_text('{"orders": [{"order": -4, "entropy_bits": 3.5}, '
                           '{"order": 2, "entropy_bits": 3.5}]}', encoding="utf-8")
        assert run(["predict", "--profile", profile, "--orders", "3"]) == 1
        assert capsys.readouterr() == (
            "", f"wordlen predict: {profile}: entry 1: order must be >= 0\n")

    @pytest.mark.parametrize("body, problem", [
        ('{"orders": [{"order": ' + "2" * 5000 + ', "entropy_bits": 3.5}]}',
         "Exceeds the limit (4300 digits)"),
        ("[" * 100_000, "maximum recursion depth exceeded"),
    ], ids=["long-number", "deep-nesting"])
    def test_unparseable_profile_fails_in_one_line(self, tmp_path, body, problem):
        # the first used to print no path, and the second a RecursionError traceback
        profile = tmp_path / "p.json"
        profile.write_text(body, encoding="utf-8")
        proc = run_python("-m", "wordlen.cli", "predict", "--profile", profile)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith(f"wordlen predict: {profile}: not JSON: {problem}")

    def test_zero_entropy_predicts_one_string(self, capsys):
        assert run(["predict", "--entropy-bits", "0", "--length", "9"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("9,0.00,1.0,1")

    @pytest.fixture
    def profile_0_to_3(self, tmp_path):
        """A profile holding orders 0..3, with order 3 undersampled."""
        profile = tmp_path / "p.json"
        profile.write_text(PROFILE_0_TO_3, encoding="utf-8")
        return profile

    @pytest.mark.parametrize("flags, problem", [
        (["--orders", "2,7"], "{profile} has no order 7; it holds orders 0, 1, 2, 3"),
        (["--orders", "9,2,7"], "{profile} has no order 7, 9; it holds orders 0, 1, 2, 3"),
        (["--orders", "0,2"], "--orders must be >= 1"),
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

    def test_profile_without_a_word_length_order(self, tmp_path, capsys):
        # orders 2 and 3 are asked for by default, and order 0 is no word length
        profile = tmp_path / "p.json"
        profile.write_text('{"orders": [{"order": 0, "entropy_bits": 4.75}]}', encoding="utf-8")
        assert run(["predict", "--profile", profile]) == 1
        assert capsys.readouterr() == (
            "", "wordlen predict: profile has no entries for the requested orders\n")

    @pytest.mark.parametrize("body", ['{"profile": []}', "[1, 2]"], ids=["no-orders", "list"])
    def test_refuses_a_file_that_is_no_profile(self, tmp_path, capsys, body):
        profile = tmp_path / "p.json"
        profile.write_text(body, encoding="utf-8")
        assert run(["predict", "--profile", profile]) == 1
        assert capsys.readouterr() == (
            "", f"wordlen predict: {profile}: not an entropy profile file\n")

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

    def test_histogram_without_rows(self, tmp_path, capsys):
        hist = tmp_path / "h.csv"
        hist.write_text("# source=wordlist\nlength,count\n", encoding="utf-8")
        assert run(["implied", "--histogram", hist]) == 1
        assert capsys.readouterr() == ("", f"wordlen implied: {hist}: no histogram rows found\n")

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


# every kind of line a word list holds: a comment, capitals, padding, a blank
# line, duplicates and words with a symbol outside the inventory; "kitchen"
# holds the Swahili digraph ch, and "cat" and "vocabulary" a c that Swahili lacks
WORDLIST = ("# a small fixed list\na\nI\nan\nto\nOn\nthe\ncat\nsat\nmat\nThe\nword\nlist\n"
            "  tree  \nhouse\nmouse\nhorse\nplanet\nyellow\nbanana\nreading\nkitchen\n"
            "elephant\nvocabulary\nwonderful\n\ncafé\nx-ray\nwonderful\n")
HISTOGRAM_BYTES = {
    ("english", "csv"): """\
# source=wordlist
# label=words
length,count
1,2
2,3
3,4
4,3
5,3
6,3
7,2
8,1
9,1
10,1
overflow,0
""",
    ("english", "json"): """\
{
  "source": "wordlist",
  "label": "words",
  "max_length": 10,
  "counts": [
    2,
    3,
    4,
    3,
    3,
    3,
    2,
    1,
    1,
    1
  ],
  "overflow": 0
}
""",
    ("swahili", "csv"): """\
# source=wordlist
# label=words
length,count
1,2
2,3
3,3
4,3
5,3
6,4
7,1
8,1
9,1
10,0
overflow,0
""",
    ("swahili", "json"): """\
{
  "source": "wordlist",
  "label": "words",
  "max_length": 10,
  "counts": [
    2,
    3,
    3,
    3,
    3,
    4,
    1,
    1,
    1,
    0
  ],
  "overflow": 0
}
""",
}
FIT_BYTES = {
    "csv": ("""\
label,symbols,p,chi_square,df,p_value,mean_observed,mean_model,mean_approx,mean_pct_diff,sd_observed,sd_approx,sd_pct_diff,vocab_observed,scale_a,exponent_b,vocab_approx,reliable_length_limit
words,27,0.60731776116195,16.496535971293678,8,0.035800095264531026,4.608695652173913,3.1111691786757882,3.3017327939326884,39.58414989374423,2.427006215122237,4.193172792693781,42.12005240158306,23,7.45,0.06710049656255834,22.999999999999993,7.494905586626469
""", """\
length,observed,expected,reliable
1,2,6.401038044208821,true
2,3,10.372965344632213,true
3,4,8.159595429115804,true
4,3,5.010160565899812,true
5,3,2.9020172395655517,true
6,3,1.6972456911513492,true
7,2,1.0198694059396085,true
8,1,0.6289884637629719,false
9,1,0.3956909644371043,false
10,1,0.25228574554822836,false
"""),
    "json": ("""\
{
  "label": "words",
  "symbols": 27,
  "p": 0.60731776116195,
  "chi_square": 16.496535971293678,
  "df": 8,
  "p_value": 0.035800095264531026,
  "mean_observed": 4.608695652173913,
  "mean_model": 3.1111691786757882,
  "mean_approx": 3.3017327939326884,
  "mean_pct_diff": 39.58414989374423,
  "sd_observed": 2.427006215122237,
  "sd_approx": 4.193172792693781,
  "sd_pct_diff": 42.12005240158306,
  "vocab_observed": 23,
  "scale_a": 7.45,
  "exponent_b": 0.06710049656255834,
  "vocab_approx": 22.999999999999993,
  "reliable_length_limit": 7.494905586626469
}
""", """\
{
  "symbols": 27,
  "p": 0.60731776116195,
  "reliable_length_limit": 7.494905586626469,
  "lengths": [
    1,
    2,
    3,
    4,
    5,
    6,
    7,
    8,
    9,
    10
  ],
  "observed": [
    2,
    3,
    4,
    3,
    3,
    3,
    2,
    1,
    1,
    1
  ],
  "expected": [
    6.401038044208821,
    10.372965344632213,
    8.159595429115804,
    5.010160565899812,
    2.9020172395655517,
    1.6972456911513492,
    1.0198694059396085,
    0.6289884637629719,
    0.3956909644371043,
    0.25228574554822836
  ]
}
"""),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("preset", ["english", "swahili"])
def test_histogram_exact_bytes(tmp_path, capsys, preset, fmt):
    words = tmp_path / "words.txt"
    words.write_text(WORDLIST, encoding="utf-8")
    assert run(["histogram", words, "--max-length", 10, "--inventory", preset,
                "--format", fmt]) == 0
    assert capsys.readouterr() == (HISTOGRAM_BYTES[preset, fmt], "")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_fit_exact_bytes(tmp_path, capsys, fmt):
    words, curve = tmp_path / "words.txt", tmp_path / f"curve.{fmt}"
    words.write_text(WORDLIST, encoding="utf-8")
    assert run(["fit", words, "--max-length", 10, "--format", fmt, "--curve-out", curve]) == 0
    report, curve_bytes = FIT_BYTES[fmt]
    assert capsys.readouterr() == (report, "")
    assert curve.read_bytes() == curve_bytes.encode()


ENTROPY_CORPORA = {
    "english": "The cat sat on the mat.\nThe dog ate the cat's hat!\n",
    "swahili": "Chai na chakula cha mchana.\nWatoto wanacheza chini ya mti.\n",
    # the digraphs ne, se, te and to, alone and side by side
    "meroitic": "Tenetose ne se te to.\nQore netesete mlo, kdi tonese!\n",
}
ENTROPY_CSV = {
    "english": """\
# label=english
order,entropy_bits,windows,adequate
0,4.75,48,true
1,3.07,46,true
2,1.15,46,false
3,0.46,46,false
""",
    "swahili": """\
# label=swahili
order,entropy_bits,windows,adequate
0,4.64,50,true
1,3.39,47,true
2,1.28,47,false
3,0.57,47,false
4,0.27,47,false
""",
    "meroitic": """\
# label=meroitic
order,entropy_bits,windows,adequate
0,4.58,34,true
1,3.35,32,true
2,1.40,32,false
3,0.25,32,false
""",
}
ENTROPY_JSON = {
    "english": """\
{
  "label": "english",
  "inventory_symbols": 27,
  "sample_tokens": 48,
  "orders": [
    {
      "order": 0,
      "entropy_bits": 4.754887502163468,
      "windows": 48,
      "adequate": true
    },
    {
      "order": 1,
      "entropy_bits": 3.074251293004873,
      "windows": 46,
      "adequate": true
    },
    {
      "order": 2,
      "entropy_bits": 1.154769901712255,
      "windows": 46,
      "adequate": false
    },
    {
      "order": 3,
      "entropy_bits": 0.4612887162798609,
      "windows": 46,
      "adequate": false
    }
  ]
}
""",
    "swahili": """\
{
  "label": "swahili",
  "inventory_symbols": 25,
  "sample_tokens": 50,
  "orders": [
    {
      "order": 0,
      "entropy_bits": 4.643856189774724,
      "windows": 50,
      "adequate": true
    },
    {
      "order": 1,
      "entropy_bits": 3.390706121959449,
      "windows": 47,
      "adequate": true
    },
    {
      "order": 2,
      "entropy_bits": 1.2750649103390974,
      "windows": 47,
      "adequate": false
    },
    {
      "order": 3,
      "entropy_bits": 0.5748840427373159,
      "windows": 47,
      "adequate": false
    },
    {
      "order": 4,
      "entropy_bits": 0.27138058515241603,
      "windows": 47,
      "adequate": false
    }
  ]
}
""",
    "meroitic": """\
{
  "label": "meroitic",
  "inventory_symbols": 24,
  "sample_tokens": 34,
  "orders": [
    {
      "order": 0,
      "entropy_bits": 4.584962500721156,
      "windows": 34,
      "adequate": true
    },
    {
      "order": 1,
      "entropy_bits": 3.3501878900165245,
      "windows": 32,
      "adequate": true
    },
    {
      "order": 2,
      "entropy_bits": 1.3998121099834755,
      "windows": 32,
      "adequate": false
    },
    {
      "order": 3,
      "entropy_bits": 0.25,
      "windows": 32,
      "adequate": false
    }
  ]
}
""",
}
ENTROPY_WARNING = {
    "english": "stream of 48 tokens cannot adequately sample order >= 2 over 27 symbols",
    "swahili": "stream of 50 tokens cannot adequately sample order >= 2 over 25 symbols",
    "meroitic": "stream of 34 tokens cannot adequately sample order >= 2 over 24 symbols",
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("preset, max_order", [("english", 3), ("swahili", 4), ("meroitic", 3)])
def test_entropy_exact_bytes(tmp_path, capsys, preset, max_order, fmt):
    # the Swahili corpus holds the one-symbol digraph ch, the Meroitic one four digraphs
    corpus = tmp_path / f"{preset}.txt"
    corpus.write_text(ENTROPY_CORPORA[preset], encoding="utf-8")
    assert run(["entropy", corpus, "--inventory", preset, "--max-order", max_order,
                "--format", fmt]) == 0
    captured = capsys.readouterr()
    assert captured.out == {"csv": ENTROPY_CSV, "json": ENTROPY_JSON}[fmt][preset]
    assert captured.err == f"wordlen entropy: warning: {ENTROPY_WARNING[preset]}\n"


def test_entropy_strict_error_exact_bytes(tmp_path, capsys):
    # the unknown c follows the digraph to, on the second line
    corpus = tmp_path / "meroitic.txt"
    corpus.write_text("Tenetose ne se\nkdi netoc tese\n", encoding="utf-8")
    assert run(["entropy", corpus, "--inventory", "meroitic", "--strict"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "wordlen entropy: line 2: symbol 'c' not in inventory\n")

# a top order with fewer cells than tokens (27**2 = 729 against 2,213)
TABLE_CSV = """\
# label=english
order,entropy_bits,windows,adequate
0,4.75,2213,true
1,4.53,2212,true
2,4.21,2212,true
"""
TABLE_JSON = """\
{
  "label": "english",
  "inventory_symbols": 27,
  "sample_tokens": 2213,
  "orders": [
    {
      "order": 0,
      "entropy_bits": 4.754887502163468,
      "windows": 2213,
      "adequate": true
    },
    {
      "order": 1,
      "entropy_bits": 4.525582438845027,
      "windows": 2212,
      "adequate": true
    },
    {
      "order": 2,
      "entropy_bits": 4.212436412757501,
      "windows": 2212,
      "adequate": true
    }
  ]
}
"""


@pytest.mark.parametrize("fmt, want", [("csv", TABLE_CSV), ("json", TABLE_JSON)])
def test_entropy_adequate_top_order_exact_bytes(tmp_path, capsys, fmt, want):
    rng = random.Random(17)
    words = ["".join(rng.choices("etaoinshrdlucmfwypvbgkjqxz", k=rng.randint(1, 8)))
             for _ in range(400)]
    corpus = tmp_path / "english.txt"
    corpus.write_text("".join(" ".join(words[i : i + 10]) + ".\n" for i in range(0, 400, 10)),
                      encoding="utf-8")
    assert run(["entropy", corpus, "--max-order", "2", "--format", fmt]) == 0
    assert capsys.readouterr() == (want, "")


# a small seeded run in both modes; at --max-length 5 more than half the words overflow
SIMULATE_BYTES = {
    ("forced_first_letter", "csv", 12): """\
# source=simulated
# label=simulated
length,count
1,252
2,192
3,183
4,158
5,160
6,121
7,112
8,95
9,81
10,64
11,61
12,64
overflow,456
""",
    ("forced_first_letter", "json", 12): """\
{
  "source": "simulated",
  "label": "simulated",
  "max_length": 12,
  "counts": [
    252,
    192,
    183,
    158,
    160,
    121,
    112,
    95,
    81,
    64,
    61,
    64
  ],
  "overflow": 456,
  "p": 0.883,
  "symbols": 27,
  "words": 1999,
  "seed": 42,
  "mode": "forced_first_letter",
  "empirical_mean_length": 8.630815407703851,
  "token_mean_analytic": 8.547008547008547,
  "distinct_word_mean_model": 9.101519873796851
}
""",
    ("reject_empty", "csv", 12): """\
# source=simulated
# label=simulated
length,count
1,225
2,216
3,180
4,177
5,146
6,124
7,112
8,89
9,71
10,66
11,66
12,61
overflow,466
""",
    ("reject_empty", "json", 12): """\
{
  "source": "simulated",
  "label": "simulated",
  "max_length": 12,
  "counts": [
    225,
    216,
    180,
    177,
    146,
    124,
    112,
    89,
    71,
    66,
    66,
    61
  ],
  "overflow": 466,
  "p": 0.883,
  "symbols": 27,
  "words": 1999,
  "seed": 42,
  "mode": "reject_empty",
  "empirical_mean_length": 8.692346173086543,
  "token_mean_analytic": 8.547008547008547,
  "distinct_word_mean_model": 9.101519873796851
}
""",
    ("forced_first_letter", "csv", 5): """\
# source=simulated
# label=simulated
length,count
1,252
2,192
3,183
4,158
5,160
overflow,1054
""",
}


@pytest.mark.parametrize("mode, fmt, max_length", list(SIMULATE_BYTES))
def test_simulate_exact_bytes(capsys, mode, fmt, max_length):
    assert run(["simulate", "--p", "0.883", "--symbols", "27", "--words", "1999", "--seed", "42",
                "--mode", mode, "--max-length", max_length, "--format", fmt]) == 0
    assert capsys.readouterr() == (SIMULATE_BYTES[mode, fmt, max_length], "")


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

    def test_memory_does_not_grow_with_the_word_count(self):
        # each block of draws is binned as it comes, and no length is kept
        peaks = [cli_peak_rss("simulate", "--p", "0.883", "--symbols", "27", "--words", words)
                 for words in (1_000_000, 8_000_000)]
        assert abs(peaks[1] - peaks[0]) <= 2 << 20, f"{peaks[0] >> 10} vs {peaks[1] >> 10} kB"

    def test_bad_seed_is_refused_in_one_line(self, capsys):
        assert run(["simulate", "--p", "0.5", "--symbols", "27", "--seed", "-1"]) == 1
        assert capsys.readouterr() == ("", "wordlen simulate: seed must be >= 0\n")

    def test_bad_p_is_refused_in_one_line(self, capsys):
        assert run(["simulate", "--p", "2", "--symbols", "27"]) == 1
        assert capsys.readouterr() == ("", "wordlen simulate: p must be in (0, 1), got 2.0\n")


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
        ({"letters": ["a", "b"], "name": None}, "'name' must be a string"),
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
        (["1,5", "2,7", "4,1", "0,3"], "line 5: length must be >= 1"),
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
        (["1,5", "x,3"], "line 3: length must be an integer, not 'x'"),
        (["1,5", "2,7x"], "line 3: count must be an integer, not '7x'"),
        (["1,5", "2,-3"], "line 3: count must be an integer, not '-3'"),
        (["1,5", "overflow,-1"], "line 3: count must be an integer, not '-1'"),
        # a second overflow row used to replace the first
        (["1,5", "2,7", "overflow,3", "overflow,9"], "line 5: overflow is listed twice"),
    ])
    def test_bad_rows_name_path_and_line(self, tmp_path, rows, problem):
        path = tmp_path / "h.csv"
        path.write_text("\n".join(["length,count", *rows]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"h.csv: {problem}"):
            read_histogram_csv(path)

    def test_label_keeps_its_trailing_whitespace(self, tmp_path, capsys):
        # the label is the file's stem, "x "; it was read back as "x"
        words = tmp_path / "x .txt"
        words.write_text("cat\ndog\n", encoding="utf-8")
        hist = tmp_path / "h.csv"
        assert run(["histogram", words, "--out", hist]) == 0
        assert "# label=x \n" in hist.read_text(encoding="utf-8")
        assert read_histogram_csv(hist).label == "x "
        assert run(["implied", "--histogram", hist, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["label"] == "x "

    def test_comment_prefix_is_lenient(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("  #  # label= a b \nlength,count\n1,5\n", encoding="utf-8")
        assert read_histogram_csv(path).label == " a b "

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

    @pytest.mark.parametrize("row, problem", [
        # int() read the first three as length 3, and 3.0 is no length
        ("0_3,1", "length must be an integer, not '0_3'"),
        ("\u0663,1", "length must be an integer, not '\u0663'"),
        ("+3,1", "length must be an integer, not '+3'"),
        ("3.0,1", "length must be an integer, not '3.0'"),
        ("3,1_0", "count must be an integer, not '1_0'"),
        ("9" * 5000 + ",1", "length must have at most 4300 digits, not 5000"),
        ("3," + "9" * 5000, "count must have at most 4300 digits, not 5000"),
    ], ids=["underscore", "arabic-indic", "sign", "decimal", "count-underscore",
            "long-length", "long-count"])
    def test_only_ascii_digits_are_read(self, tmp_path, capsys, row, problem):
        path = tmp_path / "h.csv"
        path.write_text(f"length,count\n1,5\n2,7\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line 4: {problem}')}$"):
            read_histogram_csv(path)
        assert run(["implied", "--histogram", path]) == 1
        assert capsys.readouterr() == ("", f"wordlen implied: {path}: line 4: {problem}\n")

    @pytest.mark.parametrize("row", ["2, 7", " 2 ,7", "2 , 7 "])
    def test_whitespace_around_a_cell_is_read(self, tmp_path, row):
        path = tmp_path / "h.csv"
        path.write_text(f"length,count\n1,5\n{row}\noverflow, 1\n", encoding="utf-8")
        assert read_histogram_csv(path) == WordLengthHistogram((5, 7), 2, 1)


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
        assert not loaded & {"numpy", "scipy", "dataclasses", "inspect"}, argv


def test_implied_from_histogram_loads_no_numpy(tmp_path):
    hist = tmp_path / "h.csv"
    hist.write_text("length,count\n1,5\n2,7\noverflow,0\n", encoding="utf-8")
    loaded = packages_loaded_by("implied", "--histogram", hist, "--out", tmp_path / "i.csv")
    assert "wordlen" in loaded and not loaded & {"numpy", "dataclasses", "inspect"}


def test_plain_python_commands_load_neither_dataclasses_nor_inspect(model_wordlist, tmp_path):
    # the record classes are plain classes: building dataclasses would cost
    # each process the import of dataclasses and inspect, and the decoration
    proc = run_python("-c", "import sys, wordlen; print(sorted(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    assert not set(ast.literal_eval(proc.stdout)) & {"dataclasses", "inspect"}
    out = tmp_path / "out.csv"
    for argv in (["histogram", model_wordlist], ["fit", model_wordlist],
                 ["implied", model_wordlist], ["predict", "--entropy-bits", "3.56", "--length", "2"]):
        loaded = packages_loaded_by(*argv, "--out", out)
        assert "wordlen" in loaded and not loaded & {"dataclasses", "inspect"}, argv


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
                         (simulate, "draw_word_lengths"), (simulate, "length_histogram")):
        monkeypatch.setattr(module, name, unreachable)
    (tmp_path / "words.txt").write_text("a\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for max_length, problem in (("0", ">= 1"), ("10001", "<= 10000")):
        assert run([*argv, "--max-length", max_length]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"wordlen {argv[0]}: max_length must be {problem}"]


FLAG_PROBLEMS = {
    # entropy_profile's own rules, over the 27 symbols of the inventory
    "entropy --max-order 0": "max_order must be >= 1",
    "entropy --max-order 14": "order 14 over 27 symbols exceeds int64 window coding",
    # fit_artifact's rule
    "fit --scale-a 0": "scale_a must be finite and > 0, got 0.0",
    "fit --scale-a -1": "scale_a must be finite and > 0, got -1.0",
    "fit --scale-a nan": "scale_a must be finite and > 0, got nan",
    "fit --scale-a inf": "scale_a must be finite and > 0, got inf",
}


@pytest.mark.parametrize("flags", FLAG_PROBLEMS)
def test_flags_are_checked_before_the_input_is_read(monkeypatch, capsys, tmp_path, flags):
    def unreachable(*args, **kwargs):
        raise AssertionError("input was read before the flags were checked")

    for name in ("read_utf8", "load_wordlist", "load_corpus"):
        monkeypatch.setattr(cli, name, unreachable)
    (tmp_path / "input.txt").write_text("a\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    command, *rest = flags.split()
    assert run([command, "input.txt", *rest]) == 1
    assert capsys.readouterr().err.splitlines() == [f"wordlen {command}: {FLAG_PROBLEMS[flags]}"]


# each numeric flag, after the flags its command needs besides it
NUMERIC_FLAGS = [
    ("histogram words.txt", "--max-length", "int"),
    ("fit words.txt", "--max-length", "int"),
    ("implied words.txt", "--max-length", "int"),
    ("simulate --p 0.88 --symbols 27", "--max-length", "int"),
    ("entropy corpus.txt", "--max-order", "int"),
    ("predict --entropy-bits 3.56", "--length", "int"),
    ("simulate --p 0.88", "--symbols", "int"),
    ("simulate --p 0.88 --symbols 27", "--words", "int"),
    ("simulate --p 0.88 --symbols 27", "--seed", "int"),
    ("simulate --symbols 27", "--p", "float"),
    ("predict --length 2", "--entropy-bits", "float"),
    ("fit words.txt", "--scale-a", "float"),
]
# int() and float() read other scripts' digits, "_" between digits and
# surrounding whitespace, and int() a leading "+"
REFUSED_FLAG_TEXT = {
    "int": ["٥", "５", "0_5", "+5", " 5", "5 ", "5\n", "5.0", "", "-", "abc"],
    "float": ["٠.٥", "０.5", "0.8_8", " 0.5", "0.5 ", "0.5\t", "", "abc"],
}


@pytest.mark.parametrize("before, flag, kind", NUMERIC_FLAGS,
                         ids=[f"{b.split()[0]}{f}" for b, f, _ in NUMERIC_FLAGS])
def test_numeric_flags_read_ascii_text_only(capsys, before, flag, kind):
    command = before.split()[0]
    for text in REFUSED_FLAG_TEXT[kind]:
        with pytest.raises(SystemExit) as exit_:
            main([*before.split(), f"{flag}={text}"])
        assert exit_.value.code == 2, text
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"wordlen {command}: error: argument {flag}: invalid {kind} value: {text!r}")


def test_far_max_length_is_refused_in_bounded_memory(tmp_path):
    # a count per length up to 10**11 would need terabytes; the child's
    # address space is capped so that a histogram started anyway fails fast
    words = tmp_path / "words.txt"
    words.write_text("a\n", encoding="utf-8")
    proc = run_python("-c", (
        "import resource, sys; cap = 1 << 30; "
        "resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); "
        "from wordlen.cli import main; sys.exit(main(sys.argv[1:]))"),
        "histogram", words, "--max-length", "99999999999")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines() == ["wordlen histogram: max_length must be <= 10000"]


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
    # as __main__, the commands still reach the layer functions they import
    proc = run_python("-m", "wordlen.cli", "histogram", reference_style_wordlist)
    assert proc.returncode == 0, proc.stderr
    assert "2,93" in proc.stdout.splitlines()


ONE_BYTE_PATH = [
    # histogram takes its label from the stem of слова.txt; simulate's is fixed
    ("histogram", [], "слова"),
    ("fit", ["--label", "ж"], "ж"),
    ("entropy", ["--max-order", "1", "--label", "ж"], "ж"),
    ("predict", ["--entropy-bits", "3.5", "--length", "2", "--label", "ж"], "ж"),
    ("implied", ["--label", "ж"], "ж"),
    ("simulate", ["--p", "0.5", "--symbols", "27", "--words", "100"], "simulated"),
]


@pytest.mark.parametrize("command, flags, label", ONE_BYTE_PATH,
                         ids=[command for command, _, _ in ONE_BYTE_PATH])
def test_stdout_gets_the_bytes_a_file_gets(tmp_path, command, flags, label):
    # a Latin-1 stdout used to refuse the label (exit 1) that a file got as UTF-8;
    # the name is made from its UTF-8 bytes, which any filesystem encoding can hold
    words = Path(os.fsdecode(bytes(tmp_path) + "/слова.txt".encode("utf-8")))
    words.write_text(WORDLIST, encoding="utf-8")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("the cat sat on the mat\n" * 20, encoding="utf-8")
    inputs = {"histogram": [words], "fit": [words], "entropy": [corpus], "implied": [words]}
    argv = ["-m", "wordlen.cli", command, *inputs.get(command, []), *flags]
    out = tmp_path / "out.csv"
    # UTF-8 mode decodes the UTF-8 name and label from argv; stdout stays Latin-1
    latin1 = {"PYTHONIOENCODING": "latin-1", "PYTHONUTF8": "1"}
    to_file = run_python(*argv, "--out", out, env=latin1, text=False)
    to_stdout = run_python(*argv, "--out", "-", env=latin1, text=False)
    assert (to_file.returncode, to_stdout.returncode) == (0, 0), to_stdout.stderr
    assert to_stdout.stdout == out.read_bytes()
    assert label.encode("utf-8") in to_stdout.stdout


PREDICT_ARGV = ["predict", "--entropy-bits", "3.5", "--length", "2"]
SURROGATE_ERROR = ("wordlen predict: 'utf-8' codec can't encode character '\\udcff' "
                   "in position 8: surrogates not allowed")


def test_unencodable_label_leaves_the_destination_as_it_was(tmp_path, capsys):
    # the file used to be emptied before the label failed to encode
    out = tmp_path / "p.csv"
    assert run([*PREDICT_ARGV, "--out", out]) == 0
    before = out.read_bytes()
    assert run([*PREDICT_ARGV, "--label", "\udcff", "--out", out]) == 1
    assert capsys.readouterr() == ("", SURROGATE_ERROR + "\n")
    assert out.read_bytes() == before


def test_unencodable_label_writes_nothing_to_stdout():
    # argv byte 0xff reaches the label as "\udcff"; a stdout that escapes
    # surrogates used to write it as that byte, which is not UTF-8, and exit 0
    proc = run_python("-m", "wordlen.cli", *PREDICT_ARGV, "--label", os.fsdecode(b"\xff"),
                      env={"PYTHONIOENCODING": "utf-8:surrogateescape"}, text=False)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.decode("ascii").splitlines() == [SURROGATE_ERROR]


# an --out into a directory that does not exist
MISSING_DIR_OUT = ["--out", "{tmp}/missing/out.csv"]


@pytest.mark.parametrize("command, text, flags", [
    ("fit", "ab\ncd\n", []),  # fewer than 3 nonzero cells: a FitError
    ("histogram", "ok\nnaïve\n", ["--strict"]),  # a TokenizationError
    # an OSError after a warning, which used to be written before the error line
    pytest.param("entropy", "the cat sat on the mat", ["--max-order", "3", *MISSING_DIR_OUT],
                 id="entropy-undersampled-missing-dir"),
    pytest.param("predict", PROFILE_0_TO_3, MISSING_DIR_OUT,
                 id="predict-undersampled-missing-dir"),
])
def test_layer_errors_exit_1_in_one_line(tmp_path, command, text, flags):
    # an error raised inside a layer reaches stderr as one line
    source = tmp_path / "input.txt"
    source.write_text(text, encoding="utf-8")
    proc = run_python("-c", "import sys; from wordlen.cli import main; sys.exit(main())",
                      command, *{"predict": ["--profile"]}.get(command, []), source,
                      *(flag.format(tmp=tmp_path) for flag in flags))
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"wordlen {command}: "), proc.stderr


LOCALES = {
    "default": {},
    "latin-1": {"PYTHONIOENCODING": "latin-1"},
    "C": {"LC_ALL": "C", "LANG": "C", "PYTHONUTF8": "0"},
}


@pytest.mark.parametrize("env", LOCALES.values(), ids=LOCALES)
def test_stderr_bytes_do_not_depend_on_the_locale(tmp_path, env):
    # every stderr line is the text the program holds, written as UTF-8 with
    # backslashreplace; the error line and the warnings used to follow the locale
    words = tmp_path / "words.txt"
    words.write_text("ok\nnaïve\n", encoding="utf-8")
    proc = run_python("-m", "wordlen.cli", "histogram", words, "--strict", env=env, text=False)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == (b"wordlen histogram: line 2: symbol '\xc3\xaf' not allowed inside "
                           b"a word\n")
    # the byte 0xff of this name reaches the program as the lone surrogate
    # \udcff in every locale, which backslashreplace writes as its escape;
    # the Cyrillic letters reach it as text, written as UTF-8, except where
    # the locale decodes argv as ASCII and makes them lone surrogates too
    profile = bytes(tmp_path) + "/профиль".encode("utf-8") + b"\xff.json"
    Path(os.fsdecode(profile)).write_text(PROFILE_0_TO_3, encoding="utf-8")
    proc = run_python("-m", "wordlen.cli", "predict", "--profile", profile, env=env, text=False)
    assert proc.returncode == 0 and proc.stdout.startswith(b"length,")
    assert proc.stderr == (f"wordlen predict: warning: order 3 is undersampled in "
                           f"{held_argument(profile, env)}\n".encode("utf-8", "backslashreplace"))
    assert proc.stderr.endswith(b"\\udcff.json\n")
    # argparse's own text used to follow the locale: a Latin-1 stderr wrote
    # this digit as '\u0665', not as its UTF-8 bytes d9 a5; argparse quotes
    # it with repr, which writes the lone surrogates of the C locale as their
    # escapes
    proc = run_python("-m", "wordlen.cli", "histogram", words, "--max-length", "٥", env=env,
                      text=False)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.endswith(f"invalid int value: {held_argument('٥', env)!r}\n"
                                .encode("utf-8", "backslashreplace"))


def held_argument(arg, env):
    """``arg`` as a child started with ``env`` decodes it from argv."""
    return ast.literal_eval(run_python("-c", "import sys; print(ascii(sys.argv[1]))", arg,
                                       env=env).stdout)


FULL_STDOUT = "os.dup2(os.open('/dev/full', os.O_WRONLY), 1)"
# a pipe of the child's own that nothing reads, which a write does not wait on
UNREAD_PIPE = "os.dup2(os.pipe()[1], 1); os.set_blocking(1, False)"
NO_SPACE = "[Errno 28] No space left on device"


def pipe_size():
    """The capacity of a new pipe, or None where ``fcntl`` cannot tell it."""
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_GETPIPE_SZ"):
        return None
    read_end, write_end = os.pipe()
    try:
        return fcntl.fcntl(write_end, fcntl.F_GETPIPE_SZ)
    finally:
        os.close(read_end)
        os.close(write_end)


@pytest.mark.parametrize("redirect, unbuffered, argv, error", [
    # the flush at exit used to fail again after the error line, and print
    # "Exception ignored" and the OSError a second time, with exit status 120;
    # stdout is left buffered, as it is by default when it is not a terminal
    (FULL_STDOUT, "", ["histogram", "{words}"], f"wordlen histogram: {NO_SPACE}"),
    (FULL_STDOUT, "1", ["histogram", "{words}"], f"wordlen histogram: {NO_SPACE}"),
    # help that stdout could not take used to be passed over, with exit status 0
    (FULL_STDOUT, "", ["--help"], f"wordlen: {NO_SPACE}"),
    (FULL_STDOUT, "", ["histogram", "--help"], f"wordlen: {NO_SPACE}"),
    # 10,000 rows are more than the pipe holds; a write that takes nothing
    # without blocking must fail rather than be retried
    (UNREAD_PIPE, "", ["histogram", "{words}", "--max-length", "10000"],
     "wordlen histogram: [Errno 11] write could not complete without blocking"),
], ids=["buffered", "unbuffered", "help", "command-help", "non-blocking-pipe"])
def test_failed_stdout_exits_1_in_one_line(tmp_path, redirect, unbuffered, argv, error):
    words = tmp_path / "words.txt"
    words.write_text(WORDLIST, encoding="utf-8")
    argv = [arg.format(words=words) for arg in argv]
    if redirect == FULL_STDOUT and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    if redirect == UNREAD_PIPE:
        artifact = tmp_path / "artifact.csv"
        assert run([*argv, "--out", artifact]) == 0
        capacity = pipe_size()
        if capacity is None or capacity >= artifact.stat().st_size:
            pytest.skip(f"a pipe holds {capacity} bytes, the artifact "
                        f"{artifact.stat().st_size}")
    proc = run_python("-c", f"import os, sys; {redirect}; from wordlen.cli import main; "
                      "sys.exit(main())", *argv, env={"PYTHONUNBUFFERED": unbuffered},
                      timeout=60)
    assert (proc.returncode, proc.stderr) == (1, error + "\n")


def test_failed_write_leaves_the_descriptor_where_it_was(tmp_path):
    # the writer used to point fd 1 at the null device after a failed write,
    # and leave it there for the process that called main
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    words = tmp_path / "words.txt"
    words.write_text(WORDLIST, encoding="utf-8")
    proc = run_python("-c", f"import os, sys; {FULL_STDOUT}; from wordlen.cli import main; "
                      "before = os.fstat(1); status = main(['histogram', sys.argv[1]]); "
                      "after = os.fstat(1); print(status, *(getattr(after, key) == "
                      "getattr(before, key) for key in ('st_dev', 'st_ino', 'st_rdev')), "
                      "file=sys.stderr)", words, env={"PYTHONUNBUFFERED": ""})
    assert (proc.returncode, proc.stderr.splitlines()) == (
        0, [f"wordlen histogram: {NO_SPACE}", "1 True True True"])


def test_std_writer_writes_every_byte_to_the_raw_layer():
    log = []

    def take_7(data):  # a raw layer that takes at most 7 bytes a call
        log.append(bytes(data[:7]))
        return len(log[-1])

    stream = SimpleNamespace(flush=lambda: log.append("flush"),
                             buffer=SimpleNamespace(raw=SimpleNamespace(write=take_7)))
    data = bytes(range(256)) * 3
    _write_std(stream, data)
    assert log[0] == "flush" and b"".join(log[1:]) == data
    assert {len(chunk) for chunk in log[1:-1]} == {7}


def test_std_writer_fails_where_the_raw_layer_would_block():
    # a non-blocking descriptor that is full takes nothing, and its raw
    # layer returns None; retrying would spin until a reader came
    calls = []

    def take_nothing(data):
        calls.append(data)
        assert len(calls) == 1, "a write that took nothing was retried"

    stream = SimpleNamespace(flush=lambda: None,
                             buffer=SimpleNamespace(raw=SimpleNamespace(write=take_nothing)))
    with pytest.raises(BlockingIOError) as raised:
        _write_std(stream, b"x")
    assert raised.value.errno == errno.EAGAIN


HELP = b"""\
usage: wordlen [-h] {histogram,fit,entropy,predict,implied,simulate} ...

Distinct-word-length distributions and symbol entropies

positional arguments:
  {histogram,fit,entropy,predict,implied,simulate}
    histogram           distinct-word length histogram
    fit                 fit the letter-probability length model
    entropy             conditional entropy profile of a corpus
    predict             distinct-word counts implied by conditional entropies
    implied             entropies implied by distinct-word counts per length
    simulate            bag-model word generation

options:
  -h, --help            show this help message and exit
"""


def test_help_writes_the_same_bytes():
    proc = run_python("-m", "wordlen.cli", "--help", env={"COLUMNS": "80"}, text=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, HELP, b"")


@pytest.mark.parametrize("redirect", [
    "os.close(2)",
    # the exit flush used to fail again on the usage text, with exit status 120
    "os.dup2(os.open('/dev/full', os.O_WRONLY), 2)",
], ids=["closed", "full"])
def test_usage_error_exits_2_whatever_stderr_is(tmp_path, redirect):
    if "full" in redirect and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    words = tmp_path / "words.txt"
    words.write_text(WORDLIST, encoding="utf-8")
    proc = run_python("-c", f"import os, sys; {redirect}; from wordlen.cli import main; "
                      "sys.exit(main())", "histogram", words, "--max-length", "x",
                      env={"PYTHONUNBUFFERED": ""})
    assert (proc.returncode, proc.stdout) == (2, "")


@pytest.mark.parametrize("flag, body, offset", [
    ("--profile", b'{"orders": [\xe9]}', 12),
    ("--inventory", b'{"letters": ["\xe9"]}', 14),
], ids=["profile", "inventory"])
def test_json_input_that_is_not_utf8_fails_as_any_input(tmp_path, flag, body, offset):
    # a bad byte is reported by the UTF-8 reader, not as text that is not JSON
    source = tmp_path / "input.json"
    source.write_bytes(body)
    words = tmp_path / "words.txt"
    words.write_text(WORDLIST, encoding="utf-8")
    command = ["predict"] if flag == "--profile" else ["histogram", words]
    proc = run_python("-m", "wordlen.cli", *command, flag, source)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines() == [
        f"wordlen {command[0]}: {source}: not UTF-8: cannot decode byte 0xe9 at offset {offset}"]


def test_notes_follow_the_artifact_on_a_shared_stream(tmp_path):
    # the warning used to be written before the artifact it is about; stdout
    # is left buffered, as it is by default when it is not a terminal
    corpus = tmp_path / "c.txt"
    corpus.write_text("the cat sat on the mat", encoding="utf-8")
    proc = run_python("-c", "import os, sys; os.dup2(1, 2); from wordlen.cli import main; "
                      "sys.exit(main())", "entropy", corpus, "--max-order", "3",
                      env={"PYTHONUNBUFFERED": ""})
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["# label=c", "order,entropy_bits,windows,adequate"]
    assert lines[-1] == ("wordlen entropy: warning: stream of 22 tokens cannot adequately "
                         "sample order >= 1 over 27 symbols")
    assert len(lines) == 7


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
    # simulate bins its draws in simulate.length_histogram, not through these
    assert calls == {"load_wordlist": 3, "word_length_histogram": 3,
                     "load_corpus": 1, "entropy_profile": 1}
