"""Benchmark of the ``wordlen`` CLI on seeded inputs.

    python3 bench/run.py --workload dictionary_model --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is taken from ``src/``.
One process runs one ``wordlen`` call at a time, each in a fresh
interpreter, in whole rounds of the workload's pipeline until ``--seconds``
have passed. Every artifact is checked against a reference computed here
(``checks.py``). The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
See README.md for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
import gen

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / "bench" / "work"

# the console script's body: `wordlen ...` with the package taken from src/
LAUNCH = "import sys; from wordlen.cli import main; sys.exit(main())"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import wordlen.cli; "
                "print(repr(time.perf_counter() - t))")
# a call that reads no input: its wall time is the fixed start cost
SETUP_ARGS = ["predict", "--entropy-bits", "3.56", "--length", "2", "--format", "json"]
SETUP_PROBES = 5  # before the first round; one more starts every round
IMPORT_PROBES = 5
CALL_TIMEOUT_S = 120.0
RUN_LIMIT_S = 150.0  # no round starts after this, so a run ends within 180 s

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.histogram.wall_s": "s",
    "cli.implied.wall_s": "s",
    "cli.fit.wall_s": "s",
    "cli.simulate.wall_s": "s",
    "cli.entropy.wall_s": "s",
    "cli.predict.wall_s": "s",
    "cli.histogram.peak_rss_mb": "MB",
    "cli.fit.peak_rss_mb": "MB",
    "cli.simulate.peak_rss_mb": "MB",
    "cli.entropy.peak_rss_mb": "MB",
    "ingest.load_wordlist_s": "s",
    "ingest.wordlist_lines_per_s": "1/s",
    "ingest.word_length_histogram_s": "s",
    "ingest.load_corpus_s": "s",
    "ingest.corpus_chars_per_s": "1/s",
    "ingest.lines_read": "count",
    "ingest.distinct_words": "count",
    "ingest.stream_symbols": "count",
    "ngram.entropy_profile_s": "s",
    "ngram.windows_per_s": "1/s",
    "ngram.windows": "count",
    "ngram.distinct_top_windows": "count",
    "lengthmodel.fit_p_s": "s",
    "simulate.draw_word_lengths_s": "s",
    "simulate.words_per_s": "1/s",
    "simulate.empirical_length_distribution_s": "s",
    "report.write_artifact_s": "s",
    "report.read_histogram_csv_s": "s",
    "bridge.total_s": "s",
}


@dataclass(frozen=True)
class Call:
    command: str
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and "Traceback" not in self.stderr


class Runner:
    """Runs one child at a time through ``launch.py``, which reports the
    child's wall time and its own peak RSS."""

    def __init__(self, work: Path):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
        self.out = work / "child.out"
        self.err = work / "child.err"
        self.log: list[dict] = []  # every call, written out when the run ends
        self.launcher = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launch.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=CALL_TIMEOUT_S)
        finally:
            self.launcher.kill()
            self.launcher.wait()
            self.launcher.stdout.close()

    def run(self, command: str, argv: list[str]) -> Call:
        request = {"argv": [sys.executable, *argv], "env": self.env, "cwd": str(ROOT),
                   "stdout": str(self.out), "stderr": str(self.err), "timeout": CALL_TIMEOUT_S}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process ended")
        reply = json.loads(reply)
        call = Call(command, reply["returncode"], reply["wall_s"], reply["peak_rss_kb"] / 1024.0,
                    self.out.read_text(encoding="utf-8", errors="replace"),
                    self.err.read_text(encoding="utf-8", errors="replace"))
        self.log.append({"command": command, "wall_s": call.wall_s,
                         "peak_rss_mb": call.peak_rss_mb, "returncode": call.returncode})
        return call

    def wordlen(self, argv: list[str]) -> Call:
        return self.run(argv[0], ["-c", LAUNCH, *argv])


class Ops:
    """Counts operations (CLI calls, traced calls, output checks) and failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"bench: FAILED {message}", file=sys.stderr)

    def call(self, runner: Runner, argv: list[str]) -> Call:
        self.attempted += 1
        call = runner.wordlen(argv)
        if not call.ok:
            self.fail(f"wordlen {' '.join(argv)} (exit {call.returncode}): "
                      f"{call.stderr.strip()[-2000:]}")
        return call

    def check(self, name: str, fn, *args):
        """Run one output check; returns its result, or None if it failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as err:  # a missing or malformed artifact fails its check too
            self.fail(f"check {name}: {type(err).__name__}: {err}")
            return None


class Executor:
    """Runs one round of a workload; subclasses say how a step runs."""

    def __init__(self, ops: Ops):
        self.ops = ops

    def check(self, name: str, fn, *args):
        return self.ops.check(name, fn, *args)

    def skip(self, argv: list[str], why: str) -> None:
        self.ops.attempted += 1
        self.ops.fail(f"wordlen {argv[0]} not run: {why}")


class CliExecutor(Executor):
    """Runs a round's steps as ``wordlen`` subprocesses."""

    def __init__(self, ops: Ops, runner: Runner):
        super().__init__(ops)
        self.runner = runner
        self.calls: list[Call] = []

    def step(self, argv: list[str]) -> None:
        self.calls.append(self.ops.call(self.runner, argv))


class TracedExecutor(Executor):
    """Runs a round's steps in-process through ``traced``, inside spans."""

    def __init__(self, ops: Ops, tracer):
        super().__init__(ops)
        self.tracer = tracer

    def step(self, argv: list[str]) -> None:
        self.ops.attempted += 1
        try:
            self.tracer.run(argv)
        except Exception:  # count the failure and keep the run going
            self.ops.fail(f"traced {argv[0]}: {traceback.format_exc()}")


class DictionaryModel:
    """Method 1: histogram -> implied -> fit -> simulate on an English word list."""

    symbols = 27

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.ref = gen.make_wordlist(seed, work / "words.txt")
        self.p_star = checks.chi_square_argmin(self.ref.counts.astype(float), self.symbols)
        self.sim_bytes = None

    def round(self, ex: Executor, out: Path) -> None:
        words = str(self.ref.path)
        hist, implied, fit, curve, sim = (
            str(out / name) for name in
            ("hist.csv", "implied.json", "fit.json", "curve.json", "sim.json"))
        ex.step(["histogram", words, "--out", hist])
        ex.check("histogram", checks.check_histogram, hist, self.ref)
        ex.step(["implied", "--histogram", hist, "--format", "json", "--out", implied])
        ex.check("implied", checks.check_implied, implied, self.ref)
        ex.step(["fit", words, "--format", "json", "--out", fit, "--curve-out", curve])
        p = ex.check("fit", checks.check_fit, fit, curve, self.ref, self.symbols, self.p_star)
        argv = ["simulate", "--p", repr(p), "--symbols", str(self.symbols),
                "--words", str(checks.SIMULATED_WORDS), "--seed", str(self.seed),
                "--format", "json", "--out", sim]
        if p is None:
            ex.skip(argv, "no fitted p")
            ex.skip(argv, "no simulation to check")
            return
        ex.step(argv)
        self.sim_bytes = ex.check("simulate", checks.check_simulation, sim, p, self.sim_bytes)


class CorpusEntropy:
    """Method 2: entropy -> predict on a generated corpus."""

    def __init__(self, seed: int, work: Path, inventory: str, letters, weights,
                 tokens: int, max_order: int):
        self.inventory, self.max_order = inventory, max_order
        self.ref = gen.make_corpus(seed, work / "corpus.txt", letters, weights,
                                   tokens=tokens, vocabulary=20_000)
        self.want_h = checks.plugin_profile(self.ref.symbols, self.ref.alphabet_size, max_order)
        self.lengths = list(range(2, max_order + 1))

    def round(self, ex: Executor, out: Path) -> None:
        profile, predicted = str(out / "profile.json"), str(out / "predicted.json")
        ex.step(["entropy", str(self.ref.path), "--inventory", self.inventory,
                 "--max-order", str(self.max_order), "--format", "json", "--out", profile])
        h = ex.check("entropy", checks.check_entropy, profile, self.ref, self.max_order,
                     self.want_h)
        ex.step(["predict", "--profile", profile, "--orders",
                 ",".join(map(str, self.lengths)), "--format", "json", "--out", predicted])
        ex.check("predict", checks.check_predict, predicted, self.lengths, h or self.want_h)


WORKLOADS = {
    "dictionary_model": DictionaryModel,
    "corpus_entropy": lambda seed, work: CorpusEntropy(
        seed, work, "english", gen.ENGLISH, gen.ENGLISH_WEIGHTS, tokens=600_000, max_order=3),
    "corpus_multigraph": lambda seed, work: CorpusEntropy(
        seed, work, "swahili", gen.SWAHILI, gen.SWAHILI_WEIGHTS, tokens=500_000, max_order=4),
}


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _setup_probe(ops: Ops, runner: Runner, work: Path) -> Call:
    path = str(work / "probe.json")
    call = ops.call(runner, [*SETUP_ARGS, "--out", path])
    ops.check("setup probe", checks.check_probe, path)
    return call


def _import_probe(ops: Ops, runner: Runner) -> float:
    ops.attempted += 1
    call = runner.run("import", ["-c", IMPORT_PROBE])
    if not call.ok:
        ops.fail(f"import probe (exit {call.returncode}): {call.stderr.strip()[-2000:]}")
        return 0.0
    return float(call.stdout)


def layer_metrics(ops: Ops, cli_rounds: list[list[Call]], tracer,
                  import_s: list[float]) -> dict:
    rounds = range(tracer.round)

    def cli(command: str, field: str, combine) -> float:
        return _median(combine([getattr(c, field) for c in calls if c.command == command]
                               or [0.0]) for calls in cli_rounds)

    def seconds(*names: str, where=None) -> float:
        where = where or (lambda name: name in names)
        return _median(sum(s.seconds for s in tracer.spans if where(s.name) and s.round == r)
                       for r in rounds)

    def rate(name: str) -> float:
        def one(r):
            spans = [s for s in tracer.spans if s.name == name and s.round == r]
            busy = sum(s.seconds for s in spans)
            return sum(s.work for s in spans) / busy if busy else 0.0
        return _median(one(r) for r in rounds)

    def count(name: str) -> int:
        values = [tracer.counts.get((r, name), 0) for r in rounds]
        ops.check(name, checks.same_every_round, name, values)
        return values[0]

    m = {"cli.import_s": _median(import_s)}
    for command in ("histogram", "implied", "fit", "simulate", "entropy", "predict"):
        m[f"cli.{command}.wall_s"] = cli(command, "wall_s", sum)
    for command in ("histogram", "fit", "simulate", "entropy"):
        m[f"cli.{command}.peak_rss_mb"] = cli(command, "peak_rss_mb", max)
    m.update({
        "ingest.load_wordlist_s": seconds("ingest.load_wordlist"),
        "ingest.wordlist_lines_per_s": rate("ingest.load_wordlist"),
        "ingest.word_length_histogram_s": seconds("ingest.word_length_histogram"),
        "ingest.load_corpus_s": seconds("ingest.load_corpus"),
        "ingest.corpus_chars_per_s": rate("ingest.load_corpus"),
        "ngram.entropy_profile_s": seconds("ngram.entropy_profile"),
        "ngram.windows_per_s": rate("ngram.entropy_profile"),
        "lengthmodel.fit_p_s": seconds("lengthmodel.fit_p"),
        "simulate.draw_word_lengths_s": seconds("simulate.draw_word_lengths"),
        "simulate.words_per_s": rate("simulate.draw_word_lengths"),
        "simulate.empirical_length_distribution_s":
            seconds("simulate.empirical_length_distribution"),
        "report.write_artifact_s": seconds(
            where=lambda n: n.startswith("report.") and n.endswith("_artifact")),
        "report.read_histogram_csv_s": seconds("report.read_histogram_csv"),
        "bridge.total_s": seconds(where=lambda n: n.startswith("bridge.")),
    })
    for name in ("ingest.lines_read", "ingest.distinct_words", "ingest.stream_symbols",
                 "ngram.windows", "ngram.distinct_top_windows"):
        m[name] = count(name)
    return m


def _report_overhead(cli_rounds, tracer, setup_s: float) -> None:
    """Traced in-process time against the CLI's wall time less its start costs."""
    traced = _median(sum(s.seconds for s in tracer.spans if s.parent == -1 and s.round == r)
                     for r in range(tracer.round))
    untraced = _median(sum(c.wall_s for c in calls) - setup_s * len(calls)
                       for calls in cli_rounds)
    print(f"bench: traced layer sum {traced:.4f} s; CLI wall minus start cost "
          f"{untraced:.4f} s; difference {traced - untraced:+.4f} s", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wordlen" / "cli.py").is_file():
        print(f"bench: no wordlen package under {SRC}; run inside a checkout",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "cli").mkdir(parents=True)
    (work / "traced").mkdir()
    compileall.compile_dir(SRC, quiet=1)  # users run from compiled bytecode
    with Runner(work) as runner:
        return _run(args, work, runner, started)


def _run(args, work: Path, runner: Runner, started: float) -> int:
    workload = WORKLOADS[args.workload](args.seed, work)
    ops = Ops()
    tracer = None
    if args.trace:
        sys.path.insert(0, str(SRC))
        import traced

        tracer = traced.Tracer()
        tracer.install()
    import_s = [_import_probe(ops, runner) for _ in range(IMPORT_PROBES if args.trace else 0)]
    setup = [_setup_probe(ops, runner, work) for _ in range(SETUP_PROBES)]

    cli_rounds: list[list[Call]] = []
    t0 = time.perf_counter()
    while not cli_rounds or (time.perf_counter() - t0 < args.seconds
                             and time.perf_counter() - started < RUN_LIMIT_S):
        setup.append(_setup_probe(ops, runner, work))
        ex = CliExecutor(ops, runner)
        workload.round(ex, work / "cli")
        cli_rounds.append(ex.calls)
        if tracer is not None:
            workload.round(TracedExecutor(ops, tracer), work / "traced")
            tracer.end_round()

    setup_s = _median(c.wall_s for c in setup)
    if tracer is None:
        metrics = {
            "wall_s": _median(sum(c.wall_s for c in calls) for calls in cli_rounds),
            "peak_rss_mb": _median(max(c.peak_rss_mb for c in calls) for calls in cli_rounds),
            "setup_s": setup_s,
        }
        units = END_TO_END
    else:
        metrics = layer_metrics(ops, cli_rounds, tracer, import_s)
        units = PER_LAYER
        tracer.write(work / "spans.json")
        _report_overhead(cli_rounds, tracer, setup_s)
    (work / "calls.json").write_text(json.dumps(runner.log) + "\n", encoding="utf-8")
    print(f"bench: {args.workload} seed {args.seed}: {len(cli_rounds)} rounds in "
          f"{time.perf_counter() - started:.1f} s", file=sys.stderr)
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
