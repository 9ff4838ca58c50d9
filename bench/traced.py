"""Spans around the layer calls that ``wordlen.cli`` makes, taken in-process.

``Tracer.install`` replaces the layer functions the CLI reaches with
wrappers that record a span: the names ``wordlen.cli`` imported from
``ingest`` and ``ngram``, ``lengthmodel.fit_p``, and every public function
of ``simulate``, ``bridge`` and ``report``. ``Tracer.run`` then calls
``wordlen.cli.main`` itself inside a ``cli.<command>`` span, so the spans
follow whatever calls the CLI makes. No tracing code lives in the package.
A layer call made inside another layer call gets no span of its own, so
layer spans never overlap. Counts are taken from the wrapped calls'
arguments and return values, after their span has ended. Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from checks import window_codes
from wordlen import bridge, cli, lengthmodel, report, simulate


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    round: int
    work: int  # units processed (lines, characters, windows, words), 0 if none

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[tuple[int, str], int] = {}
        self.round = 0
        self._open: list[int] = []
        self._deferred: list = []

    def install(self) -> None:
        """Wrap the layer functions that ``wordlen.cli`` calls."""
        for name in ("load_wordlist", "word_length_histogram", "load_corpus",
                     "entropy_profile"):
            setattr(cli, name, self._wrap(getattr(cli, name)))
        lengthmodel.fit_p = self._wrap(lengthmodel.fit_p)
        for module in (simulate, bridge, report):
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                if fn.__module__ == module.__name__ and not name.startswith("_"):
                    setattr(module, name, self._wrap(fn))

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        meter = _METERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if len(self._open) != 1:  # outside a CLI call, or inside another layer call
                return fn(*args, **kwargs)
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            if meter is not None:
                self.spans[span].work = meter(self, args, kwargs, result)
            return result

        return traced

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.round, 0))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, span: int) -> None:
        self.spans[span].end = time.perf_counter()
        self._open.pop()

    def run(self, argv: list[str]) -> None:
        """Run one subcommand through ``wordlen.cli.main``, inside a ``cli.<command>`` span."""
        span = self._begin(f"cli.{argv[0]}")
        try:
            returncode = cli.main(argv)
        except SystemExit as stop:  # argparse exits on arguments it rejects
            returncode = stop.code
        finally:
            self._end(span)
        if returncode != 0:
            raise RuntimeError(f"wordlen {argv[0]} returned {returncode}")

    def count(self, name: str, value: int) -> None:
        self.counts[(self.round, name)] = int(value)

    def count_later(self, name: str, fn) -> None:
        """Record a count whose cost must not fall inside any span."""
        self._deferred.append((self.round, name, fn))

    def end_round(self) -> None:
        for rnd, name, fn in self._deferred:
            self.counts[(rnd, name)] = int(fn())
        self._deferred.clear()
        self.round += 1

    def write(self, path: Path) -> None:
        data = {
            "spans": [asdict(s) for s in self.spans],
            "counts": [{"round": r, "name": n, "value": v} for (r, n), v in self.counts.items()],
        }
        path.write_text(json.dumps(data) + "\n", encoding="utf-8")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _load_wordlist(tr: Tracer, args, kwargs, words) -> int:
    lines = _arg(args, kwargs, 0, "source").count("\n")  # an input size, not a program count
    tr.count("ingest.lines_read", lines)
    tr.count("ingest.distinct_words", len(words))
    return lines


def _load_corpus(tr: Tracer, args, kwargs, stream) -> int:
    text = _arg(args, kwargs, 0, "text")
    tr.count("ingest.lines_read", text.count("\n"))  # an input size, not a program count
    tr.count("ingest.stream_symbols", stream.token_count)
    return len(text)


def _entropy_profile(tr: Tracer, args, kwargs, profile) -> int:
    stream = _arg(args, kwargs, 0, "stream")
    symbols = _arg(args, kwargs, 1, "inventory").symbol_count
    order = profile.max_order
    tr.count("ngram.windows", profile.window_counts[-1])
    tr.count_later("ngram.distinct_top_windows", lambda: np.unique(
        window_codes(stream.symbols, symbols, order)).size)
    return int(profile.window_counts[-1])


_METERS = {
    "ingest.load_wordlist": _load_wordlist,
    "ingest.load_corpus": _load_corpus,
    "ngram.entropy_profile": _entropy_profile,
    "simulate.draw_word_lengths": lambda tr, args, kwargs, lengths: len(lengths),
}
