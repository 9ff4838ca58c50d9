"""Command-line front end.

Subcommands mirror the library layers: ``histogram`` and ``fit`` work on
word lists, ``entropy`` on corpora, ``predict`` and ``implied`` convert
between entropies and word counts, and ``simulate`` runs the bag model.
Every subcommand is deterministic given its inputs (and seed). Each
``_cmd_*`` only reads its inputs and returns what is to be written: its
artifacts with their destinations (one for every command, and for ``fit`` a
second with ``--curve-out``), and its notes, the warnings for stderr. No
command writes to a stream. ``main`` alone writes: each artifact in order,
in the one ``--format`` given, and then each note, or on a failure the one
error line instead. argparse's usage, ``--help`` and error text, the notes
and the error line go through ``report._write_std``, as an artifact sent to
stdout does, so every byte on stdout and stderr is UTF-8 whatever the
locale, and a stdout that cannot be written ends the run with one error
line and exit status 1, even when it is ``--help`` that it cannot take.
Other argparse text that cannot be written is passed over, as argparse
does.

Only ``entropy`` and ``simulate`` load numpy: the layers import it inside
the functions that compute with arrays. No module imports the standard
library's data classes, or ``inspect``, which they load: the record types
are plain classes. The commands call the layer
functions ``load_wordlist``, ``word_length_histogram``, ``load_corpus`` and
``entropy_profile`` by their names in this module, looked up at each call,
so replacing one here (to trace or count calls) reaches every command.
``word_length_histogram`` bins word lists only: ``simulate`` bins each
block of draws in ``simulate.length_histogram`` and never holds the drawn
lengths, so its memory does not grow with ``--words``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import lengthmodel, report, simulate
from .ingest import load_corpus, load_wordlist, word_length_histogram
from .inventory import (PRESET_NAMES, SymbolInventory, _flag_real, _flag_whole, _read_whole,
                        _whole, read_utf8, resolve_inventory)
from .ngram import _check_order, entropy_profile
from .report import Artifact

_MAX_LENGTH = 10_000  # 200 times the default; a count is kept for every length
# what a command returns: its artifacts with their destinations, and its notes
_Result = tuple[list[tuple[Artifact, str]], list[str]]


def _add_common(parser: argparse.ArgumentParser, run, inventory: bool = True) -> None:
    """The flags every subcommand takes, and ``run``, the ``_cmd_*`` that ``main`` calls."""
    parser.set_defaults(run=run)
    if inventory:
        parser.add_argument(
            "--inventory",
            default="english",
            help=f"preset name ({', '.join(PRESET_NAMES)}) or inventory JSON file",
        )
        parser.add_argument(
            "--strict",
            action="store_true",
            help="abort on symbols outside the inventory instead of skipping",
        )
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default="-", help="output path ('-' for stdout)")


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that writes through ``report._write_std``;
    subparsers are made of the same class."""

    def _print_message(self, message: str, file=None) -> None:
        # backslashreplace, as Python's own stderr: a lone surrogate from argv
        # is written as its escape, and any other text as in a UTF-8 locale
        try:
            report._write_std(file or sys.stderr, message.encode("utf-8", "backslashreplace"))
        except AttributeError:  # as argparse: a missing stream is passed over,
            pass
        except OSError:  # and so is an unwritable one, but for help to an open stdout
            if file and file is sys.stdout:
                raise


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wordlen",
        description="Distinct-word-length distributions and symbol entropies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_hist = sub.add_parser("histogram", help="distinct-word length histogram")
    p_hist.add_argument("wordlist", help="UTF-8 word list, one word per line")
    p_hist.add_argument("--max-length", type=_flag_whole, default=50)
    _add_common(p_hist, _cmd_histogram)

    p_fit = sub.add_parser("fit", help="fit the letter-probability length model")
    p_fit.add_argument("wordlist")
    p_fit.add_argument("--max-length", type=_flag_whole, default=50)
    p_fit.add_argument("--label", default="", help="language label for the report")
    p_fit.add_argument("--scale-a", type=_flag_real, default=lengthmodel.DEFAULT_SCALE_A,
                       help="shared scale constant of the vocabulary closed form")
    p_fit.add_argument("--trim-tail", action="store_true",
                       help="drop cells past the last nonzero observed length")
    p_fit.add_argument("--curve-out", default="",
                       help="also write the observed-vs-fitted curve to this path")
    _add_common(p_fit, _cmd_fit)

    p_ent = sub.add_parser("entropy", help="conditional entropy profile of a corpus")
    p_ent.add_argument("corpus", help="UTF-8 plain-text corpus")
    p_ent.add_argument("--max-order", type=_flag_whole, default=3)
    p_ent.add_argument("--label", default="")
    _add_common(p_ent, _cmd_entropy)

    p_pred = sub.add_parser(
        "predict", help="distinct-word counts implied by conditional entropies"
    )
    p_pred.add_argument("--profile", default="",
                        help="entropy profile JSON written by the entropy command")
    p_pred.add_argument("--orders", default=None,
                        help="comma-separated orders to take from the profile "
                             "(default: those of 2 and 3 it holds)")
    p_pred.add_argument("--entropy-bits", type=_flag_real, default=None,
                        help="explicit entropy value (with --length)")
    p_pred.add_argument("--length", type=_flag_whole, default=None)
    p_pred.add_argument("--label", default="")
    _add_common(p_pred, _cmd_predict, inventory=False)

    p_imp = sub.add_parser(
        "implied", help="entropies implied by distinct-word counts per length"
    )
    p_imp.add_argument("wordlist", nargs="?", default="",
                       help="word list (or use --histogram)")
    p_imp.add_argument("--histogram", default="",
                       help="histogram CSV written by the histogram command")
    # --max-length and --inventory are left unset unless given, so that
    # --histogram can refuse them
    p_imp.add_argument("--max-length", type=_flag_whole)
    p_imp.add_argument("--label", default="")
    _add_common(p_imp, _cmd_implied)
    p_imp.set_defaults(inventory=None)

    p_sim = sub.add_parser("simulate", help="bag-model word generation")
    p_sim.add_argument("--p", type=_flag_real, required=True,
                       help="probability a drawn symbol is a letter")
    p_sim.add_argument("--symbols", type=_flag_whole, required=True,
                       help="inventory size including the separator")
    p_sim.add_argument("--words", type=_flag_whole, default=100_000)
    p_sim.add_argument("--seed", type=_flag_whole, default=0)
    p_sim.add_argument("--mode", choices=simulate.MODES,
                       default="forced_first_letter")
    p_sim.add_argument("--max-length", type=_flag_whole, default=50)
    _add_common(p_sim, _cmd_simulate, inventory=False)

    return parser


def _wordlist_histogram(args) -> tuple[SymbolInventory, lengthmodel.WordLengthHistogram]:
    """The inventory and the distinct-word length histogram of ``args.wordlist``."""
    inv = resolve_inventory(args.inventory)
    lengths = load_wordlist(read_utf8(args.wordlist), inv, strict=args.strict)
    hist = word_length_histogram(lengths, args.max_length, label=Path(args.wordlist).stem)
    return inv, hist


def _cmd_histogram(args) -> _Result:
    _, hist = _wordlist_histogram(args)
    return [(report.histogram_artifact(hist), args.out)], []


def _cmd_fit(args) -> _Result:
    lengthmodel._check_scale_a(args.scale_a)  # before the word list is read
    inv, hist = _wordlist_histogram(args)
    model = lengthmodel.fit_p(hist, inv.symbol_count, trim_tail=args.trim_tail)
    artifact = report.fit_artifact(hist, model, label=args.label, scale_a=args.scale_a)
    outputs = [(artifact, args.out)]
    if args.curve_out:
        outputs.append((report.fit_curve_artifact(hist, model), args.curve_out))
    return outputs, []


def _cmd_entropy(args) -> _Result:
    inv = resolve_inventory(args.inventory)
    _check_order(args.max_order, inv.symbol_count)  # before the corpus is read
    stream = load_corpus(read_utf8(args.corpus), inv, strict=args.strict)
    profile = entropy_profile(stream, inv, args.max_order)
    notes = [] if all(profile.adequate) else [
        f"warning: stream of {profile.sample_tokens} tokens cannot adequately sample "
        f"order >= {profile.adequate.index(False)} over {profile.inventory_symbols} symbols"]
    return [(report.profile_artifact(profile, label=args.label or Path(args.corpus).stem),
             args.out)], notes


def _cmd_predict(args) -> _Result:
    if args.profile:
        if args.entropy_bits is not None or args.length is not None:
            raise ValueError("--entropy-bits and --length cannot be used with --profile")
        wanted = {_read_whole(x.strip(), "--orders", 1)
                  for x in filter(str.strip, (args.orders or "").split(","))}
        entries = report.read_profile_json(args.profile)
        held = [order for order, _, _ in entries]
        if args.orders is None:
            wanted = {2, 3}.intersection(held)
        missing = sorted(wanted.difference(held))
        if missing:
            raise ValueError(f"{args.profile} has no order {', '.join(map(str, missing))}; "
                             f"it holds orders {', '.join(map(str, held))}")
        entries = [entry for entry in entries if entry[0] in wanted]
        if not entries:
            raise ValueError("profile has no entries for the requested orders")
        notes = [f"warning: order {order} is undersampled in {args.profile}"
                 for order, _, adequate in entries if adequate is False]
        pairs = [(order, bits) for order, bits, _ in entries]
    elif args.orders is not None:
        raise ValueError("--orders cannot be used without --profile")
    elif args.entropy_bits is not None and args.length is not None:
        pairs, notes = [(args.length, args.entropy_bits)], []
    else:
        raise ValueError("give either --profile or both --entropy-bits and --length")
    return [(report.predictions_artifact(pairs, label=args.label), args.out)], notes


def _cmd_implied(args) -> _Result:
    if args.histogram:
        given = [flag for flag, on in (
            ("a word list", bool(args.wordlist)), ("--max-length", args.max_length is not None),
            ("--inventory", args.inventory is not None), ("--strict", args.strict),
        ) if on]
        if given:
            raise ValueError(f"{', '.join(given)} cannot be used with --histogram")
        hist = report.read_histogram_csv(args.histogram)
    elif args.wordlist:
        args.inventory = args.inventory or "english"
        args.max_length = 50 if args.max_length is None else args.max_length
        _, hist = _wordlist_histogram(args)
    else:
        raise ValueError("give a word list or --histogram")
    return [(report.implied_artifact(hist, label=args.label), args.out)], []


def _cmd_simulate(args) -> _Result:
    cfg = simulate.SimulationConfig(
        p=args.p, symbols=args.symbols, word_target=args.words,
        seed=args.seed, mode=args.mode,
    )
    hist, mean = simulate.length_histogram(cfg, args.max_length)
    return [(report.simulation_artifact(cfg, hist, mean), args.out)], []


def main(argv: list[str] | None = None) -> int:
    # No command makes a BLAS call, but OpenBLAS starts a worker thread when
    # numpy loads, and that thread busy-waits on the CPUs the command needs
    # while it starts up. Set here rather than on import, so a library
    # caller's BLAS is left alone.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    prog = "wordlen"  # and the command, once it is parsed
    try:
        args = build_parser().parse_args(argv)  # an OSError: help that stdout cannot take
        prog = f"wordlen {args.command}"
        # checked before any input is read or any word is drawn
        max_length = getattr(args, "max_length", None)  # None: implied left it unset
        if max_length is not None and _whole(max_length, "max_length", 1) > _MAX_LENGTH:
            raise ValueError(f"max_length must be <= {_MAX_LENGTH}")
        outputs, lines = args.run(args)
        for artifact, out in outputs:
            report.write_artifact(artifact, args.format, out)
        status = 0
    # InventoryError and TokenizationError are ValueErrors
    except (OSError, ValueError, lengthmodel.FitError) as err:
        lines, status = [str(err)], 1
    if lines:  # encoded as argparse's text is, in _Parser
        text = "".join(f"{prog}: {line}\n" for line in lines)
        report._write_std(sys.stderr, text.encode("utf-8", "backslashreplace"))
    return status


if __name__ == "__main__":
    sys.exit(main())
