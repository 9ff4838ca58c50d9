"""Command-line front end.

Subcommands mirror the library layers: ``histogram`` and ``fit`` work on
word lists, ``entropy`` on corpora, ``predict`` and ``implied`` convert
between entropies and word counts, and ``simulate`` runs the bag model.
Every subcommand is deterministic given its inputs (and seed) and writes
one artifact as CSV or JSON.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import bridge, lengthmodel, report, simulate
from .ingest import (
    TokenizationError,
    load_corpus,
    load_wordlist,
    word_length_histogram,
)
from .inventory import PRESET_NAMES, InventoryError, read_utf8, resolve_inventory
from .ngram import entropy_profile


def _add_common(parser: argparse.ArgumentParser, inventory: bool = True) -> None:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordlen",
        description="Distinct-word-length distributions and symbol entropies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_hist = sub.add_parser("histogram", help="distinct-word length histogram")
    p_hist.add_argument("wordlist", help="UTF-8 word list, one word per line")
    p_hist.add_argument("--max-length", type=int, default=50)
    _add_common(p_hist)

    p_fit = sub.add_parser("fit", help="fit the letter-probability length model")
    p_fit.add_argument("wordlist")
    p_fit.add_argument("--max-length", type=int, default=50)
    p_fit.add_argument("--label", default="", help="language label for the report")
    p_fit.add_argument("--scale-a", type=float, default=lengthmodel.DEFAULT_SCALE_A,
                       help="shared scale constant of the vocabulary closed form")
    p_fit.add_argument("--trim-tail", action="store_true",
                       help="drop cells past the last nonzero observed length")
    p_fit.add_argument("--curve-out", default="",
                       help="also write the observed-vs-fitted curve to this path")
    _add_common(p_fit)

    p_ent = sub.add_parser("entropy", help="conditional entropy profile of a corpus")
    p_ent.add_argument("corpus", help="UTF-8 plain-text corpus")
    p_ent.add_argument("--max-order", type=int, default=3)
    p_ent.add_argument("--label", default="")
    _add_common(p_ent)

    p_pred = sub.add_parser(
        "predict", help="distinct-word counts implied by conditional entropies"
    )
    p_pred.add_argument("--profile", default="",
                        help="entropy profile JSON written by the entropy command")
    p_pred.add_argument("--orders", default="2,3",
                        help="comma-separated orders to take from the profile")
    p_pred.add_argument("--entropy-bits", type=float, default=None,
                        help="explicit entropy value (with --length)")
    p_pred.add_argument("--length", type=int, default=None)
    p_pred.add_argument("--label", default="")
    _add_common(p_pred, inventory=False)

    p_imp = sub.add_parser(
        "implied", help="entropies implied by distinct-word counts per length"
    )
    p_imp.add_argument("wordlist", nargs="?", default="",
                       help="word list (or use --histogram)")
    p_imp.add_argument("--histogram", default="",
                       help="histogram CSV written by the histogram command")
    p_imp.add_argument("--max-length", type=int, default=50)
    p_imp.add_argument("--label", default="")
    _add_common(p_imp)

    p_sim = sub.add_parser("simulate", help="bag-model word generation")
    p_sim.add_argument("--p", type=float, required=True,
                       help="probability a drawn symbol is a letter")
    p_sim.add_argument("--symbols", type=int, required=True,
                       help="inventory size including the separator")
    p_sim.add_argument("--words", type=int, default=100_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--mode", choices=simulate.MODES,
                       default="forced_first_letter")
    p_sim.add_argument("--max-length", type=int, default=50)
    _add_common(p_sim, inventory=False)

    return parser


def _cmd_histogram(args) -> int:
    inv = resolve_inventory(args.inventory)
    words = load_wordlist(read_utf8(args.wordlist), inv, strict=args.strict,
                          source_name=Path(args.wordlist).stem)
    hist = word_length_histogram(words, args.max_length)
    report.write_artifact(report.histogram_artifact(hist), args.format, args.out)
    return 0


def _cmd_fit(args) -> int:
    inv = resolve_inventory(args.inventory)
    words = load_wordlist(read_utf8(args.wordlist), inv, strict=args.strict,
                          source_name=Path(args.wordlist).stem)
    hist = word_length_histogram(words, args.max_length)
    model = lengthmodel.fit_p(hist, inv.symbol_count, trim_tail=args.trim_tail)
    artifact = report.fit_artifact(
        hist, model, label=args.label or Path(args.wordlist).stem, scale_a=args.scale_a
    )
    report.write_artifact(artifact, args.format, args.out)
    if args.curve_out:
        report.write_artifact(
            report.fit_curve_artifact(hist, model), args.format, args.curve_out
        )
    return 0


def _cmd_entropy(args) -> int:
    inv = resolve_inventory(args.inventory)
    stream = load_corpus(read_utf8(args.corpus), inv, strict=args.strict)
    profile = entropy_profile(stream, inv, args.max_order)
    artifact = report.profile_artifact(profile, label=args.label or Path(args.corpus).stem)
    report.write_artifact(artifact, args.format, args.out)
    return 0


def _cmd_predict(args) -> int:
    if args.profile:
        wanted = {int(x) for x in args.orders.split(",") if x.strip()}
        pairs = [(o, h) for o, h in report.read_profile_json(args.profile)
                 if o in wanted and o >= 1]
        if not pairs:
            raise ValueError("profile has no entries for the requested orders")
        predictions = bridge.predict_from_entropies(
            [h for _, h in pairs], [o for o, _ in pairs]
        )
    elif args.entropy_bits is not None and args.length is not None:
        predictions = bridge.predict_from_entropies([args.entropy_bits], [args.length])
    else:
        raise ValueError("give either --profile or both --entropy-bits and --length")
    artifact = report.predictions_artifact(predictions, label=args.label)
    report.write_artifact(artifact, args.format, args.out)
    return 0


def _cmd_implied(args) -> int:
    if args.histogram:
        hist = report.read_histogram_csv(args.histogram)
    elif args.wordlist:
        inv = resolve_inventory(args.inventory)
        words = load_wordlist(read_utf8(args.wordlist), inv, strict=args.strict,
                              source_name=Path(args.wordlist).stem)
        hist = word_length_histogram(words, args.max_length)
    else:
        raise ValueError("give a word list or --histogram")
    rows = bridge.implied_profile(hist)
    artifact = report.implied_artifact(rows, label=args.label or hist.label)
    report.write_artifact(artifact, args.format, args.out)
    return 0


def _cmd_simulate(args) -> int:
    cfg = simulate.SimulationConfig(
        p=args.p, symbols=args.symbols, word_target=args.words,
        seed=args.seed, mode=args.mode,
    )
    lengths = simulate.draw_word_lengths(cfg)
    hist = simulate.empirical_length_distribution(lengths, args.max_length)
    artifact = report.simulation_artifact(cfg, hist, float(np.mean(lengths)))
    report.write_artifact(artifact, args.format, args.out)
    return 0


_COMMANDS = {
    "histogram": _cmd_histogram,
    "fit": _cmd_fit,
    "entropy": _cmd_entropy,
    "predict": _cmd_predict,
    "implied": _cmd_implied,
    "simulate": _cmd_simulate,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, InventoryError, TokenizationError,
            lengthmodel.FitError) as err:
        print(f"wordlen {args.command}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
