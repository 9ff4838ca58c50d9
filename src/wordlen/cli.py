"""Command-line front end.

Subcommands mirror the library layers: ``histogram`` and ``fit`` work on
word lists, ``entropy`` on corpora, ``predict`` and ``implied`` convert
between entropies and word counts, and ``simulate`` runs the bag model.
Every subcommand is deterministic given its inputs (and seed) and writes
one artifact as CSV or JSON.

A subcommand imports only the layers it runs, and only ``entropy`` and
``simulate`` load numpy. The layer functions ``load_wordlist``,
``word_length_histogram``, ``load_corpus`` and ``entropy_profile`` are
attributes of this module, loaded on first access, and the commands call
them through the module, so replacing one here (to trace or count calls)
reaches every command.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from pathlib import Path

from . import lengthmodel, report, simulate
from .inventory import PRESET_NAMES, SymbolInventory, read_utf8, resolve_inventory
from .report import WordLengthHistogram

# each layer function read off this module and the module it comes from
_LAYER_FUNCTIONS = {
    "load_wordlist": "ingest",
    "word_length_histogram": "ingest",
    "load_corpus": "ingest",
    "entropy_profile": "ngram",
}
_cli = sys.modules[__name__]  # the commands call the layer functions through it


def __getattr__(name: str):
    if name not in _LAYER_FUNCTIONS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAYER_FUNCTIONS[name]}", __package__)
    value = getattr(module, name)
    globals()[name] = value
    return value


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
    p_fit.add_argument("--scale-a", type=float, default=report.DEFAULT_SCALE_A,
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
    p_pred.add_argument("--orders", default=None,
                        help="comma-separated orders to take from the profile "
                             "(default: those of 2 and 3 it holds)")
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
    # left unset unless given, so that --histogram can refuse them
    p_imp.set_defaults(max_length=None, inventory=None)

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


def _wordlist_histogram(args) -> tuple[SymbolInventory, WordLengthHistogram]:
    """The inventory and the distinct-word length histogram of ``args.wordlist``."""
    inv = resolve_inventory(args.inventory)
    lengths = _cli.load_wordlist(read_utf8(args.wordlist), inv, strict=args.strict)
    hist = _cli.word_length_histogram(lengths, args.max_length, label=Path(args.wordlist).stem)
    return inv, hist


def _cmd_histogram(args) -> int:
    _, hist = _wordlist_histogram(args)
    report.write_artifact(report.histogram_artifact(hist), args.format, args.out)
    return 0


def _cmd_fit(args) -> int:
    inv, hist = _wordlist_histogram(args)
    model = lengthmodel.fit_p(hist, inv.symbol_count, trim_tail=args.trim_tail)
    artifact = report.fit_artifact(hist, model, label=args.label, scale_a=args.scale_a)
    report.write_artifact(artifact, args.format, args.out)
    if args.curve_out:
        report.write_artifact(
            report.fit_curve_artifact(hist, model), args.format, args.curve_out
        )
    return 0


def _cmd_entropy(args) -> int:
    import warnings

    inv = resolve_inventory(args.inventory)
    stream = _cli.load_corpus(read_utf8(args.corpus), inv, strict=args.strict)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        profile = _cli.entropy_profile(stream, inv, args.max_order)
    for warning in caught:
        print(f"wordlen entropy: warning: {warning.message}", file=sys.stderr)
    artifact = report.profile_artifact(profile, label=args.label or Path(args.corpus).stem)
    report.write_artifact(artifact, args.format, args.out)
    return 0


def _cmd_predict(args) -> int:
    if args.profile:
        if args.entropy_bits is not None or args.length is not None:
            raise ValueError("--entropy-bits and --length cannot be used with --profile")
        wanted = set()
        for x in filter(str.strip, (args.orders or "").split(",")):
            try:
                wanted.add(int(x))
            except ValueError:
                raise ValueError(f"--orders: {x.strip()!r} is not a whole number") from None
        if min(wanted, default=1) < 1:
            raise ValueError(f"--orders: {min(wanted)} is not a word length; orders start at 1")
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
        for order, _, adequate in entries:
            if adequate is False:
                print(f"wordlen predict: warning: order {order} is undersampled in {args.profile}",
                      file=sys.stderr)
        pairs = [(order, bits) for order, bits, _ in entries]
    elif args.orders is not None:
        raise ValueError("--orders cannot be used without --profile")
    elif args.entropy_bits is not None and args.length is not None:
        pairs = [(args.length, args.entropy_bits)]
    else:
        raise ValueError("give either --profile or both --entropy-bits and --length")
    artifact = report.predictions_artifact(pairs, label=args.label)
    report.write_artifact(artifact, args.format, args.out)
    return 0


def _cmd_implied(args) -> int:
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
    artifact = report.implied_artifact(hist, label=args.label)
    report.write_artifact(artifact, args.format, args.out)
    return 0


def _cmd_simulate(args) -> int:
    cfg = simulate.SimulationConfig(
        p=args.p, symbols=args.symbols, word_target=args.words,
        seed=args.seed, mode=args.mode,
    )
    lengths = simulate.draw_word_lengths(cfg)
    # a memoryview yields the lengths as Python ints without copying them
    hist = _cli.word_length_histogram(memoryview(lengths), args.max_length, label="simulated")
    artifact = report.simulation_artifact(cfg, hist, float(lengths.mean()))
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
    # No command makes a BLAS call, but OpenBLAS starts a worker thread when
    # numpy loads, and that thread busy-waits on the CPUs the command needs
    # while it starts up. Set here rather than on import, so a library
    # caller's BLAS is left alone.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    try:
        # checked before any input is read or any word is drawn
        max_length = getattr(args, "max_length", None)  # None: implied left it unset
        if max_length is not None and max_length < 1:
            raise ValueError("max_length must be >= 1")
        return _COMMANDS[args.command](args)
    # InventoryError and TokenizationError are ValueErrors
    except (OSError, ValueError, lengthmodel.FitError) as err:
        print(f"wordlen {args.command}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
