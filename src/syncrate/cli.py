"""Command-line surface: estimate, sync, bounds, benchmark, generate.

Every TSV header carries a manifest digest: a sha256 over the flags as
parsed, the symbols and labels read, and the version.  Flags that only name
files or where output goes (``_NOT_HASHED``) are left out, so identical
invocations produce byte-identical output and any table can be traced back
to the exact run that made it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import EstimationError, InsufficientDataError, InvalidInputError
from .estimator import (
    EstimatorConfig,
    bound_curve,
    estimate_entropy_rate,
    locate_sync_word,
)
from .generate import (
    ChaoticMapConfig,
    chaotic_stream,
    iid_stream,
    normalize_text,
)
from .lz78 import lz78_curve, lz78_entropy_estimate
from .pfsa import load_pfsa, simulate
from .streams import Alphabet, SymbolStream


# the handler, file names and where output goes: the digest covers what the
# files hold, not their names.  A path flag that leaves the TSV unchanged,
# such as a trace file, belongs here too
_NOT_HASHED = ("run", "input", "alphabet_map", "out")


def _digest(args, stream: SymbolStream | None = None) -> str:
    """sha256 over the parsed flags, the stream's symbols and labels, and
    the version: everything that determined a run's output."""
    run = {
        "flags": {k: v for k, v in vars(args).items() if k not in _NOT_HASHED},
        "symbols": None if stream is None else hashlib.sha256(stream.data).hexdigest(),
        "labels": None if stream is None else list(stream.alphabet.labels),
        "version": __version__,
    }
    blob = json.dumps(run, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def _tsv_lines(columns, rows, digest: str) -> list[str]:
    lines = ["# columns: " + "\t".join(columns)]
    lines.append(f"# manifest: {digest}")
    for row in rows:
        lines.append("\t".join(_fmt(v) for v in row))
    return lines


def _emit(lines: list[str], out_path: str | None):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_alphabet_map(path: str) -> Alphabet:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            content = fh.read()
    except UnicodeDecodeError:
        raise InvalidInputError(f"alphabet map {path} is not UTF-8 text") from None
    lines = content.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if any(line == "" for line in lines):
        raise InvalidInputError(f"empty label line in alphabet map {path}")
    if any("\t" in line for line in lines):
        # a tab would split the label across TSV columns
        raise InvalidInputError(f"tab in a label of alphabet map {path}")
    return Alphabet(tuple(lines))


def _number_list(text: str, flag: str) -> list[float]:
    """The numbers in a comma-separated flag value; empty entries are skipped."""
    try:
        values = [float(v) for v in text.split(",") if v]
    except ValueError:
        values = []
    if not values or not all(map(math.isfinite, values)):
        raise InvalidInputError(f"{flag} needs finite numbers, got {text!r}")
    return values


def _whole_list(text: str, flag: str) -> list[int]:
    """Like ``_number_list``, refusing any value with a fractional part."""
    values = _number_list(text, flag)
    if not all(v.is_integer() for v in values):
        raise InvalidInputError(f"{flag} needs whole numbers, got {text!r}")
    return [int(v) for v in values]


def _read_input(path: str) -> np.ndarray:
    """An input file's bytes, as one read-only uint8 array."""
    try:
        raw = np.fromfile(path, dtype=np.uint8)
    except FileNotFoundError:
        raise InvalidInputError(f"input file not found: {path}") from None
    raw.setflags(write=False)  # handed to the stream as is, not copied
    return raw


def _load_stream(args) -> SymbolStream:
    """Input file to stream."""
    raw = _read_input(args.input)
    if args.text:
        return normalize_text(raw.tobytes())
    if args.alphabet_map:
        alphabet = _read_alphabet_map(args.alphabet_map)
    else:
        # two symbols at least, so an empty or all-zero file reads as binary
        top = int(raw.max(initial=1))
        alphabet = Alphabet(tuple(str(i) for i in range(top + 1)))
    return SymbolStream(raw, alphabet)


def _estimator_config(args) -> EstimatorConfig:
    return EstimatorConfig(
        epsilon=args.epsilon,
        alpha=args.alpha,
        max_extension_length=args.ext_max,
        min_count=args.nmin,
    )


def _estimate(stream: SymbolStream, cfg: EstimatorConfig, args):
    return estimate_entropy_rate(
        stream,
        cfg,
        collect_min_count=args.collect_min,
        search_length=args.search_length,
    )


def _word_label(alphabet: Alphabet, word, human: bool) -> str:
    if not word:
        return "<empty>" if human else ""
    return alphabet.word_label(word)


def cmd_estimate(args) -> int:
    stream = _load_stream(args)
    cfg = _estimator_config(args)
    columns = [
        "h",
        "E",
        "alpha",
        "epsilon_star",
        "x0",
        "p0",
        "samples_used",
        "stream_length",
    ]
    if args.method == "lz78":
        h = lz78_entropy_estimate(stream)
        row = [h, None, None, None, None, None, None, len(stream)]
        human = [
            f"entropy rate   {h:.6f} bits/symbol (lz78 baseline)",
            f"stream         {len(stream)} symbols",
        ]
    else:
        report = _estimate(stream, cfg, args)
        row = [
            report.entropy_rate,
            report.bound,
            report.alpha,
            report.epsilon_star,
            _word_label(stream.alphabet, report.sync_word, human=False),
            report.sync_frequency,
            report.samples_used,
            report.stream_length,
        ]
        flag = " (vacuous)" if report.vacuous else ""
        word = _word_label(stream.alphabet, report.sync_word, human=True)
        human = [
            f"entropy rate   {report.entropy_rate:.6f} bits/symbol",
            f"bound          {report.bound:.6f}{flag} at alpha {report.alpha:g}",
            f"tolerance      {report.epsilon_star:.6f}",
            f"sync word      {word} (frequency {report.sync_frequency:.6f})",
            f"words          {report.cluster_count}",
            f"stream         {report.stream_length} symbols",
        ]
    lines = _tsv_lines(columns, [row], _digest(args, stream)) if args.tsv else human
    _emit(lines, args.out)
    return 0


def cmd_sync(args) -> int:
    stream = _load_stream(args)
    derivs, result, _table = locate_sync_word(
        stream, args.epsilon, EstimatorConfig.min_count, args.search_length, args.collect_min
    )
    word = _word_label(stream.alphabet, result.word, human=True)
    summary = [
        f"sync word      {word}",
        f"frequency      {result.frequency:.6f}",
    ]
    if not args.tsv:
        _emit(summary, args.out)
        return 0
    columns = ["string", "count"] + [f"p_{c}" for c in stream.alphabet.labels]
    rows = []
    for word, (dist, cnt) in derivs.entries.items():
        rows.append(
            [_word_label(stream.alphabet, word, human=False), cnt]
            + [float(v) for v in dist]
        )
    _emit(_tsv_lines(columns, rows, _digest(args, stream)), args.out)
    print("\n".join(summary), file=sys.stderr)
    return 0


def cmd_bounds(args) -> int:
    alphas = _number_list(args.alpha_list, "--alpha")
    lengths = _whole_list(args.lengths, "--lengths")
    k = args.alphabet_size
    curves = [bound_curve(k, a, args.samples, args.p0, lengths) for a in alphas]
    columns = ["length"] + [f"E_alpha{a:g}" for a in alphas]
    rows = []
    for i, n in enumerate(lengths):
        rows.append([n] + [curves[j][i][1] for j in range(len(alphas))])
    _emit(_tsv_lines(columns, rows, _digest(args)), args.out)
    return 0


def cmd_benchmark(args) -> int:
    stream = _load_stream(args)
    marks = _whole_list(args.checkpoints, "--checkpoints")
    cfg = _estimator_config(args)
    lz_rows = dict(lz78_curve(stream, marks))
    rows = []
    for n in marks:
        try:
            report = _estimate(stream.prefix(n), cfg, args)
            h_main, e_main = report.entropy_rate, report.bound
        except InsufficientDataError:  # a prefix too short: blank columns
            h_main, e_main = None, None
        rows.append([n, h_main, e_main, lz_rows[n]])
    columns = ["length", "h_main", "E_main", "h_lz"]
    _emit(_tsv_lines(columns, rows, _digest(args, stream)), args.out)
    return 0


def cmd_generate(args) -> int:
    if args.source == "pfsa":
        if not args.model:
            raise InvalidInputError("--source pfsa needs --model")
        machine = load_pfsa(args.model)
        stream = simulate(machine, args.n, seed=args.seed)
    elif args.source == "chaos":
        stream = chaotic_stream(
            ChaoticMapConfig(r=args.r, n=args.n, x0=args.x0, burn_in=args.burn_in)
        )
    elif args.source == "iid":
        probs = _number_list(args.probs, "--probs")
        stream = iid_stream(probs, args.n, seed=args.seed)
    else:
        if not args.input:
            raise InvalidInputError("--source text needs --input")
        stream = normalize_text(_read_input(args.input).tobytes())
    stream.data.tofile(args.out)
    with open(args.out + ".alphabet", "w", encoding="utf-8") as fh:
        fh.write("\n".join(stream.alphabet.labels) + "\n")
    print(f"wrote {len(stream)} symbols to {args.out}", file=sys.stderr)
    return 0


class _Parser(argparse.ArgumentParser):
    # insufficient data owns exit code 2, so flag errors take 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_stream_flags(p, estimator: bool):
    """Input and Phase I flags, plus the estimator's own when it runs."""
    p.add_argument("--input", required=True, help="raw symbol file, one byte per symbol")
    p.add_argument("--alphabet-map", default=None, help="sidecar file, one label per line")
    p.add_argument("--text", action="store_true", help="treat input as text and fold to 27 symbols")
    p.add_argument("--epsilon", type=float, default=0.05, help="derivative tolerance")
    if estimator:
        p.add_argument("--alpha", type=float, default=EstimatorConfig.alpha, help="confidence level")
        p.add_argument("--ext-max", type=int, default=None, help="longest extension")
        p.add_argument("--nmin", type=int, default=EstimatorConfig.min_count, help="extension count floor")
    p.add_argument("--search-length", type=int, default=None, help="sync search depth")
    p.add_argument("--collect-min", type=int, default=None, help="sync phase count floor")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="syncrate", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"syncrate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="entropy rate of a symbol stream", parents=[])
    _add_stream_flags(p, estimator=True)
    p.add_argument("--method", choices=("paper", "lz78"), default="paper")
    p.add_argument("--tsv", action="store_true", help="machine-readable single line")
    p.add_argument("--out", default=None, help="write output here instead of stdout")
    p.set_defaults(run=cmd_estimate)

    p = sub.add_parser("sync", help="locate the synchronizing word")
    _add_stream_flags(p, estimator=False)
    p.add_argument("--tsv", action="store_true", help="dump the derivative table as TSV")
    p.add_argument("--out", default=None)
    p.set_defaults(run=cmd_sync)

    p = sub.add_parser("bounds", help="uncertainty bound against stream length")
    p.add_argument("--alphabet-size", type=int, required=True)
    alpha = str(EstimatorConfig.alpha)
    p.add_argument("--alpha", dest="alpha_list", default=alpha, help="comma-separated levels")
    p.add_argument(
        "--samples",
        type=int,
        default=None,
        help="extension count N of a sampled Phase II; adds the sampling term (default: none)",
    )
    p.add_argument("--p0", type=float, default=None, help="sync word frequency term")
    p.add_argument("--lengths", required=True, help="comma-separated stream lengths")
    p.add_argument("--out", default=None)
    p.set_defaults(run=cmd_bounds)

    p = sub.add_parser("benchmark", help="both estimators over stream prefixes")
    _add_stream_flags(p, estimator=True)
    p.add_argument("--checkpoints", required=True, help="comma-separated prefix lengths")
    p.add_argument("--out", default=None)
    p.set_defaults(run=cmd_benchmark)

    p = sub.add_parser("generate", help="write a raw symbol file plus alphabet sidecar")
    p.add_argument("--source", choices=("pfsa", "chaos", "iid", "text"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", default=None, help="pfsa text file")
    p.add_argument("--r", type=float, default=1.7499, help="chaotic map parameter")
    p.add_argument("--x0", type=float, default=ChaoticMapConfig.x0)
    p.add_argument("--burn-in", type=int, default=ChaoticMapConfig.burn_in)
    p.add_argument("--probs", default="0.5,0.5", help="iid symbol probabilities")
    p.add_argument("--input", default=None, help="text file for --source text")
    p.set_defaults(run=cmd_generate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except InsufficientDataError as exc:
        print(f"syncrate: insufficient data: {exc}", file=sys.stderr)
        return 2
    except (EstimationError, MemoryError, OSError) as exc:
        print(f"syncrate: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
