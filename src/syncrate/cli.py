"""Command-line surface: estimate, sync, bounds, benchmark, generate.

Every run resolves its configuration into a manifest whose digest is
stamped into TSV headers, so identical invocations produce byte-identical
output and any table can be traced back to the exact run that made it.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import (
    EstimationError,
    InsufficientDataError,
    InvalidInputError,
    InvalidParameterError,
)
from .estimator import (
    EstimatorConfig,
    bound_curve,
    collect_threshold,
    default_sample_size,
    estimate_entropy_rate,
)
from .generate import (
    ChaoticMapConfig,
    chaotic_stream,
    iid_stream,
    normalize_text,
)
from .lz78 import lz78_curve, lz78_entropy_estimate
from .pfsa import load_pfsa, simulate
from .streams import Alphabet, SymbolStream, build_count_table
from .sync import (
    candidate_length,
    collect_derivatives,
    hull_vertex_words,
    select_sync_string,
)


@dataclass(frozen=True)
class RunManifest:
    """Everything that determined a run's output."""

    subcommand: str
    config: dict
    input_digest: str
    seed: int | None = None
    version: str = __version__

    def digest(self) -> str:
        blob = json.dumps(
            dataclasses.asdict(self), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def _tsv_lines(columns, rows, manifest: RunManifest) -> list[str]:
    lines = ["# columns: " + "\t".join(columns)]
    lines.append(f"# manifest: {manifest.digest()}")
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


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


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
    return Alphabet(tuple(lines))


def _number_list(text: str, flag: str) -> list[float]:
    """The numbers in a comma-separated flag value; empty entries are skipped."""
    try:
        values = [float(v) for v in text.split(",") if v]
    except ValueError:
        values = []
    if not values or not all(map(math.isfinite, values)):
        raise InvalidParameterError(f"{flag} needs finite numbers, got {text!r}")
    return values


def _load_stream(args) -> tuple[SymbolStream, str]:
    """Input file to stream, plus the raw file's digest."""
    path = args.input
    try:
        digest = _sha256_file(path)
    except FileNotFoundError:
        raise InvalidInputError(f"input file not found: {path}")
    if getattr(args, "text", False):
        with open(path, "rb") as fh:
            return normalize_text(fh.read()), digest
    raw = np.fromfile(path, dtype=np.uint8)
    raw.setflags(write=False)  # handed to the stream as is, not copied
    if args.alphabet_map:
        alphabet = _read_alphabet_map(args.alphabet_map)
    else:
        # two symbols at least, so an empty or all-zero file reads as binary
        top = int(raw.max(initial=1))
        alphabet = Alphabet(tuple(str(i) for i in range(top + 1)))
    return SymbolStream(raw, alphabet), digest


def _estimator_config(args) -> EstimatorConfig:
    return EstimatorConfig(
        epsilon=args.epsilon,
        alpha=args.alpha,
        sample_size=args.samples,
        max_extension_length=args.ext_max,
        min_count=args.nmin,
    )


def _word_label(alphabet: Alphabet, word, human: bool) -> str:
    if not word:
        return "<empty>" if human else ""
    return alphabet.word_label(word)


def _resolved_estimate_config(args, k: int) -> dict:
    cfg = _estimator_config(args)
    return {
        "epsilon": cfg.epsilon,
        "alpha": cfg.alpha,
        "samples": cfg.resolved_sample_size(k),
        "ext_max": cfg.resolved_extension_length(k),
        "nmin": cfg.min_count,
        "method": getattr(args, "method", "paper"),
        "search_length": args.search_length,
        "collect_min": args.collect_min,
        "text": bool(args.text),
    }


def cmd_estimate(args) -> int:
    stream, input_digest = _load_stream(args)
    k = stream.alphabet.size
    manifest = RunManifest(
        subcommand="estimate",
        config=_resolved_estimate_config(args, k),
        input_digest=input_digest,
    )
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
        if args.tsv:
            row = [h, None, None, None, None, None, None, len(stream)]
            _emit(_tsv_lines(columns, [row], manifest), args.out)
        else:
            print(f"entropy rate   {h:.6f} bits/symbol (lz78 baseline)")
            print(f"stream         {len(stream)} symbols")
        return 0
    cfg = _estimator_config(args)
    report = estimate_entropy_rate(
        stream,
        cfg,
        collect_min_count=args.collect_min,
        search_length=args.search_length,
    )
    if args.tsv:
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
        _emit(_tsv_lines(columns, [row], manifest), args.out)
    else:
        flag = " (vacuous)" if report.vacuous else ""
        print(f"entropy rate   {report.entropy_rate:.6f} bits/symbol")
        print(f"bound          {report.bound:.6f}{flag} at alpha {report.alpha:g}")
        print(f"tolerance      {report.epsilon_star:.6f}")
        word = _word_label(stream.alphabet, report.sync_word, human=True)
        print(f"sync word      {word} (frequency {report.sync_frequency:.6f})")
        print(
            f"samples        {report.samples_used} used, "
            f"{report.samples_discarded} discarded"
        )
        print(f"words          {report.cluster_count}")
        print(f"stream         {report.stream_length} symbols")
    return 0


def cmd_sync(args) -> int:
    stream, input_digest = _load_stream(args)
    k = stream.alphabet.size
    length = (
        args.search_length
        if args.search_length is not None
        else candidate_length(args.epsilon, k)
    )
    min_count = (
        args.collect_min
        if args.collect_min is not None
        else collect_threshold(len(stream), EstimatorConfig.min_count)
    )
    table = build_count_table(stream, length)
    derivs = collect_derivatives(table, length, min_count)
    vertices = hull_vertex_words(derivs)
    result = select_sync_string(derivs, vertices)
    manifest = RunManifest(
        subcommand="sync",
        config={
            "epsilon": args.epsilon,
            "search_length": length,
            "collect_min": min_count,
            "text": bool(args.text),
        },
        input_digest=input_digest,
    )
    if args.tsv:
        columns = ["string", "count"] + [f"p_{c}" for c in stream.alphabet.labels]
        rows = []
        for word, (dist, cnt) in derivs.entries.items():
            rows.append(
                [_word_label(stream.alphabet, word, human=False), cnt]
                + [float(v) for v in dist]
            )
        _emit(_tsv_lines(columns, rows, manifest), args.out)
        summary = sys.stderr
    else:
        summary = sys.stdout
    word = _word_label(stream.alphabet, result.word, human=True)
    print(f"sync word      {word}", file=summary)
    print(f"frequency      {result.frequency:.6f}", file=summary)
    print(f"hull vertices  {len(vertices)}", file=summary)
    return 0


def cmd_bounds(args) -> int:
    alphas = _number_list(args.alpha_list, "--alpha")
    lengths = [int(n) for n in _number_list(args.lengths, "--lengths")]
    k = args.alphabet_size
    samples = args.samples if args.samples is not None else default_sample_size(k)
    manifest = RunManifest(
        subcommand="bounds",
        config={
            "alphabet_size": k,
            "alphas": alphas,
            "samples": samples,
            "p0": args.p0,
            "lengths": lengths,
        },
        input_digest="",
    )
    curves = [bound_curve(k, a, samples, args.p0, lengths) for a in alphas]
    columns = ["length"] + [f"E_alpha{a:g}" for a in alphas]
    rows = []
    for i, n in enumerate(lengths):
        rows.append([n] + [curves[j][i][1] for j in range(len(alphas))])
    _emit(_tsv_lines(columns, rows, manifest), args.out)
    return 0


def cmd_benchmark(args) -> int:
    stream, input_digest = _load_stream(args)
    marks = [int(n) for n in _number_list(args.checkpoints, "--checkpoints")]
    k = stream.alphabet.size
    manifest = RunManifest(
        subcommand="benchmark",
        config=dict(
            _resolved_estimate_config(args, k), checkpoints=marks, method="both"
        ),
        input_digest=input_digest,
    )
    cfg = _estimator_config(args)
    lz_rows = dict(lz78_curve(stream, marks))
    rows = []
    for n in marks:
        prefix = stream.prefix(n)
        try:
            report = estimate_entropy_rate(
                prefix,
                cfg,
                collect_min_count=args.collect_min,
                search_length=args.search_length,
            )
            h_main, e_main = report.entropy_rate, report.bound
        except EstimationError:
            h_main, e_main = None, None
        rows.append([n, h_main, e_main, lz_rows[n]])
    _emit(_tsv_lines(["length", "h_main", "E_main", "h_lz"], rows, manifest), args.out)
    return 0


def cmd_generate(args) -> int:
    if args.source == "pfsa":
        if not args.model:
            raise InvalidParameterError("--source pfsa needs --model")
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
            raise InvalidParameterError("--source text needs --input")
        try:
            with open(args.input, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            raise InvalidInputError(f"input file not found: {args.input}")
        stream = normalize_text(raw)
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


def _add_input_flags(p):
    p.add_argument("--input", required=True, help="raw symbol file, one byte per symbol")
    p.add_argument("--alphabet-map", default=None, help="sidecar file, one label per line")
    p.add_argument("--text", action="store_true", help="treat input as text and fold to 27 symbols")


def _add_estimator_flags(p):
    p.add_argument("--epsilon", type=float, default=0.05, help="derivative tolerance")
    p.add_argument("--alpha", type=float, default=0.95, help="confidence level")
    p.add_argument("--samples", type=int, default=None, help="extension count N the bound's sampling term assumes")
    p.add_argument("--ext-max", type=int, default=None, help="longest extension")
    p.add_argument("--nmin", type=int, default=EstimatorConfig.min_count, help="extension count floor")
    p.add_argument("--search-length", type=int, default=None, help="sync search depth")
    p.add_argument("--collect-min", type=int, default=None, help="sync phase count floor")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="syncrate", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"syncrate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="entropy rate of a symbol stream", parents=[])
    _add_input_flags(p)
    _add_estimator_flags(p)
    p.add_argument("--method", choices=("paper", "lz78"), default="paper")
    p.add_argument("--tsv", action="store_true", help="machine-readable single line")
    p.add_argument("--out", default=None, help="write output here instead of stdout")
    p.set_defaults(run=cmd_estimate)

    p = sub.add_parser("sync", help="locate the synchronizing word")
    _add_input_flags(p)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--search-length", type=int, default=None)
    p.add_argument("--collect-min", type=int, default=None)
    p.add_argument("--tsv", action="store_true", help="dump the derivative table as TSV")
    p.add_argument("--out", default=None)
    p.set_defaults(run=cmd_sync)

    p = sub.add_parser("bounds", help="uncertainty bound against stream length")
    p.add_argument("--alphabet-size", type=int, required=True)
    p.add_argument("--alpha", dest="alpha_list", default="0.95", help="comma-separated levels")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--p0", type=float, default=None, help="sync word frequency term")
    p.add_argument("--lengths", required=True, help="comma-separated stream lengths")
    p.add_argument("--out", default=None)
    p.set_defaults(run=cmd_bounds)

    p = sub.add_parser("benchmark", help="both estimators over stream prefixes")
    _add_input_flags(p)
    _add_estimator_flags(p)
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
    p.add_argument("--x0", type=float, default=0.1)
    p.add_argument("--burn-in", type=int, default=10_000)
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
    except (EstimationError, OSError) as exc:
        print(f"syncrate: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
