"""Lempel-Ziv 1978 parsing and the phrase-count entropy estimate.

The incremental parse cuts a stream into phrases, each one a
previously seen phrase extended by a single fresh symbol.  Distinct
phrases accumulate slowly on compressible input, so the normalized
phrase count ``c * log2(c) / n`` works as a model-free entropy-rate
estimate.  It converges slowly, which is exactly what makes it a
useful baseline for the derivative-based estimator.

The parse works one phrase at a time rather than one symbol at a time,
and it keeps only where each phrase ends: the estimate needs the phrase
count alone.  The complete phrases are prefix-closed: every prefix of a
phrase is itself a phrase, because each phrase is an earlier one plus a
symbol.  So whether ``s[pos:pos+L]`` is a known phrase is monotone in
``L``, and a binary search over ``L`` against a set of phrase bytes finds
the longest match at each phrase start exactly, in O(log) lookups per
phrase, over match lengths up to that of the longest phrase so far.
"""

from __future__ import annotations

from array import array

import numpy as np

from .errors import InvalidInputError
from .streams import SymbolStream, check_size

__all__ = [
    "parse_lz78",
    "lz78_entropy_estimate",
    "lz78_curve",
]


def _parse(data: np.ndarray) -> np.ndarray:
    """End offsets of the complete phrases of ``data``.

    Phrase i (1-based) is ``data[ends[i-2]:ends[i-1]]``.  Symbols past
    ``ends[-1]`` form the unfinished tail.
    """
    s = data.tobytes()
    n = len(s)
    seen = {b""}
    ends = array("q")  # 8 bytes a phrase end, not a 28-byte int and a slot
    longest = 0  # length of the longest complete phrase
    pos = 0
    while pos < n:
        # find the longest phrase s[pos:lo], keeping s[pos:lo] a phrase and
        # s[pos:hi + 1] not one (a plain comparison, not min(): this loop
        # runs once per phrase)
        lo, hi = pos, pos + longest
        if hi > n:
            hi = n
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if s[pos:mid] in seen:
                lo = mid
            else:
                hi = mid - 1
        if lo == n:
            break  # the rest repeats a phrase: it is the unfinished tail
        if lo - pos == longest:
            longest += 1
        seen.add(s[pos : lo + 1])
        pos = lo + 1
        ends.append(pos)
    return np.frombuffer(ends, dtype=np.int64)


def parse_lz78(stream: SymbolStream) -> list[tuple[int, ...]]:
    """Phrases of the incremental parse of the whole stream, in order.

    Each phrase is a tuple of symbol indices.  The complete phrases are
    pairwise distinct; an unfinished tail, if the stream ends inside a
    phrase, comes last and repeats an earlier phrase.  The phrases
    concatenate to the stream, and an empty stream gives no phrase.
    """
    symbols = stream.data.tolist()
    cuts = [0, *_parse(stream.data).tolist(), len(symbols)]
    return [tuple(symbols[a:b]) for a, b in zip(cuts, cuts[1:]) if a < b]


def lz78_entropy_estimate(stream: SymbolStream) -> float:
    """Phrase-count entropy estimate, in bits per symbol.

    Returns ``c * log2(c) / n`` for phrase count ``c`` over ``n``
    symbols.  A single-phrase parse gives exactly zero.
    """
    if len(stream) == 0:
        raise InvalidInputError("entropy estimate needs at least one symbol")
    return lz78_curve(stream, [len(stream)])[0][1]


def lz78_curve(
    stream: SymbolStream, checkpoints: list[int]
) -> list[tuple[int, float]]:
    """Estimate over stream prefixes, from one parse.

    ``checkpoints`` must be ascending integer lengths within the stream, in
    any iterable.  Each row is ``(length, estimate)`` where the
    estimate counts phrases of the prefix, including a partial one in
    progress.  The parse runs over the stream up to the last checkpoint
    only; because the incremental parse of a prefix is the prefix of the
    parse, the phrase count at a checkpoint m is the number of phrase end
    offsets below m, found by one binary search, plus the one phrase,
    complete or not, that holds the m-th symbol.
    """
    checkpoints = list(checkpoints)  # read twice below, so a generator works too
    for m in checkpoints:
        check_size(m, "checkpoint (capped by the stream length)", 1, len(stream))
    marks = [int(m) for m in checkpoints]
    if any(b <= a for a, b in zip(marks, marks[1:])):
        raise InvalidInputError("checkpoints must be strictly ascending")
    ends = _parse(stream.data[: marks[-1] if marks else 0])
    before = np.searchsorted(ends, marks, side="left")
    rows: list[tuple[int, float]] = []
    for m, done in zip(marks, before):
        c = int(done) + 1
        rows.append((m, float(c * np.log2(c) / m)))
    return rows
