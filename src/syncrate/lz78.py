"""Lempel-Ziv 1978 parsing and the phrase-count entropy estimate.

The incremental parse cuts a stream into phrases, each one a
previously seen phrase extended by a single fresh symbol.  Distinct
phrases accumulate slowly on compressible input, so the normalized
phrase count ``c * log2(c) / n`` works as a model-free entropy-rate
estimate.  It converges slowly, which is exactly what makes it a
useful baseline for the derivative-based estimator.

The parse works one phrase at a time rather than one symbol at a time.
The complete phrases are prefix-closed: every prefix of a phrase is
itself a phrase, because each phrase is an earlier one plus a symbol.
So whether ``s[pos:pos+L]`` is a known phrase is monotone in ``L``, and
a binary search over ``L`` against a dict of phrase bytes finds the
longest match at each phrase start exactly, in O(log) lookups per phrase.
Match lengths cluster, so the search first probes the previous match
length and one past it.  That matters most on short phrases: on 1e6
uniform symbols over 27 it averages 2.35 lookups per phrase, against
3 for bisection alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .streams import SymbolStream

__all__ = [
    "LzParse",
    "parse_lz78",
    "lz78_entropy_estimate",
    "lz78_curve",
]


@dataclass(frozen=True)
class LzParse:
    """Incremental parse of one stream.

    ``pairs[i]`` is the i-th complete phrase as ``(parent, symbol)``,
    where ``parent`` is a 1-based index into earlier phrases and 0
    stands for the empty phrase.  ``tail`` is the unfinished suffix
    left at the end of the stream; it always repeats some complete
    phrase, so the complete phrases alone are pairwise distinct.
    """

    pairs: tuple[tuple[int, int], ...]
    tail: tuple[int, ...]
    input_length: int

    @property
    def phrase_count(self) -> int:
        """Number of phrases, counting the unfinished one if present."""
        return len(self.pairs) + (1 if self.tail else 0)

    def phrases(self) -> list[tuple[int, ...]]:
        """All phrases as explicit symbol words, in parse order."""
        words: list[tuple[int, ...]] = [()]
        for parent, sym in self.pairs:
            words.append(words[parent] + (sym,))
        out = words[1:]
        if self.tail:
            out.append(self.tail)
        return out

    def reconstruct(self) -> tuple[int, ...]:
        """Concatenate the phrases back into the original symbols."""
        flat: list[int] = []
        for word in self.phrases():
            flat.extend(word)
        return tuple(flat)


def _parse(data: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """End offsets and parent indices of the complete phrases of ``data``.

    Phrase i (1-based) is ``data[ends[i-2]:ends[i-1]]`` and extends phrase
    ``parents[i-1]`` (0 for the empty phrase) by its last symbol.  Symbols
    past ``ends[-1]`` form the unfinished tail.
    """
    s = data.tobytes()
    n = len(s)
    index = {b"": 0}
    lookup = index.get
    ends: list[int] = []
    parents: list[int] = []
    longest = 0  # length of the longest complete phrase
    guess = 0  # match length at the previous phrase start
    pos = 0
    while pos < n:
        # find the longest phrase s[pos:lo], keeping s[pos:lo] a phrase and
        # s[pos:hi + 1] not one; match lengths cluster, so probe the previous
        # match length and one past it before bisecting (plain comparisons,
        # not min(): this loop runs once per phrase)
        lo, hi = pos, pos + longest
        if hi > n:
            hi = n
        parent = 0
        mid = pos + guess
        if mid > hi:
            mid = hi
        if mid > lo:
            found = lookup(s[pos:mid])
            if found is None:
                hi = mid - 1
            else:
                lo, parent = mid, found
                if mid < hi:
                    found = lookup(s[pos : mid + 1])
                    if found is None:
                        hi = mid
                    else:
                        lo, parent = mid + 1, found
        while lo < hi:
            mid = (lo + hi + 1) // 2
            found = lookup(s[pos:mid])
            if found is None:
                hi = mid - 1
            else:
                lo, parent = mid, found
        if lo == n:
            break  # the rest repeats a phrase: it is the unfinished tail
        parents.append(parent)
        guess = lo - pos
        index[s[pos : lo + 1]] = len(parents)
        pos = lo + 1
        ends.append(pos)
        if guess == longest:
            longest += 1
    return np.asarray(ends, dtype=np.int64), parents


def parse_lz78(stream: SymbolStream) -> LzParse:
    """Run the incremental parse over the whole stream."""
    data = stream.data
    ends, parents = _parse(data)
    last = int(ends[-1]) if ends.size else 0
    return LzParse(
        pairs=tuple(zip(parents, map(int, data[ends - 1]))),
        tail=tuple(map(int, data[last:])),
        input_length=len(stream),
    )


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

    ``checkpoints`` must be ascending lengths within the stream.  Each
    row is ``(length, estimate)`` where the estimate counts phrases of
    the prefix, including a partial one in progress.  The parse runs
    over the stream up to the last checkpoint only; because the
    incremental parse of a prefix is the prefix of the parse, the phrase
    count at a checkpoint m is the number of phrases ending before m,
    plus the one phrase, complete or not, that holds the m-th symbol.
    """
    if not checkpoints:
        return []
    marks = [int(m) for m in checkpoints]
    if any(b <= a for a, b in zip(marks, marks[1:])):
        raise InvalidInputError("checkpoints must be strictly ascending")
    if marks[0] < 1 or marks[-1] > len(stream):
        raise InvalidInputError(
            "checkpoints must lie between 1 and the stream length"
        )
    ends, _parents = _parse(stream.data[: marks[-1]])
    before = np.searchsorted(ends, marks, side="left")
    rows: list[tuple[int, float]] = []
    for m, done in zip(marks, before):
        c = int(done) + 1
        rows.append((m, float(c * np.log2(c) / m)))
    return rows
