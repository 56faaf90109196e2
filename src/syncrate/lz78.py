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
``L``, and the longest match at a phrase start is found in two steps.

The phrases are stored as a multibit trie with a stride T (Srinivasan
and Varghese 1999): only phrases whose length is a multiple of T are
dict keys, called nodes, and T follows from the alphabet size k as the
largest stride whose words of 1 to T - 1 symbols number at most 256
(T = 8 for k = 2, 5 for k = 3, 4 for k = 4, 2 from k = 16 on).  By
prefix closure the nodes on the match are exactly the multiples of T up
to the match length, so a binary search over multiples of T finds the
deepest one in O(log) lookups, bounded by the deepest node so far.

The match then ends fewer than T symbols past that node.  A node's value
is a mask with one bit for each word of 1 to T - 1 symbols that extends
it to a phrase.  A table cached per k gives the next T - 1 symbols' path,
the bits of their nonempty prefixes, so again by prefix closure the
rest of the match is ``(mask & path).bit_count()``.  The new phrase is
the next prefix along the path: the lowest path bit the mask lacks,
since the words are numbered shortest first, or a new node when it is T
symbols long.

The stream is read as bytes one window at a time, ``_WINDOW`` symbols
plus room for the longest phrase a match can make, (levels + 1) * T
symbols for nodes of up to levels * T, so the parse holds no copy of the
stream.  Offsets inside a window are local, and each phrase end is stored
as the window's stream offset plus its local end.  The bisection's bound
is taken from the window's length, so no key runs past it.  A match that
reaches the window's end stops before it changes anything: by prefix
closure, every path that would read past the end is all phrases up to
it, so the match runs to exactly that end.  The next window starts at
the stopped phrase and holds more symbols than any phrase can span, so
the phrase completes there unless the stream ends first, which leaves it
the unfinished tail.

A node costs a dict slot, its key bytes and an int of up to 256 bits,
about 170 bytes on the binary chaos stream at 1e7 symbols, where its
195k phrases take 22k nodes: about 19 bytes a phrase, against about 130
for a set holding every phrase's bytes.  Each phrase end adds 8 bytes, and
``lz78_curve`` there peaks at 5.9 MB under ``tracemalloc``, against 15.9
MB when the parse read one copy of the whole stream.
"""

from __future__ import annotations

from array import array
from functools import cache

import numpy as np

from .errors import InvalidInputError
from .streams import SymbolStream, check_size

__all__ = [
    "parse_lz78",
    "lz78_entropy_estimate",
    "lz78_curve",
]

# stream symbols the parse reads at a time, beside room for its longest phrase
_WINDOW = 1 << 16


@cache
def _stride(k: int) -> tuple[int, dict[bytes, int]]:
    """Stride T over k symbols, and the path bits of every word of 0 to
    T - 1 symbols.

    T is the largest stride whose words of 1 to T - 1 symbols number at
    most 256.  Those words are numbered shortest first, so along any word
    its prefixes' numbers rise; a word's path sets the bit of each of its
    nonempty prefixes.
    """
    stride, count = 1, 0
    while count + k**stride <= 256:
        count += k**stride
        stride += 1
    paths = {b"": 0}
    level = [b""]
    for _ in range(stride - 1):
        level = [word + bytes((a,)) for word in level for a in range(k)]
        for word in level:
            paths[word] = paths[word[:-1]] | 1 << len(paths) - 1
    return stride, paths


def _parse(data: np.ndarray, k: int) -> np.ndarray:
    """End offsets of the complete phrases of ``data``, a stream over k
    symbols.

    Phrase i (1-based) is ``data[ends[i-2]:ends[i-1]]``.  Symbols past
    ``ends[-1]`` form the unfinished tail.
    """
    n = len(data)
    stride, paths = _stride(k)
    reach = stride - 1
    nodes = {b"": 0}  # phrase of a multiple of T symbols -> its mask
    ends = array("q")  # 8 bytes a phrase end, not a 28-byte int and a slot
    levels = 0  # T-multiples in the longest node
    base = 0  # stream offset of the window
    while True:
        # room for a whole phrase past _WINDOW: the longest takes
        # levels + 1 strides, so every window completes at least one
        s = data[base : base + _WINDOW + (levels + 1) * stride].tobytes()
        m = len(s)
        pos = 0
        while pos < m:
            # the deepest node s[pos:pos + lo * T] (a plain comparison, not
            # min(): this loop runs once per phrase)
            lo, hi = 0, (m - pos) // stride
            if hi > levels:
                hi = levels
            node = b""
            mask = nodes[node]
            while lo < hi:
                mid = (lo + hi + 1) >> 1
                key = s[pos : pos + mid * stride]
                hit = nodes.get(key)
                if hit is None:
                    hi = mid - 1
                else:
                    lo, node, mask = mid, key, hit
            # the phrases among the next T - 1 symbols' prefixes
            at = pos + lo * stride
            path = paths[s[at : at + reach]]
            known = mask & path
            at += known.bit_count()
            if at == m:
                break  # the match runs to the window's end: read on
            if known != path:
                # the new phrase is the shortest prefix not yet a phrase:
                # the lowest of its path bits that the mask lacks
                fresh = path ^ known
                nodes[node] = mask | fresh & -fresh
            else:
                # all T - 1 are phrases, so the new phrase is a node
                nodes[s[pos : at + 1]] = 0
                if lo == levels:
                    levels += 1
            pos = at + 1
            ends.append(base + pos)
        if base + m == n:
            break  # any rest repeats a phrase: it is the unfinished tail
        base += pos
    return np.frombuffer(ends, dtype=np.int64)


def parse_lz78(stream: SymbolStream) -> list[tuple[int, ...]]:
    """Phrases of the incremental parse of the whole stream, in order.

    Each phrase is a tuple of symbol indices.  The complete phrases are
    pairwise distinct; an unfinished tail, if the stream ends inside a
    phrase, comes last and repeats an earlier phrase.  The phrases
    concatenate to the stream, and an empty stream gives no phrase.
    """
    symbols = stream.data.tobytes()
    cuts = [0, *_parse(stream.data, stream.alphabet.size).tolist(), len(symbols)]
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
    ends = _parse(stream.data[: marks[-1] if marks else 0], stream.alphabet.size)
    before = np.searchsorted(ends, marks, side="left")
    rows: list[tuple[int, float]] = []
    for m, done in zip(marks, before):
        c = int(done) + 1
        rows.append((m, float(c * np.log2(c) / m)))
    return rows
