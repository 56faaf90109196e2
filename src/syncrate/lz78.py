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
``L``, and the longest match at a phrase start is found in two steps:
whole strides, then the symbols short of the next one.

The phrases are stored as a multibit trie with a stride T (Srinivasan
and Varghese 1999): only phrases whose length is a multiple of T are
nodes, and T follows from the alphabet size k as the largest stride
whose words of 1 to T - 1 symbols number at most 256 (T = 8 for k = 2,
5 for k = 3, 4 for k = 4, 2 from k = 16 on).  Each window of the stream
is first turned into the code of the T symbols at every position, the
first symbol the most significant base-k digit, by NumPy in a few
doubling passes (``streams._block_codes``).  The codes are held as bytes
when k**T <= 256 and as uint16 otherwise.  A node is a number, and its
child along the next T symbols is the dict entry keyed by that number
shifted left past the codes' bits, or'ed with their code.  By prefix
closure the nodes on the match are exactly the multiples of T up to the
match length, so a walk from the root, one int-keyed lookup per T
symbols, stops at the deepest one.

The match then ends fewer than T symbols past that node.  A node's mask
has one bit for each word of 1 to T - 1 symbols that extends it to a
phrase.  A table cached per k gives, for the code at the node's end, the
path of its first T - 1 symbols, the bits of their nonempty prefixes,
and each of those bits alone.  Again by prefix closure the rest of the
match is ``(mask & path).bit_count()``.  The new phrase is the next
prefix along the path, whose bit the table gives, or a new node when it
is T symbols long.

The stream is read one window at a time, ``_WINDOW`` symbols plus room
for the longest phrase a match can make, (levels + 1) * T symbols for
nodes of up to levels * T, so the parse holds no copy of the stream.
Offsets inside a window are local, and each phrase end is the window's
stream offset plus its local end.  A code at any of the window's last
T - 1 positions reads the symbols past the window's end, or the
stream's, as 0, and the walk stops at the first position past the
window.  The padding cannot change a phrase: a node or mask bit whose
word reaches into it has the window's remaining symbols as a prefix,
which by prefix closure is then a phrase, as is each shorter one.  So a
match that reads padding runs to exactly the window's end, and one that
does not read it reads only stream symbols.  A match that reaches the
window's end stops before it changes anything.  The next window starts
at the stopped phrase and holds more symbols than any phrase can span,
so the phrase completes there unless the stream ends first, which leaves
it the unfinished tail.

A node costs about 144 bytes on the binary chaos stream at 1e7 symbols,
where its 195k phrases take 22k nodes: a dict slot of about 60, its key
and its child's number as two 28-byte ints, a list slot and a mask int
of about 20 on average.  That is about 16 bytes a phrase, against about
130 for a set holding every phrase's bytes.  ``lz78_curve`` keeps no
phrase end: it counts each window's ends below every checkpoint, and
there it peaks at 4.0 MB under ``tracemalloc``, against 5.9 MB when the
parse stored every end.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
from functools import cache

import numpy as np

from .errors import InvalidInputError
from .streams import SymbolStream, _block_codes, check_size

__all__ = [
    "parse_lz78",
    "lz78_entropy_estimate",
    "lz78_curve",
]

# stream symbols the parse reads at a time, beside room for its longest phrase
_WINDOW = 1 << 16


@cache
def _stride(k: int) -> tuple[int, list[tuple[int, ...]]]:
    """Stride T over k symbols, and for every word of T symbols, by its code,
    the path of its first T - 1 symbols followed by the bit of each of their
    prefixes of 1 to T - 1 symbols.

    T is the largest stride whose words of 1 to T - 1 symbols number at
    most 256.  Those words are numbered shortest first, so along any word
    its prefixes' numbers rise; a word's path sets the bit of each of its
    nonempty prefixes.  A code reads its first symbol as the most
    significant digit in base k, as ``streams._block_codes`` builds it.
    """
    stride, count = 1, 0
    while count + k**stride <= 256:
        count += k**stride
        stride += 1
    words, first = [(0,)], 0  # path and prefix bits of the words of j symbols
    for j in range(1, stride):
        longer = []
        for c in range(k**j):
            bit = 1 << first + c
            path, *prefixes = words[c // k]
            longer.append((path | bit, *prefixes, bit))
        words = longer
        first += k**j
    return stride, [words[c // k] for c in range(k**stride)]


def _window_codes(s: np.ndarray, k: int, stride: int):
    """Code of the T symbols at each position of the window ``s``, reading
    every symbol past its end as 0: bytes when k**T <= 256, else uint16."""
    m = len(s)
    dtype = np.uint8 if k**stride <= 256 else np.uint16
    padded = np.zeros(m + stride - 1, dtype=np.uint8)
    padded[:m] = s
    codes = _block_codes(padded, 0, m, stride, k, np.empty((2, m + stride - 1), dtype))
    return codes.tobytes() if dtype is np.uint8 else memoryview(codes)


def _phrase_ends(data: np.ndarray, k: int) -> Iterator[np.ndarray]:
    """End offsets of the complete phrases of ``data``, a stream over k
    symbols, as one ascending int64 array per window read.

    With ``ends`` the arrays joined, phrase i (1-based) is
    ``data[ends[i-2]:ends[i-1]]``, and symbols past ``ends[-1]`` form the
    unfinished tail.
    """
    n = len(data)
    stride, paths = _stride(k)
    reach = stride - 1
    bits = (k**stride - 1).bit_length()
    # a node is its number shifted left by bits, and its child along the
    # next T symbols is keyed node | their code
    children: dict[int, int] = {}
    masks = [0]  # node number -> the bits of its 1 to T - 1 symbol extensions
    levels = 0  # T-multiples in the longest node
    base = 0  # stream offset of the window
    while True:
        # room for a whole phrase past _WINDOW: the longest takes
        # levels + 1 strides, so every window completes at least one
        s = data[base : base + _WINDOW + (levels + 1) * stride]
        m = len(s)
        codes = _window_codes(s, k, stride)
        ends = array("q")  # 8 bytes a phrase end, not a 28-byte int and a slot
        pos = 0
        while pos < m:
            # the deepest node from pos, one dict lookup per T symbols
            node, at = 0, pos
            while at < m:
                child = children.get(node | codes[at])
                if child is None:
                    break
                node = child
                at += stride
            if at >= m:
                break  # the nodes run to the window's end: read on
            # the phrases among the next T - 1 symbols' prefixes; past the
            # window they read as 0, and a match reaching them reaches m
            mask = masks[node >> bits]
            path = paths[codes[at]]
            step = (mask & path[0]).bit_count()
            end = at + step + 1
            if end > m:
                break  # the match runs to the window's end: read on
            if step < reach:
                # the new phrase is the shortest prefix not yet a phrase
                masks[node >> bits] = mask | path[step + 1]
            else:
                # all T - 1 are phrases, so the new phrase is a node
                children[node | codes[at]] = len(masks) << bits
                masks.append(0)
                if at - pos == levels * stride:
                    levels += 1
            pos = end
            ends.append(pos)
        yield np.frombuffer(ends, dtype=np.int64) + base
        if base + m == n:
            break  # any rest repeats a phrase: it is the unfinished tail
        base += pos


def _parse(data: np.ndarray, k: int) -> np.ndarray:
    """End offsets of the complete phrases of ``data``, a stream over k
    symbols, in one array (see ``_phrase_ends``)."""
    return np.concatenate([np.empty(0, dtype=np.int64), *_phrase_ends(data, k)])


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
    offsets below m, summed over the parse's windows as they come so that
    no end is kept, plus the one phrase, complete or not, that holds the
    m-th symbol.
    """
    checkpoints = list(checkpoints)  # read twice below, so a generator works too
    for m in checkpoints:
        check_size(m, "checkpoint (capped by the stream length)", 1, len(stream))
    marks = [int(m) for m in checkpoints]
    if any(b <= a for a, b in zip(marks, marks[1:])):
        raise InvalidInputError("checkpoints must be strictly ascending")
    before = np.zeros(len(marks), dtype=np.int64)
    data = stream.data[: marks[-1] if marks else 0]
    for ends in _phrase_ends(data, stream.alphabet.size):
        before += np.searchsorted(ends, marks, side="left")
    rows: list[tuple[int, float]] = []
    for m, done in zip(marks, before):
        c = int(done) + 1
        rows.append((m, float(c * np.log2(c) / m)))
    return rows
