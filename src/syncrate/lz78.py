"""Lempel-Ziv 1978 parsing and the phrase-count entropy estimate.

The incremental parse cuts a stream into phrases, each one a
previously seen phrase extended by a single fresh symbol.  Distinct
phrases accumulate slowly on compressible input, so the normalized
phrase count ``c * log2(c) / n`` works as a model-free entropy-rate
estimate.  It converges slowly, which is exactly what makes it a
useful baseline for the derivative-based estimator.
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


def _word_of(pairs: list[tuple[int, int]], node: int) -> tuple[int, ...]:
    # Walk parent links from a phrase index back to the root.
    out: list[int] = []
    while node:
        parent, sym = pairs[node - 1]
        out.append(sym)
        node = parent
    return tuple(reversed(out))


def parse_lz78(stream: SymbolStream) -> LzParse:
    """Run the incremental parse over the whole stream."""
    symbols = stream.data.tolist()
    children: dict[tuple[int, int], int] = {}
    pairs: list[tuple[int, int]] = []
    node = 0
    for sym in symbols:
        key = (node, sym)
        nxt = children.get(key)
        if nxt is None:
            children[key] = len(pairs) + 1
            pairs.append(key)
            node = 0
        else:
            node = nxt
    return LzParse(
        pairs=tuple(pairs),
        tail=_word_of(pairs, node),
        input_length=len(symbols),
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
    """Estimate over stream prefixes, in one pass.

    ``checkpoints`` must be ascending lengths within the stream.  Each
    row is ``(length, estimate)`` where the estimate counts phrases of
    the prefix, including a partial one in progress.
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
    symbols = stream.data.tolist()
    children: dict[tuple[int, int], int] = {}
    complete = 0
    node = 0
    rows: list[tuple[int, float]] = []
    which = 0
    for pos, sym in enumerate(symbols, start=1):
        key = (node, sym)
        nxt = children.get(key)
        if nxt is None:
            complete += 1
            children[key] = complete
            node = 0
        else:
            node = nxt
        if which < len(marks) and pos == marks[which]:
            c = complete + (1 if node else 0)
            rows.append((pos, float(c * np.log2(c) / pos)))
            which += 1
            if which == len(marks):
                break
    return rows
