"""Search for approximately synchronizing words.

A word synchronizes an observer when the next-symbol distribution after it no
longer depends on what came before it.  Good candidates show up as extreme
points of the cloud of symbolic derivatives: interior points are mixtures of
several hidden states, vertices are not.  The search tests the derivatives of
all frequent words, most frequent first, and picks the first hull vertex; its
first linear program (none for binary streams) imports ``scipy.optimize``.
"""

import functools
import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import InsufficientDataError, InvalidInputError
from .streams import MAX_ALPHABET_SIZE, Alphabet, CountTable, check_real, check_size

# word lengths grow logarithmically in 1/epsilon; the cap keeps the table
# build bounded when callers pass an extravagant tolerance
MAX_CANDIDATE_LENGTH = 12
_HULL_DECIMALS = 9
MAX_HULL_POINTS = 256
MAX_HULL_PRODUCT = 256 * 27  # distinct points times alphabet size


def candidate_length(epsilon: float, alphabet_size: int) -> int:
    """Longest word length the search needs to examine for tolerance epsilon."""
    check_real(epsilon, "epsilon", 0, 1)
    check_size(alphabet_size, "alphabet_size", 2, MAX_ALPHABET_SIZE)
    length = math.ceil(math.log(1.0 / epsilon) / math.log(alphabet_size))
    return min(max(length, 1), MAX_CANDIDATE_LENGTH)


class DerivativeMap:
    """Symbolic derivatives of every frequent word, keyed by word.

    ``entries`` maps a word tuple to ``(derivative, count)`` in deterministic
    order: by length, then lexicographically.
    """

    __slots__ = ("alphabet", "stream_length", "entries")

    def __init__(self, alphabet: Alphabet, stream_length: int, entries: dict):
        self.alphabet = alphabet
        self.stream_length = stream_length
        self.entries = entries

    def __len__(self):
        return len(self.entries)

    def __repr__(self):
        return f"DerivativeMap({len(self.entries)} words, stream_length={self.stream_length})"


def collect_derivatives(table: CountTable, max_len: int, min_count: int) -> DerivativeMap:
    """Derivatives of every word up to max_len that ``CountTable.walk`` from
    the empty word keeps at floor min_count.  Raises InsufficientDataError
    when nothing survives the floor.
    """
    entries: dict = {}
    for length, codes, counts, rows in table.walk((), min_count, max_len):
        dists = rows / rows.sum(axis=1, keepdims=True)
        for code, cnt, dist in zip(codes, counts, dists):
            entries[table.decode(int(code), length)] = (dist, int(cnt))
    if not entries:
        raise InsufficientDataError(
            f"no word of length <= {max_len} is followed by a symbol {min_count} times; "
            "lower the count threshold or provide a longer stream"
        )
    return DerivativeMap(table.alphabet, table.stream_length, entries)


def _is_vertex(points: np.ndarray, index: int) -> bool:
    from scipy.optimize import linprog  # loaded by the first program only
    # vertex iff the point cannot be written as a convex mix of the others
    others = np.delete(points, index, axis=0)
    target = points[index]
    a_eq = np.vstack([others.T, np.ones(others.shape[0])])
    b_eq = np.concatenate([target, [1.0]])
    res = linprog(
        np.zeros(others.shape[0]),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0.0, 1.0),
        method="highs",
    )
    return not res.success


def _vertex_test(derivs: DerivativeMap):
    """The vertex test of ``hull_vertex_words`` as a predicate on words,
    which solves each distinct point's linear program on first use only."""
    k = derivs.alphabet.size
    points = np.array([d for d, _ in derivs.entries.values()])
    uniq, group = np.unique(
        np.round(points, _HULL_DECIMALS), axis=0, return_inverse=True
    )
    if k == 2 or len(uniq) == 1:
        # unique rows come back sorted: the first coordinate's extremes are
        # the first and last rows
        extreme = (uniq[:, 0] == uniq[0, 0]) | (uniq[:, 0] == uniq[-1, 0])
        is_vertex = extreme.__getitem__
    elif len(uniq) > MAX_HULL_POINTS or len(uniq) * k > MAX_HULL_PRODUCT:
        raise InvalidInputError(
            f"hull test over {len(uniq)} distinct derivatives of {k} symbols "
            f"exceeds {MAX_HULL_POINTS} points or {MAX_HULL_PRODUCT} points "
            "times symbols; shorten the search or raise the count floor"
        )
    else:
        is_vertex = functools.cache(lambda g: _is_vertex(uniq, g))
    group_of = dict(zip(derivs.entries, group))
    return lambda word: is_vertex(group_of[word])


def hull_vertex_words(derivs: DerivativeMap) -> list:
    """Words whose derivatives lie at vertices of the derivative cloud, in
    ``derivs.entries`` order.

    Derivatives are deduplicated to 9 decimal places (``_HULL_DECIMALS``)
    first, so a cluster of words sharing one extreme point all come back.
    For binary alphabets the cloud lives on a segment and the vertex test
    reduces to min/max of the first coordinate; larger alphabets get a
    linear program per unique point.  More than ``MAX_HULL_POINTS`` (256)
    points, or points times alphabet size above ``MAX_HULL_PRODUCT``
    (6,912), raise InvalidInputError before any program is solved.  On
    2 vCPUs 256 points took 1.4 s over 8 symbols and 2.6-3.1 s over 27,
    512 points 4.3 s and 8.9 s; over 256 symbols the 27 points the
    product allows took 0.3 s, 64 points 1.8 s and 257 points 28 s, besides
    the one-off ``scipy.optimize`` import (about 0.5 s) of the first program.
    """
    return list(filter(_vertex_test(derivs), derivs.entries))


@dataclass(frozen=True)
class SyncResult:
    """Selected synchronizing word with its observed statistics.

    ``frequency`` is the occurrence frequency of the word in the stream.
    """

    word: tuple
    derivative: np.ndarray
    count: int
    frequency: float


def _selection_key(derivs: DerivativeMap):
    # most frequent first; ties break to the lexicographically least word
    return lambda word: (-derivs.entries[word][1], word)


def select_sync_string(derivs: DerivativeMap, vertex_words) -> SyncResult:
    """Most frequent vertex word; ties break to the lexicographically least."""
    if not vertex_words:
        raise InsufficientDataError("no synchronizing candidates to choose from")
    for word in vertex_words:
        if word not in derivs.entries:
            raise InvalidInputError(f"word {word} has no derivative to select")
    best = min(vertex_words, key=_selection_key(derivs))
    derivative, cnt = derivs.entries[best]
    return SyncResult(
        word=best,
        derivative=derivative,
        count=cnt,
        frequency=cnt / derivs.stream_length,
    )


def find_sync_string(derivs: DerivativeMap) -> SyncResult:
    """``select_sync_string``'s word among ``hull_vertex_words(derivs)``, for
    the ``DerivativeMap`` that ``collect_derivatives`` returns: words are
    tested in its order and the search stops at the first vertex, so no
    program is solved for points behind it.
    """
    ranked = sorted(derivs.entries, key=_selection_key(derivs))
    first = islice(filter(_vertex_test(derivs), ranked), 1)
    return select_sync_string(derivs, list(first))
