"""Search for approximately synchronizing words.

A word synchronizes an observer when the next-symbol distribution after it no
longer depends on what came before it.  Good candidates show up as extreme
points of the cloud of symbolic derivatives: interior points are mixtures of
several hidden states, vertices are not.  The search tests the derivatives of
all frequent words, most frequent first, and picks the first hull vertex,
which over more than two symbols takes one nonnegative least-squares solve per
distinct derivative it tests, in NumPy alone.
"""

import functools
import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import EstimationError, InsufficientDataError, InvalidInputError
from .streams import MAX_ALPHABET_SIZE, Alphabet, CountTable, check_real, check_size

# word lengths grow logarithmically in 1/epsilon; the cap keeps the table
# build bounded when callers pass an extravagant tolerance
MAX_CANDIDATE_LENGTH = 12
_HULL_DECIMALS = 9
MAX_HULL_POINTS = 256
MAX_HULL_PRODUCT = 256 * 27  # distinct points times alphabet size
# a point farther than this from the others' cone is a vertex; HiGHS's default
# primal feasibility tolerance, so the verdicts agree with its linear program
_HULL_TOLERANCE = 1e-7
# the least-squares loop runs at most 3 iterations per other point, as scipy's
# ``nnls`` does by default
_NNLS_ITERATIONS = 3


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
    # vertex iff the point is not a convex mix of the others, that is iff
    # (p, 1) lies off the cone spanned by the others' (q, 1); its distance to
    # that cone by nonnegative least squares (Lawson and Hanson 1974, ch. 23)
    cone = np.delete(np.column_stack([points, np.ones(len(points))]), index, axis=0).T
    target = np.append(points[index], 1.0)
    rows, columns = cone.shape
    weights = np.zeros(columns)
    # all columns first when they are no more than the rows: when every weight
    # of that fit is nonnegative, as for a point well inside the others' hull,
    # one solve settles the test; otherwise the first step drops them all.  A
    # wider cone's fit is rarely nonnegative, so its search starts from none
    passive = np.full(columns, columns <= rows)
    refused = np.zeros(columns, dtype=bool)

    def solve():
        trial = np.zeros_like(weights)
        trial[passive] = np.linalg.lstsq(cone[:, passive], target, rcond=None)[0]
        return trial

    trial = solve()
    for _ in range(_NNLS_ITERATIONS * columns):
        while (trial < 0).any():
            # step towards the trial until a weight reaches zero, then drop it
            low = np.flatnonzero(trial < 0)
            steps = weights[low] / (weights[low] - trial[low])
            weights += steps.min() * (trial - weights)
            passive[low[np.argmin(steps)]] = False
            passive &= weights > 0
            trial = solve()
        weights = trial
        residual = target - cone @ weights
        if np.linalg.norm(residual) <= _HULL_TOLERANCE:
            return False
        gain = cone.T @ residual
        gain[passive | refused] = -np.inf
        best = int(np.argmax(gain))
        if gain[best] <= 0:
            return True  # the weights are optimal: the distance is the residual
        passive[best] = True
        trial = solve()
        if trial[best] <= 0:
            # a rounding-noise gain; skip the column until the residual moves
            passive[best], refused[best] = False, True
            trial = weights.copy()
        else:
            refused[:] = False
    raise EstimationError(
        f"hull vertex test did not converge in {_NNLS_ITERATIONS} iterations per point"
    )


def _vertex_test(derivs: DerivativeMap):
    """The vertex test of ``hull_vertex_words`` as a predicate on words,
    which tests each distinct point on first use only."""
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
    nonnegative least-squares solve per unique point, and one that does not
    converge in 3 iterations per other point raises EstimationError.  More
    than ``MAX_HULL_POINTS`` (256) points, or points times alphabet size
    above ``MAX_HULL_PRODUCT`` (6,912), raise InvalidInputError before
    anything is solved.  On 2 vCPUs, random Dirichlet clouds at the caps,
    all vertices or half of them interior, took 0.08-0.12 s for 256 points
    over 8 symbols, 0.15-0.30 s for 256 over 27 and 0.02-0.04 s for 27 over
    256.
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
    point behind it is tested.
    """
    ranked = sorted(derivs.entries, key=_selection_key(derivs))
    first = islice(filter(_vertex_test(derivs), ranked), 1)
    return select_sync_string(derivs, list(first))
