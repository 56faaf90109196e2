"""Entropy rate estimation with an explicit uncertainty bound.

Phase II averages the entropies of the symbolic derivatives of x0·w, for
extension words w behind the synchronizing word x0.  An extension has a
uniform length l in 0..ext_max and uniform symbols, so each word w carries
the exact weight k^-l / (ext_max + 1).  The rate estimate is the weighted
mean over every stored word x0·w, so it depends on no word order and
involves no random draw.  Phase III inverts a finite-sample deviation
inequality to report how far the estimate can be from the truth at the
requested confidence level.
"""

import math
import sys
from dataclasses import dataclass

from .errors import InsufficientDataError, InvalidInputError
from .streams import (
    _CODE_BITS, MAX_ALPHABET_SIZE, CountTable, SymbolStream, build_count_table, check_array,
    check_real, check_size, entropy,
)
from .sync import SyncResult, candidate_length, collect_derivatives, find_sync_string


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs for the estimator.

    Phase II weighs extensions exactly and draws nothing, so the estimate
    reads neither ``sample_size`` nor ``seed``: both change no result.  They
    and ``resolved_sample_size`` stay only while the bench harness passes or
    calls them.  ``max_extension_length`` defaults per alphabet size so that
    the pool of extensions stays around a few hundred words.
    """

    epsilon: float
    alpha: float = 0.95
    sample_size: int | None = None
    max_extension_length: int | None = None
    min_count: int = 10
    seed: int = 0

    def __post_init__(self):
        check_real(self.epsilon, "epsilon", 0, 1)
        check_real(self.alpha, "alpha", 0, 1)
        if self.sample_size is not None:
            check_size(self.sample_size, "sample_size", 1)
        if self.max_extension_length is not None:
            check_size(self.max_extension_length, "max_extension_length", 0, _CODE_BITS - 1)
        check_size(self.min_count, "min_count")

    def resolved_sample_size(self, alphabet_size: int) -> int:
        """``sample_size``, else 1e7 * log2(k)^2, the size at which the
        sampling penalty of ``solve_uncertainty`` is negligible."""
        check_size(alphabet_size, "alphabet_size", 2, MAX_ALPHABET_SIZE)
        if self.sample_size is not None:
            return self.sample_size
        return round(1e7 * math.log2(alphabet_size) ** 2)

    def resolved_extension_length(self, alphabet_size: int) -> int:
        if self.max_extension_length is not None:
            return self.max_extension_length
        return max(3, round(8 / math.log2(alphabet_size)))


def gen_binary_entropy(eps: float, alphabet_size: int) -> float:
    """Largest entropy gap between two distributions at ∞-distance eps.

    The worst pair puts one distribution on a corner of the simplex and
    moves eps of its mass onto the remaining symbols.  On two symbols this
    reduces to the binary entropy of eps, symmetric about one half; on
    wider alphabets the gap keeps growing until eps reaches the distance
    from a corner to the uniform distribution, where it tops out at the
    full log2 of the alphabet size.
    """
    check_real(eps, "eps", 0, 1, "[]")
    check_size(alphabet_size, "alphabet_size", 2, MAX_ALPHABET_SIZE)
    if eps == 0.0:
        return 0.0
    if eps == 1.0:
        return math.log2(alphabet_size - 1)
    return eps * math.log2((alphabet_size - 1) / eps) + (1.0 - eps) * math.log2(
        1.0 / (1.0 - eps)
    )


@dataclass(frozen=True)
class EstimateReport:
    """Estimate plus everything needed to audit it.

    ``cluster_count`` is the number of contributing words x0·w, those
    followed by a symbol more than ``min_count`` times, each a term of the
    weighted mean.  Phase II draws no extension, so ``samples_used`` mirrors
    ``cluster_count`` and ``samples_discarded`` is 0; both stay only because
    the bench harness reads them, and go when it stops.
    """

    entropy_rate: float
    bound: float
    alpha: float
    epsilon_star: float
    sync_word: tuple
    sync_frequency: float
    samples_used: int
    samples_discarded: int
    stream_length: int
    cluster_count: int
    vacuous: bool


def solve_uncertainty(
    stream_length: int,
    alphabet_size: int,
    alpha: float,
    sample_count: int | None,
    sync_frequency: float | None = None,
):
    """Smallest deviation tolerance the stream supports at confidence alpha.

    Returns ``(epsilon_star, bound, vacuous)``.  Three failure modes eat into
    the 1 - alpha risk budget: finite-stream derivative noise, finite
    sampling of extensions, and never meeting the synchronizing word.  The
    first always applies, the second when ``sample_count`` gives the number
    of extensions a sampled Phase II drew, and the third when
    ``sync_frequency`` is given.  Each penalty falls monotonically in the
    tolerance, so the feasible tolerances in (0, 1] form an interval that
    ends at 1.  One bisection on (0, 1] halves until no float lies between
    its ends, and ``epsilon_star`` is the least feasible tolerance, exact to
    the float: its penalty fits the budget and the next float down's does
    not.  A bound above log2(k) says nothing an entropy rate in [0, log2(k)]
    does not, so it is reported as log2(k), flagged vacuous, with the solved
    tolerance kept; when no tolerance fits, the bisection ends at 1, whose
    bound 3 + log2(k - 1) always exceeds log2(k).
    """
    check_size(alphabet_size, "alphabet_size", 2, MAX_ALPHABET_SIZE)
    check_size(stream_length, "stream_length", 1, sys.float_info.max)
    if sample_count is not None:
        check_size(sample_count, "sample_count", 1, sys.float_info.max)
    check_real(alpha, "alpha", 0, 1)
    if sync_frequency is not None:
        check_real(sync_frequency, "sync_frequency", 0, 1, "(]")

    log2k = math.log2(alphabet_size)
    c0 = (8.0 / math.e + 8.0 / math.e**2) * (alphabet_size - 1)
    c1 = 2.0 / log2k**2
    budget = 1.0 - alpha

    def penalty(eps: float) -> float:
        total = c0 * (1.0 + eps * eps) / (stream_length * eps**3)
        if sample_count is not None:
            total += 2.0 * math.exp(-c1 * sample_count * eps * eps)
        if sync_frequency is not None:
            total += math.exp(-eps * sync_frequency * stream_length)
        return total

    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if penalty(mid) <= budget:
            hi = mid
        else:
            lo = mid
    # the tolerance budget splits between two entropy comparisons, each off
    # by at most the worst-case entropy gap at half the tolerance
    bound = hi + 2.0 * gen_binary_entropy(hi / 2.0, alphabet_size)
    return hi, min(bound, log2k), bound > log2k


def bound_curve(
    alphabet_size: int,
    alpha: float,
    sample_count: int | None,
    sync_frequency: float | None,
    lengths,
) -> list:
    """Uncertainty bound per stream length, as (length, bound) rows."""
    try:
        lengths = [int(n) for n in check_array(list(lengths), "lengths")]
    except InvalidInputError:  # strings, ragged rows, ints too long for repr
        raise
    except (TypeError, ValueError, OverflowError):  # None, nan, inf
        raise InvalidInputError(f"lengths must be finite numbers, got {lengths!r}") from None
    if not lengths or any(n < 1 for n in lengths):
        raise InvalidInputError("lengths must be positive")
    if any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise InvalidInputError("lengths must be strictly ascending")
    rows = []
    for n in lengths:
        _eps, bound, _vac = solve_uncertainty(
            n, alphabet_size, alpha, sample_count, sync_frequency
        )
        rows.append((n, bound))
    return rows


def estimate(
    stream: SymbolStream,
    sync: SyncResult,
    cfg: EstimatorConfig,
    table: CountTable,
) -> EstimateReport:
    """Weighted mean of the derivative entropies behind the synchronizing word.

    Every extension w of length l <= ext_max counts at its exact weight
    k^-l / (ext_max + 1).  One ``CountTable.walk`` from x0 at floor
    ``min_count + 1`` gives each length's contributing words x0·w, those
    followed by a symbol more than ``min_count`` times, with their successor
    rows, and misses no word; each length's row entropies are summed in one
    call.  Nothing is drawn, so the bound carries no sampling term and
    ``cfg.sample_size`` is never read.
    """
    k = stream.alphabet.size
    ext_max = cfg.resolved_extension_length(k)
    weighted_h = mass = 0.0
    words = 0
    walk = table.walk(sync.word, cfg.min_count + 1, len(sync.word) + ext_max)
    for length, _codes, _counts, succ in walk:
        dists = succ / succ.sum(axis=1, keepdims=True)
        weight = 1.0 / ((ext_max + 1) * k ** (length - len(sync.word)))
        weighted_h += weight * entropy(dists).sum()
        mass += weight * len(dists)
        words += len(dists)
    if words == 0:
        raise InsufficientDataError(
            f"every extension fell below {cfg.min_count} occurrences "
            f"(extension lengths up to {ext_max}); provide a longer stream or "
            "lower min_count"
        )
    h = float(weighted_h / mass)
    eps_star, bound, vacuous = solve_uncertainty(
        len(stream),
        k,
        cfg.alpha,
        None,
        sync.frequency,
    )
    return EstimateReport(
        entropy_rate=h,
        bound=bound,
        alpha=cfg.alpha,
        epsilon_star=eps_star,
        sync_word=sync.word,
        sync_frequency=sync.frequency,
        samples_used=words,
        samples_discarded=0,
        stream_length=len(stream),
        cluster_count=words,
        vacuous=vacuous,
    )


def collect_threshold(stream_length: int, min_count: int) -> int:
    """Count floor for the synchronization phase: a word's derivative enters
    the search when a symbol followed the word at least this many times.

    Scales as the stream length to the two-thirds power: hull vertices are
    extreme points, and keeping only words whose derivative noise shrinks
    faster than the hull geometry stops sampling outliers from posing as
    vertices on long streams.
    """
    return max(min_count, math.ceil(stream_length ** (2.0 / 3.0)))


def locate_sync_word(
    stream: SymbolStream,
    epsilon: float,
    min_count: int,
    search_length: int | None = None,
    collect_min_count: int | None = None,
    depth: int = 0,
):
    """Phase I from a stream: returns ``(derivs, sync, table)``, where
    ``table`` covers x0 followed by words of up to ``depth`` symbols.

    The search depth and count floor are the values given, else
    ``candidate_length`` and ``collect_threshold``; ``epsilon`` is read only
    when no search length is given.  The counts come in one of two shapes,
    with the same report either way.  When the deepest words, of length
    search + depth + 1, have at most as many possible codes as the stream
    has positions, one table of that depth serves both phases.  When they
    have more, most deep windows are distinct and Phase II reads only those
    behind x0, so Phase I gets a table of depth search + 1 and, unless that
    table already reaches len(x0) + depth, Phase II a table rooted at x0
    (``build_count_table`` with ``root``).  Counting and both phases, on the
    benchmark workloads (seeds 1-3, median of 5, 2 vCPUs): on 4.5e6 order-1
    Markov symbols over 27, where x0 starts 7% of the windows, the split
    took 0.066-0.072 s against 0.25-0.28 s for one table; on 1e7
    quadratic-map symbols with ext_max 5 (2^11 deep codes), one table took
    0.030-0.039 s against 0.057-0.059 s, and the chaos-curve bench job
    peaked at 88 MB resident either way (seeds 11-13, one run each).  The
    split tables are shallower than the single one, with fewer possible
    codes, so a stream whose single table would exceed the int64 code range
    or ``streams.MAX_TABLE_ENTRIES`` can still get an estimate.
    """
    k = stream.alphabet.size
    search = candidate_length(epsilon, k) if search_length is None else search_length
    # no count table covers a deeper search; refused before it reaches an exponent
    check_size(search, "search_length", 0, _CODE_BITS - 1)
    if collect_min_count is None:
        collect_min_count = collect_threshold(len(stream), min_count)
    split = k ** (search + depth + 1) > len(stream)
    table = build_count_table(stream, search if split else search + depth)
    derivs = collect_derivatives(table, search, collect_min_count)
    sync = find_sync_string(derivs)
    if table.max_len < len(sync.word) + depth:
        table = build_count_table(stream, len(sync.word) + depth, root=sync.word)
    return derivs, sync, table


def estimate_entropy_rate(
    stream: SymbolStream,
    cfg: EstimatorConfig,
    collect_min_count: int | None = None,
    search_length: int | None = None,
) -> EstimateReport:
    """Full pipeline: count, locate the synchronizing word, estimate.

    ``search_length`` caps the synchronizing-word search depth; by default it
    follows the tolerance via candidate_length.  Sources known to synchronize
    on short words profit from an explicit small value: every candidate then
    has a large occurrence count, which stabilizes both the hull and the
    extension statistics.
    """
    ext_max = cfg.resolved_extension_length(stream.alphabet.size)
    _derivs, sync, table = locate_sync_word(
        stream, cfg.epsilon, cfg.min_count, search_length, collect_min_count, ext_max
    )
    return estimate(stream, sync, cfg, table)
