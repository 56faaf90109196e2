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
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, InvalidParameterError
from .streams import CountTable, SymbolStream, build_count_table, entropy
from .sync import SyncResult, candidate_length, find_sync_string

_BOUNDARY_TOL = 1e-9
_GRID_POINTS = 200


def default_sample_size(alphabet_size: int) -> int:
    """Default extension count N for the bound: 1e7 * log2(k)^2.

    It targets the regime where the sampling penalty in the bound is
    negligible.
    """
    if alphabet_size < 2:
        raise InvalidParameterError("alphabet must have at least two symbols")
    return round(1e7 * math.log2(alphabet_size) ** 2)


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs for the estimator.

    Phase II weighs extensions exactly, so ``sample_size`` draws nothing: it
    is the extension count N that the bound's sampling term assumes, and
    defaults to ``default_sample_size``.  ``max_extension_length`` defaults
    per alphabet size so that the pool of extensions stays around a few
    hundred words.  ``seed`` no longer affects any result.
    """

    epsilon: float
    alpha: float = 0.95
    sample_size: int | None = None
    max_extension_length: int | None = None
    min_count: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise InvalidParameterError(
                f"epsilon must lie in (0, 1), got {self.epsilon}"
            )
        if not 0.0 < self.alpha < 1.0:
            raise InvalidParameterError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.sample_size is not None and self.sample_size < 1:
            raise InvalidParameterError("sample_size must be at least 1")
        if self.max_extension_length is not None and self.max_extension_length < 0:
            raise InvalidParameterError("max_extension_length must be non-negative")
        if self.min_count < 0:
            raise InvalidParameterError("min_count must be non-negative")

    def resolved_sample_size(self, alphabet_size: int) -> int:
        if self.sample_size is not None:
            return self.sample_size
        return default_sample_size(alphabet_size)

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
    if not 0.0 <= eps <= 1.0:
        raise InvalidParameterError(f"eps must lie in [0, 1], got {eps}")
    if alphabet_size < 2:
        raise InvalidParameterError("alphabet must have at least two symbols")
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

    ``samples_used`` is max(1, round(N * W)) for the configured sample size
    N and the total weight W of the extensions whose count cleared
    ``min_count``: the expected number of useful draws among N random
    extensions.  ``samples_discarded`` is N minus that, and
    ``cluster_count`` the number of words x0·w that cleared ``min_count``,
    each a term of the weighted mean.
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
    sample_count: int,
    sync_frequency: float | None = None,
):
    """Smallest deviation tolerance the stream supports at confidence alpha.

    Returns ``(epsilon_star, bound, vacuous)``.  Three failure modes eat into
    the 1 - alpha risk budget: finite-stream derivative noise, finite
    sampling of extensions, and never meeting the synchronizing word.  Each
    penalty falls monotonically in the tolerance, so the feasible tolerances
    form a right-open interval.  Its lower edge is found by a scan of 200
    geometric grid points in [1e-6, 1 - 1e-6], then bisection between 0 and
    the first feasible one down to width 1e-9.  When even tolerance 1 is
    infeasible the bound degrades to log2(k), flagged vacuous.  A bound
    above log2(k) says nothing an entropy rate in [0, log2(k)] does not, so
    it is also reported as log2(k), flagged vacuous, with the solved
    tolerance kept.
    """
    if alphabet_size < 2:
        raise InvalidParameterError("alphabet must have at least two symbols")
    if stream_length < 1 or sample_count < 1:
        raise InvalidParameterError("stream_length and sample_count must be positive")
    if not 0.0 < alpha < 1.0:
        raise InvalidParameterError(f"alpha must lie in (0, 1), got {alpha}")
    if sync_frequency is not None and not 0.0 < sync_frequency <= 1.0:
        raise InvalidParameterError("sync_frequency must lie in (0, 1]")

    c0 = (8.0 / math.e + 8.0 / math.e**2) * (alphabet_size - 1)
    c1 = 2.0 / math.log2(alphabet_size) ** 2
    budget = 1.0 - alpha

    def penalty(eps: float) -> float:
        total = c0 * (1.0 + eps * eps) / (stream_length * eps**3)
        total += 2.0 * math.exp(-c1 * sample_count * eps * eps)
        if sync_frequency is not None:
            total += math.exp(-eps * sync_frequency * stream_length)
        return total

    lo_edge, hi_edge = 1e-6, 1.0 - 1e-6
    grid = np.geomspace(lo_edge, hi_edge, _GRID_POINTS)
    feasible_at = None
    for g in grid:
        if penalty(float(g)) <= budget:
            feasible_at = float(g)
            break
    if feasible_at is None:
        return 1.0, math.log2(alphabet_size), True
    lo = 0.0
    hi = feasible_at
    while hi - lo > _BOUNDARY_TOL:
        mid = 0.5 * (lo + hi)
        if penalty(mid) <= budget:
            hi = mid
        else:
            lo = mid
    eps_star = hi
    # the tolerance budget splits between two entropy comparisons, each off
    # by at most the worst-case entropy gap at half the tolerance
    bound = eps_star + 2.0 * gen_binary_entropy(eps_star / 2.0, alphabet_size)
    if bound > math.log2(alphabet_size):
        return eps_star, math.log2(alphabet_size), True
    return eps_star, bound, False


def bound_curve(
    alphabet_size: int,
    alpha: float,
    sample_count: int,
    sync_frequency: float | None,
    lengths,
) -> list:
    """Uncertainty bound per stream length, as (length, bound) rows."""
    lengths = [int(n) for n in lengths]
    if not lengths or any(n < 1 for n in lengths):
        raise InvalidParameterError("lengths must be positive")
    if lengths != sorted(lengths):
        raise InvalidParameterError("lengths must be ascending")
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
    k^-l / (ext_max + 1); only words x0·w seen more than ``min_count`` times
    contribute.  One ``CountTable.walk`` from x0, through ``table.rooted(x0)``,
    gives each length's words and successor rows and misses no word; each
    length's row entropies are summed in one call.
    """
    k = stream.alphabet.size
    ext_max = cfg.resolved_extension_length(k)
    weighted_h = mass = 0.0
    words = 0
    walk = table.walk(sync.word, cfg.min_count + 1, len(sync.word) + ext_max)
    for length, _codes, _counts, succ in walk:
        # a word at the stream end has one successor fewer than occurrences
        totals = succ.sum(axis=1, keepdims=True)
        keep = totals[:, 0] > cfg.min_count
        dists = succ[keep] / totals[keep]
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
    n_samples = cfg.resolved_sample_size(k)
    samples_used = max(1, round(n_samples * mass))
    eps_star, bound, vacuous = solve_uncertainty(
        len(stream),
        k,
        cfg.alpha,
        samples_used,
        sync.frequency,
    )
    return EstimateReport(
        entropy_rate=h,
        bound=bound,
        alpha=cfg.alpha,
        epsilon_star=eps_star,
        sync_word=sync.word,
        sync_frequency=sync.frequency,
        samples_used=samples_used,
        samples_discarded=n_samples - samples_used,
        stream_length=len(stream),
        cluster_count=words,
        vacuous=vacuous,
    )


def collect_threshold(stream_length: int, min_count: int) -> int:
    """Count floor for the synchronization phase.

    Scales as the stream length to the two-thirds power: hull vertices are
    extreme points, and keeping only words whose derivative noise shrinks
    faster than the hull geometry stops sampling outliers from posing as
    vertices on long streams.
    """
    return max(min_count, math.ceil(stream_length ** (2.0 / 3.0)))


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

    The counts come in one of two shapes, with the same report either way.
    When the deepest words, of length search + ext_max + 1, have at most as
    many possible codes as the stream has positions, one table of that depth
    serves both phases.  When they have more, most deep windows are distinct
    and Phase II reads only those behind x0, so Phase I gets a table of depth
    search + 1 and Phase II a table rooted at x0 (``build_count_table`` with
    ``root``).  On a 4.5e6-symbol order-1 Markov stream over 27 symbols,
    where x0 starts 7% of the windows, that cut the counting from about
    0.22 s to 0.04 s (shallow 0.014 s, rooted 0.027 s).  On 1e6 binary
    symbols at the defaults (2^14 codes), where x0 = 00000 starts 37% of
    the windows, the split measured 25-35% slower, so that stream keeps one
    table.  The split tables are shallower than the
    single one, so a stream whose single table would exceed the int64 code
    range or the entry cap can still get an estimate.
    """
    k = stream.alphabet.size
    if search_length is None:
        search_length = candidate_length(cfg.epsilon, k)
    ext_max = cfg.resolved_extension_length(k)
    if collect_min_count is None:
        collect_min_count = collect_threshold(len(stream), cfg.min_count)
    if k ** (search_length + ext_max + 1) > len(stream):
        shallow = build_count_table(stream, search_length)
        sync = find_sync_string(shallow, search_length, collect_min_count)
        table = build_count_table(stream, len(sync.word) + ext_max, root=sync.word)
    else:
        table = build_count_table(stream, search_length + ext_max)
        sync = find_sync_string(table, search_length, collect_min_count)
    return estimate(stream, sync, cfg, table)
