"""Exact-weight estimator, entropy-gap function, and the uncertainty solver."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from syncrate import (
    BINARY,
    Alphabet,
    EstimatorConfig,
    InsufficientDataError,
    InvalidInputError,
    Pfsa,
    SymbolStream,
    bound_curve,
    build_count_table,
    candidate_length,
    collect_derivatives,
    entropy,
    estimate_entropy_rate,
    find_sync_string,
    gen_binary_entropy,
    simulate,
    solve_uncertainty,
    two_state_nonsynchronizable,
    two_state_synchronizable,
)
from syncrate.estimator import collect_threshold, estimate


class TestGenBinaryEntropy:
    def test_frozen_values(self):
        assert gen_binary_entropy(0.0, 2) == 0.0
        assert gen_binary_entropy(1.0, 2) == 0.0
        assert gen_binary_entropy(1.0, 5) == 2.0
        assert gen_binary_entropy(0.5, 2) == pytest.approx(1.0, abs=1e-12)
        assert gen_binary_entropy(0.25, 2) == pytest.approx(
            0.8112781244591328, abs=1e-12
        )

    def test_binary_case_symmetric(self):
        for eps in np.linspace(0.0, 1.0, 41):
            assert gen_binary_entropy(float(eps), 2) == pytest.approx(
                gen_binary_entropy(float(1.0 - eps), 2), abs=1e-12
            )

    def test_peak_is_corner_to_uniform(self):
        # the widest possible gap is a zero-entropy corner against the
        # uniform distribution, which sit (k-1)/k apart
        for k in (2, 3, 27):
            assert gen_binary_entropy((k - 1) / k, k) == pytest.approx(
                math.log2(k), abs=1e-12
            )
            for eps in np.linspace(0.01, 0.99, 25):
                assert gen_binary_entropy(float(eps), k) <= math.log2(k) + 1e-12

    def test_grows_with_alphabet(self):
        vals = [gen_binary_entropy(0.3, k) for k in (2, 3, 5, 27)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_parameter_validation(self):
        with pytest.raises(InvalidInputError):
            gen_binary_entropy(-0.01, 2)
        with pytest.raises(InvalidInputError):
            gen_binary_entropy(1.01, 2)
        with pytest.raises(InvalidInputError):
            gen_binary_entropy(0.3, 1)

    def test_bounds_entropy_deviation_random_pairs(self):
        # the gap function must dominate |H(p) - H(q)| whenever the two
        # distributions sit within eps of each other coordinate-wise
        rng = np.random.default_rng(11)
        for k in (2, 3, 5):
            p = rng.dirichlet(np.ones(k), size=10_000)
            q = rng.dirichlet(np.ones(k), size=10_000)
            dist = np.abs(p - q).max(axis=1)
            for pi, qi, di in zip(p, q, dist):
                gap = abs(entropy(pi) - entropy(qi))
                assert gap <= gen_binary_entropy(float(di), k) + 1e-9

    def test_bound_is_tight_at_corner(self):
        # moving eps of mass off a point distribution achieves the bound
        for eps in (0.1, 0.25, 0.5):
            p = np.array([1.0, 0.0])
            q = np.array([1.0 - eps, eps])
            assert abs(entropy(p) - entropy(q)) == pytest.approx(
                gen_binary_entropy(eps, 2), abs=1e-12
            )


class TestEstimatorConfig:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            EstimatorConfig(epsilon=0.0)
        with pytest.raises(InvalidInputError):
            EstimatorConfig(epsilon=1.0)
        with pytest.raises(InvalidInputError):
            EstimatorConfig(epsilon=0.1, alpha=1.0)
        with pytest.raises(InvalidInputError):
            EstimatorConfig(epsilon=0.1, sample_size=0)
        with pytest.raises(InvalidInputError):
            EstimatorConfig(epsilon=0.1, max_extension_length=-1)
        stream = simulate(two_state_synchronizable(), 1_000, seed=0)
        with pytest.raises(InvalidInputError, match="non-negative integer"):
            estimate_entropy_rate(stream, EstimatorConfig(epsilon=0.1), search_length=2.5)
        with pytest.raises(InvalidInputError):
            EstimatorConfig(epsilon=0.1, min_count=-1)
        with pytest.raises(InvalidInputError, match="count floor"):
            estimate_entropy_rate(stream, EstimatorConfig(epsilon=0.1), collect_min_count=2.5)

    def test_resolved_defaults(self):
        cfg = EstimatorConfig(epsilon=0.1)
        assert cfg.resolved_sample_size(2) == 10_000_000
        assert cfg.resolved_sample_size(27) == round(1e7 * math.log2(27) ** 2)
        assert cfg.resolved_extension_length(2) == 8
        assert cfg.resolved_extension_length(4) == 4
        assert cfg.resolved_extension_length(27) == 3

    def test_explicit_values_win(self):
        cfg = EstimatorConfig(epsilon=0.1, sample_size=44, max_extension_length=2)
        assert cfg.resolved_sample_size(27) == 44
        assert cfg.resolved_extension_length(27) == 2

    def test_frozen(self):
        cfg = EstimatorConfig(epsilon=0.1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.epsilon = 0.2


def scan_solve(stream_length, alphabet_size, alpha, sample_count, sync_frequency=None):
    """solve_uncertainty with its grid searched point by point, for reference."""
    c0 = (8.0 / math.e + 8.0 / math.e**2) * (alphabet_size - 1)
    c1 = 2.0 / math.log2(alphabet_size) ** 2
    budget = 1.0 - alpha

    def penalty(eps):
        total = c0 * (1.0 + eps * eps) / (stream_length * eps**3)
        if sample_count is not None:
            total += 2.0 * math.exp(-c1 * sample_count * eps * eps)
        if sync_frequency is not None:
            total += math.exp(-eps * sync_frequency * stream_length)
        return total

    feasible_at = None
    for g in np.geomspace(1e-6, 1.0 - 1e-6, 200):
        if penalty(float(g)) <= budget:
            feasible_at = float(g)
            break
    if feasible_at is None:
        return 1.0, math.log2(alphabet_size), True
    lo, hi = 0.0, feasible_at
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if penalty(mid) <= budget:
            hi = mid
        else:
            lo = mid
    bound = hi + 2.0 * gen_binary_entropy(hi / 2.0, alphabet_size)
    if bound > math.log2(alphabet_size):
        return hi, math.log2(alphabet_size), True
    return hi, bound, False


class TestSolveUncertainty:
    def test_frozen_anchor_27_symbols(self):
        eps, bound, vac = solve_uncertainty(
            5_000_000, 27, 0.95, round(1e7 * math.log2(27) ** 2)
        )
        assert not vac
        assert eps == pytest.approx(0.07494968743143449, abs=1e-8)
        assert bound == pytest.approx(0.888430506585853, abs=1e-7)

    def test_frozen_anchor_binary(self):
        eps, bound, vac = solve_uncertainty(5_000_000, 2, 0.95, 10_000_000)
        assert not vac
        assert eps == pytest.approx(0.025257679160036087, abs=1e-8)
        assert bound == pytest.approx(0.22076931065228933, abs=1e-7)

    @pytest.mark.parametrize(
        "length,k,alpha,samples,p0",
        [
            (5_000_000, 2, 0.95, 10_000_000, None),
            (30_000, 2, 0.95, 100_000, 0.4),
            (2_000_000, 27, 0.9, 50_000_000, None),
            (5_000_000, 2, 0.95, None, None),
        ],
    )
    def test_matches_linear_scan(self, length, k, alpha, samples, p0):
        c0 = (8 / math.e + 8 / math.e**2) * (k - 1)
        c1 = 2 / math.log2(k) ** 2

        def penalty(e):
            t = c0 * (1 + e * e) / (length * e**3)
            if samples is not None:
                t += 2 * math.exp(-c1 * samples * e * e)
            if p0 is not None:
                t += math.exp(-e * p0 * length)
            return t

        scan = next(
            e for e in np.arange(1e-4, 1.0, 1e-4) if penalty(e) <= 1 - alpha
        )
        eps, _bound, vac = solve_uncertainty(length, k, alpha, samples, p0)
        assert not vac
        assert abs(eps - scan) <= 2e-4

    # the grid bisection brackets the root where the point-by-point scan did
    @settings(max_examples=1000, deadline=None)
    @given(
        length=st.integers(1, 10**10),
        k=st.sampled_from([2, 3, 8, 27, 256]),
        alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        samples=st.none() | st.integers(1, 10**9),
        p0=st.none() | st.floats(0.0, 1.0, exclude_min=True),
    )
    @example(length=100, k=2, alpha=0.95, samples=10, p0=None)  # infeasible at 1
    @example(length=5_000, k=2, alpha=0.95, samples=10**7, p0=1.0)  # above 1 bit
    def test_equals_grid_scan(self, length, k, alpha, samples, p0):
        assert solve_uncertainty(length, k, alpha, samples, p0) == scan_solve(
            length, k, alpha, samples, p0
        )

    def test_sits_on_the_feasibility_boundary(self):
        length, k, alpha, samples = 5_000_000, 2, 0.95, 10_000_000
        eps, _b, _v = solve_uncertainty(length, k, alpha, samples)
        c0 = (8 / math.e + 8 / math.e**2) * (k - 1)

        def penalty(e):
            return c0 * (1 + e * e) / (length * e**3) + 2 * math.exp(
                -2 * samples * e * e
            )

        assert penalty(eps) <= 0.05
        assert penalty(eps * 0.999) > 0.05

    def test_bound_shrinks_with_stream_length(self):
        bounds = [
            solve_uncertainty(n, 2, 0.95, 10_000_000)[1]
            for n in (10**6, 10**7, 10**8)
        ]
        assert bounds[0] > bounds[1] > bounds[2]

    def test_bound_shrinks_with_sample_count(self):
        small = solve_uncertainty(10**6, 2, 0.95, 2_000)[1]
        large = solve_uncertainty(10**6, 2, 0.95, 2_000_000)[1]
        assert large < small

    def test_bound_grows_with_confidence(self):
        lax = solve_uncertainty(10**6, 2, 0.9, 10**7)[1]
        strict = solve_uncertainty(10**6, 2, 0.99, 10**7)[1]
        assert strict > lax

    def test_bound_grows_with_alphabet(self):
        binary = solve_uncertainty(10**7, 2, 0.95, 10**8)[1]
        wide = solve_uncertainty(10**7, 27, 0.95, 10**8)[1]
        assert wide > binary

    def test_rare_sync_word_costs_accuracy(self):
        base = solve_uncertainty(10**6, 2, 0.95, 10**7)[1]
        common = solve_uncertainty(10**6, 2, 0.95, 10**7, sync_frequency=0.5)[1]
        rare = solve_uncertainty(10**6, 2, 0.95, 10**7, sync_frequency=1e-5)[1]
        assert common == pytest.approx(base, rel=1e-6)
        assert rare > common

    def test_short_stream_goes_vacuous(self):
        eps, bound, vac = solve_uncertainty(100, 2, 0.95, 10)
        assert vac
        assert eps == 1.0
        assert bound == 1.0

    def test_vacuous_bound_is_alphabet_entropy(self):
        _eps, bound, vac = solve_uncertainty(50, 27, 0.95, 10)
        assert vac
        assert bound == pytest.approx(math.log2(27), abs=1e-12)

    def test_bound_above_alphabet_entropy_is_capped(self):
        # tolerance 0.258 is feasible, but 0.258 + 2 h(0.129) exceeds 1 bit
        eps, bound, vac = solve_uncertainty(5_000, 2, 0.95, 10**7, 1.0)
        assert vac
        assert bound == 1.0
        assert 0.0 < eps < 1.0

    def test_parameter_validation(self):
        with pytest.raises(InvalidInputError):
            solve_uncertainty(0, 2, 0.95, 10)
        with pytest.raises(InvalidInputError):
            solve_uncertainty(10, 2, 0.95, 0)
        with pytest.raises(InvalidInputError):
            solve_uncertainty(10, 1, 0.95, 10)
        with pytest.raises(InvalidInputError):
            solve_uncertainty(10, 2, 1.0, 10)
        with pytest.raises(InvalidInputError):
            solve_uncertainty(10, 2, 0.95, 10, sync_frequency=0.0)
        with pytest.raises(InvalidInputError):
            solve_uncertainty(10, 2, 0.95, 10, sync_frequency=1.5)


class TestBoundCurve:
    def test_rows_match_single_solves(self):
        lengths = [10**5, 10**6, 10**7]
        rows = bound_curve(2, 0.95, 10**7, None, lengths)
        assert [r[0] for r in rows] == lengths
        for n, bound in rows:
            assert bound == solve_uncertainty(n, 2, 0.95, 10**7)[1]

    def test_monotone_decreasing(self):
        rows = bound_curve(2, 0.95, 10**7, None, list(np.geomspace(1e5, 1e9, 9)))
        bounds = [b for _n, b in rows]
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_confidence_orders_curves(self):
        lengths = [10**6, 10**7]
        lax = bound_curve(2, 0.95, 10**7, None, lengths)
        strict = bound_curve(2, 0.99, 10**7, None, lengths)
        assert all(s[1] > l[1] for s, l in zip(strict, lax))

    def test_decay_tracks_cube_root_over_log(self):
        # the bound should fall like log2(n) / n^(1/3) over a wide range
        lengths = np.geomspace(1e6, 1e9, 7)
        rows = bound_curve(2, 0.95, 10**7, None, list(lengths))
        shaped = np.array(
            [b * n ** (1 / 3) / math.log2(n) for n, b in rows]
        )
        spread = (shaped.max() - shaped.min()) / shaped.mean()
        assert spread < 0.15

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            bound_curve(2, 0.95, 10, None, [])
        with pytest.raises(InvalidInputError):
            bound_curve(2, 0.95, 10, None, [100, 50])
        with pytest.raises(InvalidInputError):
            bound_curve(2, 0.95, 10, None, [0, 50])
        for bad in (None, math.inf, math.nan, "x"):
            with pytest.raises(InvalidInputError, match="lengths"):
                bound_curve(2, 0.95, 10, None, [100, bad])


def reference_estimate(sync, cfg, table):
    """Exact-weight Phase II by brute force over every pool word.

    Returns (h, contributing word count).
    """
    k = table.alphabet.size
    ext_max = cfg.resolved_extension_length(k)
    weighted_h = mass = 0.0
    words = 0
    for ell in range(ext_max + 1):
        for word in itertools.product(range(k), repeat=ell):
            row = sync.word + word
            succ = table.successor_rows([table.encode(row)], len(row))[0]
            total = int(succ.sum())
            if total > cfg.min_count:
                w = 1.0 / ((ext_max + 1) * k**ell)
                weighted_h += w * entropy(succ / total)
                mass += w
                words += 1
    return weighted_h / mass, words


def three_symbol_machine():
    return Pfsa(
        Alphabet(("a", "b", "c")),
        [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
        [[0.7, 0.2, 0.1], [0.2, 0.3, 0.5], [0.1, 0.6, 0.3]],
    )


def markov27_machine():
    # symbol s leads to state s: an order-1 Markov source on 27 symbols
    rows = np.random.default_rng(0).dirichlet([0.3] * 27, size=27)
    delta = np.tile(np.arange(27), (27, 1))
    return Pfsa(Alphabet(tuple(str(i) for i in range(27))), delta, rows)


class TestEstimatePipeline:
    @pytest.mark.parametrize(
        "machine,search_length,collect_min,rooted",
        [
            (two_state_nonsynchronizable(), 5, 1500, False),
            (three_symbol_machine(), 2, 500, False),
            (three_symbol_machine(), 2, 500, True),
        ],
        ids=["binary", "three-symbol", "three-symbol-rooted"],
    )
    def test_enumeration_matches_reference(self, machine, search_length, collect_min, rooted):
        stream = simulate(machine, 20_000, seed=3)
        cfg = EstimatorConfig(
            epsilon=0.05, sample_size=500, max_extension_length=3, min_count=5
        )
        table = build_count_table(stream, search_length + 3)
        sync = find_sync_string(collect_derivatives(table, search_length, collect_min))
        if rooted:
            # only the windows behind x0 are counted
            table = build_count_table(stream, len(sync.word) + 3, root=sync.word)
        h, words = reference_estimate(sync, cfg, table)
        report = estimate(stream, sync, cfg, table)
        assert words > 1
        # the sums run in another order
        assert report.entropy_rate == pytest.approx(h, rel=1e-12)
        assert report.cluster_count == words
        assert report.samples_used == words
        assert report.samples_discarded == 0

    @pytest.mark.parametrize("seed", [3, 5])
    def test_symbol_relabelling_leaves_rate_unchanged(self, seed):
        stream = simulate(three_symbol_machine(), 20_000, seed=seed)
        cfg = EstimatorConfig(
            epsilon=0.05, sample_size=500, max_extension_length=3, min_count=5
        )
        base = estimate_entropy_rate(
            stream, cfg, collect_min_count=500, search_length=2
        )
        for perm in itertools.permutations(range(3)):
            if perm == (0, 1, 2):
                continue
            relabelled = SymbolStream(np.array(perm)[stream.data], stream.alphabet)
            report = estimate_entropy_rate(
                relabelled, cfg, collect_min_count=500, search_length=2
            )
            assert report.sync_word == tuple(perm[s] for s in base.sync_word)
            assert report.entropy_rate == pytest.approx(base.entropy_rate, rel=1e-12)

    @pytest.mark.parametrize(
        "machine",
        [two_state_nonsynchronizable(), three_symbol_machine(), markov27_machine()],
        ids=["binary", "three-symbol", "27-symbol"],
    )
    def test_public_chain_matches_pipeline(self, machine):
        # the pipeline rebuilt from its public steps, every table level read
        # before the search as a caller may do, gives the same report
        stream = simulate(machine, 60_000, seed=6)
        cfg = EstimatorConfig(epsilon=0.05, sample_size=20_000)
        k = stream.alphabet.size
        search = candidate_length(cfg.epsilon, k)
        table = build_count_table(stream, search + cfg.resolved_extension_length(k))
        for length in range(table.max_len + 2):
            table.level(length)
        floor = collect_threshold(len(stream), cfg.min_count)
        sync = find_sync_string(collect_derivatives(table, search, floor))
        report = estimate(stream, sync, cfg, table)
        assert report == estimate_entropy_rate(stream, cfg)
        assert report.cluster_count > 1

    def test_peak_memory_per_deepest_entry(self):
        # no level stays cached once read: the peak is about the one level
        # being derived, against 78 bytes per entry when every level was kept
        stream = simulate(markov27_machine(), 1_000_000, seed=1)
        cfg = EstimatorConfig(
            epsilon=0.05, sample_size=200_000, max_extension_length=8, min_count=10
        )
        floor = collect_threshold(len(stream), cfg.min_count)
        sync = find_sync_string(collect_derivatives(build_count_table(stream, 1), 1, floor))
        table = build_count_table(stream, len(sync.word) + 8, root=sync.word)
        entries = table.level(table.max_len + 1)[0].size
        tracemalloc.start()
        try:
            estimate(stream, sync, cfg, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert entries > 10_000
        assert peak / entries <= 48

    @pytest.mark.parametrize(
        "machine,n,search,ext_max,split",
        [
            (two_state_nonsynchronizable(), 4096, 5, 6, False),
            (two_state_nonsynchronizable(), 4095, 5, 6, True),
            (three_symbol_machine(), 729, 2, 3, False),
            (three_symbol_machine(), 728, 2, 3, True),
            (markov27_machine(), 60_000, 1, 0, False),
            (markov27_machine(), 60_000, 1, 3, True),
        ],
        ids=["binary-equal", "binary-split", "three-equal", "three-split",
             "27-one-table", "27-split"],
    )
    def test_split_counts_match_one_table_chain(
        self, monkeypatch, machine, n, search, ext_max, split
    ):
        # the deep words have k**(search + ext_max + 1) possible codes; the
        # pipeline splits its count only when that exceeds the stream length
        stream = simulate(machine, n, seed=4)
        cfg = EstimatorConfig(
            epsilon=0.05, sample_size=1_000, max_extension_length=ext_max, min_count=2
        )
        k = stream.alphabet.size
        assert (k ** (search + ext_max + 1) > n) == split
        table = build_count_table(stream, search + ext_max)
        sync = find_sync_string(collect_derivatives(table, search, 100))
        chain = estimate(stream, sync, cfg, table)
        assert chain.sync_word
        roots = []

        def spy(*args, root=(), **kwargs):
            roots.append(tuple(root))
            return build_count_table(*args, root=root, **kwargs)

        monkeypatch.setattr("syncrate.estimator.build_count_table", spy)
        report = estimate_entropy_rate(
            stream, cfg, collect_min_count=100, search_length=search
        )
        assert report == chain
        assert roots == ([(), chain.sync_word] if split else [()])

    def test_seed_does_not_change_report(self):
        stream = simulate(two_state_nonsynchronizable(), 20_000, seed=2)
        reports = [
            estimate_entropy_rate(
                stream,
                EstimatorConfig(
                    epsilon=0.05, sample_size=1_000, max_extension_length=3, seed=seed
                ),
                collect_min_count=300,
            )
            for seed in (0, 7)
        ]
        assert reports[0] == reports[1]

    def test_report_invariants(self):
        machine = two_state_synchronizable()
        stream = simulate(machine, 30_000, seed=0)
        cfg = EstimatorConfig(
            epsilon=0.05,
            sample_size=50_000,
            max_extension_length=4,
            min_count=200,
            seed=0,
        )
        report = estimate_entropy_rate(
            stream, cfg, collect_min_count=200, search_length=1
        )
        assert 0.0 <= report.entropy_rate <= 1.0
        assert report.samples_used == report.cluster_count
        assert report.samples_discarded == 0
        assert 0.0 < report.sync_frequency <= 1.0
        assert report.cluster_count >= 1
        assert 0.0 < report.epsilon_star <= 1.0
        assert report.stream_length == 30_000
        assert report.alpha == 0.95
        assert report.bound > 0.0

    def test_deterministic(self):
        machine = two_state_synchronizable()
        stream = simulate(machine, 20_000, seed=1)
        cfg = EstimatorConfig(
            epsilon=0.05, sample_size=10_000, max_extension_length=4, seed=0
        )
        a = estimate_entropy_rate(stream, cfg, collect_min_count=300)
        b = estimate_entropy_rate(stream, cfg, collect_min_count=300)
        assert a == b

    def test_constant_stream_rate_zero(self):
        # 5000 symbols support a tolerance near 0.26 only, whose bound
        # passes log2(2) = 1 bit, so the bound is capped and flagged vacuous
        stream = SymbolStream(np.zeros(5_000, dtype=np.int64), BINARY)
        for cfg in (
            EstimatorConfig(
                epsilon=0.3, sample_size=100, max_extension_length=2, min_count=5
            ),
            EstimatorConfig(epsilon=0.05),
        ):
            report = estimate_entropy_rate(stream, cfg)
            assert report.entropy_rate == 0.0
            assert report.vacuous
            assert report.bound == 1.0

    def test_iid_closed_form(self):
        rng = np.random.default_rng(2)
        stream = SymbolStream(
            (rng.random(100_000) < 0.3).astype(np.int64), BINARY
        )
        cfg = EstimatorConfig(
            epsilon=0.5, sample_size=256, max_extension_length=0, min_count=10
        )
        report = estimate_entropy_rate(stream, cfg)
        expected = entropy(np.array([0.7, 0.3]))
        assert report.entropy_rate == pytest.approx(expected, abs=0.02)

    def test_all_extensions_discarded(self):
        machine = two_state_synchronizable()
        stream = simulate(machine, 2_000, seed=0)
        cfg = EstimatorConfig(
            epsilon=0.1,
            sample_size=50,
            max_extension_length=4,
            min_count=100_000,
        )
        with pytest.raises(InsufficientDataError, match="below 100000"):
            estimate_entropy_rate(stream, cfg, collect_min_count=50)

    def test_count_table_must_cover_extensions(self):
        machine = two_state_synchronizable()
        stream = simulate(machine, 5_000, seed=0)
        table = build_count_table(stream, 3)
        sync = find_sync_string(collect_derivatives(table, 2, 500))
        cfg = EstimatorConfig(epsilon=0.1, sample_size=10, max_extension_length=6)
        with pytest.raises(InvalidInputError, match="covers words up to"):
            estimate(stream, sync, cfg, table)

    def test_solver_inputs_echoed_from_run(self):
        machine = two_state_synchronizable()
        stream = simulate(machine, 30_000, seed=4)
        cfg = EstimatorConfig(
            epsilon=0.05, sample_size=20_000, max_extension_length=4, min_count=200
        )
        report = estimate_entropy_rate(
            stream, cfg, collect_min_count=200, search_length=1
        )
        eps, bound, vac = solve_uncertainty(
            30_000, 2, 0.95, None, report.sync_frequency
        )
        assert report.epsilon_star == eps
        assert report.bound == bound
        assert report.vacuous == vac

    def test_sample_size_changes_no_report(self):
        # Phase II draws nothing, so no sample count reaches the bound: at
        # sample_size=1 a sampling term would make it vacuous
        stream = simulate(two_state_synchronizable(), 30_000, seed=4)
        reports = [
            estimate_entropy_rate(
                stream,
                EstimatorConfig(
                    epsilon=0.05, sample_size=n, max_extension_length=4, min_count=200
                ),
                collect_min_count=200,
                search_length=1,
            )
            for n in (1, None)
        ]
        assert reports[0] == reports[1]
        assert not reports[0].vacuous

    @given(st.integers(min_value=0, max_value=40))
    @settings(max_examples=12, deadline=None)
    def test_rate_stays_in_range_across_seeds(self, seed):
        machine = two_state_nonsynchronizable()
        stream = simulate(machine, 10_000, seed=seed)
        cfg = EstimatorConfig(
            epsilon=0.1, sample_size=2_000, max_extension_length=3, min_count=20
        )
        report = estimate_entropy_rate(stream, cfg, collect_min_count=400)
        assert 0.0 <= report.entropy_rate <= 1.0
