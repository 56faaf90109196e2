import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import syncrate.sync
from syncrate import (
    BINARY,
    Alphabet,
    EstimationError,
    EstimatorConfig,
    InsufficientDataError,
    InvalidInputError,
    SymbolStream,
    build_count_table,
    estimate_entropy_rate,
    evolve,
    simulate,
    stationary_distribution,
    two_state_nonsynchronizable,
    two_state_synchronizable,
)
from syncrate.sync import (
    MAX_HULL_POINTS,
    MAX_HULL_PRODUCT,
    DerivativeMap,
    _is_vertex,
    candidate_length,
    collect_derivatives,
    find_sync_string,
    hull_vertex_words,
    select_sync_string,
)
from syncrate.estimator import collect_threshold
from test_estimator import markov27_machine, three_symbol_machine
from test_streams import tables_to_build

ABC = Alphabet(("a", "b", "c"))


def make_map(alphabet, stream_length, items):
    entries = {w: (np.asarray(d, dtype=float), c) for w, d, c in items}
    return DerivativeMap(alphabet, stream_length, entries)


class TestCandidateLength:
    def test_frozen_values(self):
        assert candidate_length(0.01, 2) == 7
        assert candidate_length(0.5, 2) == 1
        assert candidate_length(0.01, 27) == 2

    def test_hard_cap(self):
        assert candidate_length(1e-6, 2) == 12

    def test_bad_epsilon(self):
        for eps in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(InvalidInputError):
                candidate_length(eps, 2)

    def test_bad_alphabet_size(self):
        with pytest.raises(InvalidInputError):
            candidate_length(0.1, 1)


class TestCollectDerivatives:
    def test_hand_stream(self):
        s = SymbolStream(BINARY.encode("0001"), BINARY)
        t = build_count_table(s, 2)
        derivs = collect_derivatives(t, 2, min_count=1)
        # words whose occurrences all touch the stream end have no derivative
        assert list(derivs.entries) == [(), (0,), (0, 0)]
        d_empty, c_empty = derivs.entries[()]
        np.testing.assert_allclose(d_empty, [0.75, 0.25])
        assert c_empty == 4
        d0, c0 = derivs.entries[(0,)]
        np.testing.assert_allclose(d0, [2 / 3, 1 / 3])
        assert c0 == 3

    def test_threshold_filters(self):
        s = SymbolStream(BINARY.encode("0001"), BINARY)
        t = build_count_table(s, 2)
        derivs = collect_derivatives(t, 2, min_count=3)
        assert list(derivs.entries) == [(), (0,)]

    def test_stream_end_occurrence_has_no_successor(self):
        # "00" occurs twice in 00100, but only once followed by a symbol
        s = SymbolStream(BINARY.encode("00100"), BINARY)
        t = build_count_table(s, 2)
        derivs = collect_derivatives(t, 2, min_count=2)
        assert (0, 0) not in derivs.entries
        assert list(derivs.entries) == [(), (0,)]

    def test_stream_shorter_than_threshold(self):
        s = SymbolStream(BINARY.encode("00100"), BINARY)
        t = build_count_table(s, 1)
        with pytest.raises(InsufficientDataError):
            collect_derivatives(t, 1, min_count=10)

    def test_table_coverage_checked(self):
        s = SymbolStream(BINARY.encode("0101010101"), BINARY)
        t = build_count_table(s, 1)
        with pytest.raises(InvalidInputError, match="covers"):
            collect_derivatives(t, 2, min_count=1)

    def test_fair_coin_derivatives_cluster(self):
        rng = np.random.default_rng(7)
        s = SymbolStream(rng.integers(0, 2, size=20_000), BINARY)
        t = build_count_table(s, 4)
        derivs = collect_derivatives(t, 3, min_count=500)
        for d, _count in derivs.entries.values():
            assert abs(d[0] - 0.5) < 0.06

    @given(st.lists(st.integers(0, 2), min_size=10, max_size=80))
    @settings(max_examples=60)
    def test_is_distribution(self, seq):
        t = build_count_table(SymbolStream(seq, ABC), 2)
        for d, _count in collect_derivatives(t, 2, min_count=1).entries.values():
            assert d.min() >= 0.0
            assert abs(d.sum() - 1.0) <= 1e-12


def per_level_entries(t, max_len, min_count):
    # reference: read every stored word's successors and keep the rows that
    # clear the floor
    entries = {}
    for length in range(max_len + 1):
        codes, counts = t.level(length)
        rows = t.successor_rows(codes, length)
        for code, cnt, row in zip(codes, counts, rows):
            if row.sum() >= max(min_count, 1):
                entries[t.decode(int(code), length)] = (row / row.sum(), int(cnt))
    if not entries:
        raise InsufficientDataError("nothing survives the floor")
    return entries


class TestWalkMatchesLevelFilters:
    @given(tables_to_build(), st.sampled_from([0, 1, 2, 5, "n + 1"]))
    @example((2, [], 3), 0)
    @example((3, [0, 1, 2, 0, 1], 0), 1)
    @example((27, [0, 0, 0, 0, 26], 2), 2)
    @settings(max_examples=300, deadline=None)
    def test_entries_match_per_level_reference(self, case, floor):
        k, seq, max_len = case
        floor = len(seq) + 1 if floor == "n + 1" else floor
        t = build_count_table(SymbolStream(seq, Alphabet(tuple(map(str, range(k))))), max_len)
        try:
            want = per_level_entries(t, max_len, floor)
        except InsufficientDataError:
            with pytest.raises(InsufficientDataError):
                collect_derivatives(t, max_len, floor)
            return
        got = collect_derivatives(t, max_len, floor).entries
        assert list(got) == list(want)
        for word, (row, cnt) in want.items():
            assert got[word][1] == cnt
            assert got[word][0].tobytes() == row.tobytes()

    def test_negative_floor_rejected(self):
        t = build_count_table(SymbolStream(BINARY.encode("0001"), BINARY), 2)
        with pytest.raises(InvalidInputError, match="count floor"):
            collect_derivatives(t, 2, -3)
        with pytest.raises(InvalidInputError, match="count floor"):
            collect_derivatives(t, 2, 2.5)
        with pytest.raises(InvalidInputError, match="depth"):
            collect_derivatives(t, 2.5, 1)


class TestHullVertexWords:
    def test_segment_extremes(self):
        derivs = make_map(
            BINARY,
            100,
            [((0,), (0.2, 0.8), 5), ((1,), (0.5, 0.5), 9), ((0, 1), (0.8, 0.2), 3)],
        )
        assert set(hull_vertex_words(derivs)) == {(0,), (0, 1)}

    def test_single_point(self):
        derivs = make_map(BINARY, 100, [((0,), (0.4, 0.6), 12)])
        assert hull_vertex_words(derivs) == [(0,)]

    @pytest.mark.parametrize(
        "alphabet, points, expected",
        [
            pytest.param(
                BINARY,
                {(0,): (0.8, 0.2), (1, 0): (0.8, 0.2), (1,): (0.5, 0.5), (0, 1): (0.2, 0.8)},
                {(0,), (1, 0), (0, 1)},
                id="binary",
            ),
            pytest.param(
                ABC,
                {
                    (0,): (1.0, 0.0, 0.0),
                    (1, 0): (1.0, 0.0, 0.0),
                    (1,): (0.0, 1.0, 0.0),
                    (2,): (0.0, 0.0, 1.0),
                    (0, 1): (1 / 3, 1 / 3, 1 / 3),
                    (1, 1): (1 / 3, 1 / 3, 1 / 3),
                },
                {(0,), (1, 0), (1,), (2,)},
                id="ternary-shared-vertex-and-interior",
            ),
            pytest.param(
                # 1e-11 apart: one point at 9 decimals, two without rounding
                BINARY,
                {
                    (0,): (0.8, 0.2),
                    (1, 0): (0.8 + 1e-11, 0.2 - 1e-11),
                    (1,): (0.5, 0.5),
                    (0, 1): (0.2, 0.8),
                },
                {(0,), (1, 0), (0, 1)},
                id="equal-after-rounding",
            ),
            pytest.param(
                # distinct rounded points sharing each extreme first coordinate
                BINARY,
                {
                    (0,): (0.8, 0.2),
                    (1, 0): (0.8, 0.2000001),
                    (1,): (0.5, 0.5),
                    (0, 1): (0.2, 0.8),
                    (1, 1): (0.2, 0.7999999),
                },
                {(0,), (1, 0), (0, 1), (1, 1)},
                id="binary-first-coordinate-ties",
            ),
        ],
    )
    def test_shared_extreme_point_keeps_all_words(self, alphabet, points, expected):
        derivs = make_map(alphabet, 100, [(w, d, 5) for w, d in points.items()])
        assert set(hull_vertex_words(derivs)) == expected

    def test_simplex_corners_exclude_centroid(self):
        third = 1 / 3
        derivs = make_map(
            ABC,
            100,
            [
                ((0,), (1.0, 0.0, 0.0), 5),
                ((1,), (0.0, 1.0, 0.0), 5),
                ((2,), (0.0, 0.0, 1.0), 5),
                ((0, 1), (third, third, third), 5),
            ],
        )
        assert set(hull_vertex_words(derivs)) == {(0,), (1,), (2,)}

    def test_edge_point_excluded(self):
        # fourth point sits on an edge of the triangle: representable, not a vertex
        derivs = make_map(
            ABC,
            100,
            [
                ((0,), (0.8, 0.1, 0.1), 5),
                ((1,), (0.1, 0.8, 0.1), 5),
                ((2,), (0.1, 0.1, 0.8), 5),
                ((0, 1), (0.45, 0.45, 0.1), 5),
            ],
        )
        assert set(hull_vertex_words(derivs)) == {(0,), (1,), (2,)}

    def test_point_cap_refuses_before_solving(self):
        # distinct points on one line of the simplex; nothing is solved
        items = []
        for i in range(MAX_HULL_POINTS + 1):
            word = tuple(int(c) for c in np.base_repr(i, 3).zfill(6))
            p = i / (2 * MAX_HULL_POINTS)
            items.append((word, (p, 0.5 - p, 0.5), 5))
        with pytest.raises(InvalidInputError, match="hull test"):
            hull_vertex_words(make_map(ABC, 100, items))

    def test_point_times_symbol_cap_refuses_before_solving(self):
        # 40 distinct points are far below the point cap, but over 256
        # symbols each solve is wide; none runs
        bytes256 = Alphabet(tuple(str(i) for i in range(256)))
        points = 40
        assert points <= MAX_HULL_POINTS and points * 256 > MAX_HULL_PRODUCT
        items = []
        for i in range(points):
            p = i / (2 * points)
            items.append(((i,), (p, 0.5 - p, 0.5) + (0.0,) * 253, 5))
        with pytest.raises(InvalidInputError, match="hull test"):
            hull_vertex_words(make_map(bytes256, 100, items))

    def test_vertices_subset_of_keys(self):
        s = simulate(two_state_synchronizable(), 20_000, seed=5)
        t = build_count_table(s, 4)
        derivs = collect_derivatives(t, 3, min_count=200)
        vertices = hull_vertex_words(derivs)
        assert set(vertices) <= set(derivs.entries)

    def test_everything_inside_vertex_span(self):
        # k=2: every derivative must lie between the two extreme coordinates
        s = simulate(two_state_nonsynchronizable(), 30_000, seed=9)
        t = build_count_table(s, 5)
        derivs = collect_derivatives(t, 4, min_count=300)
        vertices = hull_vertex_words(derivs)
        firsts = [derivs.entries[w][0][0] for w in vertices]
        lo, hi = min(firsts), max(firsts)
        for d, _count in derivs.entries.values():
            assert lo - 1e-6 <= d[0] <= hi + 1e-6


class TestSelectSyncString:
    def test_max_count_wins(self):
        derivs = make_map(
            BINARY,
            200,
            [((0,), (0.2, 0.8), 50), ((1,), (0.5, 0.5), 90), ((0, 1), (0.8, 0.2), 30)],
        )
        r = select_sync_string(derivs, [(0,), (0, 1)])
        assert r.word == (0,)
        assert r.count == 50
        assert r.frequency == pytest.approx(0.25)
        np.testing.assert_allclose(r.derivative, [0.2, 0.8])

    def test_tie_breaks_lexicographically(self):
        derivs = make_map(
            BINARY,
            200,
            [((1,), (0.2, 0.8), 70), ((0, 1), (0.8, 0.2), 70)],
        )
        r = select_sync_string(derivs, [(1,), (0, 1)])
        assert r.word == (0, 1)

    def test_empty_candidates(self):
        derivs = make_map(BINARY, 10, [((0,), (0.5, 0.5), 5)])
        with pytest.raises(InsufficientDataError):
            select_sync_string(derivs, [])

    def test_word_without_derivative(self):
        derivs = make_map(BINARY, 10, [((0,), (0.5, 0.5), 5)])
        with pytest.raises(InvalidInputError, match=r"\(1, 1, 1, 1\)"):
            select_sync_string(derivs, [(0,), (1, 1, 1, 1)])


class TestOnSimulatedStreams:
    def test_synchronizable_machine_finds_exact_synchronizer(self):
        p = two_state_synchronizable()
        s = simulate(p, 100_000, seed=0)
        t = build_count_table(s, 6)
        r = find_sync_string(collect_derivatives(t, 5, min_count=2155))
        rows = [np.array([0.85, 0.15]), np.array([0.25, 0.75])]
        dist = min(np.abs(r.derivative - row).max() for row in rows)
        assert dist < 0.02
        # this machine synchronizes exactly on the last symbol
        d = evolve(p, stationary_distribution(p), r.word)
        assert d.max() == 1.0

    def test_selection_deterministic(self):
        s = simulate(two_state_synchronizable(), 50_000, seed=3)
        t = build_count_table(s, 6)
        a = find_sync_string(collect_derivatives(t, 5, min_count=1000))
        b = find_sync_string(collect_derivatives(t, 5, min_count=1000))
        assert a.word == b.word and a.count == b.count

    def test_nonsynchronizable_machine_still_approximately_syncs(self):
        # no word pins the state exactly, but the chosen word comes close,
        # checked against the true machine over 20 independent streams
        p = two_state_nonsynchronizable()
        st = stationary_distribution(p)
        passes = 0
        for seed in range(20):
            s = simulate(p, 100_000, seed=seed)
            t = build_count_table(s, 6)
            r = find_sync_string(collect_derivatives(t, 5, min_count=2155))
            d = evolve(p, st, r.word)
            if 1.0 - d.max() <= 0.05:
                passes += 1
        assert passes >= 18


def iid_stream(k, n, seed):
    return SymbolStream(
        np.random.default_rng(seed).integers(0, k, n), Alphabet(range(k))
    )


# name: (stream, search length, count floor)
CLOUDS = {
    "binary": (lambda: simulate(two_state_nonsynchronizable(), 30_000, seed=9), 4, 300),
    "ternary-one-point": (lambda: SymbolStream(np.zeros(500, np.uint8), ABC), 2, 1),
    # every word ending in one symbol shares that symbol's successor point
    "ternary-shared-points": (lambda: SymbolStream(np.tile([0, 1, 2], 1000), ABC), 3, 10),
    "ternary": (lambda: simulate(three_symbol_machine(), 20_000, seed=1), 3, 20),
    # the empty word, most frequent, has the mean successor point: interior
    "iid-8": (lambda: iid_stream(8, 20_000, 1), 2, 10),
    "markov-27": (lambda: simulate(markov27_machine(), 100_000, seed=1), 1, 10),
    "iid-8-over-point-cap": (lambda: iid_stream(8, 200_000, 1), 3, 10),
    "markov-27-over-point-cap": (lambda: simulate(markov27_machine(), 100_000, seed=1), 2, 1),
}


@pytest.fixture
def solved(monkeypatch):
    """Indices of the points the vertex test solves for, in order."""
    indices = []
    inner = syncrate.sync._is_vertex

    def counted(points, index):
        indices.append(index)
        return inner(points, index)

    monkeypatch.setattr(syncrate.sync, "_is_vertex", counted)
    return indices


def pick(select):
    try:
        r = select()
    except InvalidInputError as exc:
        return "refused", str(exc)
    return r.word, r.derivative.tobytes(), r.count, r.frequency


def rounded_points(derivs):
    points = np.array([d for d, _ in derivs.entries.values()])
    return np.unique(np.round(points, 9), axis=0)


def distinct_points(derivs):
    return len(rounded_points(derivs))


class TestEarlyStop:
    @pytest.mark.parametrize("name", CLOUDS)
    def test_same_pick_as_full_hull(self, name):
        make, length, floor = CLOUDS[name]
        table = build_count_table(make(), length)
        derivs = collect_derivatives(table, length, floor)
        full = pick(lambda: select_sync_string(derivs, hull_vertex_words(derivs)))
        assert pick(lambda: find_sync_string(derivs)) == full
        assert (full[0] == "refused") == name.endswith("over-point-cap")

    @pytest.mark.parametrize("name", CLOUDS)
    def test_never_more_programs_than_points(self, name, solved):
        make, length, floor = CLOUDS[name]
        table = build_count_table(make(), length)
        derivs = collect_derivatives(table, length, floor)
        pick(lambda: find_sync_string(derivs))
        early = len(solved)
        pick(lambda: select_sync_string(derivs, hull_vertex_words(derivs)))
        # either caller solves each distinct point's program at most once
        assert len(set(solved[:early])) == early <= distinct_points(derivs)
        assert len(set(solved[early:])) == len(solved) - early
        if name == "iid-8":
            assert 1 < early < len(solved) - early

    def test_estimate_on_order_1_markov_27(self, solved):
        # long enough for every symbol to clear the floor: the empty word's
        # point, the stream's symbol frequencies, is then a mix of the 27
        # one-symbol points, and the most frequent of those is the pick
        stream = simulate(markov27_machine(), 1_000_000, seed=1)
        cfg = EstimatorConfig(
            epsilon=0.05, sample_size=1_000, max_extension_length=2, min_count=10
        )
        assert len(estimate_entropy_rate(stream, cfg).sync_word) == 1
        assert len(solved) == 2
        solved.clear()
        table = build_count_table(stream, 1)
        derivs = collect_derivatives(table, 1, collect_threshold(len(stream), 10))
        hull_vertex_words(derivs)
        assert len(solved) == distinct_points(derivs) == 28


def linprog_vertex(points, index):
    # the reference verdict: HiGHS finds no convex mix of the others that
    # reproduces the point
    from scipy.optimize import linprog

    others = np.delete(points, index, axis=0)
    res = linprog(
        np.zeros(len(others)),
        A_eq=np.vstack([others.T, np.ones(len(others))]),
        b_eq=np.append(points[index], 1.0),
        bounds=(0.0, 1.0),
        method="highs",
    )
    return not res.success


def cloud(seed, k, size):
    # distinct 9-decimal points of the simplex, as the hull test sees them
    points = np.random.default_rng(seed).dirichlet([0.5] * k, size)
    return np.unique(np.round(points, 9), axis=0)


class TestIsVertex:
    @pytest.mark.parametrize(
        "name", [name for name in CLOUDS if not name.endswith("over-point-cap")]
    )
    def test_matches_linear_program(self, name):
        make, length, floor = CLOUDS[name]
        derivs = collect_derivatives(build_count_table(make(), length), length, floor)
        points = rounded_points(derivs)
        if len(points) == 1:  # a lone point is a vertex, and nothing is solved
            assert hull_vertex_words(derivs) == list(derivs.entries)
            return
        verdicts = [_is_vertex(points, g) for g in range(len(points))]
        assert verdicts == [linprog_vertex(points, g) for g in range(len(points))]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(3, 27),
        size=st.integers(2, 59),
    )
    def test_mixture_of_others_is_never_a_vertex(self, seed, k, size):
        rng = np.random.default_rng(seed)
        points = cloud(seed, k, size)
        # every weight at least 0.01, so the mix sits inside the others' hull
        weights = 0.01 + (1 - 0.01 * len(points)) * rng.dirichlet([1.0] * len(points))
        mix = np.round(weights @ points, 9)
        index = int(rng.integers(len(points) + 1))
        assert not _is_vertex(np.insert(points, index, mix, axis=0), index)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(3, 27),
        size=st.integers(2, 60),
    )
    def test_unique_maximiser_of_a_functional_is_a_vertex(self, seed, k, size):
        points = cloud(seed, k, size)
        values = points @ np.random.default_rng(seed + 1).uniform(-1, 1, k)
        top, second = np.sort(values)[-2:][::-1]
        assume(top - second >= 1e-4)
        assert _is_vertex(points, int(np.argmax(values)))

    def test_rounding_noise_gain_does_not_stall(self):
        # nearly collinear points by an edge of the simplex; the first point
        # lies 2.5e-7 off the others' cone.  The column of largest gain comes
        # back with a weight of zero or less, so its gain is rounding noise:
        # skipping it ends the solve, where trying it again would spin until
        # the iteration bound
        points = np.array([
            [2.3e-08, 0.591241818, 0.408758159],
            [0.0, 1e-09, 0.999999999],
            [1e-09, 3.8941e-05, 0.999961058],
            [2.49e-07, 0.616400158, 0.383599594],
        ])
        assert _is_vertex(points, 0) and linprog_vertex(points, 0)

    def test_iteration_bound_raises(self, monkeypatch):
        monkeypatch.setattr(syncrate.sync, "_NNLS_ITERATIONS", 0)
        points = np.eye(3)
        with pytest.raises(EstimationError, match="did not converge"):
            _is_vertex(points, 0)
        derivs = make_map(ABC, 100, [((i,), p, 5) for i, p in enumerate(points)])
        with pytest.raises(EstimationError, match="did not converge"):
            find_sync_string(derivs)
