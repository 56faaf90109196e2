import hashlib
import re
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from hypothesis import given, settings
from hypothesis import strategies as st

from syncrate import BINARY, Alphabet, InvalidInputError
from syncrate import pfsa
from syncrate.streams import DRAW_BLOCK
from syncrate.pfsa import (
    _SCAN_MAX_STATES,
    Pfsa,
    analytical_entropy_rate,
    evolve,
    format_pfsa,
    load_pfsa,
    markov_matrix,
    parse_pfsa,
    simulate,
    stationary_distribution,
    symbol_distribution,
    transformation_matrix,
    two_state_nonsynchronizable,
    two_state_synchronizable,
    validate,
)
from test_estimator import markov27_machine


def eig_stationary(m):
    # independent route: left eigenvector of eigenvalue 1
    vals, vecs = scipy.linalg.eig(m.T)
    i = int(np.argmin(np.abs(vals - 1.0)))
    v = np.real(vecs[:, i])
    return v / v.sum()


def ring_machine(n=100):
    # deterministic ring: state i always emits symbol 0 and moves to i+1
    delta = np.full((n, 2), -1, dtype=np.int64)
    delta[:, 0] = (np.arange(n) + 1) % n
    pi = np.zeros((n, 2))
    pi[:, 0] = 1.0
    return Pfsa(BINARY, delta, pi)


def permutation_machine(q):
    # every symbol permutes the states, so chains from different start
    # states never meet; symbol 0 walks them in a cycle
    rng = np.random.default_rng(q)
    delta = np.stack([(np.arange(q) + 1) % q, rng.permutation(q), rng.permutation(q)], axis=1)
    return Pfsa(Alphabet(("a", "b", "c")), delta, rng.dirichlet([1.0] * 3, size=q))


@st.composite
def machines_with_zero_arcs(draw):
    """Random machine; zero-probability arcs, some with undefined targets."""
    q = draw(st.integers(1, 6))
    k = draw(st.integers(2, 5))
    ring = draw(st.integers(0, k - 1))
    cells = st.lists(st.integers(0, q - 1), min_size=k, max_size=k)
    delta = np.array(draw(st.lists(cells, min_size=q, max_size=q)))
    rows = st.lists(st.sampled_from([0, 0, 1, 2, 7]), min_size=k, max_size=k)
    weights = np.array(draw(st.lists(rows, min_size=q, max_size=q)), dtype=float)
    # symbol `ring` walks every state in a cycle, so the machine is connected
    delta[:, ring] = (np.arange(q) + 1) % q
    weights[:, ring] = np.maximum(weights[:, ring], 1.0)
    if draw(st.booleans()):
        delta[weights == 0.0] = -1
    labels = tuple("abcde"[:k])
    return Pfsa(Alphabet(labels), delta, weights / weights.sum(axis=1, keepdims=True))


def random_machine_arrays(rng):
    """delta and pi of a random machine of 1 to 8 states over 2 or 3 symbols,
    valid but for connectivity: zero arcs, half of them undefined (-1),
    self-loops, and arcs with no path back.  Half the machines get a ring on
    one symbol, so both verdicts are common."""
    q, k = int(rng.integers(1, 9)), int(rng.integers(2, 4))
    delta = rng.integers(0, q, size=(q, k))
    pi = rng.dirichlet(np.ones(k), size=q)
    pi[rng.random((q, k)) < 0.4] = 0.0
    pi[np.arange(q), rng.integers(0, k, size=q)] += 0.5  # no row left empty
    if rng.random() < 0.5:
        delta[:, 0] = (np.arange(q) + 1) % q
        pi[:, 0] += 0.1
    pi /= pi.sum(axis=1, keepdims=True)
    delta[(pi == 0.0) & (rng.random((q, k)) < 0.5)] = -1
    return delta, pi


def positive_reach(delta, pi):
    # reference oracle: reach[i, j] iff positive arcs lead from i to j
    q = delta.shape[0]
    reach = np.eye(q, dtype=bool)
    src, sym = np.nonzero(pi > 0.0)
    reach[src, delta[src, sym]] = True
    for _ in range(q):
        reach = reach | (reach.astype(int) @ reach.astype(int) > 0)
    return reach


def reference_simulate(p, n, seed, initial_state):
    # reference oracle: linear scan of each cumulative row
    rng = np.random.default_rng(seed)
    if initial_state is None:
        state = int(rng.choice(p.n_states, p=stationary_distribution(p)))
    else:
        state = initial_state
    cum = np.cumsum(p.pi, axis=1)
    cum[:, -1] = 1.0
    us = 1.0 - rng.random(n)
    out = np.empty(n, dtype=np.int64)
    for i in range(n):
        sym = 0
        while cum[state, sym] < us[i]:
            sym += 1
        assert p.pi[state, sym] > 0.0
        out[i] = sym
        state = int(p.delta[state, sym])
    return out


class TestValidation:
    def test_trivial_machine_ok(self):
        Pfsa(BINARY, [[0, 0]], [[0.5, 0.5]])

    def test_row_sum_violation(self):
        with pytest.raises(InvalidInputError, match="sums to"):
            Pfsa(BINARY, [[0, 0]], [[0.5, 0.6]])

    def test_negative_probability(self):
        with pytest.raises(InvalidInputError):
            Pfsa(BINARY, [[0, 0]], [[1.2, -0.2]])

    def test_positive_arc_needs_target(self):
        with pytest.raises(InvalidInputError, match="target"):
            Pfsa(BINARY, [[0, -1]], [[0.5, 0.5]])

    def test_disconnected(self):
        with pytest.raises(InvalidInputError, match="strongly connected: state 1 is not reached"):
            Pfsa(
                BINARY,
                [[0, -1], [-1, 1]],
                [[1.0, 0.0], [0.0, 1.0]],
            )

    def test_state_that_cannot_return_is_named(self):
        # 0 -> 1 -> 2 -> 1: state 0 reaches all, but nothing leads back to it
        with pytest.raises(InvalidInputError, match="state 1 does not reach state 0"):
            Pfsa(BINARY, [[1, -1], [2, -1], [1, -1]], [[1.0, 0.0]] * 3)

    def test_connectivity_matches_scipy_strong_components(self):
        rng = np.random.default_rng(2024)
        verdicts = []
        for _ in range(600):
            delta, pi = random_machine_arrays(rng)
            q, k = delta.shape
            src, sym = np.nonzero(pi > 0.0)
            adj = csr_matrix((np.ones(src.size), (src, delta[src, sym])), shape=(q, q))
            want = connected_components(adj, directed=True, connection="strong")[0] == 1
            try:
                Pfsa(Alphabet("abc"[:k]), delta, pi)
                got = True
            except InvalidInputError as exc:
                # the state the refusal names fails the way it says
                state, fails = re.search(r"state (\d+) (is not reached from|does not reach)",
                                         str(exc)).groups()
                reach = positive_reach(delta, pi)
                assert not (reach[0, int(state)] if fails == "is not reached from"
                            else reach[int(state), 0])
                got = False
            assert got == want, (delta, pi)
            verdicts.append(got)
        assert 100 < sum(verdicts) < 500

    def test_connectivity_check_is_linear_in_arcs(self):
        # a breadth-first frontier loop costs diameter times arcs, which on
        # this ring is about 1e10 steps
        start = time.perf_counter()
        ring_machine(100_000)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "delta, pi, match",
        [
            ([[1.9, 1], [0, 1]], [[0.5, 0.5], [0.5, 0.5]], "delta"),
            ([[0.5, 1], [0, 1]], [[0.5, 0.5], [0.5, 0.5]], "delta"),
            ([[np.nan, 1], [0, 1]], [[0.5, 0.5], [0.5, 0.5]], "delta"),
            ([["1", 1], [0, 1]], [[0.5, 0.5], [0.5, 0.5]], "delta"),
            ([[0, 1], [0, 1]], [["a", 0.5], [0.5, 0.5]], "pi"),
            ([[0, 1], [0, 1]], [[1.0], [0.5, 0.5]], "pi"),
            # 2**64 - 1 would wrap to the undefined-arc marker -1 in int64
            (np.array([[1, 2**64 - 1], [0, 1]], dtype=np.uint64), [[1.0, 0.0], [0.5, 0.5]],
             "delta"),
            ([[0, 1], [0, 1]], [[0.5, 0.5]], "delta and pi must share shape"),
            (np.zeros((0, 2), dtype=np.int64), np.zeros((0, 2)), "at least one state"),
            ([[0, 0, 0]], [[0.5, 0.25, 0.25]], "emission width does not match alphabet size"),
        ],
        ids=[
            "delta-1.9", "delta-0.5", "delta-nan", "delta-str", "pi-str", "pi-ragged",
            "delta-wraps", "shapes-differ", "no-states", "width-not-k",
        ],
    )
    def test_arrays_of_the_wrong_kind(self, delta, pi, match):
        with pytest.raises(InvalidInputError, match=match):
            Pfsa(BINARY, delta, pi)

    def test_validate_is_idempotent(self):
        validate(two_state_synchronizable())


class TestExactAnalysis:
    def test_stationary_frozen(self):
        np.testing.assert_allclose(
            stationary_distribution(two_state_synchronizable()), [0.625, 0.375]
        )
        np.testing.assert_allclose(
            stationary_distribution(two_state_nonsynchronizable()), [5 / 6, 1 / 6]
        )

    def test_stationary_matches_eigensolver(self):
        rng = np.random.default_rng(11)
        sizes = [int(q) for q in rng.integers(2, 6, size=30)] + [80, 80, 150, 150]
        for q in sizes:
            delta = rng.integers(0, q, size=(q, 2))
            # force a cycle through all states so the graph is connected
            delta[:, 0] = (np.arange(q) + 1) % q
            pi = rng.dirichlet((2.0, 2.0), size=q)
            p = Pfsa(BINARY, delta, pi)
            m = markov_matrix(p)
            np.testing.assert_allclose(
                stationary_distribution(p), eig_stationary(m), atol=1e-9
            )

    def test_entropy_rate_frozen(self):
        # known rates of the two canonical machines
        assert analytical_entropy_rate(two_state_synchronizable()) == pytest.approx(
            0.685379, abs=1e-6
        )
        assert analytical_entropy_rate(two_state_nonsynchronizable()) == pytest.approx(
            0.643413, abs=1e-6
        )

    def test_power_iteration_path(self):
        p = ring_machine(100)
        d = stationary_distribution(p)
        np.testing.assert_allclose(d, np.full(100, 0.01), atol=1e-9)
        assert analytical_entropy_rate(p) == pytest.approx(0.0, abs=1e-12)

    def test_markov_matrix_rows_sum_to_one(self):
        for p in (two_state_synchronizable(), two_state_nonsynchronizable()):
            np.testing.assert_allclose(markov_matrix(p).sum(axis=1), [1.0, 1.0])


class TestTransformation:
    def test_frozen_matrix(self):
        g0 = transformation_matrix(two_state_synchronizable(), 0)
        np.testing.assert_array_equal(g0, [[0.85, 0.0], [0.25, 0.0]])

    def test_matrices_sum_to_markov(self):
        for p in (two_state_synchronizable(), two_state_nonsynchronizable()):
            total = sum(
                transformation_matrix(p, sym) for sym in range(p.alphabet.size)
            )
            np.testing.assert_allclose(total, markov_matrix(p))


class TestEvolve:
    def test_sync_machine_pins_state(self):
        p = two_state_synchronizable()
        d = evolve(p, [0.625, 0.375], (0,))
        assert d[0] == 1.0 and d[1] == 0.0

    @given(
        st.floats(0.01, 0.99),
        st.lists(st.integers(0, 1), min_size=1, max_size=8),
    )
    @settings(max_examples=60)
    def test_sync_machine_last_symbol_decides(self, w0, word):
        # any word leaves the distribution degenerate at its last symbol
        p = two_state_synchronizable()
        d = evolve(p, [w0, 1.0 - w0], tuple(word))
        assert d[word[-1]] == 1.0

    def test_nonsync_by_one_symbol_frozen(self):
        # raw mass (1/6*0.75, 5/6*0.15) = (0.125, 0.125), so exactly (0.5, 0.5)
        p = two_state_nonsynchronizable()
        d = evolve(p, stationary_distribution(p), (1,))
        np.testing.assert_allclose(d, [0.5, 0.5])

    def test_matches_matrix_product_oracle(self):
        rng = np.random.default_rng(23)
        p = two_state_nonsynchronizable()
        for trial in range(50):
            word = tuple(rng.integers(0, 2, size=rng.integers(1, 7)))
            d0 = rng.dirichlet((1.0, 1.0))
            prod = d0.copy()
            for sym in word:
                prod = prod @ transformation_matrix(p, sym)
            expected = prod / prod.sum()
            np.testing.assert_allclose(evolve(p, d0, word), expected, atol=1e-12)

    def test_composition(self):
        p = two_state_nonsynchronizable()
        d0 = np.array([0.3, 0.7])
        left = evolve(p, evolve(p, d0, (0, 1)), (1, 0))
        right = evolve(p, d0, (0, 1, 1, 0))
        np.testing.assert_array_equal(left, right)

    def test_impossible_word(self):
        p = ring_machine(5)
        with pytest.raises(InvalidInputError, match="zero probability"):
            evolve(p, np.full(5, 0.2), (1,))

    def test_bad_distribution(self):
        p = two_state_synchronizable()
        for dist in ([0.3, 0.3], [np.nan, 0.5], [0.9, 0.9], [1.0], [-0.5, 1.5]):
            with pytest.raises(InvalidInputError, match="state distribution"):
                evolve(p, dist, (0,))

    def test_non_integral_symbol(self):
        p = two_state_synchronizable()
        for symbol in (0.5, 2, -1):
            with pytest.raises(InvalidInputError, match="symbol index"):
                transformation_matrix(p, symbol)
            with pytest.raises(InvalidInputError, match="symbol index"):
                evolve(p, [0.5, 0.5], [symbol])


class TestSymbolDistribution:
    def test_stationary_marginal(self):
        p = two_state_synchronizable()
        np.testing.assert_allclose(
            symbol_distribution(p, [0.625, 0.375]), [0.625, 0.375]
        )

    def test_degenerate_state(self):
        p = two_state_synchronizable()
        np.testing.assert_allclose(symbol_distribution(p, [0.0, 1.0]), [0.25, 0.75])

    def test_bad_distribution(self):
        p = two_state_synchronizable()
        for dist in ([np.nan, 0.5], [0.9, 0.9], [1.0]):
            with pytest.raises(InvalidInputError, match="state distribution"):
                symbol_distribution(p, dist)


class TestSimulate:
    def test_deterministic_given_seed(self):
        p = two_state_synchronizable()
        a = simulate(p, 500, seed=42)
        b = simulate(p, 500, seed=42)
        np.testing.assert_array_equal(a.data, b.data)

    def test_symbol_frequencies(self):
        p = two_state_nonsynchronizable()
        s = simulate(p, 200_000, seed=1)
        freq1 = float(s.data.mean())
        # marginal of symbol 1 is 5/6*0.15 + 1/6*0.75 = 0.25
        assert freq1 == pytest.approx(0.25, abs=0.01)

    def test_zero_prob_symbols_never_drawn(self):
        s = simulate(ring_machine(7), 10_000, seed=3)
        assert int(s.data.max()) == 0

    def test_explicit_initial_state(self):
        p = ring_machine(4)
        s = simulate(p, 4, seed=0, initial_state=0)
        assert len(s) == 4
        assert len(simulate(p, 4, seed=0, initial_state=np.int64(3))) == 4
        for state in (1.7, "1", 4, -1):
            with pytest.raises(InvalidInputError, match="initial state"):
                simulate(p, 4, seed=0, initial_state=state)

    @pytest.mark.parametrize(
        "n",
        [-1, 1e3, 10.0, True, np.bool_(True), "10"],
        ids=["negative", "1e3", "10.0", "True", "numpy-True", "str"],
    )
    def test_refuses_non_integral_length(self, n):
        with pytest.raises(InvalidInputError, match="stream length"):
            simulate(two_state_synchronizable(), n, seed=0)

    def test_numpy_integer_length(self):
        assert len(simulate(two_state_synchronizable(), np.int64(7), seed=0)) == 7

    @given(
        machines_with_zero_arcs(),
        st.integers(0, 2_000),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_linear_scan_reference(self, p, n, seed, data):
        initial = data.draw(
            st.none() | st.integers(0, p.n_states - 1), label="initial_state"
        )
        s = simulate(p, n, seed=seed, initial_state=initial)
        assert s.alphabet == p.alphabet
        assert s.data.dtype == np.uint8
        np.testing.assert_array_equal(
            s.data, reference_simulate(p, n, seed, initial)
        )


    @pytest.mark.parametrize(
        "n", [0, 1, DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1, 3 * DRAW_BLOCK + 5]
    )
    def test_block_draws_match_one_shot_draw(self, n):
        # the reference draws all n uniforms at once; the machines cover
        # the block scan with and without coalescing chains, and the loop
        machines = {
            "binary": two_state_nonsynchronizable(),
            "markov27": markov27_machine(),
            "permutation-5": permutation_machine(5),
            "above-scan-states": permutation_machine(_SCAN_MAX_STATES + 1),
        }
        for name, p in machines.items():
            for seed in (0, 7):
                np.testing.assert_array_equal(
                    simulate(p, n, seed=seed).data,
                    reference_simulate(p, n, seed, None),
                    err_msg=f"{name}, seed {seed}",
                )

    def test_padded_block_hands_on_its_end_state(self, monkeypatch):
        # a block of 1000 cells is 32 rows of 32 with 24 cells of padding,
        # so each block's end state must come from its last real cell; the
        # 27-state machine's cell 0 moves every state, unlike the binary one
        monkeypatch.setattr(pfsa, "DRAW_BLOCK", 1000)
        p = markov27_machine()
        for seed in range(5):
            np.testing.assert_array_equal(
                simulate(p, 5000, seed=seed).data,
                reference_simulate(p, 5000, seed, None),
                err_msg=f"seed {seed}",
            )

    def test_markov27_input_is_pinned(self):
        # the markov27 benchmark's machine at seed 1: its bound_bits rests
        # on these bytes, so a rewrite of the simulation must keep them
        data = simulate(markov27_machine(), 200_000, seed=1).data
        digest = hashlib.sha256(data.tobytes()).hexdigest()
        assert digest == "f23ca52996bc8a2f688d2a1789c0be872378d56c267cde5047adb0913019108c"

    def test_peak_memory_one_byte_per_symbol(self):
        n = 2_000_000
        for p in (two_state_nonsynchronizable(), markov27_machine()):
            tracemalloc.start()
            try:
                s = simulate(p, n, seed=0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(s) == n and peak / n < 2, p


class TestTextFormat:
    def test_round_trip(self):
        # state 0's undefined zero-probability arc is left out of the text
        gap = Pfsa(BINARY, [[1, -1], [0, 1]], [[1.0, 0.0], [0.5, 0.5]])
        assert len(format_pfsa(gap).splitlines()) == 1 + 3
        for p in (two_state_synchronizable(), two_state_nonsynchronizable(), gap):
            q = parse_pfsa(format_pfsa(p))
            np.testing.assert_array_equal(q.delta, p.delta)
            np.testing.assert_allclose(q.pi, p.pi)
            assert q.alphabet == p.alphabet

    def test_comments_and_blank_lines(self):
        text = "# a machine\n\npfsa 1 0 1\n0 0 0 0.5\n0 1 0 0.5\n"
        p = parse_pfsa(text)
        assert p.n_states == 1

    def test_error_carries_line_number(self):
        text = "pfsa 2 0 1\n0 0 0 0.85\n0 1 1 0.15\n1 1 1 0.75\n1 0 0 1.25\n"
        with pytest.raises(InvalidInputError, match="line 5"):
            parse_pfsa(text)

    def test_duplicate_arc(self):
        text = "pfsa 1 0 1\n0 0 0 0.5\n0 0 0 0.5\n"
        with pytest.raises(InvalidInputError, match="line 3: duplicate"):
            parse_pfsa(text)

    def test_bad_header(self):
        with pytest.raises(InvalidInputError, match="header"):
            parse_pfsa("automaton 2 0 1\n")

    def test_unknown_symbol_label(self):
        text = "pfsa 1 0 1\n0 2 0 1.0\n"
        with pytest.raises(InvalidInputError, match="line 2"):
            parse_pfsa(text)

    def test_state_count_beyond_arc_lines_refused_before_allocation(self):
        # two states per arc line at most would fit; 1e13 states of two
        # symbols would need 146 TiB of arrays
        text = "pfsa 10000000000000 0 1\n0 0 0 0.5\n0 1 0 0.5\n"
        with pytest.raises(InvalidInputError, match="line 1: 10000000000000 states declared"):
            parse_pfsa(text)

    def test_row_sum_failure_detected_after_parse(self):
        text = "pfsa 1 0 1\n0 0 0 0.6\n0 1 0 0.6\n"
        with pytest.raises(InvalidInputError, match="invalid after parsing"):
            parse_pfsa(text)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "machine.pfsa"
        path.write_text(format_pfsa(two_state_synchronizable()))
        p = load_pfsa(path)
        assert p.n_states == 2
