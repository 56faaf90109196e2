"""Stream generators: chaotic itineraries, i.i.d. draws, text folding."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncrate import (
    BINARY,
    ChaoticMapConfig,
    InvalidInputError,
    TEXT27,
    chaotic_stream,
    iid_stream,
    normalize_text,
)
from syncrate.generate import _ORBIT_BLOCK
from syncrate.streams import DRAW_BLOCK


def labels_of(stream):
    return "".join(stream.alphabet.labels[i] for i in stream.data)


def reference_itinerary(cfg):
    # reference oracle: per-symbol loop with an explicit escape check
    def step(x):
        nxt = 1.0 - cfg.r * x * x
        assert abs(nxt) <= 1.0, f"orbit left [-1, 1] at {nxt}"
        return nxt

    x = cfg.x0
    for _ in range(cfg.burn_in):
        x = step(x)
    out = np.empty(cfg.n, dtype=np.int64)
    for i in range(cfg.n):
        out[i] = 1 if x >= 0.0 else 0
        x = step(x)
    return out


class TestChaoticStream:
    def test_deterministic(self):
        cfg = ChaoticMapConfig(r=1.7499, n=5_000)
        a = chaotic_stream(cfg)
        b = chaotic_stream(cfg)
        assert np.array_equal(a.data, b.data)
        assert a.alphabet == BINARY

    def test_chaotic_regime_uses_both_symbols(self):
        s = chaotic_stream(ChaoticMapConfig(r=1.7499, n=10_000))
        frac_ones = s.data.mean()
        assert 0.05 < frac_ones < 0.95

    def test_small_r_settles_on_positive_fixed_point(self):
        # 1 - 0.5 x^2 = x has the attracting root sqrt(3) - 1 > 0
        s = chaotic_stream(ChaoticMapConfig(r=0.5, n=2_000))
        assert set(np.unique(s.data)) == {1}

    def test_burn_in_changes_phase(self):
        base = ChaoticMapConfig(r=1.7499, n=1_000, burn_in=10_000)
        shifted = ChaoticMapConfig(r=1.7499, n=1_000, burn_in=10_001)
        a = chaotic_stream(base).data
        b = chaotic_stream(shifted).data
        assert np.array_equal(a[1:], b[:-1])

    def test_orbit_stays_bounded_at_edge_parameter(self):
        s = chaotic_stream(ChaoticMapConfig(r=2.0, n=2_000, x0=0.3))
        assert len(s) == 2_000

    @pytest.mark.parametrize("r", [2.0, 1.9999999999999998, 1.7499, 1.0])
    @pytest.mark.parametrize(
        "x0", [1.0 - 2.0**-53, -1.0 + 2.0**-53, 0.9999999, -0.9999999, 0.1]
    )
    def test_matches_reference_loop(self, r, x0):
        for burn_in in (0, 100):
            cfg = ChaoticMapConfig(r=r, n=3_000, x0=x0, burn_in=burn_in)
            expected = reference_itinerary(cfg)
            got = chaotic_stream(cfg).data
            assert got.dtype == np.uint8
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize(
        "n", [1, _ORBIT_BLOCK - 1, _ORBIT_BLOCK, _ORBIT_BLOCK + 1, 3 * _ORBIT_BLOCK + 5]
    )
    def test_matches_reference_loop_across_buffer_edges(self, n):
        for r in (1.7499, 2.0):
            for burn_in in (0, 100):
                cfg = ChaoticMapConfig(r=r, n=n, x0=0.3, burn_in=burn_in)
                assert np.array_equal(chaotic_stream(cfg).data, reference_itinerary(cfg))

    def test_chaos_curve_input_is_pinned(self):
        # the chaos-curve benchmark's map at its seed-1 start,
        # 0.1 + 0.8 * frac(1 / phi): its bound_bits rests on these bytes,
        # so a rewrite of the generator must keep them
        cfg = ChaoticMapConfig(r=1.7499, n=200_000, x0=0.5944271909999159)
        digest = hashlib.sha256(chaotic_stream(cfg).data.tobytes()).hexdigest()
        assert digest == "3384e05ed2c5d4fe60c8933f69abc363b5039a897a88aab19cf0c1ef3966073a"

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            ChaoticMapConfig(r=0.0, n=10)
        with pytest.raises(InvalidInputError):
            ChaoticMapConfig(r=2.1, n=10)
        with pytest.raises(InvalidInputError):
            ChaoticMapConfig(r=1.5, n=10, x0=1.0)
        with pytest.raises(InvalidInputError):
            ChaoticMapConfig(r=1.5, n=0)

    def test_peak_memory_one_byte_per_symbol(self):
        n = 2_000_000
        tracemalloc.start()
        try:
            s = chaotic_stream(ChaoticMapConfig(r=1.7499, n=n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(s) == n and peak / n < 2


class TestIidStream:
    def test_deterministic_per_seed(self):
        a = iid_stream([0.3, 0.7], 1_000, seed=9)
        b = iid_stream([0.3, 0.7], 1_000, seed=9)
        c = iid_stream([0.3, 0.7], 1_000, seed=10)
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_degenerate_distribution(self):
        s = iid_stream([1.0, 0.0], 500)
        assert set(np.unique(s.data)) == {0}

    def test_frequencies_match_three_sigma(self):
        p = np.array([0.2, 0.3, 0.5])
        s = iid_stream(p, 1_000_000, seed=1)
        freqs = np.bincount(s.data, minlength=3) / len(s)
        sigma = np.sqrt(p * (1 - p) / len(s))
        assert (np.abs(freqs - p) <= 3 * sigma).all()

    def test_two_symbols_are_binary(self):
        assert iid_stream((0.5, 0.5), 100).alphabet == BINARY

    def test_wide_alphabet_labels(self):
        s = iid_stream([0.25] * 4, 100)
        assert s.alphabet.labels == ("0", "1", "2", "3")

    @pytest.mark.parametrize(
        "n", [1, DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1, 3 * DRAW_BLOCK + 5]
    )
    def test_matches_generator_choice(self, n):
        for probs in ([0.3, 0.7], [0.2, 0.0, 0.3, 0.5], [1 / 27] * 27):
            for seed in (0, 5):
                p = np.asarray(probs)
                want = np.random.default_rng(seed).choice(p.size, size=n, p=p / p.sum())
                assert np.array_equal(iid_stream(probs, n, seed=seed).data, want)

    def test_peak_memory_one_byte_per_symbol(self):
        n = 2_000_000
        tracemalloc.start()
        try:
            s = iid_stream([0.1, 0.2, 0.3, 0.15, 0.25], n, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(s) == n and peak / n < 2

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            iid_stream([1.0], 10)
        with pytest.raises(InvalidInputError):
            iid_stream([0.6, 0.6], 10)
        with pytest.raises(InvalidInputError):
            iid_stream([-0.1, 1.1], 10)
        for probs in ([float("nan"), 0.5], [0.5, float("nan")]):
            with pytest.raises(InvalidInputError):
                iid_stream(probs, 10)
        with pytest.raises(InvalidInputError):
            iid_stream([0.5, 0.5], 0)


class TestNormalizeText:
    def test_basic_folding(self):
        assert labels_of(normalize_text("Hello, World!")) == "hello world"

    def test_runs_collapse(self):
        assert labels_of(normalize_text("A  B")) == "a b"
        assert labels_of(normalize_text("one---two\n\nthree")) == "one two three"

    def test_trims_edges(self):
        assert labels_of(normalize_text("  padded  ")) == "padded"

    @pytest.mark.parametrize("raw", [None, 12])
    def test_refuses_anything_but_text(self, raw):
        with pytest.raises(InvalidInputError, match="text must be str or bytes"):
            normalize_text(raw)

    def test_bytes_and_str_agree(self):
        raw = "It was the best of times, it was the worst of times."
        a = normalize_text(raw)
        b = normalize_text(raw.encode("utf-8"))
        assert np.array_equal(a.data, b.data)

    def test_non_ascii_becomes_space(self):
        assert labels_of(normalize_text("café au lait")) == "caf au lait"

    def test_empty_and_all_punctuation(self):
        assert len(normalize_text("")) == 0
        assert len(normalize_text("!!! ??? ...")) == 0

    def test_alphabet_layout(self):
        assert TEXT27.size == 27
        assert TEXT27.labels[0] == "a"
        assert TEXT27.labels[25] == "z"
        assert TEXT27.labels[26] == " "
        s = normalize_text("az ")
        assert s.data.tolist() == [0, 25]

    @given(st.text(max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_idempotent(self, text):
        once = normalize_text(text)
        twice = normalize_text(labels_of(once))
        assert np.array_equal(once.data, twice.data)
