"""Incremental-parse baseline: phrase structure and entropy estimates."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from syncrate import (
    BINARY,
    Alphabet,
    ChaoticMapConfig,
    InvalidInputError,
    SymbolStream,
    chaotic_stream,
    lz78_curve,
    lz78_entropy_estimate,
    parse_lz78,
    simulate,
)
from syncrate import lz78
from syncrate.lz78 import _parse, _stride
from test_estimator import markov27_machine

ABC = Alphabet(("a", "b", "c"))
ALPHABETS = {
    k: Alphabet(tuple(str(i) for i in range(k))) for k in (2, 3, 4, 16, 27, 256)
}
# the parse's stride T for each alphabet size: the largest T whose words of
# 1 to T - 1 symbols number at most 256
STRIDES = {2: 8, 3: 5, 4: 4, 16: 2, 27: 2, 256: 2}


# long inputs for the reference comparison: the chaos stream's longest phrase
# is 145 symbols, so a match walks up to 18 nodes of T = 8 symbols; the
# uniform stream over 27 symbols has phrases of at most 5
CHAOS_LONG = chaotic_stream(ChaoticMapConfig(r=1.7499, n=200_000)).data.tolist()
UNIFORM_27 = np.random.default_rng(5).integers(0, 27, size=50_000).tolist()


def stream_of(bits, alphabet=BINARY):
    return SymbolStream(list(bits), alphabet)


def reference_parse(symbols):
    """Plain per-symbol incremental parse, kept as the test oracle.

    Returns the ``(parent, symbol)`` pairs, the unfinished tail, the end
    offset of every complete phrase, and the phrase count of every prefix
    (``counts[m]`` for the first m symbols, partial phrase included).
    """
    children = {}
    pairs = []
    tail = []
    ends = []
    counts = [0]
    node = 0
    for pos, sym in enumerate(symbols, start=1):
        key = (node, sym)
        nxt = children.get(key)
        if nxt is None:
            children[key] = len(pairs) + 1
            pairs.append(key)
            ends.append(pos)
            tail = []
            node = 0
        else:
            tail.append(sym)
            node = nxt
        counts.append(len(pairs) + (1 if node else 0))
    return pairs, tuple(tail), ends, counts


def reference_curve(symbols, marks):
    counts = reference_parse(symbols)[3]
    return [(m, float(counts[m] * np.log2(counts[m]) / m)) for m in marks]


@st.composite
def streams_with_marks(draw):
    """A stream over k in ALPHABETS plus ascending checkpoints.

    Streams are mixed, over two symbols, periodic, constant or a single
    symbol; the two-symbol and periodic ones give phrases several strides
    long at every k.  The checkpoints
    stop at or before the stream's end and sit on, just before and just
    after phrase ends of the reference parse.
    """
    k = draw(st.sampled_from(sorted(ALPHABETS)))
    shape = draw(st.sampled_from(["mixed", "two", "periodic", "constant", "single"]))
    sym = st.integers(min_value=0, max_value=k - 1)
    length = st.integers(min_value=1, max_value=300)
    if shape == "single":
        symbols = [draw(sym)]
    elif shape == "constant":
        symbols = [draw(sym)] * draw(length)
    elif shape == "two":
        symbols = draw(st.lists(st.sampled_from([0, k - 1]), min_size=1, max_size=300))
    elif shape == "periodic":
        period = draw(st.lists(sym, min_size=1, max_size=5))
        symbols = (period * 300)[: draw(length)]
    else:
        symbols = draw(st.lists(sym, min_size=1, max_size=300))
    last = draw(st.integers(min_value=1, max_value=len(symbols)))
    ends = [e for e in reference_parse(symbols)[2] if e <= last]
    near = set()
    if ends:
        for e in draw(st.lists(st.sampled_from(ends), max_size=3)):
            near |= {e - 1, e, e + 1}
    extra = draw(st.lists(st.integers(min_value=1, max_value=last), max_size=4))
    marks = sorted({m for m in near | set(extra) if 1 <= m <= last} | {last})
    return k, symbols, marks


class TestParse:
    def test_textbook_example(self):
        # 1011010100010 parses as 1,0,11,01,010,00,10
        s = stream_of([1, 0, 1, 1, 0, 1, 0, 1, 0, 0, 0, 1, 0])
        assert parse_lz78(s) == [
            (1,),
            (0,),
            (1, 1),
            (0, 1),
            (0, 1, 0),
            (0, 0),
            (1, 0),
        ]

    def test_partial_tail_repeats_a_phrase(self):
        # 0 | 00 | 00 with the final two symbols left unfinished
        assert parse_lz78(stream_of([0, 0, 0, 0, 0])) == [(0,), (0, 0), (0, 0)]

    def test_complete_phrases_are_distinct_and_prefix_closed(self):
        rng = np.random.default_rng(7)
        s = SymbolStream(rng.integers(0, 3, size=5000), ABC)
        phrases = parse_lz78(s)
        # a complete phrase is new by definition; only the tail repeats one
        complete = phrases[:-1] if phrases[-1] in phrases[:-1] else phrases
        assert len(set(complete)) == len(complete)
        seen = set(complete)
        for word in complete:
            for cut in range(1, len(word)):
                assert word[:cut] in seen

    def test_empty_stream(self):
        assert parse_lz78(stream_of([])) == []

    @given(streams_with_marks())
    @example((2, [0] * 6, [1, 2, 3, 6]))
    @example((27, [26], [1]))
    @example((3, [0, 1, 2, 0, 1, 2, 0], [2, 4]))
    @example((2, CHAOS_LONG, [1, 1_000, 99_999, 100_000, 200_000]))
    @example((27, UNIFORM_27, [1, 1_000, 25_000, 49_999, 50_000]))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_symbol_reference(self, case):
        k, symbols, marks = case
        s = SymbolStream(symbols, ALPHABETS[k])
        pairs, tail, ends, _counts = reference_parse(symbols)
        words = [()]
        for parent, sym in pairs:
            words.append(words[parent] + (sym,))
        assert parse_lz78(s) == words[1:] + ([tail] if tail else [])
        # a tail miscounted as a phrase ending past the stream would leave
        # the phrases and the curve unchanged; only the offsets show it
        assert _parse(s.data, k).tolist() == ends
        assert lz78_curve(s, marks) == reference_curve(symbols, marks)

    @given(streams_with_marks())
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, case):
        k, symbols, _marks = case
        s = SymbolStream(symbols, ALPHABETS[k])
        flat = [sym for phrase in parse_lz78(s) for sym in phrase]
        assert flat == symbols

    @given(
        st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=120)
    )
    @settings(max_examples=150, deadline=None)
    def test_phrase_count_bounds(self, syms):
        assert 1 <= len(parse_lz78(SymbolStream(syms, ABC))) <= len(syms)


class TestStrideParse:
    """The parse keeps only phrases of a multiple of T symbols as nodes, and
    the shorter extensions of each as bits of its mask."""

    @pytest.mark.parametrize("k", sorted(STRIDES))
    def test_stride_follows_alphabet_size(self, k):
        stride, paths = _stride(k)
        assert stride == STRIDES[k]
        # one entry per word of T symbols, by code: the path of its first
        # T - 1 symbols, then the bit of each of their nonempty prefixes,
        # shortest first
        assert len(paths) == k**stride
        for path, *prefixes in paths:
            assert [bit.bit_count() for bit in prefixes] == [1] * (stride - 1)
            assert prefixes == sorted(prefixes)
            assert sum(prefixes) == path
        # each word of 1 to T - 1 symbols has its own bit
        words = sum(k**j for j in range(1, stride))
        assert max(path for path, *_ in paths).bit_length() == words <= 256

    @pytest.mark.parametrize("k", sorted(STRIDES))
    def test_phrase_ending_on_a_stride_multiple(self, k):
        # a, aa, ..., a^(2T): phrases T and 2T end exactly on a stride
        # multiple and become nodes, the others set mask bits
        t = STRIDES[k]
        symbols = [k - 1] * (t * (2 * t + 1))
        ends = _parse(np.array(symbols, dtype=np.uint8), k).tolist()
        assert ends == [j * (j + 1) // 2 for j in range(1, 2 * t + 1)]
        assert ends == reference_parse(symbols)[2]

    @pytest.mark.parametrize("k", sorted(STRIDES))
    def test_stream_ending_inside_a_stride(self, k):
        # after a, aa, ..., a^(2T) the stream stops T - 2 symbols past the
        # node a^T, short of the T - 1 that the path lookup reads
        t = STRIDES[k]
        tail = [k - 1] * (2 * t - 2)
        symbols = [k - 1] * (t * (2 * t + 1)) + tail
        s = SymbolStream(symbols, ALPHABETS[k])
        assert _parse(s.data, k).tolist() == reference_parse(symbols)[2]
        assert parse_lz78(s)[-1] == tuple(tail)

    @pytest.mark.parametrize("k", sorted(STRIDES))
    def test_empty_constant_and_periodic_streams(self, k):
        period = [0, k - 1, k // 2, k - 1]
        cases = [[], [0] * 1_000, [k - 1] * 999, period * 300, (period * 300)[:-1]]
        for symbols in cases:
            got = _parse(np.array(symbols, dtype=np.uint8), k).tolist()
            assert got == reference_parse(symbols)[2], len(symbols)

    def test_parse_is_pinned(self):
        # the chaos-curve benchmark's LZ78 values rest on these phrase ends,
        # so a rewrite of the parse must keep them
        cases = [
            (
                chaotic_stream(ChaoticMapConfig(r=1.7499, n=1_000_000)).data,
                2,
                "43cc0faa6941f53966f762f836720362aead06f38d946060740b5f8cd98c8998",
            ),
            (
                simulate(markov27_machine(), 200_000, seed=1).data,
                27,
                "aa8a8341d52cac8a586092d03d43f596b9ab695dad2bc290e6b8f201539a97f2",
            ),
        ]
        for data, k, digest in cases:
            assert hashlib.sha256(_parse(data, k).tobytes()).hexdigest() == digest, k

    def test_curve_peak_memory(self):
        # the phrases are held as about one node per seven, each a dict
        # entry, and the stream is read one window at a time; a set of
        # every phrase peaked near 5 MB here, and a copy of the whole
        # stream beside the nodes near 1.7 MB
        n = 1_000_000
        s = chaotic_stream(ChaoticMapConfig(r=1.7499, n=n))
        tracemalloc.start()
        try:
            lz78_curve(s, [n])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_200_000


class WindowReads:
    """A stream that records where each slice taken of it stops."""

    def __init__(self, data):
        self.data = data
        self.stops = []

    def __len__(self):
        return len(self.data)

    def __getitem__(self, cut):
        self.stops.append(cut.stop)
        return self.data[cut]


class TestWindow:
    """The parse reads the stream through windows of ``_WINDOW`` symbols
    plus room for the longest phrase; a match that reaches a window's end
    starts over at the next window's start."""

    @pytest.mark.parametrize("k", [2, 3, 16, 27, 256])
    def test_small_windows_match_reference(self, monkeypatch, k):
        t = STRIDES[k]
        period = [0, k - 1, k // 2, k - 1, 0]
        inputs = [
            CHAOS_LONG[:20_000],
            [sym % k for sym in UNIFORM_27[:10_000]],
            [k - 1] * 3_000,
            period * 600,
        ]
        references = [reference_parse(symbols)[2] for symbols in inputs]
        for window in sorted({1, 2, t - 1, t, t + 1, 64}):
            monkeypatch.setattr(lz78, "_WINDOW", window)
            for symbols, ends in zip(inputs, references):
                data = np.array(symbols, dtype=np.uint8)
                reads = WindowReads(data)
                assert _parse(reads, k).tolist() == ends, window
                # a prefix that ends exactly where one of its windows ends;
                # the parse of a prefix keeps the phrases ending inside it
                cut = reads.stops[len(reads.stops) // 2]
                assert cut < len(data)
                reads = WindowReads(data[:cut])
                got = _parse(reads, k).tolist()
                assert reads.stops[-1] == cut
                assert got == [e for e in ends if e <= cut], window

    @pytest.mark.parametrize("k", sorted(STRIDES))
    def test_window_ending_inside_a_node_code(self, monkeypatch, k):
        # 0, 00, ..., 0^T make 0^T the first node; the next phrase starts
        # with 0^j and then k - 1, and the first window ends after its j
        # zeros.  Read as 0 past the window, the code there is the node 0^T,
        # though the stream's next T symbols are not a node
        t = STRIDES[k]
        start = t * (t + 1) // 2
        rest = [sym % k for sym in UNIFORM_27[:300]]
        for j in range(1, t):
            symbols = [0] * (start + j) + [k - 1] * (t - j) + rest
            # the first window, read before any node exists, holds
            # _WINDOW + T symbols
            monkeypatch.setattr(lz78, "_WINDOW", start + j - t)
            reads = WindowReads(np.array(symbols, dtype=np.uint8))
            assert _parse(reads, k).tolist() == reference_parse(symbols)[2], j
            assert reads.stops[0] == start + j

    @given(streams_with_marks(), st.integers(min_value=1, max_value=40))
    @settings(max_examples=200, deadline=None)
    def test_any_window_matches_reference(self, case, window):
        k, symbols, marks = case
        s = SymbolStream(symbols, ALPHABETS[k])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lz78, "_WINDOW", window)
            assert _parse(s.data, k).tolist() == reference_parse(symbols)[2]
            assert lz78_curve(s, marks) == reference_curve(symbols, marks)


class TestEstimate:
    def test_single_symbol_is_zero(self):
        assert lz78_entropy_estimate(stream_of([1])) == 0.0

    def test_empty_stream_rejected(self):
        with pytest.raises(InvalidInputError):
            lz78_entropy_estimate(stream_of([]))

    def test_constant_stream_closed_form(self):
        # On 0^n the phrases are 0, 00, 000, ... so the number of
        # complete phrases is the largest m with m(m+1)/2 <= n.
        n = 1_000_000
        m = int((np.sqrt(8 * n + 1) - 1) / 2)
        consumed = m * (m + 1) // 2
        c = m + (1 if consumed < n else 0)
        expected = c * np.log2(c) / n
        got = lz78_entropy_estimate(stream_of(np.zeros(n, dtype=np.int64)))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got < 0.02

    def test_constant_stream_estimate_shrinks(self):
        short = lz78_entropy_estimate(stream_of(np.zeros(10_000, dtype=np.int64)))
        long = lz78_entropy_estimate(stream_of(np.zeros(1_000_000, dtype=np.int64)))
        assert long < short

    def test_fair_coin_slow_convergence(self):
        rng = np.random.default_rng(0)
        s = SymbolStream(rng.integers(0, 2, size=1_000_000), BINARY)
        est = lz78_entropy_estimate(s)
        assert est == pytest.approx(1.0, abs=0.15)
        # the residual overshoot is the point of the baseline
        assert est > 1.0

    def test_periodic_stream_heads_toward_zero(self):
        period = np.tile([0, 1, 1], 100_000)
        est = lz78_entropy_estimate(stream_of(period))
        shorter = lz78_entropy_estimate(stream_of(period[:30_000]))
        assert est < shorter < 0.5


class TestCurve:
    def test_final_checkpoint_matches_full_estimate(self):
        rng = np.random.default_rng(3)
        s = SymbolStream(rng.integers(0, 2, size=20_000), BINARY)
        rows = lz78_curve(s, [100, 1_000, 20_000])
        assert [r[0] for r in rows] == [100, 1_000, 20_000]
        _pairs, _tail, _ends, counts = reference_parse(s.data.tolist())
        c = counts[20_000]
        assert rows[-1][1] == pytest.approx(c * np.log2(c) / 20_000, abs=1e-12)

    def test_each_checkpoint_matches_prefix_estimate(self):
        rng = np.random.default_rng(4)
        data = rng.integers(0, 3, size=5_000)
        s = SymbolStream(data, ABC)
        rows = lz78_curve(s, [10, 500, 2_500, 5_000])
        assert lz78_curve(s, np.array([10, 500, 2_500, 5_000])) == rows
        assert lz78_curve(s, iter([10, 500, 2_500, 5_000])) == rows
        for length, est in rows:
            _pairs, _tail, _ends, counts = reference_parse(data[:length].tolist())
            c = counts[length]
            assert est == pytest.approx(c * np.log2(c) / length, abs=1e-12)

    def test_empty_checkpoint_list(self):
        assert lz78_curve(stream_of([0, 1]), []) == []
        assert lz78_curve(stream_of([0, 1]), np.array([], dtype=int)) == []

    def test_checkpoints_must_ascend(self):
        with pytest.raises(InvalidInputError, match="ascending"):
            lz78_curve(stream_of([0, 1, 0, 1]), [3, 2])

    def test_checkpoints_must_fit_stream(self):
        with pytest.raises(InvalidInputError, match="stream length"):
            lz78_curve(stream_of([0, 1, 0, 1]), [2, 9])
        with pytest.raises(InvalidInputError, match="positive integer"):
            lz78_curve(stream_of([0, 1, 0, 1]), [0, 2])
