import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from syncrate import (
    BINARY,
    Alphabet,
    ChaoticMapConfig,
    EstimatorConfig,
    InvalidInputError,
    SymbolStream,
    bound_curve,
    build_count_table,
    candidate_length,
    entropy,
    gen_binary_entropy,
    iid_stream,
    lz78_curve,
    simulate,
    solve_uncertainty,
    streams,
    transformation_matrix,
    two_state_synchronizable,
)
from syncrate.estimator import locate_sync_word
from syncrate.pfsa import evolve, symbol_distribution


def naive_count(seq, word):
    # reference oracle: plain overlapping scan
    if len(word) == 0:
        return len(seq)
    hits = 0
    for i in range(len(seq) - len(word) + 1):
        if tuple(seq[i : i + len(word)]) == tuple(word):
            hits += 1
    return hits


def stream_from(text):
    return SymbolStream(BINARY.encode(text), BINARY)


def per_level_unique(data, k, max_len):
    # reference oracle: one np.unique over the window codes of each length
    n = data.size
    levels = [(np.zeros(1, dtype=np.int64), np.array([n], dtype=np.int64))]
    codes = None
    for length in range(1, max_len + 2):
        if length > n:
            levels.append((np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)))
            continue
        if length == 1:
            codes = data.astype(np.int64)
        else:
            codes = codes[:-1] * k + data[length - 1 :]
        uniq, cnt = np.unique(codes, return_counts=True)
        levels.append((uniq, cnt.astype(np.int64)))
    return levels


# long enough that the shallow levels have far fewer possible prefixes than
# there are deepest codes, so each derived level folds long prefix runs
LONG_BINARY = np.random.default_rng(0).integers(0, 2, size=400).tolist()

# the largest code k**top - 1 on each side of 2**8, 2**16 and 2**32 codes
# (up to 2**16 codes are counted by blocks, up to 2**32 sorted as uint32,
# more as int64): k = 2 at top 8, 9, 16, 17, 32, 33, k = 27 at top 3 and 4
# (19,683 and 531,441 codes) and k = 256 at top 1, 2, 4, 5, each stream
# holding that largest code and ending in windows the end cuts short
DTYPE_EDGES = [
    (k, [k - 1] * top + [0, 1], top - 1)
    for k, tops in ((2, (8, 9, 16, 17, 32, 33)), (27, (3, 4)), (256, (1, 2, 4, 5)))
    for top in tops
]

# each edge with the empty root, a root seen often and one seen only at the
# stream's end
ROOTED_EDGES = [
    (k, seq, max_len, root)
    for k, seq, max_len in DTYPE_EDGES
    for root in ((), (k - 1,), tuple(seq[-min(2, max_len + 1) :]))
]


def with_examples(*cases):
    """Decorator adding one hypothesis example per case."""

    def wrap(test):
        for case in reversed(cases):
            test = example(*case)(test)
        return test

    return wrap


@st.composite
def tables_to_build(draw):
    """Stream and max_len; some streams end in a word seen nowhere else."""
    k = draw(st.integers(min_value=2, max_value=27))
    max_len = draw(st.integers(min_value=0, max_value=6))
    if draw(st.booleans()):
        # symbol k-1 appears only last, so every final window is unique
        body = draw(st.lists(st.integers(min_value=0, max_value=k - 2), max_size=60))
        seq = body + [k - 1]
    else:
        seq = draw(st.lists(st.integers(min_value=0, max_value=k - 1), max_size=60))
    return k, seq, max_len


@st.composite
def rooted_tables(draw):
    """Table case plus a root word: a stream suffix, possibly seen nowhere
    else, or any word; the empty word and words longer than the stream
    included."""
    k, seq, max_len = draw(tables_to_build())
    r = draw(st.integers(min_value=0, max_value=max_len + 1))
    if r <= len(seq) and draw(st.booleans()):
        root = seq[len(seq) - r :]
    else:
        root = draw(st.lists(st.integers(0, k - 1), min_size=r, max_size=r))
    return k, seq, max_len, tuple(root)


class TestAlphabet:
    def test_too_small(self):
        with pytest.raises(InvalidInputError):
            Alphabet(("a",))

    def test_duplicate_labels(self):
        with pytest.raises(InvalidInputError):
            Alphabet(("a", "a"))

    def test_encode_roundtrip(self):
        a = Alphabet("abc")
        assert a.encode("cab") == (2, 0, 1)
        assert a.word_label((2, 0, 1)) == "cab"

    def test_unknown_symbol(self):
        with pytest.raises(InvalidInputError):
            BINARY.index("x")


class TestSymbolStream:
    def test_immutable(self):
        s = stream_from("0101")
        with pytest.raises(ValueError):
            s.data[0] = 1

    def test_range_check(self):
        with pytest.raises(InvalidInputError):
            SymbolStream([0, 2], BINARY)

    def test_prefix(self):
        s = stream_from("0001")
        assert list(s.prefix(2).data) == [0, 0]

    def test_negative_prefix_rejected(self):
        s = stream_from("00010")
        for n in (-1, -2, -5, -6, 2.5):
            with pytest.raises(InvalidInputError, match="prefix length"):
                s.prefix(n)
        assert len(s.prefix(0)) == 0 and len(s.prefix(9)) == 5

    @pytest.mark.parametrize("k", [3, 256])
    def test_wide_values_rejected_before_narrowing(self, k):
        # 256 and 2**32 + 1 would wrap to the valid symbols 0 and 1 in a byte
        alphabet = Alphabet(tuple(str(i) for i in range(k)))
        for bad in (-1, k, 256, 2**32 + 1):
            with pytest.raises(InvalidInputError):
                SymbolStream(np.array([0, bad], dtype=np.int64), alphabet)

    @pytest.mark.parametrize(
        "data",
        [[True, False, True], np.array([True, False, True]), [1, 0, 1]],
    )
    def test_bool_and_list_inputs_keep_their_symbols(self, data):
        assert SymbolStream(data, BINARY).data.tolist() == [1, 0, 1]

    @pytest.mark.parametrize(
        "data", [[0, 1, 1], np.array([0, 1, 1]), np.array([0, 1, 1], dtype=np.uint8)]
    )
    def test_data_is_a_read_only_byte_copy(self, data):
        s = SymbolStream(data, BINARY)
        assert s.data.dtype == np.uint8 and not s.data.flags.writeable
        if isinstance(data, np.ndarray):
            data[0] = 1
        assert s.data.tolist() == [0, 1, 1]

    def test_read_only_owned_bytes_are_kept(self):
        raw = np.array([0, 1, 1], dtype=np.uint8)
        raw.setflags(write=False)
        assert SymbolStream(raw, BINARY).data is raw
        # a read-only view of writable memory is copied
        base = np.array([0, 1, 1], dtype=np.uint8)
        view = base[:]
        view.setflags(write=False)
        s = SymbolStream(view, BINARY)
        base[0] = 1
        assert s.data.tolist() == [0, 1, 1]

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8])
    def test_peak_memory_one_byte_per_symbol(self, dtype):
        n = 2_000_000
        data = np.random.default_rng(0).integers(0, 2, size=n).astype(dtype)
        tracemalloc.start()
        try:
            SymbolStream(data, BINARY)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n < 2


def table_count(s, word):
    # the shallowest table that covers the word
    return build_count_table(s, max(len(word) - 1, 0)).count(word)


class TestCount:
    def test_worked_example(self):
        # frozen: "00" occurs twice in "0001", overlap included
        s = stream_from("0001")
        assert table_count(s, BINARY.encode("00")) == 2
        assert table_count(s, BINARY.encode("0")) == 3
        assert table_count(s, BINARY.encode("1")) == 1
        assert table_count(s, BINARY.encode("01")) == 1
        assert table_count(s, BINARY.encode("11")) == 0

    def test_empty_word_counts_positions(self):
        assert table_count(stream_from("0001"), ()) == 4

    def test_longer_than_stream(self):
        assert table_count(stream_from("01"), BINARY.encode("010")) == 0

    def test_bad_symbol_in_word(self):
        with pytest.raises(InvalidInputError):
            table_count(stream_from("01"), (0, 5))

    @given(
        st.lists(st.integers(0, 1), max_size=60),
        st.lists(st.integers(0, 1), min_size=0, max_size=5),
    )
    def test_matches_naive(self, seq, word):
        s = SymbolStream(seq, BINARY)
        assert table_count(s, tuple(word)) == naive_count(seq, word)


class TestCountTable:
    def test_matches_naive_small(self):
        rng = np.random.default_rng(7)
        for k, n in [(2, 200), (3, 157), (5, 93)]:
            labels = tuple(str(i) for i in range(k))
            a = Alphabet(labels)
            seq = rng.integers(0, k, size=n)
            s = SymbolStream(seq, a)
            t = build_count_table(s, max_len=4)
            for trial in range(300):
                m = int(rng.integers(0, 6))
                w = tuple(rng.integers(0, k, size=m))
                assert t.count(w) == naive_count(seq, w)

    @given(tables_to_build())
    @example((2, [], 3))
    @example((2, [1], 0))
    @example((3, [0, 1], 4))
    @example((27, [0, 0, 0, 0, 26], 2))
    # symbols 0 and 2 only: long prefix runs at levels 0-1, and level 1
    # holds no word of prefix 1 between its first and last prefix
    @example((3, [2 * x for x in LONG_BINARY], 7))
    @with_examples(*[(case,) for case in DTYPE_EDGES])
    @settings(max_examples=300, deadline=None)
    def test_levels_match_per_level_unique(self, case):
        k, seq, max_len = case
        s = SymbolStream(seq, Alphabet(tuple(str(i) for i in range(k))))
        t = build_count_table(s, max_len)
        expected = per_level_unique(s.data, k, max_len)
        for length in range(max_len + 2):
            codes, counts = t.level(length)
            want_codes, want_counts = expected[length]
            assert codes.dtype == np.int64 and counts.dtype == np.int64
            assert np.array_equal(codes, want_codes)
            assert np.array_equal(counts, want_counts)

    @given(tables_to_build(), st.data())
    @example((2, [], 3), None)
    @example((3, [0, 1, 2, 0, 1], 0), None)
    @with_examples(*[(case, None) for case in DTYPE_EDGES])
    @settings(max_examples=300, deadline=None)
    def test_successor_rows_match_naive(self, case, data):
        k, seq, max_len = case
        s = SymbolStream(seq, Alphabet(tuple(str(i) for i in range(k))))
        t = build_count_table(s, max_len)
        for length in range(max_len + 1):
            # every stored word, then a few words that may not occur
            words = [t.decode(int(c), length) for c in t.level(length)[0]]
            if data is not None:
                word = st.lists(st.integers(0, k - 1), min_size=length, max_size=length)
                words += [tuple(w) for w in data.draw(st.lists(word, max_size=4))]
            codes = np.array([t.encode(w) for w in words], dtype=np.int64)
            rows = t.successor_rows(codes, length)
            assert rows.shape == (len(words), k) and rows.dtype == np.int64
            for w, row in zip(words, rows):
                want = [naive_count(seq, w + (sym,)) for sym in range(k)]
                assert row.tolist() == want
            assert t.successor_rows([], length).shape == (0, k)
        with pytest.raises(InvalidInputError):
            t.successor_rows([0], max_len + 1)

    @pytest.mark.parametrize(
        "k, max_len",
        [(2, 15), (2, 16), (27, 2), (27, 3), (256, 1)],
        ids=["2-symbols-2**16-codes", "2-symbols-2**17-codes", "27-symbols-19683-codes",
             "27-symbols-531441-codes", "256-symbols-2**16-codes"],
    )
    def test_long_streams_match_reference(self, k, max_len):
        # two blocks of 2**16 windows and part of a third, with deepest codes
        # that fit 16 bits (counted by blocks) or not (sorted)
        n = 2 * 2**16 + 1000
        data = np.random.default_rng(k + max_len).integers(0, k, size=n)
        s = SymbolStream(data, Alphabet(tuple(str(i) for i in range(k))))
        t = build_count_table(s, max_len)
        levels = per_level_unique(s.data, k, max_len)

        def reference(codes, length):
            # counts of the words of one length with these codes, zero if absent
            want_codes, want_counts = levels[length]
            at = np.minimum(np.searchsorted(want_codes, codes), want_codes.size - 1)
            return np.where(want_codes[at] == codes, want_counts[at], 0)

        for length in range(max_len + 2):
            codes, counts = t.level(length)
            assert np.array_equal(codes, levels[length][0])
            assert np.array_equal(counts, levels[length][1])
            probe = np.random.default_rng(length).integers(0, k**length, size=20)
            assert [t.count(t.decode(int(c), length)) for c in probe] == reference(
                probe, length).tolist()
        for length in range(max_len + 1):
            codes = levels[length][0]
            successors = codes[:, None] * k + np.arange(k)
            assert np.array_equal(t.successor_rows(codes, length),
                                  reference(successors, length + 1))
        floor = 3
        steps = list(t.walk((), floor, max_len))
        assert [step[0] for step in steps] == list(range(max_len + 1))
        for length, codes, counts, rows in steps:
            want = levels[length][0]
            want_rows = reference(want[:, None] * k + np.arange(k), length + 1)
            kept = want_rows.sum(axis=1) >= floor
            assert np.array_equal(codes, want[kept])
            assert np.array_equal(counts, levels[length][1][kept])
            assert np.array_equal(rows, want_rows[kept])
        # roots that leave 16-bit codes or wider behind them; one ends the stream
        for root in ((k - 1,), tuple(s.data[-2:].tolist())):
            built = build_count_table(s, max_len, root=root)
            view = t.rooted(root)
            for length in range(max_len + 2):
                for got, want in zip(built.level(length), view.level(length)):
                    assert np.array_equal(got, want)
            for length in range(max_len + 1):
                codes = levels[length][0]
                assert np.array_equal(built.successor_rows(codes, length),
                                      view.successor_rows(codes, length))

    @pytest.mark.parametrize(
        "codes", [[2.7], [99], [-1], [True], [10**30], ["a"], [[0]], 0],
        ids=["float", "above", "negative", "bool", "huge", "string", "matrix", "scalar"],
    )
    def test_successor_rows_refuse_codes_outside_the_level(self, codes):
        with pytest.raises(InvalidInputError, match=re.escape("codes must be integers in [0, 2)")):
            _table().successor_rows(codes, 1)

    @given(rooted_tables())
    @example((2, [], 3, ()))
    @example((2, [], 3, (1,)))
    @example((2, [1], 0, ()))
    @example((2, [1], 0, (1,)))
    @example((3, [0, 1], 4, (0, 1)))
    @example((3, [0, 1], 4, (0, 1, 2)))
    @example((27, [0, 0, 0, 0, 26], 2, (0, 26)))
    @example((27, [0, 0, 0, 0, 26], 2, (26,)))
    @example((2, [0, 1, 1, 0, 1, 1, 0], 4, (1, 1, 0)))
    # a view of about 64 deepest codes, folded into one level-1 word; then
    # an empty view read below the table's top
    @example((2, LONG_BINARY, 6, (1,)))
    @example((2, [0] * 10, 3, (1,)))
    @settings(max_examples=300, deadline=None)
    def test_rooted_view_matches_restricted_reference(self, case):
        k, seq, max_len, root = case
        s = SymbolStream(seq, Alphabet(tuple(str(i) for i in range(k))))
        t = build_count_table(s, max_len)
        view = t.rooted(root)
        expected = per_level_unique(s.data, k, max_len)
        base = t.encode(root)
        # deepest first: no level may depend on which were read before
        for length in reversed(range(max_len + 2)):
            codes, counts = view.level(length)
            want_codes, want_counts = expected[length]
            if length < len(root):
                inside = np.zeros(want_codes.size, dtype=bool)
            else:
                span = k ** (length - len(root))
                inside = (want_codes >= base * span) & (want_codes < (base + 1) * span)
            assert codes.dtype == np.int64 and counts.dtype == np.int64
            assert np.array_equal(codes, want_codes[inside])
            assert np.array_equal(counts, want_counts[inside])
            # every word of the full level, those shorter than the root too
            words = [t.decode(int(c), length) for c in want_codes]
            assert [view.count(w) for w in words] == np.where(inside, want_counts, 0).tolist()
        for length in range(max_len + 1):
            # every word of the full level; successors outside the root read zero
            words = [t.decode(int(c), length) for c in t.level(length)[0]]
            codes = np.array([t.encode(w) for w in words], dtype=np.int64)
            rows = view.successor_rows(codes, length)
            assert rows.shape == (len(words), k)
            for w, row in zip(words, rows):
                succ = [w + (sym,) for sym in range(k)]
                want = [naive_count(seq, x) * (x[: len(root)] == root) for x in succ]
                assert row.tolist() == want

    @given(rooted_tables())
    @example((2, [], 3, ()))
    @example((2, [], 3, (1,)))
    # the empty root; a root longer than the stream; a stream below the depth
    @example((5, [0, 1, 2, 3, 4, 0, 1], 6, ()))
    @example((3, [0, 1], 4, (0, 1, 2)))
    @example((3, [0, 1, 2], 6, (0, 1)))
    # a root that never occurs, and roots seen only in the cut windows
    @example((4, [0, 1, 0, 1, 0, 1], 2, (3, 3)))
    @example((3, [0, 0, 0, 0, 2], 3, (2,)))
    @example((3, [0, 0, 0, 0, 2], 3, (0, 2)))
    @example((27, [0, 0, 0, 0, 26], 2, (0, 26)))
    # roots of the full depth, and long views with long prefix runs
    @example((2, [0, 1, 1, 0, 1, 1, 0], 3, (1, 1, 0, 1)))
    @example((27, list(range(27)) * 2, 1, (5, 6)))
    @example((2, LONG_BINARY, 6, (1,)))
    @example((2, LONG_BINARY, 9, (0, 1, 1)))
    @with_examples(*[(case,) for case in ROOTED_EDGES])
    @settings(max_examples=300, deadline=None)
    def test_rooted_build_matches_rooted_view(self, case):
        k, seq, max_len, root = case
        s = SymbolStream(seq, Alphabet(tuple(str(i) for i in range(k))))
        full = build_count_table(s, max_len)
        view = full.rooted(root)
        built = build_count_table(s, max_len, root=root)
        assert built.stream_length == view.stream_length
        assert built.max_len == view.max_len
        # deepest first: no level may depend on which were read before
        for length in reversed(range(max_len + 2)):
            for got, want in zip(built.level(length), view.level(length)):
                assert got.dtype == want.dtype == np.int64
                assert np.array_equal(got, want)
        for length in range(max_len + 1):
            codes = full.level(length)[0]
            assert np.array_equal(
                built.successor_rows(codes, length), view.successor_rows(codes, length)
            )

    @given(rooted_tables())
    @example((2, [], 3, ()))
    @example((2, [], 3, (1,)))
    # roots that end the stream, one of them seen nowhere else
    @example((3, [0, 0, 0, 0, 2], 3, (0, 2)))
    @example((2, [0, 1, 1, 0, 1, 1, 0], 3, (1, 1, 0)))
    # roots longer than the stream, and one a full window long
    @example((3, [0, 1], 4, (0, 1, 2)))
    @example((2, [1], 3, (1, 1)))
    @example((2, [0, 1, 1, 0, 1, 1, 0], 2, (1, 1, 0)))
    @example((2, LONG_BINARY, 6, (1,)))
    @with_examples(*[(case,) for case in ROOTED_EDGES])
    @settings(max_examples=300, deadline=None)
    def test_walk_starts_from_the_root_count(self, case):
        k, seq, max_len, root = case
        s = SymbolStream(seq, Alphabet(tuple(str(i) for i in range(k))))
        want = naive_count(seq, root)
        # a root whose every occurrence ends the stream has no successor
        followed = sum(naive_count(seq, root + (c,)) for c in range(k))
        for table in (build_count_table(s, max_len), build_count_table(s, max_len, root=root)):
            steps = list(table.walk(root, 0, max_len))
            if followed == 0 or len(root) > max_len:
                assert steps == []
                continue
            length, codes, counts, _rows = steps[0]
            assert length == len(root)
            assert codes.dtype == counts.dtype == np.int64
            assert codes.tolist() == [table.encode(root)]
            assert counts.tolist() == [want]
        if root:
            # a word shorter than the table's root counts zero there
            rooted = build_count_table(s, max_len, root=root)
            assert list(rooted.walk(root[:-1], 0, max_len)) == []

    def test_rooted_build_refusals(self, monkeypatch):
        s = stream_from("010101")
        with pytest.raises(InvalidInputError):
            build_count_table(s, max_len=2, root=(0, 1, 0, 1))
        with pytest.raises(InvalidInputError):
            build_count_table(s, max_len=2, root=(2,))
        # no window to count, and still refused
        with pytest.raises(InvalidInputError):
            build_count_table(SymbolStream([], BINARY), max_len=2, root=(2,))
        monkeypatch.setattr(streams, "MAX_TABLE_ENTRIES", 5)
        with pytest.raises(InvalidInputError, match="entries"):
            build_count_table(s, max_len=4, root=(0,))
        with pytest.raises(InvalidInputError, match="non-negative integer"):
            build_count_table(s, max_len=2.5, root=(0,))
        with pytest.raises(InvalidInputError, match="word symbol"):
            build_count_table(s, max_len=2, root="1")

    def test_build_peak_memory(self):
        # 2**11 window codes fit 16 bits: they are counted 2**16 windows at a
        # time, so the build holds one block's codes, not one code per window
        n = 2_000_000
        s = SymbolStream(np.random.default_rng(0).integers(0, 2, size=n), BINARY)
        tracemalloc.start()
        try:
            build_count_table(s, max_len=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n < 0.5

    def test_rooted_build_peak_memory(self):
        # the root's positions are found one block at a time, with no mask
        # of one byte per symbol; 27**3 codes behind the root fit 16 bits
        n = 2_000_000
        alphabet = Alphabet(tuple(str(i) for i in range(27)))
        s = SymbolStream(np.random.default_rng(0).integers(0, 27, size=n), alphabet)
        tracemalloc.start()
        try:
            build_count_table(s, max_len=3, root=(5,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n < 1

    def test_rooted_beyond_coverage(self):
        t = build_count_table(stream_from("010101"), max_len=2)
        t.rooted((0, 1, 0))
        with pytest.raises(InvalidInputError):
            t.rooted((0, 1, 0, 1))

    def test_empty_stream(self):
        for max_len in (0, 2):
            t = build_count_table(SymbolStream([], BINARY), max_len)
            assert t.count(()) == 0
            assert t.count((0,)) == 0

    def test_count_conservation(self):
        # each occurrence has a successor unless it touches the stream end
        rng = np.random.default_rng(3)
        seq = rng.integers(0, 2, size=500)
        s = SymbolStream(seq, BINARY)
        t = build_count_table(s, max_len=5)
        for trial in range(200):
            m = int(rng.integers(0, 6))
            w = tuple(rng.integers(0, 2, size=m))
            c = t.count(w)
            succ = int(t.successor_rows([t.encode(w)], m).sum())
            assert 0 <= c - succ <= 1

    def test_prefix_monotone(self):
        rng = np.random.default_rng(5)
        seq = rng.integers(0, 2, size=400)
        s = SymbolStream(seq, BINARY)
        t = build_count_table(s, max_len=5)
        for trial in range(200):
            m = int(rng.integers(1, 6))
            w = tuple(rng.integers(0, 2, size=m))
            assert t.count(w) <= t.count(w[:-1])

    def test_query_beyond_coverage(self):
        t = build_count_table(stream_from("010101"), max_len=2)
        t.count((0, 1, 0))  # max_len + 1 is covered
        with pytest.raises(InvalidInputError, match=r"word length .* must be at most 3, got 4"):
            t.count((0, 1, 0, 1))

    def test_code_overflow_guard(self):
        a = Alphabet(tuple(str(i) for i in range(100)))
        s = SymbolStream([0, 1, 2], a)
        with pytest.raises(InvalidInputError, match="int64 code range"):
            build_count_table(s, max_len=12)

    def test_entry_budget_guard(self, monkeypatch):
        s = stream_from("01" * 500)
        view = build_count_table(s, 9).rooted((0,))
        monkeypatch.setattr(streams, "MAX_TABLE_ENTRIES", 600)
        # the cap counts what the table stores: 2**9 codes behind the root,
        # where the sum of min(n, 2**L) over every level reaches 2,022
        built = build_count_table(s, 9, root=(0,))
        for length in range(11):
            for got, want in zip(built.level(length), view.level(length)):
                assert np.array_equal(got, want)
        # min(1000 windows, 2**10 codes) > 600
        with pytest.raises(InvalidInputError, match="entries"):
            build_count_table(s, 9)


class TestEntropy:
    def test_frozen_values(self):
        assert entropy([0.85, 0.15]) == pytest.approx(0.60984, abs=5e-6)
        assert entropy([0.25, 0.75]) == pytest.approx(0.811278, abs=5e-7)
        assert entropy([0.3, 0.7]) == pytest.approx(0.881291, abs=5e-7)

    def test_zero_times_log_zero(self):
        assert entropy([1.0, 0.0]) == 0.0
        assert entropy([0.0, 1.0, 0.0]) == 0.0

    def test_point_mass_gives_positive_zero(self):
        assert math.copysign(1.0, entropy([1.0, 0.0])) == 1.0
        assert math.copysign(1.0, entropy([[1.0, 0.0]])[0]) == 1.0

    def test_uniform_is_log_k(self):
        assert entropy([0.25] * 4) == pytest.approx(2.0)

    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=80)
    def test_range(self, k, seed):
        p = np.random.default_rng(seed).dirichlet(np.ones(k))
        h = entropy(p)
        assert -1e-12 <= h <= np.log2(k) + 1e-12

    @given(st.integers(2, 27), st.integers(0, 2**32 - 1))
    @settings(max_examples=80)
    def test_one_distribution_keeps_its_bits(self, k, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(k))
        p[rng.random(k) < 0.3] = 0.0
        nz = p[p > 0.0]
        h = entropy(p)
        assert type(h) is float
        assert h == float(-(nz * np.log2(nz)).sum())

    @given(st.integers(2, 27), st.integers(0, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=80)
    def test_stack_reduces_over_last_axis(self, k, rows, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(k), size=(2, rows))
        p[rng.random(p.shape) < 0.3] = 0.0
        h = entropy(p)
        assert h.shape == (2, rows)
        for got, dist in zip(h.ravel(), p.reshape(-1, k)):
            assert got == pytest.approx(entropy(dist), rel=1e-12, abs=1e-15)


def _table():
    return build_count_table(stream_from("0101"), 2)


# every public size, count, seed and index argument, as the name its error
# gives and a call that passes the value there
SIZE_ARGUMENTS = [
    ("prefix length", lambda v: stream_from("0101").prefix(v)),
    ("depth", lambda v: list(_table().walk((), 1, v))),
    ("count floor", lambda v: list(_table().walk((), v, 2))),
    ("max_len", lambda v: build_count_table(stream_from("0101"), v)),
    ("sample_size", lambda v: EstimatorConfig(epsilon=0.1, sample_size=v)),
    ("max_extension_length", lambda v: EstimatorConfig(epsilon=0.1, max_extension_length=v)),
    ("min_count", lambda v: EstimatorConfig(epsilon=0.1, min_count=v)),
    ("alphabet_size", lambda v: solve_uncertainty(100, v, 0.95, 10)),
    ("stream_length", lambda v: solve_uncertainty(v, 2, 0.95, 10)),
    ("sample_count", lambda v: solve_uncertainty(100, 2, 0.95, v)),
    ("alphabet_size", lambda v: EstimatorConfig(epsilon=0.1).resolved_sample_size(v)),
    ("alphabet_size", lambda v: gen_binary_entropy(0.1, v)),
    ("alphabet_size", lambda v: candidate_length(0.1, v)),
    ("output length", lambda v: ChaoticMapConfig(r=1.5, n=v)),
    ("burn_in", lambda v: ChaoticMapConfig(r=1.5, n=10, burn_in=v)),
    ("stream length", lambda v: iid_stream([0.5, 0.5], v)),
    ("seed", lambda v: iid_stream([0.5, 0.5], 10, seed=v)),
    ("stream length", lambda v: simulate(two_state_synchronizable(), v, seed=0)),
    ("seed", lambda v: simulate(two_state_synchronizable(), 10, seed=v)),
    ("initial state", lambda v: simulate(two_state_synchronizable(), 10, initial_state=v)),
    ("symbol index", lambda v: transformation_matrix(two_state_synchronizable(), v)),
    ("checkpoint", lambda v: lz78_curve(stream_from("0101"), [v])),
    ("word symbol", lambda v: _table().count((v,))),
    ("word symbol", lambda v: build_count_table(stream_from("0101"), 2, root=(v,))),
    ("length (the table covers words up to max_len + 1)", lambda v: _table().level(v)),
    ("length (the table covers successors of words up to max_len)",
     lambda v: _table().successor_rows([0], v)),
]


# past Python's 4,300-digit int-to-string limit, so repr raises ValueError
HUGE = 10**5000


def shown(bad):
    """How a refusal shows a value: an int too long for repr by its digits."""
    if type(bad) is int and abs(bad) == HUGE:
        return f"{'a negative' if bad < 0 else 'an'} integer of 5001 digits"
    return repr(bad)


@pytest.mark.parametrize(
    "bad", [1e3, 2.5, True, np.bool_(True), float("nan"), -1, -HUGE],
    ids=["1e3", "2.5", "True", "numpy-True", "nan", "-1", "-10**5000"],
)
@pytest.mark.parametrize(
    "name, call", SIZE_ARGUMENTS,
    ids=[f"{name}-{i}" for i, (name, _call) in enumerate(SIZE_ARGUMENTS)],
)
def test_size_arguments_refuse_non_integers(name, call, bad):
    with pytest.raises(InvalidInputError) as info:
        call(bad)
    assert name in str(info.value) and shown(bad) in str(info.value)


# every size argument that has a largest value, as the name its error gives,
# a call that passes the value there, and that largest value: the alphabet
# cap of ``Alphabet``, the largest integer a float holds, the last index, the
# stream length, the table's reach, or 61, the largest max_len that a binary
# count table codes in int64.
# Arguments sized from an iterable, such as a word, are left out: building
# one of 10**400 elements never ends.
CAPPED_SIZE_ARGUMENTS = [
    ("alphabet_size", lambda v: solve_uncertainty(100, v, 0.95, 10), 256),
    ("alphabet_size", lambda v: EstimatorConfig(epsilon=0.1).resolved_sample_size(v), 256),
    ("alphabet_size", lambda v: gen_binary_entropy(0.1, v), 256),
    ("alphabet_size", lambda v: candidate_length(0.1, v), 256),
    ("stream_length", lambda v: solve_uncertainty(v, 2, 0.95, 10), int(sys.float_info.max)),
    ("sample_count", lambda v: solve_uncertainty(100, 2, 0.95, v), int(sys.float_info.max)),
    ("initial state", lambda v: simulate(two_state_synchronizable(), 10, initial_state=v), 1),
    ("symbol index", lambda v: transformation_matrix(two_state_synchronizable(), v), 1),
    ("word symbol", lambda v: _table().count((v,)), 1),
    ("checkpoint (capped by the stream length)",
     lambda v: lz78_curve(stream_from("0101"), [v]), 4),
    ("depth (the table covers words up to max_len)", lambda v: list(_table().walk((), 1, v)), 2),
    ("length (the table covers words up to max_len + 1)", lambda v: _table().level(v), 3),
    ("length (the table covers successors of words up to max_len)",
     lambda v: _table().successor_rows([0], v), 2),
    ("max_len (longer words overflow the int64 code range)",
     lambda v: build_count_table(stream_from("0101"), v), 61),
    ("max_extension_length", lambda v: EstimatorConfig(epsilon=0.1, max_extension_length=v), 61),
    ("search_length",
     lambda v: locate_sync_word(stream_from("0101"), 0.1, 10, v, collect_min_count=1), 61),
    ("count floor", lambda v: list(_table().walk((), v, 2)), 2**63 - 1),
    ("burn_in", lambda v: ChaoticMapConfig(r=1.5, n=10, burn_in=v), 10**8),
    ("output length", lambda v: ChaoticMapConfig(r=1.5, n=v), 2**63 - 1),
]


@pytest.mark.parametrize(
    "name, call, largest", CAPPED_SIZE_ARGUMENTS,
    ids=[f"{name}-{i}" for i, (name, _call, _largest) in enumerate(CAPPED_SIZE_ARGUMENTS)],
)
def test_size_arguments_refuse_values_above_their_largest(name, call, largest):
    call(largest)
    for bad in (largest + 1, 10**400, HUGE):
        with pytest.raises(InvalidInputError, match=re.escape(f"{name} must be at most")) as info:
            call(bad)
        assert shown(bad) in str(info.value)


# generated streams stop at the int64 maximum, like the count floor; a call
# at the cap itself would ask NumPy for 8 EiB, so only values past it run
@pytest.mark.parametrize("bad", [2**63, 10**400], ids=["2**63", "10**400"])
@pytest.mark.parametrize(
    "call",
    [lambda v: simulate(two_state_synchronizable(), v, seed=0),
     lambda v: iid_stream([0.5, 0.5], v)],
    ids=["simulate", "iid_stream"],
)
def test_stream_lengths_stop_at_the_int64_maximum(call, bad):
    with pytest.raises(InvalidInputError, match=f"stream length must be at most {2**63 - 1}"):
        call(bad)


# every public real-valued argument, as the name its error gives, a call
# that passes the value there, and its interval
REAL_ARGUMENTS = [
    ("epsilon", lambda v: EstimatorConfig(epsilon=v), 0, 1, "()"),
    ("alpha", lambda v: EstimatorConfig(epsilon=0.1, alpha=v), 0, 1, "()"),
    ("eps", lambda v: gen_binary_entropy(v, 2), 0, 1, "[]"),
    ("alpha", lambda v: solve_uncertainty(100, 2, v, 10), 0, 1, "()"),
    ("sync_frequency", lambda v: solve_uncertainty(100, 2, 0.95, 10, v), 0, 1, "(]"),
    ("epsilon", lambda v: candidate_length(v, 2), 0, 1, "()"),
    ("map parameter", lambda v: ChaoticMapConfig(r=v, n=10), 0, 2, "(]"),
    ("initial condition", lambda v: ChaoticMapConfig(r=1.5, n=10, x0=v), -1, 1, "()"),
]

# every public probability vector, as the name its error gives, a call that
# passes the vector there, and a vector of the wrong length
DISTRIBUTION_ARGUMENTS = [
    ("probabilities", lambda v: iid_stream(v, 10), [1.0]),
    ("state distribution", lambda v: evolve(two_state_synchronizable(), v, (0,)), [0.5] * 3),
    ("state distribution", lambda v: symbol_distribution(two_state_synchronizable(), v), [1.0]),
]


def _number_cases():
    """(call, bad value, words its error must hold) for every argument."""
    for i, (name, call, low, high, closed) in enumerate(REAL_ARGUMENTS):
        # an open end is itself just outside; a closed one is one float past
        below = low if closed[0] == "(" else math.nextafter(low, -math.inf)
        above = high if closed[1] == ")" else math.nextafter(high, math.inf)
        bads = {"str": "0.1", "None": None, "nan": math.nan, "True": True,
                "numpy-True": np.bool_(True), "below": below, "above": above,
                "10**5000": HUGE, "-10**5000": -HUGE}
        if name == "sync_frequency":
            del bads["None"]  # None leaves out the synchronization term
        for label, bad in bads.items():
            words = (f"{name} must lie in", shown(bad))
            yield pytest.param(call, bad, words, id=f"{name}-{i}-{label}")
    for i, (name, call, wrong_length) in enumerate(DISTRIBUTION_ARGUMENTS):
        bads = {"strings": ["a", "b"], "nan": [math.nan, 1.0], "sum": [0.9, 0.9],
                "length": wrong_length}
        for label, bad in bads.items():
            yield pytest.param(call, bad, (name,), id=f"{name}-{i}-{label}")


@pytest.mark.parametrize("call, bad, words", _number_cases())
def test_real_arguments_refuse_non_numbers(call, bad, words):
    with pytest.raises(InvalidInputError) as info:
        call(bad)
    assert all(word in str(info.value) for word in words)


# every public array argument, as the name its error gives, a call that
# passes the array there, and whether it takes only integers
ARRAY_ARGUMENTS = [
    ("stream data", lambda v: SymbolStream(v, BINARY), True),
    ("codes", lambda v: _table().successor_rows(v, 1), True),
    ("dist", entropy, False),
    ("lengths", lambda v: bound_curve(2, 0.95, None, None, v), False),
]


def _array_cases():
    """(call, bad array, name its error must hold) for every argument."""
    for i, (name, call, integral) in enumerate(ARRAY_ARGUMENTS):
        bads = {"ragged": [[0], [1, 0]], "None": None, "object": [object()],
                "10**30": [10**30], "strings": ["0", "1"], "bytes": b"\x00\x01"}
        if integral:
            bads["fraction"] = [1.5]
        for label, bad in bads.items():
            yield pytest.param(call, bad, name, id=f"{name}-{i}-{label}")


@pytest.mark.parametrize("call, bad, name", _array_cases())
def test_array_arguments_refuse_non_arrays(call, bad, name):
    with pytest.raises(InvalidInputError, match=name):
        call(bad)
