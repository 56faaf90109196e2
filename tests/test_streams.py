import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from syncrate import (
    BINARY,
    Alphabet,
    InvalidInputError,
    ResourceLimitError,
    SymbolStream,
    build_count_table,
    entropy,
)


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
    return SymbolStream.from_text(text, BINARY)


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

# the largest code k**top - 1 on each side of the 8-, 16- and 32-bit window
# widths: k = 2 at top 8, 9, 16, 17, 32, 33 and k = 256 at top 1, 2, 4, 5,
# each stream holding that largest code
DTYPE_EDGES = [(2, [1] * top + [0, 1], top - 1) for top in (8, 9, 16, 17, 32, 33)] + [
    (256, [255] * top + [0, 1], top - 1) for top in (1, 2, 4, 5)
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
        for n in (-1, -2, -5, -6):
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
        [[True, False, True], np.array([True, False, True]), [1, 0, 1], [1.0, 0.0, 1.5]],
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

    def test_rooted_build_refusals(self):
        s = stream_from("010101")
        with pytest.raises(InvalidInputError):
            build_count_table(s, max_len=2, root=(0, 1, 0, 1))
        with pytest.raises(InvalidInputError):
            build_count_table(s, max_len=2, root=(2,))
        # no window to count, and still refused
        with pytest.raises(InvalidInputError):
            build_count_table(SymbolStream([], BINARY), max_len=2, root=(2,))
        with pytest.raises(ResourceLimitError):
            build_count_table(s, max_len=4, max_entries=5, root=(0,))

    def test_build_peak_memory(self):
        # 2**11 window codes fit 16 bits: two bytes of codes per symbol, read
        # straight from the one-byte stream, then one byte of run mask
        n = 2_000_000
        s = SymbolStream(np.random.default_rng(0).integers(0, 2, size=n), BINARY)
        tracemalloc.start()
        try:
            build_count_table(s, max_len=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n < 4

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
        with pytest.raises(InvalidInputError, match="length 4 beyond table coverage 3"):
            t.count((0, 1, 0, 1))

    def test_code_overflow_guard(self):
        a = Alphabet(tuple(str(i) for i in range(100)))
        s = SymbolStream([0, 1, 2], a)
        with pytest.raises(ResourceLimitError):
            build_count_table(s, max_len=12)

    def test_entry_budget_guard(self):
        s = stream_from("01" * 500)
        with pytest.raises(ResourceLimitError):
            build_count_table(s, max_len=9, max_entries=100)


class TestEntropy:
    def test_frozen_values(self):
        assert entropy([0.85, 0.15]) == pytest.approx(0.60984, abs=5e-6)
        assert entropy([0.25, 0.75]) == pytest.approx(0.811278, abs=5e-7)
        assert entropy([0.3, 0.7]) == pytest.approx(0.881291, abs=5e-7)

    def test_zero_times_log_zero(self):
        assert entropy([1.0, 0.0]) == 0.0
        assert entropy([0.0, 1.0, 0.0]) == 0.0

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
