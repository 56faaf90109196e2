"""Symbol streams and overlapping substring statistics.

Words over an alphabet of size k are tuples of symbol indices.  Occurrence
counts are overlapping: "00" occurs twice in "0001".  The empty word occurs
once per position, so its count equals the stream length.

A stream holds one byte per symbol.  ``build_count_table`` counts every word
up to a length from the windows of that length, and keeps only them as
sorted distinct int64 codes with the cumulative sum of their counts, 16
bytes per distinct window.  Window codes below 2**16 are built 2**16 windows at a
time in reused uint16 buffers and counted into one total over every possible
code; wider codes are built in 4 or 8 bytes per window and sorted.  Codes
put the first symbol in the most significant digit, so the deepest codes
that begin with a given word fill one contiguous range: a shorter word's
count is a difference of the cumulative sum at the two ends of its range,
and a per-word view shares the range.  Given a root word, the build counts
only the windows that begin with it, found one block at a time, so a root
seen at a few percent of the positions adds a few percent of the windows.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import InvalidInputError

# Words are packed into codes, digit i weighted by k**(L-1-i).  A build
# whose codes fit 16 bits builds and counts them ``_COUNT_BLOCK`` windows at
# a time in uint16 and never sorts them; wider codes are built and sorted in
# the narrower of these dtypes that holds k**top - 1, and the table stores
# int64.  Wide codes are int64, the table's dtype, not uint64, so k**L must
# stay inside the int64 range.
_CODE_BITS = 62
_WINDOW_DTYPES = (np.uint32, np.int64)
# codes below 2**16 are counted this many windows at a time
_COUNT_BLOCK = 1 << 16

# Stream sources draw their uniforms this many at a time, so generating a
# stream holds 0.5 MB of them rather than 8 bytes per symbol.  Split draws
# from one generator give the same bits as one draw of the whole length.
DRAW_BLOCK = 1 << 16

# the most entries ``build_count_table`` may store, 3.2 GB at 16 bytes each
MAX_TABLE_ENTRIES = 200_000_000

# raw stream files store one byte per symbol
MAX_ALPHABET_SIZE = 256


def _shown(value) -> str:
    try:
        return repr(value)
    except ValueError:  # an int past Python's int-to-string limit (4,300 digits)
        from decimal import Decimal  # Decimal(int) is exact, with no such limit
        digits = Decimal(value).adjusted() + 1
        return f"{'a negative' if value < 0 else 'an'} integer of {digits} digits"


def check_size(value, name: str, minimum: int = 0, maximum=None) -> None:
    """Refuse with InvalidInputError anything but an int or NumPy integer,
    bools excluded, of at least ``minimum`` and, when given, at most
    ``maximum``.  Sizes, counts, seeds and indices pass through it, so 1e3,
    2.5, True, NaN or an int past a cap gets a typed error naming the
    argument instead of reaching NumPy, ``range`` or a float conversion."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not integral or value < minimum:
        kind = {0: "a non-negative integer", 1: "a positive integer"}.get(
            minimum, f"an integer of at least {minimum}"
        )
        raise InvalidInputError(f"{name} must be {kind}, got {_shown(value)}")
    if maximum is not None and value > maximum:
        raise InvalidInputError(f"{name} must be at most {maximum!r}, got {_shown(value)}")


def check_real(value, name: str, low, high, closed: str = "()") -> None:
    """Refuse with InvalidInputError anything but a real number, bools
    excluded, in the interval from ``low`` to ``high`` with the brackets
    ``closed``, such as "(]".  NaN lies in no interval."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and (low <= value if closed[0] == "[" else low < value)
            and (value <= high if closed[1] == "]" else value < high)):
        interval = f"{closed[0]}{low}, {high}{closed[1]}"
        raise InvalidInputError(f"{name} must lie in {interval}, got {_shown(value)}")


def check_array(values, name: str, kinds: str = "iuf", below=None) -> np.ndarray:
    """``values`` as a NumPy array, refused with InvalidInputError when it is
    ragged or its dtype kind is not in ``kinds``: "iu" takes integers, "iuf"
    real numbers, and neither takes bools, strings or None.  Given ``below``,
    only a vector of values in [0, below) passes; an empty one always does."""
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError):  # ragged rows
        arr = None
    if below is not None:
        if arr is None or arr.ndim != 1 or arr.size and not (
                arr.dtype.kind in kinds and arr.min() >= 0 and arr.max() < below):
            raise InvalidInputError(f"{name} must be integers in [0, {below})")
    elif arr is None or arr.dtype.kind not in kinds:
        what = "integers" if kinds == "iu" else "real numbers"
        raise InvalidInputError(f"{name} must be an array of {what}")
    return arr


def check_distribution(values, name: str, size: int | None = None) -> np.ndarray:
    """``values`` as a float64 vector, refused with InvalidInputError unless
    it has ``size`` entries (at least two when None), all finite and
    non-negative, summing to 1 within 1e-9."""
    d = check_array(values, name).astype(np.float64)
    sized = d.size >= 2 if size is None else d.size == size
    if d.ndim != 1 or not sized or not (
        np.isfinite(d).all() and d.min() >= 0.0 and abs(d.sum() - 1.0) <= 1e-9
    ):
        count = "at least two" if size is None else size
        raise InvalidInputError(
            f"{name} must be {count} finite non-negative numbers summing to 1"
        )
    return d


class Alphabet:
    """Ordered finite symbol set.  Symbols are indices 0..k-1 with labels."""

    __slots__ = ("labels", "_index")

    def __init__(self, labels):
        labels = tuple(str(c) for c in labels)
        check_size(len(labels), "alphabet size", 2, MAX_ALPHABET_SIZE)
        if len(set(labels)) != len(labels):
            raise InvalidInputError("alphabet labels must be distinct")
        self.labels = labels
        self._index = {c: i for i, c in enumerate(labels)}

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise InvalidInputError(f"symbol {label!r} not in alphabet") from None

    def encode(self, text) -> tuple:
        """Word (tuple of indices) for a string of single-character labels."""
        return tuple(self.index(c) for c in text)

    def word_label(self, word) -> str:
        return "".join(self.labels[i] for i in word)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        if self.size > 8:
            return f"Alphabet(size={self.size})"
        return f"Alphabet({self.labels!r})"


BINARY = Alphabet(("0", "1"))


class SymbolStream:
    """Immutable run of symbol indices over a fixed alphabet, one byte each.

    ``data`` is read-only uint8.  Input must be integers or bools in [0, k),
    checked before that cast, so nothing wraps; floats and strings are
    refused.  A read-only uint8 array that owns its memory is kept, not copied.
    """

    __slots__ = ("alphabet", "data")

    def __init__(self, data, alphabet: Alphabet):
        arr = check_array(data, "stream data", "biu", alphabet.size)
        if arr.dtype != np.uint8 or arr.flags.writeable or arr.base is not None:
            arr = arr.astype(np.uint8)
            arr.setflags(write=False)
        self.data = arr
        self.alphabet = alphabet

    def prefix(self, n: int) -> "SymbolStream":
        check_size(n, "prefix length")
        return SymbolStream(self.data[:n], self.alphabet)

    def __len__(self):
        return int(self.data.size)

    def __repr__(self):
        return f"SymbolStream(len={len(self)}, k={self.alphabet.size})"


def _encode(word, k: int) -> int:
    code = 0
    for sym in word:
        check_size(sym, "word symbol", 0, k - 1)
        code = code * k + int(sym)
    return code


def _run_starts(codes) -> np.ndarray:
    """Index of the first element of each run of equal sorted codes."""
    first = np.empty(codes.size, dtype=bool)
    first[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    return np.flatnonzero(first)


class CountTable:
    """Occurrence counts for every word of length <= max_len + 1 in a stream.

    Only the deepest level is stored: the sorted distinct int64 codes of the
    windows of length top = min(max_len + 1, n) with the cumulative sum of
    their counts, and the top - 1 windows that the stream end cuts short of
    that length, as codes with their lengths.  Any absent
    word has count zero.  The deepest codes that begin with a word fill one
    contiguous range, so ``count``, ``successor_rows`` and ``walk`` read a
    word's count as the difference of the cumulative sum at the range's two
    ends, found by search, plus the cut windows that reach the word's length.
    ``level`` derives a whole shorter level L in one pass: every deepest code
    is divided down to its length-L prefix, the cut windows that reach L are
    truncated to it and inserted with count 1, and each run of equal
    prefixes sums to one entry.  Level 0 holds the empty word, counted once
    per position.

    Memory: 16 bytes per distinct deepest window; reads by range allocate in
    proportion to the words read, ``level`` in proportion to the deepest
    level.  ``rooted`` restricts the table to the words that begin with one
    word.  Read only.
    """

    __slots__ = (
        "alphabet", "stream_length", "max_len", "_root_len", "_top", "_cut", "_deepest"
    )

    def __init__(self, alphabet, stream_length, max_len, deepest, cut, root_len=0):
        self.alphabet = alphabet
        self.stream_length = stream_length
        self.max_len = max_len
        self._root_len = root_len
        self._top = min(max_len + 1, stream_length)
        self._cut = cut
        # codes and, one longer, the count of the deepest windows below each
        # code and then of all of them: count i is cum[i + 1] - cum[i]
        self._deepest = deepest

    def encode(self, word) -> int:
        return _encode(word, self.alphabet.size)

    def decode(self, code: int, length: int) -> tuple:
        k = self.alphabet.size
        out = []
        for _ in range(length):
            code, d = divmod(code, k)
            out.append(int(d))
        return tuple(reversed(out))

    def count(self, word) -> int:
        """Occurrences of ``word``; zero for a word shorter than the table's root."""
        check_size(len(word), "word length (the table covers words up to max_len + 1)",
                   0, self.max_len + 1)
        return int(self._range_counts(np.array([self.encode(word)]), len(word), 1)[0, 0])

    def successor_rows(self, codes, length) -> np.ndarray:
        """Successor counts of words of one length <= max_len, given by code.

        Row i of the (len(codes), k) result holds the count of word_i + sigma
        for each symbol sigma; an empty code array gives zero rows, and one
        that is not a vector of integers in [0, k**length) is refused.  The
        successors of the word with code c have the codes c*k .. c*k + k - 1
        of length + 1, read as k ranges of the deepest codes.
        """
        check_size(length, "length (the table covers successors of words up to max_len)",
                   0, self.max_len)
        k = self.alphabet.size
        codes = check_array(codes, "codes", "iu", k**length)
        return self._range_counts(codes.astype(np.int64) * k, length + 1, k)

    def _range_counts(self, first, length: int, width: int) -> np.ndarray:
        """(len(first), width) counts of the words of one length whose codes
        run from first[i] to first[i] + width - 1.  The deepest codes that
        begin with code c fill [c * s, (c + 1) * s), s = k**(top - length),
        so the width + 1 bounds of each row, found by one search, cut the
        cumulative counts into the row's counts; the cut windows that reach
        the length add one each."""
        if not self._root_len <= length <= self._top:
            return np.zeros((first.size, width), dtype=np.int64)
        k = self.alphabet.size
        bounds = (first[:, None] + np.arange(width + 1)) * k ** (self._top - length)
        codes, cum = self._deepest
        rows = np.diff(cum[np.searchsorted(codes, bounds)], axis=1)
        cut_codes, cut_lens = self._cut
        reach = cut_lens >= length
        if reach.any():
            at = cut_codes[reach] // k ** (cut_lens[reach] - length) - first[:, None]
            word, cut = np.nonzero((at >= 0) & (at < width))
            np.add.at(rows, (word, at[word, cut]), 1)
        return rows

    def level(self, length: int):
        """(codes, counts) arrays of all stored words of one length."""
        check_size(length, "length (the table covers words up to max_len + 1)",
                   0, self.max_len + 1)
        codes, cum = self._deepest
        counts = np.diff(cum)
        if length == self._top:
            return codes, counts
        if not self._root_len <= length < self._top:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        k = self.alphabet.size
        prefix = codes // k ** (self._top - length)
        cut_codes, cut_lens = self._cut
        reach = cut_lens >= length
        if reach.any():  # a rooted view rarely holds one: skip the two copies
            extra = np.sort(cut_codes[reach] // k ** (cut_lens[reach] - length))
            at = np.searchsorted(prefix, extra)
            prefix = np.insert(prefix, at, extra)
            counts = np.insert(counts, at, 1)
        # prefixes of sorted codes stay sorted, so equal prefixes form runs
        starts = _run_starts(prefix)
        prefix = prefix[starts]  # frees the full prefix array before the sums
        return prefix, np.add.reduceat(counts, starts)

    def walk(self, root, floor: int, depth: int):
        """Yield (length, codes, counts, rows) for length = len(root)..depth:
        the words root·w followed by a symbol at least max(floor, 1) times,
        in code order, with their counts and successor rows.  This one floor
        serves both phases; an occurrence that ends the stream has no
        successor.  Counts pre-filter, as no word has more successors than
        occurrences.  The next length's words are the row entries, so each
        count is read once; no word outnumbers its prefix, so none is missed.
        The root's count is ``count(root)``, zero below the table's root."""
        check_size(depth, "depth (the table covers words up to max_len)", 0, self.max_len)
        check_size(floor, "count floor", 0, np.iinfo(np.int64).max)  # counts are int64
        floor = max(floor, 1)
        view = self.rooted(root)
        k = self.alphabet.size
        codes = np.array([self.encode(root)], dtype=np.int64)
        counts = np.array([view.count(root)], dtype=np.int64)
        for length in range(len(root), depth + 1):
            keep = counts >= floor
            codes, counts = codes[keep], counts[keep]
            rows = view.successor_rows(codes, length)
            keep = rows.sum(axis=1) >= floor
            codes, counts, rows = codes[keep], counts[keep], rows[keep]
            if not codes.size:
                return
            yield length, codes, counts, rows
            codes, counts = (codes[:, None] * k + np.arange(k)).ravel(), rows.ravel()

    def rooted(self, word) -> "CountTable":
        """The table restricted to the words that begin with ``word``.

        Those words keep their counts; every other word counts zero.  They
        fill one contiguous slice of the sorted deepest codes, so the view
        shares that slice of the table's arrays and reads only from it.
        """
        r = len(word)
        check_size(r, "word length (the table covers words up to max_len + 1)",
                   0, self.max_len + 1)
        base = self.encode(word)
        k = self.alphabet.size
        codes, cum = self._deepest
        cut_codes, cut_lens = self._cut
        lo = hi = 0
        reach = cut_lens >= r
        if r <= self._top:
            # code(word) * k^m + code(tail) for every tail of length m
            span = k ** (self._top - r)
            lo, hi = np.searchsorted(codes, [base * span, (base + 1) * span])
            reach[reach] = cut_codes[reach] // k ** (cut_lens[reach] - r) == base
        return CountTable(
            self.alphabet,
            self.stream_length,
            self.max_len,
            (codes[lo:hi], cum[lo : hi + 1]),
            (cut_codes[reach], cut_lens[reach]),
            max(self._root_len, r),
        )


def _root_hits(data, root, start: int, size: int) -> np.ndarray:
    """Offsets below ``size`` from ``start`` at which ``data`` holds ``root``."""
    hit = data[start : start + size] == root[0]
    for i in range(1, len(root)):
        hit &= data[start + i : start + i + size] == root[i]
    return np.flatnonzero(hit)


def _block_codes(data, start: int, size: int, width: int, k: int, bufs) -> np.ndarray:
    """Codes of the ``size`` windows of ``width`` symbols of ``data`` from
    ``start``, built in the two reused rows of ``bufs``, whose dtype must
    hold k**width - 1.  The code of w symbols at j, times k**w, plus the
    code of the w symbols at j + w is the code of 2w symbols at j.  Doubling
    w, and adding one symbol for each set bit of ``width``, takes about
    2 log2(width) passes over the block where adding one symbol at a time
    takes 2 width."""
    cur, nxt = bufs
    if not width:
        cur[:size] = 0
        return cur[:size]
    n = size + width - 1  # cur holds the n codes of w symbols the block needs
    cur[:n] = data[start : start + n]
    w = 1
    for bit in bin(width)[3:]:
        n -= w
        np.multiply(cur[:n], k**w, out=nxt[:n])
        nxt[:n] += cur[w : w + n]
        cur, nxt = nxt, cur
        w *= 2
        if bit == "1":
            n -= 1
            cur[:n] *= k
            cur[:n] += data[start + w : start + w + n]
            w += 1
    return cur[:size]


def _counted_windows(data, root, windows: int, k: int, top: int):
    """Sorted distinct int64 codes of the symbols behind ``root`` in the
    windows of ``top`` symbols that begin with it, among the first
    ``windows`` positions, with the cumulative sum of their counts, for at
    most 2**16 codes.  The codes of each 2**16 positions are built in uint16
    and the root's are counted into one total over every possible code."""
    r = len(root)
    total = np.zeros(k ** (top - r), dtype=np.int64)
    bufs = np.empty((2, _COUNT_BLOCK + top), dtype=np.uint16)
    for start in range(0, windows, _COUNT_BLOCK):
        size = min(_COUNT_BLOCK, windows - start)
        codes = _block_codes(data, start + r, size, top - r, k, bufs)
        if root:
            codes = codes[_root_hits(data, root, start, size)]
        total += np.bincount(codes, minlength=total.size)
    codes = np.flatnonzero(total).astype(np.int64, copy=False)
    return codes, np.concatenate(([0], np.cumsum(total[codes])))


def _sorted_windows(data, root, windows: int, k: int, top: int):
    """``_counted_windows`` for more than 2**16 codes: one code per window
    that begins with ``root`` is built a symbol at a time in the narrower
    window dtype that holds k**(top - len(root)) - 1, sorted in place, and
    each run of equal codes is one entry."""
    r = len(root)
    index = slice(0, windows)
    if root:
        index = np.concatenate([
            _root_hits(data, root, start, min(_COUNT_BLOCK, windows - start)) + start
            for start in range(0, windows, _COUNT_BLOCK)
        ])
    dtype = next(t for t in _WINDOW_DTYPES if k ** (top - r) - 1 <= np.iinfo(t).max)
    codes = np.zeros(windows if r == 0 else index.size, dtype=dtype)
    for i in range(r, top):
        if i > r:
            codes *= k
        codes += data[i:][index]
    del index  # the positions go before the sort's arrays come
    codes.sort()
    starts = _run_starts(codes)
    uniq = codes[starts].astype(np.int64, copy=False)
    size = codes.size
    del codes
    # a run starts after as many windows as the runs before it hold
    return uniq, np.append(starts, size)


def _cut_windows(data, k: int, top: int):
    """Codes and lengths of the top - 1 proper suffixes of the final window."""
    last = _encode(data[data.size - top :].tolist(), k)
    lens = np.arange(top - 1, 0, -1, dtype=np.int64)
    return last % k**lens, lens


def build_count_table(s: SymbolStream, max_len: int, root=()) -> CountTable:
    """Count table covering every word length up to max_len + 1.

    Matches the naive overlapping scan exactly.  The windows of the deepest
    length top = min(max_len + 1, n) are counted, and the final window's
    top - 1 proper suffixes are kept as the windows the stream end cuts
    short.  Only that level is stored; shorter ones are read from it (see
    ``CountTable``).  When k**top is at most 2**16, the codes of 2**16
    windows at a time are built in two reused uint16 buffers, by doubling
    the code length (``_block_codes``), and counted with ``np.bincount`` into
    a total of k**top int64 counts, whose nonzero entries are the sorted
    distinct codes; no code per window is kept and nothing is sorted.  Wider
    codes take one 4- or 8-byte code per window, the narrower that holds
    k**top - 1, built one symbol at a time from the one-byte stream and
    sorted in place, then at most 24 bytes per distinct deepest window while
    counting.  The table keeps 16 bytes per distinct deepest window: its
    code and the count of the windows before it.

    A non-empty ``root`` word gives ``build_count_table(s, max_len).rooted(root)``
    without counting the other windows.  Each block of 2**16 positions is
    compared with the root's symbols to find where it begins.  Codes of the
    top - len(root) symbols behind the root that fit 16 bits are built for
    the whole block and only the root's are counted; wider ones are built
    for the root's windows alone, gathered by their 8-byte positions, and
    sorted as above.  Every build ends in ``rooted(root)``, which keeps the
    cut windows that begin with the root and refuses a root longer than
    max_len + 1 or outside the alphabet.

    Refuses with InvalidInputError a table that may store more than
    ``MAX_TABLE_ENTRIES`` entries, min(n, k**(top - len(root))): at most one
    per window and one per code of the symbols behind the root.  Refuses
    codes that would overflow int64 the same way.
    """
    k = s.alphabet.size
    check_size(max_len, "max_len (longer words overflow the int64 code range)",
               0, math.floor(_CODE_BITS / math.log2(k)) - 1)
    n = len(s)
    r = len(root)
    top = min(max_len + 1, n)
    if min(n, k ** max(top - r, 0)) > MAX_TABLE_ENTRIES:
        raise InvalidInputError(
            f"count table would hold more than {MAX_TABLE_ENTRIES} entries; "
            "reduce max_len or count behind a longer root"
        )
    empty = np.empty(0, dtype=np.int64)
    cut = (empty, empty)
    deepest = (empty, np.zeros(1, dtype=np.int64))
    if top == 0 and r == 0:
        deepest = (np.zeros(1, dtype=np.int64), np.zeros(2, dtype=np.int64))
    elif r <= top:
        data = s.data
        windows = n - top + 1
        cut = _cut_windows(data, k, top)
        base = _encode(root, k)
        count = _counted_windows if k ** (top - r) <= 1 << 16 else _sorted_windows
        codes, cum = count(data, root, windows, k, top)
        codes += base * k ** (top - r)
        deepest = (codes, cum)
    # a root longer than the stream leaves nothing to count
    return CountTable(s.alphabet, n, max_len, deepest, cut).rooted(root)


def entropy(dist):
    """Shannon entropy in bits over the last axis.  Zero entries contribute zero.

    One distribution gives a float; a stack of them gives one entropy per
    distribution.
    """
    p = check_array(dist, "dist").astype(float, copy=False)
    if p.ndim <= 1:
        # summing the nonzero terms alone fixes the order of a single sum
        p = p[p > 0.0]
    # 0.0 - x, not -x: a point mass's zero sum gives +0.0, not -0.0
    h = 0.0 - (p * np.log2(np.where(p > 0.0, p, 1.0))).sum(axis=-1)
    return float(h) if p.ndim == 1 else h
