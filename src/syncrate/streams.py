"""Symbol streams and overlapping substring statistics.

Words over an alphabet of size k are tuples of symbol indices.  Occurrence
counts are overlapping: "00" occurs twice in "0001".  The empty word occurs
once per position, so its count equals the stream length.

A stream holds one byte per symbol.  ``build_count_table`` counts every word
up to a length with one sort of window codes encoded from the stream in the
narrowest of 2, 4 or 8 bytes that fits, and keeps only the deepest windows
as sorted distinct int64 codes with counts, 16 bytes per distinct window.
Codes put the first symbol in the most significant digit.  Shorter words are
prefixes of those codes, and the words that begin with a given word fill one
contiguous slice of them, so a shorter level is derived on each read and a
per-word view shares the slice.  Memory is the deepest level plus the one
level being read.  Given a root word, the build counts only the windows that
begin with it, so a root seen at a few percent of the positions sorts a few
percent of the windows.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError, ResourceLimitError

# Words are packed into codes, digit i weighted by k**(L-1-i).  The build
# encodes and sorts windows in the narrowest of these dtypes that holds
# k**top - 1; the table stores int64.  Wide codes are int64, the table's
# dtype, not uint64, so k**L must stay inside the int64 range.  uint8 is
# left out: numpy 2.4 sorts it 10-35x slower than uint16 (1e6 values 0.050
# against 0.0013 s, 1e7 values 0.54 against 0.014 s), which made a binary
# depth-6 table take 0.044 s per 1e6 symbols against 0.0045 s.
_CODE_BITS = 62
_WINDOW_DTYPES = (np.uint16, np.uint32, np.int64)

# Stream sources draw their uniforms this many at a time, so generating a
# stream holds 0.5 MB of them rather than 8 bytes per symbol.  Split draws
# from one generator give the same bits as one draw of the whole length.
DRAW_BLOCK = 1 << 16


class Alphabet:
    """Ordered finite symbol set.  Symbols are indices 0..k-1 with labels."""

    __slots__ = ("labels", "_index")

    def __init__(self, labels):
        labels = tuple(str(c) for c in labels)
        if len(labels) < 2:
            raise InvalidInputError("alphabet needs at least two symbols")
        if len(set(labels)) != len(labels):
            raise InvalidInputError("alphabet labels must be distinct")
        if len(labels) > 256:
            # raw stream files store one byte per symbol
            raise InvalidInputError("alphabet larger than 256 symbols")
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

    ``data`` is read-only uint8.  Integer and bool input is range-checked
    before that cast, so nothing wraps; other input goes through int64
    first.  A read-only uint8 array that owns its memory is kept, not copied.
    """

    __slots__ = ("alphabet", "data")

    def __init__(self, data, alphabet: Alphabet):
        arr = np.asarray(data)
        arr = arr if arr.dtype.kind in "biu" else arr.astype(np.int64)
        if arr.ndim != 1:
            raise InvalidInputError("stream data must be one-dimensional")
        if arr.size and (arr.min() < 0 or arr.max() >= alphabet.size):
            raise InvalidInputError("symbol index outside alphabet range")
        if arr.dtype != np.uint8 or arr.flags.writeable or arr.base is not None:
            arr = arr.astype(np.uint8)
            arr.setflags(write=False)
        self.data = arr
        self.alphabet = alphabet

    @classmethod
    def from_text(cls, text, alphabet: Alphabet) -> "SymbolStream":
        return cls([alphabet.index(c) for c in text], alphabet)

    def prefix(self, n: int) -> "SymbolStream":
        if n < 0:
            raise InvalidInputError(f"prefix length must be non-negative, got {n}")
        return SymbolStream(self.data[:n], self.alphabet)

    def __len__(self):
        return int(self.data.size)

    def __repr__(self):
        return f"SymbolStream(len={len(self)}, k={self.alphabet.size})"


def _encode(word, k: int) -> int:
    code = 0
    for sym in word:
        if not 0 <= sym < k:
            raise InvalidInputError("word contains a symbol outside the alphabet")
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
    windows of length top = min(max_len + 1, n), with their counts, and the
    top - 1 windows that the stream end cuts short of that length, as codes
    with their lengths.  Any absent word has count zero.  A shorter level L
    is derived on each read, in one pass: every deepest code is divided down
    to its length-L prefix, the cut windows that reach L are truncated to it
    and inserted with count 1, and each run of equal prefixes sums to one
    entry.  Level 0 holds the empty word, counted once per position.

    Memory: 16 bytes per distinct deepest window, plus the one level being
    read; ``walk`` reads each level once, so none is kept.  ``rooted``
    restricts the table to the words that begin with one word.  Read only.
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
        codes, counts = self.level(len(word))
        return int(counts[codes == self.encode(word)].sum())

    def successor_rows(self, codes, length) -> np.ndarray:
        """Successor counts of words of one length <= max_len, given by code.

        Row i of the (len(codes), k) result holds the count of word_i + sigma
        for each symbol sigma; an empty code array gives zero rows.  The
        successors of the word with code c fill the range [c*k, c*k + k) of
        level length + 1, found by two searches per word.
        """
        if length > self.max_len:
            raise InvalidInputError(
                f"successors of a length-{length} word need coverage {length + 1}"
            )
        k = self.alphabet.size
        first = np.asarray(codes, dtype=np.int64) * k
        stored, counts = self.level(length + 1)
        lo = np.searchsorted(stored, first)
        found = np.searchsorted(stored, first + k) - lo
        word = np.repeat(np.arange(first.size), found)
        # entry j of the concatenated ranges sits at lo + j - (start of its range)
        at = np.arange(word.size) + (lo - np.cumsum(found) + found)[word]
        rows = np.zeros((first.size, k), dtype=np.int64)
        rows[word, stored[at] - first[word]] = counts[at]
        return rows

    def level(self, length: int):
        """(codes, counts) arrays of all stored words of one length."""
        if not 0 <= length <= self.max_len + 1:
            raise InvalidInputError(
                f"word of length {length} beyond table coverage {self.max_len + 1}"
            )
        codes, counts = self._deepest
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
        the words root·w seen at least max(floor, 1) times, in code order,
        their counts and successor rows.  The next length's words are the row
        entries that clear the floor; no word outnumbers its prefix, so none
        is missed, and each level is read once, as successors."""
        if depth > self.max_len:
            raise InvalidInputError(
                f"count table covers words up to length {self.max_len}, walk needs {depth}"
            )
        view = self.rooted(root)
        k = self.alphabet.size
        codes, counts = view.level(len(root))
        for length in range(len(root), depth + 1):
            keep = counts >= max(floor, 1)
            codes, counts = codes[keep], counts[keep]
            if not codes.size:
                return
            rows = view.successor_rows(codes, length)
            yield length, codes, counts, rows
            codes, counts = (codes[:, None] * k + np.arange(k)).ravel(), rows.ravel()

    def rooted(self, word) -> "CountTable":
        """The table restricted to the words that begin with ``word``.

        Those words keep their counts; every other word counts zero.  They
        fill one contiguous slice of the sorted deepest codes, so the view
        shares the table's arrays and derives its own levels from the slice.
        """
        r = len(word)
        if r > self.max_len + 1:
            raise InvalidInputError(
                f"word of length {r} beyond table coverage {self.max_len + 1}"
            )
        base = self.encode(word)
        k = self.alphabet.size
        codes, counts = self._deepest
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
            (codes[lo:hi], counts[lo:hi]),
            (cut_codes[reach], cut_lens[reach]),
            max(self._root_len, r),
        )


def _distinct_windows(columns, size: int, k: int, width: int):
    """Sorted distinct int64 codes of ``size`` windows of ``width`` symbols,
    with their counts.  ``columns`` yields symbol i of every window for i in
    0..width-1; the codes are built in the narrowest window dtype that holds
    k**width - 1 and sorted in place."""
    dtype = next(t for t in _WINDOW_DTYPES if k**width - 1 <= np.iinfo(t).max)
    codes = np.zeros(size, dtype=dtype)
    for i, column in enumerate(columns):
        if i:
            codes *= k
        codes += column
    codes.sort()
    starts = _run_starts(codes)
    # free the window codes before the diff allocates its temporaries
    uniq = codes[starts].astype(np.int64, copy=False)
    del codes
    counts = np.diff(starts, append=size).astype(np.int64, copy=False)
    return uniq, counts


def _cut_windows(data, k: int, top: int):
    """Codes and lengths of the top - 1 proper suffixes of the final window."""
    last = _encode(data[data.size - top :].tolist(), k)
    lens = np.arange(top - 1, 0, -1, dtype=np.int64)
    return last % k**lens, lens


def build_count_table(
    s: SymbolStream, max_len: int, max_entries: int = 200_000_000, root=()
) -> CountTable:
    """Count table covering every word length up to max_len + 1.

    Matches the naive overlapping scan exactly.  One encode and one sort do
    the work: the codes of the windows of the deepest length
    top = min(max_len + 1, n) are built in place, sorted in place and
    counted, and the final window's top - 1 proper suffixes are kept as the
    windows the stream end cuts short.  Only that level is stored; shorter
    ones are derived when read (see ``CountTable``).  The build holds one
    2-, 4- or 8-byte code per window, the narrowest that holds k**top - 1,
    encoded from the one-byte stream without a cast copy of it, then at most
    32 bytes per distinct deepest window while counting; the table keeps 16
    bytes per distinct deepest window.

    A non-empty ``root`` word gives ``build_count_table(s, max_len).rooted(root)``
    without counting the other windows.  A mask of one byte per symbol marks
    the whole windows that begin with the root; they are gathered by their
    8-byte positions, one code per occurrence over the top - len(root)
    symbols behind the root, and sorted and counted as above.  The cost
    follows the root's occurrences, not the stream.  Every build ends in
    ``rooted(root)``, which keeps the cut windows that begin with the root
    and refuses a root longer than max_len + 1 or outside the alphabet.

    Refuses tables whose distinct word bound (sum over lengths of
    min(n, k**L)) exceeds ``max_entries`` or whose codes would overflow
    int64, as the full table would.
    """
    if max_len < 0:
        raise InvalidInputError("max_len must be non-negative")
    k = s.alphabet.size
    n = len(s)
    depth = max_len + 1
    if depth * math.log2(k) > _CODE_BITS:
        raise ResourceLimitError(
            f"words of length {depth} over {k} symbols exceed the int64 code "
            "range; reduce max_len or use a smaller alphabet"
        )
    bound = 0
    for length in range(1, depth + 1):
        bound += min(n, k**length)
        if bound > max_entries:
            raise ResourceLimitError(
                f"count table would hold more than {max_entries} entries; "
                "reduce max_len or raise max_entries explicitly"
            )
    r = len(root)
    top = min(depth, n)
    empty = np.empty(0, dtype=np.int64)
    deepest = cut = (empty, empty)
    if top == 0 and r == 0:
        deepest = (np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64))
    elif r <= top:
        data = s.data
        windows = n - top + 1
        cut = _cut_windows(data, k, top)
        if r == 0:
            columns = (data[i : i + windows] for i in range(top))
            deepest = _distinct_windows(columns, windows, k, top)
        else:
            base = _encode(root, k)
            hit = data[:windows] == root[0]
            for i in range(1, r):
                hit &= data[i : i + windows] == root[i]
            pos = np.flatnonzero(hit)
            columns = (data[i:].take(pos) for i in range(r, top))
            codes, counts = _distinct_windows(columns, pos.size, k, top - r)
            codes += base * k ** (top - r)
            deepest = (codes, counts)
    # a root longer than the stream leaves nothing to count
    return CountTable(s.alphabet, n, max_len, deepest, cut).rooted(root)


def entropy(dist):
    """Shannon entropy in bits over the last axis.  Zero entries contribute zero.

    One distribution gives a float; a stack of them gives one entropy per
    distribution.
    """
    p = np.asarray(dist, dtype=float)
    if p.ndim <= 1:
        # summing the nonzero terms alone fixes the order of a single sum
        p = p[p > 0.0]
    h = -(p * np.log2(np.where(p > 0.0, p, 1.0))).sum(axis=-1)
    return float(h) if p.ndim == 1 else h
