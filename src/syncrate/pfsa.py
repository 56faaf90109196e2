"""Probabilistic finite-state machines with deterministic labeled transitions.

A machine has states 0..Q-1 over an Alphabet of size k, a transition function
delta (state, symbol) -> state, and per-state emission probabilities pi
(state, symbol) -> [0, 1] with unit row sums.  Arcs with zero probability may
leave delta undefined (stored as -1); every positive arc must be defined and
the positive-arc graph must be strongly connected (checked without scipy).
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

from .errors import EstimationError, InvalidInputError
from .streams import (
    BINARY, DRAW_BLOCK, Alphabet, SymbolStream, check_array, check_distribution, check_size, entropy
)

_ROW_SUM_TOL = 1e-12
_STATIONARY_TOL = 1e-10
# simulate scans blocks for machines of at most this many states and runs
# the per-symbol loop above it (see its docstring for the break-even); with
# at most 256 symbols the scan's cells then fit uint16
_SCAN_MAX_STATES = 32
# buckets of the table that starts each uniform's cell search
_BUCKETS = 1 << 16
# steps between the scan's tests for coalesced rows
_COALESCE_CHECK = 8


class Pfsa:
    """Validated immutable machine; construct directly or via parse_pfsa."""

    __slots__ = ("alphabet", "delta", "pi")

    def __init__(self, alphabet: Alphabet, delta, pi):
        self.alphabet = alphabet
        delta = check_array(delta, "delta", "iu")
        if delta.size and int(delta.max()) > np.iinfo(np.int64).max:
            # an unsigned target past int64 would wrap, 2**64 - 1 to the -1 marker
            raise InvalidInputError("delta must hold integers within the int64 range")
        self.delta = delta.astype(np.int64)
        self.pi = check_array(pi, "pi").astype(np.float64)
        self.delta.setflags(write=False)
        self.pi.setflags(write=False)
        validate(self)

    @property
    def n_states(self) -> int:
        return self.delta.shape[0]

    def __repr__(self):
        return f"Pfsa(states={self.n_states}, k={self.alphabet.size})"


def validate(p: Pfsa) -> None:
    """Raise InvalidInputError unless every machine invariant holds; strong
    connectivity takes a stack search from state 0 each way, linear in arcs."""
    delta, pi = p.delta, p.pi
    if delta.ndim != 2 or pi.shape != delta.shape:
        raise InvalidInputError("delta and pi must share shape (states, symbols)")
    q, k = delta.shape
    if q < 1:
        raise InvalidInputError("machine needs at least one state")
    if k != p.alphabet.size:
        raise InvalidInputError("emission width does not match alphabet size")
    if not np.isfinite(pi).all() or (pi < 0).any() or (pi > 1).any():
        raise InvalidInputError("emission probabilities must lie in [0, 1]")
    rows = pi.sum(axis=1)
    bad = np.nonzero(np.abs(rows - 1.0) > _ROW_SUM_TOL)[0]
    if bad.size:
        raise InvalidInputError(
            f"state {int(bad[0])}: emission row sums to {rows[bad[0]]!r}, not 1"
        )
    positive = pi > 0.0
    if ((delta < 0) & positive).any() or (delta >= q).any() or (delta < -1).any():
        raise InvalidInputError(
            "every positive-probability arc needs a target state in range"
        )
    src, dst = np.nonzero(positive)[0], delta[positive]
    for tails, heads, fails in ((src, dst, "is not reached from"), (dst, src, "does not reach")):
        order = np.argsort(tails)
        nxt = heads[order].tolist()
        first = np.searchsorted(tails[order], np.arange(q + 1)).tolist()
        seen, stack = {0}, [0]
        while stack:
            s = stack.pop()
            new = set(nxt[first[s] : first[s + 1]]) - seen
            seen |= new
            stack += new
        if len(seen) < q:
            raise InvalidInputError(
                "positive-arc graph is not strongly connected: "
                f"state {min(set(range(q)) - seen)} {fails} state 0"
            )


def markov_matrix(p: Pfsa) -> np.ndarray:
    """State transition matrix: M[i, j] = total probability of moving i -> j."""
    return sum(transformation_matrix(p, sym) for sym in range(p.alphabet.size))


def transformation_matrix(p: Pfsa, symbol: int) -> np.ndarray:
    """Per-symbol evolution matrix: entry (i, delta(i, symbol)) = pi(i, symbol)."""
    check_size(symbol, "symbol index", 0, p.alphabet.size - 1)
    q = p.n_states
    g = np.zeros((q, q))
    active = p.pi[:, symbol] > 0.0
    g[np.nonzero(active)[0], p.delta[active, symbol]] = p.pi[active, symbol]
    return g


def stationary_distribution(p: Pfsa) -> np.ndarray:
    """Unique stationary state distribution of the machine's Markov chain.

    Solves d (M - I) = 0 with the last equation replaced by sum(d) = 1,
    which is nonsingular for every strongly connected chain, periodic ones
    included.  The result must satisfy d M = d to 1e-10; a singular system
    or a larger residual raises EstimationError.
    """
    m = markov_matrix(p)
    q = m.shape[0]
    a = m.T - np.eye(q)
    a[-1, :] = 1.0
    b = np.zeros(q)
    b[-1] = 1.0
    try:
        d = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise EstimationError(f"stationary solve failed: {exc}") from exc
    d = np.clip(d, 0.0, None)
    d /= d.sum()
    residual = np.abs(d @ m - d).max()
    if not residual <= _STATIONARY_TOL:
        raise EstimationError(
            f"stationary residual {residual:.3e} above {_STATIONARY_TOL:.0e}"
        )
    return d


def analytical_entropy_rate(p: Pfsa) -> float:
    """Exact entropy rate in bits per symbol: stationary average of the
    per-state emission entropies."""
    d = stationary_distribution(p)
    return float(sum(d[i] * entropy(p.pi[i]) for i in range(p.n_states)))


def evolve(p: Pfsa, dist, word) -> np.ndarray:
    """Push a state distribution through a word: after each symbol s it is
    ``d @ transformation_matrix(p, s)``, renormalized.  Raises
    InvalidInputError if the word has zero probability from every state
    with mass."""
    d = check_distribution(dist, "state distribution", p.n_states)
    for pos, symbol in enumerate(word):
        nxt = d @ transformation_matrix(p, symbol)
        total = nxt.sum()
        if total <= 0.0:
            raise InvalidInputError(
                f"symbol at position {pos} has zero probability under the "
                "current state distribution"
            )
        d = nxt / total
    return d


def symbol_distribution(p: Pfsa, dist) -> np.ndarray:
    """Next-symbol distribution seen from a state distribution."""
    return check_distribution(dist, "state distribution", p.n_states) @ p.pi


def simulate(p: Pfsa, n: int, seed=None, initial_state=None) -> SymbolStream:
    """Sample a length-n stream.  The initial state defaults to a draw from
    the stationary distribution, so the output is stationary from symbol 0.

    Each symbol takes one uniform u = 1 - r, with r from ``rng.random``
    drawn ``DRAW_BLOCK`` at a time, and is the first symbol whose cumulative
    probability in the current state's row reaches u (``bisect_left``), so
    zero-probability symbols are never drawn.  The stream's one byte per
    symbol is the only allocation that grows with n.

    A machine of more than ``_SCAN_MAX_STATES`` states is stepped symbol by
    symbol in Python.  A smaller one is simulated a block at a time, to the
    same bytes.  The distinct cumulative values of all rows cut (0, 1] into
    cells.  All u in one cell give the same answer to each comparison
    ``bisect_left`` makes in any row, so the cell fixes every state's symbol
    and next state, which become table lookups.  u * 2**16 is exact, so a
    table of 2**16 buckets gives the cell of every u whose bucket holds no
    cell edge; the few others are searched.  The block is cut into about
    sqrt(block) rows.  Each row steps all Q start states at once, coupled
    chains that share one uniform per step (Propp and Wilson 1996), until
    the chains of every row have met; from there one chain per row goes on.
    The rows' state maps chain the row start states (a scan over blocks, as
    in Blelloch 1990), and each row is walked from its start up to the step
    where its chains met.  Chains that never meet cost Q lookups per
    symbol.  Even so, on permutation machines at 1e6 symbols, whose chains
    never meet, the scan beat the loop up to about 90 states (at 32,
    0.10-0.13 s against 0.20-0.25 s), so the constant keeps a margin of
    about two.
    """
    check_size(n, "stream length", 0, np.iinfo(np.int64).max)
    if seed is not None:
        check_size(seed, "seed")
    rng = np.random.default_rng(seed)
    if initial_state is None:
        state = int(rng.choice(p.n_states, p=stationary_distribution(p)))
    else:
        check_size(initial_state, "initial state", 0, p.n_states - 1)
        state = int(initial_state)
    cum = np.cumsum(p.pi, axis=1)
    cum[:, -1] = 1.0
    out = np.empty(n, dtype=np.uint8)
    if p.n_states > _SCAN_MAX_STATES:
        _simulate_loop(cum, p.delta, state, rng, out)
    else:
        _simulate_scan(cum, p.delta, state, rng, out)
    out.setflags(write=False)
    return SymbolStream(out, p.alphabet)


def _simulate_loop(cum, delta, state, rng, out) -> None:
    cum_rows = cum.tolist()
    delta_rows = delta.tolist()
    dst = memoryview(out)
    for start in range(0, out.size, DRAW_BLOCK):
        us = rng.random(min(DRAW_BLOCK, out.size - start))
        np.subtract(1.0, us, out=us)
        for i, u in enumerate(memoryview(us), start):
            sym = bisect_left(cum_rows[state], u)
            dst[i] = sym
            state = delta_rows[state][sym]


def _simulate_scan(cum, delta, state, rng, out) -> None:
    q = delta.shape[0]
    # Each row's values are non-decreasing up to the last, forced to 1.0, so
    # "row[i] < u" holds on a prefix of the row for every u <= 1 and any
    # binary search, bisect_left's or searchsorted's, finds its end.
    edges = np.unique(cum[cum <= 1.0])
    c = edges.size
    sym = np.stack([row.searchsorted(edges) for row in cum])
    # The scan keeps each state as its row offset state * c into the flat
    # tables, so one add and one take step every chain.  An undefined arc is
    # reached only through a row whose sum rounds below 1.0; the loop then
    # reads its rows at index -1, which is state q - 1.
    nxt = np.take_along_axis(delta % q * c, sym, axis=1).ravel()
    sym = sym.astype(np.uint8).ravel()
    edges *= _BUCKETS
    lo, split = _bucket_table(edges)
    state *= c
    for start in range(0, out.size, DRAW_BLOCK):
        dst = out[start : start + DRAW_BLOCK]
        cells = _cells(rng.random(dst.size), edges, lo, split)
        state = _scan_block(cells, state, sym, nxt, c, dst)
        del cells  # the next lookup need not hold these cells beside its own


def _bucket_table(edges):
    """Bucket b of the edges scaled by 2**16 (an exact scaling) holds the
    scaled u in [b, b + 1).  Return for each bucket the number of edges
    below it and whether an edge falls in it."""
    floors = edges.astype(np.intp)
    # edge i lies in bucket floors[i], so buckets floors[i - 1] + 1 up to
    # floors[i] have i edges below them
    steps = np.diff(floors + 1, prepend=0, append=_BUCKETS + 1)
    below = np.repeat(np.arange(floors.size + 1, dtype=np.uint16), steps)
    holds = np.zeros(_BUCKETS + 1, dtype=bool)
    holds[floors] = True
    return below, holds


def _cells(r, edges, lo, split) -> np.ndarray:
    """Cells of the uniforms u = 1 - r.  In bucket b without an edge the
    cell is lo[b], the first edge past the bucket; the u in the other
    buckets, about len(edges) in 2**16, are searched."""
    v = np.subtract(1.0, r, out=r)
    v *= _BUCKETS
    buckets = v.astype(np.intp)
    at = np.flatnonzero(split.take(buckets))
    cells = lo.take(buckets)
    cells[at] = edges.searchsorted(v[at])
    return cells


def _scan_block(cells, state, sym, nxt, c, dst) -> int:
    """Write the symbols of a block's cells from a state to dst, and return
    the state after them.  States are row offsets state * c."""
    m = cells.size
    # about sqrt(m) rows of about sqrt(m) cells balance the steps against
    # the chains per step; a full block is 256 rows of 256
    width = math.isqrt(m - 1) + 1
    rows = -(-m // width)
    # grid[t] holds the t-th cell of every row; a short last row is padded
    # with cell 0, whose states and symbols are dropped
    grid = np.zeros((rows, width), dtype=np.uint16)
    grid.reshape(-1)[:m] = cells
    grid = np.ascontiguousarray(grid.T, dtype=np.intp)
    chains = np.repeat(np.arange(0, nxt.size, c), rows).reshape(-1, rows)
    t, coalesced = 0, False
    while t < width and not coalesced:
        chains = nxt.take(chains + grid[t])
        t += 1
        coalesced = t % _COALESCE_CHECK == 0 and bool((chains == chains[0]).all())
    if coalesced:
        # every start state of row j leads to chains[0, j] by step t
        starts = np.concatenate(([state], _walk(chains[0], grid[t:], nxt)))
    else:
        starts = [state]
        for row_map in chains.T.tolist():
            starts.append(row_map[starts[-1] // c])
        starts = np.array(starts)
        t = width
    _walk(starts[:-1], grid[:t], nxt)
    # the walks left each cell's table index in grid: one take reads every
    # symbol, and the last real cell's gives the end state, which the
    # padding of a short last row would move on
    dst[:] = sym.take(grid).T.reshape(-1)[:m]
    return int(nxt[grid[(m - 1) % width, (m - 1) // width]])


def _walk(states, grid, nxt):
    """Step each row's state through its cells, turning each cell of grid
    in place into the flat table index that it is read at."""
    for cells in grid:
        cells += states
        states = nxt.take(cells)
    return states


def two_state_synchronizable() -> Pfsa:
    """Binary two-state machine whose last emitted symbol pins the state:
    both states send symbol 0 to state 0 and symbol 1 to state 1."""
    return Pfsa(BINARY, [[0, 1], [0, 1]], [[0.85, 0.15], [0.25, 0.75]])


def two_state_nonsynchronizable() -> Pfsa:
    """Binary two-state machine where symbol 1 swaps the states, so no word
    pins the state exactly; runs of symbol 0 still concentrate it."""
    return Pfsa(BINARY, [[0, 1], [1, 0]], [[0.85, 0.15], [0.25, 0.75]])


def format_pfsa(p: Pfsa) -> str:
    """Text form: header 'pfsa <n_states> <labels...>', then one arc per line
    'src symbol dst prob'.  Zero arcs with undefined targets are omitted."""
    lines = ["pfsa %d %s" % (p.n_states, " ".join(p.alphabet.labels))]
    for q in range(p.n_states):
        for sym in range(p.alphabet.size):
            dst = int(p.delta[q, sym])
            prob = float(p.pi[q, sym])
            if dst < 0:
                continue
            lines.append(f"{q} {p.alphabet.labels[sym]} {dst} {prob!r}")
    return "\n".join(lines) + "\n"


def _field(conv, text: str, no: int, what: str):
    """``conv(text)``, or InvalidInputError "line NO: WHAT", with ``{!r}`` in
    ``what`` standing for the text, when the conversion raises ValueError."""
    try:
        return conv(text)
    except ValueError:  # the alphabet's InvalidInputError is one too
        raise InvalidInputError(f"line {no}: " + what.format(text)) from None


def parse_pfsa(text: str) -> Pfsa:
    """Parse the text form.  Errors carry 1-based line numbers.  The arrays
    are allocated only after the arcs are read and number the states."""
    alphabet = None
    arcs: dict = {}
    for no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if alphabet is None:
            if parts[0] != "pfsa" or len(parts) < 4:
                raise InvalidInputError(
                    f"line {no}: header must read 'pfsa <n_states> <label...>' "
                    "with at least two labels"
                )
            n_states = _field(int, parts[1], no, "state count {!r} is not an integer")
            if n_states < 1:
                raise InvalidInputError(f"line {no}: state count must be positive")
            alphabet = Alphabet(parts[2:])
            header_no = no
            continue
        if len(parts) != 4:
            raise InvalidInputError(
                f"line {no}: arc must read 'src symbol dst prob', got {len(parts)} fields"
            )
        src = _field(int, parts[0], no, "state indices must be integers")
        dst = _field(int, parts[2], no, "state indices must be integers")
        if not 0 <= src < n_states or not 0 <= dst < n_states:
            raise InvalidInputError(f"line {no}: state index out of range 0..{n_states - 1}")
        sym = _field(alphabet.index, parts[1], no, "symbol {!r} not in the declared alphabet")
        prob = _field(float, parts[3], no, "probability {!r} is not a number")
        if not 0.0 <= prob <= 1.0:
            raise InvalidInputError(f"line {no}: probability {prob!r} outside [0, 1]")
        if (src, sym) in arcs:
            raise InvalidInputError(
                f"line {no}: duplicate arc for state {src} and symbol {parts[1]!r}"
            )
        arcs[src, sym] = (dst, prob)
    if alphabet is None:
        raise InvalidInputError("line 1: empty machine description")
    if n_states > len(arcs):
        raise InvalidInputError(
            f"line {header_no}: {n_states} states declared but {len(arcs)} arc lines "
            "given; every state needs an arc"
        )
    delta = np.full((n_states, alphabet.size), -1, dtype=np.int64)
    pi = np.zeros((n_states, alphabet.size))
    for (src, sym), (dst, prob) in arcs.items():
        delta[src, sym] = dst
        pi[src, sym] = prob
    try:
        return Pfsa(alphabet, delta, pi)
    except InvalidInputError as exc:
        raise InvalidInputError(f"machine invalid after parsing: {exc}") from exc


def load_pfsa(path) -> Pfsa:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise InvalidInputError(f"model file {path} is not UTF-8 text") from None
    return parse_pfsa(text)
