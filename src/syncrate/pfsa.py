"""Probabilistic finite-state machines with deterministic labeled transitions.

A machine has states 0..Q-1 over an Alphabet of size k, a transition function
delta (state, symbol) -> state, and per-state emission probabilities pi
(state, symbol) -> [0, 1] with unit row sums.  Arcs with zero probability may
leave delta undefined (stored as -1); every positive arc must be defined and
the positive-arc graph must be strongly connected.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import (
    ImpossibleEvolutionError,
    InvalidInputError,
    NumericError,
)
from .streams import DRAW_BLOCK, Alphabet, BINARY, SymbolStream, entropy

_ROW_SUM_TOL = 1e-12
_STATIONARY_TOL = 1e-10


class Pfsa:
    """Validated immutable machine; construct directly or via parse_pfsa."""

    __slots__ = ("alphabet", "delta", "pi")

    def __init__(self, alphabet: Alphabet, delta, pi):
        self.alphabet = alphabet
        self.delta = np.array(delta, dtype=np.int64, copy=True)
        self.pi = np.array(pi, dtype=np.float64, copy=True)
        self.delta.setflags(write=False)
        self.pi.setflags(write=False)
        validate(self)

    @property
    def n_states(self) -> int:
        return self.delta.shape[0]

    def __repr__(self):
        return f"Pfsa(states={self.n_states}, k={self.alphabet.size})"


def validate(p: Pfsa) -> None:
    """Raise InvalidInputError unless every machine invariant holds."""
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
    # strong connectivity over arcs that can actually be taken
    src, sym = np.nonzero(positive)
    adj = csr_matrix(
        (np.ones(src.size), (src, delta[src, sym])), shape=(q, q), dtype=np.int8
    )
    n_comp, _ = connected_components(adj, directed=True, connection="strong")
    if n_comp != 1:
        raise InvalidInputError(
            f"positive-arc graph splits into {n_comp} strongly connected pieces"
        )


def markov_matrix(p: Pfsa) -> np.ndarray:
    """State transition matrix: M[i, j] = total probability of moving i -> j."""
    return sum(transformation_matrix(p, sym) for sym in range(p.alphabet.size))


def transformation_matrix(p: Pfsa, symbol: int) -> np.ndarray:
    """Per-symbol evolution matrix: entry (i, delta(i, symbol)) = pi(i, symbol)."""
    if not 0 <= symbol < p.alphabet.size:
        raise InvalidInputError(f"symbol index {symbol} outside alphabet")
    q = p.n_states
    g = np.zeros((q, q))
    active = p.pi[:, symbol] > 0.0
    g[np.nonzero(active)[0], p.delta[active, symbol]] = p.pi[active, symbol]
    return g


def stationary_distribution(p: Pfsa) -> np.ndarray:
    """Unique stationary state distribution of the machine's Markov chain.

    Solves d (M - I) = 0 with the last equation replaced by sum(d) = 1,
    which is nonsingular for every strongly connected chain, periodic ones
    included.  The result must satisfy d M = d to 1e-10.
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
        raise NumericError(f"stationary solve failed: {exc}") from exc
    d = np.clip(d, 0.0, None)
    d /= d.sum()
    residual = np.abs(d @ m - d).max()
    if not residual <= _STATIONARY_TOL:
        raise NumericError(
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
    ImpossibleEvolutionError if the word has zero probability from every
    state with mass."""
    d = np.asarray(dist, dtype=float)
    if d.shape != (p.n_states,) or (d < 0).any():
        raise InvalidInputError("state distribution has wrong shape or sign")
    if abs(d.sum() - 1.0) > 1e-9:
        raise InvalidInputError("state distribution must sum to 1")
    for pos, symbol in enumerate(word):
        nxt = d @ transformation_matrix(p, symbol)
        total = nxt.sum()
        if total <= 0.0:
            raise ImpossibleEvolutionError(
                f"symbol at position {pos} has zero probability under the "
                "current state distribution"
            )
        d = nxt / total
    return d


def symbol_distribution(p: Pfsa, dist) -> np.ndarray:
    """Next-symbol distribution seen from a state distribution."""
    d = np.asarray(dist, dtype=float)
    if d.shape != (p.n_states,):
        raise InvalidInputError("state distribution has wrong shape")
    return d @ p.pi


def simulate(p: Pfsa, n: int, seed=None, initial_state=None) -> SymbolStream:
    """Sample a length-n stream.  The initial state defaults to a draw from
    the stationary distribution, so the output is stationary from symbol 0.
    Uniforms are drawn in blocks of ``DRAW_BLOCK``, so the stream's one byte
    per symbol is the only allocation that grows with n."""
    if n < 0:
        raise InvalidInputError("cannot simulate a negative number of symbols")
    rng = np.random.default_rng(seed)
    if initial_state is None:
        state = int(rng.choice(p.n_states, p=stationary_distribution(p)))
    else:
        state = int(initial_state)
        if not 0 <= state < p.n_states:
            raise InvalidInputError(f"initial state {state} out of range")
    cum = np.cumsum(p.pi, axis=1)
    cum[:, -1] = 1.0
    cum_rows = cum.tolist()
    delta_rows = p.delta.tolist()
    # u in (0, 1] and the first cumulative value >= u picks the symbol, so
    # zero-probability symbols can never be drawn
    out = np.empty(n, dtype=np.uint8)
    dst = memoryview(out)
    for start in range(0, n, DRAW_BLOCK):
        us = rng.random(min(DRAW_BLOCK, n - start))
        np.subtract(1.0, us, out=us)
        for i, u in enumerate(memoryview(us), start):
            sym = bisect_left(cum_rows[state], u)
            dst[i] = sym
            state = delta_rows[state][sym]
    out.setflags(write=False)
    return SymbolStream(out, p.alphabet)


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
            try:
                n_states = int(parts[1])
            except ValueError:
                raise InvalidInputError(
                    f"line {no}: state count {parts[1]!r} is not an integer"
                ) from None
            if n_states < 1:
                raise InvalidInputError(f"line {no}: state count must be positive")
            alphabet = Alphabet(parts[2:])
            header_no = no
            continue
        if len(parts) != 4:
            raise InvalidInputError(
                f"line {no}: arc must read 'src symbol dst prob', got {len(parts)} fields"
            )
        try:
            src = int(parts[0])
            dst = int(parts[2])
        except ValueError:
            raise InvalidInputError(f"line {no}: state indices must be integers") from None
        if not 0 <= src < n_states or not 0 <= dst < n_states:
            raise InvalidInputError(f"line {no}: state index out of range 0..{n_states - 1}")
        try:
            sym = alphabet.index(parts[1])
        except InvalidInputError:
            raise InvalidInputError(
                f"line {no}: symbol {parts[1]!r} not in the declared alphabet"
            ) from None
        try:
            prob = float(parts[3])
        except ValueError:
            raise InvalidInputError(f"line {no}: probability {parts[3]!r} is not a number") from None
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
