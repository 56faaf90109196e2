"""Stream sources beyond PFSA simulation.

Three families: binary itineraries of a quadratic chaotic map under the
sign partition, i.i.d. draws from an explicit distribution, and English
text folded onto a 27-symbol alphabet.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .streams import (
    BINARY, DRAW_BLOCK, Alphabet, SymbolStream, check_distribution, check_real, check_size
)

__all__ = [
    "TEXT27",
    "ChaoticMapConfig",
    "chaotic_stream",
    "iid_stream",
    "normalize_text",
]

# letters a..z in order, then space at index 26
TEXT27 = Alphabet(tuple(string.ascii_lowercase) + (" ",))
# iterates of the chaotic map held in Python floats before their symbols
# are written
_ORBIT_BLOCK = 1 << 14
# the longest burn-in a config accepts, about 6 s of the Python loop
MAX_BURN_IN = 10**8


@dataclass(frozen=True)
class ChaoticMapConfig:
    """Orbit parameters for the map x -> 1 - r x^2.

    The default burn-in discards the transient so emitted symbols sample
    the attractor.  For r in (0, 2] and a start inside (-1, 1) the orbit
    stays in [-1, 1].
    """

    r: float
    n: int
    x0: float = 0.1
    burn_in: int = 10_000

    def __post_init__(self):
        check_real(self.r, "map parameter", 0, 2, "(]")
        check_real(self.x0, "initial condition", -1, 1)
        check_size(self.n, "output length", 1, np.iinfo(np.int64).max)
        check_size(self.burn_in, "burn_in", 0, MAX_BURN_IN)


def chaotic_stream(cfg: ChaoticMapConfig) -> SymbolStream:
    """Binary itinerary of the quadratic map under the sign partition.

    Emits 1 where the iterate is non-negative, 0 otherwise, starting
    after the burn-in.  Fully deterministic.  The orbit cannot leave
    [-1, 1] even in floating point: for r in (0, 2] and |x| <= 1 the
    product fl(fl(r * x) * x) lies in [0, 2], rounding being monotone and
    2 representable, so 1 minus it lies in [-1, 1].

    The recurrence is sequential in floating point and stays a Python
    loop.  Each iterate goes into a reused list of ``_ORBIT_BLOCK`` floats,
    the cheapest store the interpreter has, and one comparison turns every
    full list into symbols.  The floats, their index list and the array
    read from them take about 76 bytes per entry, so 2**14 entries keep
    generation under 2 bytes per symbol on 2e6 symbols (1.66).  A list of
    2**16 floats ran faster, but took 2.31 bytes per symbol even without
    the index list.
    """
    r = cfg.r
    x = cfg.x0
    for _ in range(cfg.burn_in):
        x = 1.0 - r * x * x
    n = cfg.n
    out = np.empty(n, dtype=np.uint8)
    buf = [0.0] * min(n, _ORBIT_BLOCK)
    # a list of the indices, unlike a range, makes no int object per step
    slots = list(range(len(buf)))
    for start in range(0, n, _ORBIT_BLOCK):
        m = min(_ORBIT_BLOCK, n - start)
        del slots[m:]
        for i in slots:
            buf[i] = x
            x = 1.0 - r * x * x
        out[start : start + m] = np.fromiter(buf, float, m) >= 0.0
    out.setflags(write=False)
    return SymbolStream(out, BINARY)


def iid_stream(probs, n: int, seed: int = 0) -> SymbolStream:
    """Independent draws from a fixed symbol distribution.

    The symbols are those of ``rng.choice(k, size=n, p=probs)``: each block of
    ``DRAW_BLOCK`` uniforms is looked up in the normalized cumulative
    distribution, as ``Generator.choice`` does, and written straight into the
    one-byte stream.
    """
    p = check_distribution(probs, "probabilities")
    check_size(n, "stream length", 1, np.iinfo(np.int64).max)
    check_size(seed, "seed")
    alphabet = Alphabet(tuple(str(i) for i in range(p.size)))
    cdf = (p / p.sum()).cumsum()
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    data = np.empty(n, dtype=np.uint8)
    for start in range(0, n, DRAW_BLOCK):
        u = rng.random(min(DRAW_BLOCK, n - start))
        data[start : start + u.size] = cdf.searchsorted(u, side="right")
    data.setflags(write=False)
    return SymbolStream(data, alphabet)


def normalize_text(raw) -> SymbolStream:
    """Fold text onto 27 symbols: lowercase letters plus single spaces.

    Accepts str, bytes or bytearray and refuses anything else.  Every
    maximal run of non-letters becomes one space, and the result carries no
    leading or trailing space, so the mapping is idempotent.
    """
    if isinstance(raw, (bytes, bytearray)):
        raw = bytes(raw).decode("latin-1")
    if not isinstance(raw, str):
        raise InvalidInputError(f"text must be str or bytes, got {type(raw).__name__}")
    folded = re.sub(r"[^a-z]+", " ", raw.lower()).strip()
    codes = np.frombuffer(folded.encode("ascii", errors="replace"), dtype=np.uint8)
    return SymbolStream(np.where(codes == ord(" "), 26, codes - ord("a")), TEXT27)
