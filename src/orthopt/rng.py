"""Counter-based pseudo-random number generation.

Every draw is a pure function of ``(seed, stream, counter)``: the 64-bit
output at position ``i`` is obtained by running the splitmix64 finalizer over
a key derived from ``(seed, stream)`` plus ``i`` increments of the golden
gamma.  There is no hidden state beyond the counter, so sequences can be
split, replayed, and consumed concurrently without contention, and the raw
integer stream is identical on every platform.  The float transforms
(uniforms, Box-Muller normals) are deterministic for a given libm build;
``normal_rows`` draws the normals of many consecutive calls at once, and
``draws`` the next uniforms or normals of many generators at once, from one
raw pass and one Box-Muller pass over their concatenation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# uint64 forms for the vectorized path, where products wrap modulo 2**64.
_GOLDEN64, _MIX1_64, _MIX2_64 = (np.uint64(k) for k in (_GOLDEN, _MIX1, _MIX2))
_S11, _S27, _S30, _S31, _ONE64 = (np.uint64(k) for k in (11, 27, 30, 31, 1))

# 2**-53: maps the top 53 bits of a u64 into (0, 1] after the +1 shift.
_U53 = 1.0 / (1 << 53)


def _finalize(z: int) -> int:
    """splitmix64 finalizer (Steele, Lea & Flood) on a Python int."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return (z ^ (z >> 31)) & _MASK


def _uniforms(bits: np.ndarray) -> np.ndarray:
    """Doubles on (0, 1] from the top 53 bits of each u64 (shifts ``bits`` in place);
    top + 1 <= 2**53 converts to float exactly, so this is (float(top) + 1) * 2**-53."""
    bits >>= _S11
    bits += _ONE64
    return bits * _U53


def _box_muller(radii: np.ndarray, angles: np.ndarray):
    """Box-Muller pairs ``(r cos theta, r sin theta)`` from two equal-shape uniform arrays,
    with r = sqrt(-2 ln radii) and theta = 2 pi angles; overwrites both inputs."""
    r = np.log(radii, out=radii)
    r *= -2.0
    np.sqrt(r, out=r)
    theta = np.multiply(angles, 2.0 * np.pi, out=angles)
    cos_part = np.cos(theta)
    cos_part *= r
    np.sin(theta, out=theta)
    theta *= r
    return cos_part, theta


def _finalize_array(z: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer, in place over a uint64 array."""
    z ^= z >> _S30
    z *= _MIX1_64
    z ^= z >> _S27
    z *= _MIX2_64
    z ^= z >> _S31
    return z


@dataclass
class Rng:
    """Deterministic generator addressed by ``(seed, stream, counter)``.

    ``substream`` derives independent child generators, so concurrent
    consumers never contend on a shared counter.
    """

    seed: int
    stream: int = 0
    counter: int = 0
    _key: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.counter &= _MASK
        self._key = _finalize((self.seed + ((self.stream + 1) * _GOLDEN)) & _MASK)

    def raw64(self, n: int) -> np.ndarray:
        """Return the next ``n`` 64-bit outputs and advance the counter."""
        if n < 0:
            raise InputError("draw count must be nonnegative")
        # The counter lives mod 2**64: the first position's state is reduced as
        # a Python int, the offsets wrap in uint64 arithmetic.
        start = (self._key + (self.counter + 1) * _GOLDEN) & _MASK
        z = np.arange(n, dtype=np.uint64)
        z *= _GOLDEN64
        z += np.uint64(start)
        self.counter = (self.counter + n) & _MASK
        return _finalize_array(z)

    def uniforms(self, n: int) -> np.ndarray:
        """Draw ``n`` doubles uniform on (0, 1]."""
        return _uniforms(self.raw64(n))

    def normals(self, n: int) -> np.ndarray:
        """Draw ``n`` standard normals via Box-Muller on ``2 ceil(n/2)`` uniforms
        (first half radii, second half angles)."""
        return self.normal_rows(1, n)[0]

    def normal_rows(self, rows: int, n: int) -> np.ndarray:
        """Draw ``(rows, n)`` normals in one call: row i is bitwise the i-th of
        ``rows`` consecutive ``normals(n)`` calls, and the counter ends where
        theirs would."""
        m = (n + 1) // 2
        u = self.uniforms(rows * 2 * m).reshape(rows, 2 * m)
        return np.concatenate(_box_muller(u[:, :m], u[:, m:]), axis=1)[:, :n]

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        return self.normals(rows * cols).reshape(rows, cols)

    def sample_without_replacement(self, n_items: int, k: int) -> np.ndarray:
        """Draw ``k`` distinct indices from range(n_items), partial Fisher-Yates."""
        if not 0 <= k <= n_items:
            raise InputError("sample size must lie in [0, n_items]")
        pool = np.arange(n_items, dtype=np.int64)
        # Swap i takes j = i + draw_i mod (n_items - i); all offsets at once.
        offsets = self.raw64(k) % (n_items - np.arange(k, dtype=np.uint64))
        for i, offset in enumerate(offsets.tolist()):
            j = i + offset
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def substream(self, tag: int) -> "Rng":
        """Derive an independent child generator identified by ``tag``."""
        return Rng(seed=self._key, stream=tag)


def draws(gens, counts, *, normal: bool) -> list[np.ndarray]:
    """``[g.normals(n) if normal else g.uniforms(n) for g, n in zip(gens, counts)]`` for
    distinct generators, bit for bit and leaving the same counters, from one raw pass and
    one Box-Muller pass over the concatenation (numpy's elementwise log, sqrt, cos and
    sin give a value the same bits wherever it sits in a contiguous array)."""
    if min(counts, default=0) < 0:
        raise InputError("draw count must be nonnegative")
    halves = [(n + 1) // 2 for n in counts]
    # Runs (generator, skip past its counter, length): the uniforms, or the radii then the angles.
    runs = [(g, 0, n) for g, n in zip(gens, halves if normal else counts)]
    runs += [(g, m, m) for g, m in zip(gens, halves)] if normal else []
    edges = list(itertools.accumulate((n for *_, n in runs), initial=0))
    # Element j of a run that starts at element e takes position counter + 1 + skip + j - e.
    firsts = [(g._key + (g.counter + 1 + skip - e) * _GOLDEN) & _MASK for (g, skip, _), e in zip(runs, edges)]
    for g, n, m in zip(gens, counts, halves):
        g.counter = (g.counter + (2 * m if normal else n)) & _MASK
    z = np.arange(edges[-1], dtype=np.uint64)
    z *= _GOLDEN64
    z += np.repeat(np.array(firsts, dtype=np.uint64), np.diff(edges))
    u = _uniforms(_finalize_array(z))
    del z
    if not normal:
        return [u[a:b] for a, b in zip(edges, edges[1:])]
    cos_part, sin_part = _box_muller(u[: edges[len(gens)]], u[edges[len(gens)] :])
    return [np.concatenate([cos_part[a:b], sin_part[a:b]])[:n] for a, b, n in zip(edges, edges[1:], counts)]
