"""Counter-based pseudo-random number generation.

Every draw is a pure function of ``(seed, stream, counter)``: the 64-bit
output at position ``i`` is obtained by running the splitmix64 finalizer over
a key derived from ``(seed, stream)`` plus ``i`` increments of the golden
gamma.  There is no hidden state beyond the counter, so sequences can be
split, replayed, and consumed concurrently without contention, and the raw
integer stream is identical on every platform.  The float transforms
(uniforms, Box-Muller normals) are deterministic for a given libm build.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# uint64 forms for the vectorized path, where products wrap modulo 2**64.
_GOLDEN64, _MIX1_64, _MIX2_64 = (np.uint64(k) for k in (_GOLDEN, _MIX1, _MIX2))
_S11, _S27, _S30, _S31 = (np.uint64(k) for k in (11, 27, 30, 31))

# 2**-53: maps the top 53 bits of a u64 into (0, 1] after the +1 shift.
_U53 = 1.0 / (1 << 53)


def _finalize(z: int) -> int:
    """splitmix64 finalizer (Steele, Lea & Flood) on a Python int."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return (z ^ (z >> 31)) & _MASK


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
        self._key = _finalize((self.seed + ((self.stream + 1) * _GOLDEN)) & _MASK)

    def raw64(self, n: int) -> np.ndarray:
        """Return the next ``n`` 64-bit outputs and advance the counter."""
        if n < 0:
            raise InputError("draw count must be nonnegative")
        z = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += n
        z *= _GOLDEN64
        z += np.uint64(self._key)
        return _finalize_array(z)

    def uniforms(self, n: int) -> np.ndarray:
        """Draw ``n`` doubles uniform on (0, 1]."""
        bits = self.raw64(n)
        bits >>= _S11
        return (bits.astype(np.float64) + 1.0) * _U53

    def normals(self, n: int) -> np.ndarray:
        """Draw ``n`` standard normals via Box-Muller on ``2 ceil(n/2)`` uniforms
        (first half radii, second half angles)."""
        m = (n + 1) // 2
        u = self.uniforms(2 * m)
        r = np.sqrt(-2.0 * np.log(u[:m]))
        theta = (2.0 * np.pi) * u[m:]
        return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        return self.normals(rows * cols).reshape(rows, cols)

    def integers(self, n: int, low: int, high: int) -> np.ndarray:
        """Draw ``n`` integers uniform on [low, high).

        Uses modulo reduction; the bias is below 2**-40 for ranges under
        2**24, which is far beyond anything this package samples.
        """
        if high <= low:
            raise InputError("integers() needs high > low")
        span = np.uint64(high - low)
        return (low + (self.raw64(n) % span).astype(np.int64)).astype(np.int64)

    def sample_without_replacement(self, n_items: int, k: int) -> np.ndarray:
        """Draw ``k`` distinct indices from range(n_items), partial Fisher-Yates."""
        if not 0 <= k <= n_items:
            raise InputError("sample size must lie in [0, n_items]")
        pool = np.arange(n_items, dtype=np.int64)
        draws = self.raw64(k)
        for i in range(k):
            j = i + int(draws[i] % np.uint64(n_items - i))
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def substream(self, tag: int) -> "Rng":
        """Derive an independent child generator identified by ``tag``."""
        return Rng(seed=self._key, stream=tag)
