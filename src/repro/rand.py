"""Random-distribution utilities shared by loaders and workload generators.

OLTP-Bench's benchmarks lean on a small set of distributions:

* TPC-C's ``NURand`` non-uniform random numbers and last-name syllables;
* Zipfian / scrambled-Zipfian item popularity (YCSB, Twitter, Epinions);
* latest-biased and hotspot access patterns (YCSB);
* random alpha-numeric strings for payload columns.

Everything takes an explicit ``random.Random`` so experiments are seedable
end to end.
"""

from __future__ import annotations

import hashlib
import math
import random
import string
from bisect import bisect_right
from typing import Sequence

ALPHANUMERIC = string.ascii_letters + string.digits

#: TPC-C 4.3.2.3 last-name syllables.
TPCC_SYLLABLES = (
    "BAR", "OUGHT", "ABLE", "PRI", "PRES",
    "ESE", "ANTI", "CALLY", "ATION", "EING",
)


def _alphabet_table(alphabet: str) -> tuple[bytes, bytes]:
    """``bytes.translate`` arguments mapping a random byte to a character.

    Byte ``b`` maps to ``alphabet[b % len(alphabet)]``.  The bytes at or
    above the largest multiple of ``len(alphabet)`` are deleted, so every
    character keeps the same chance (no modulo bias).
    """
    keep = 256 - 256 % len(alphabet)
    table = bytes(ord(alphabet[b % len(alphabet)]) for b in range(keep))
    return table + bytes(256 - keep), bytes(range(keep, 256))


_ALPHANUMERIC_TABLE = _alphabet_table(ALPHANUMERIC)
_DIGIT_TABLE = _alphabet_table(string.digits)


def _random_chars(rng: random.Random, length: int,
                  table: tuple[bytes, bytes]) -> str:
    chars = rng.randbytes(length).translate(*table)
    while len(chars) < length:  # top up the deleted bytes
        chars += rng.randbytes(length - len(chars)).translate(*table)
    return chars.decode("ascii")


def random_string(rng: random.Random, min_len: int,
                  max_len: int | None = None) -> str:
    """Alphanumeric string with length uniform in ``[min_len, max_len]``."""
    if max_len is None:
        max_len = min_len
    return _random_chars(rng, rng.randint(min_len, max_len),
                         _ALPHANUMERIC_TABLE)


def random_numeric_string(rng: random.Random, length: int) -> str:
    return _random_chars(rng, length, _DIGIT_TABLE)


def nu_rand(rng: random.Random, a: int, x: int, y: int, c: int = 0) -> int:
    """TPC-C NURand(A, x, y) non-uniform random integer in ``[x, y]``."""
    return (((rng.randint(0, a) | rng.randint(x, y)) + c) % (y - x + 1)) + x


def tpcc_last_name(num: int) -> str:
    """TPC-C customer last name from a three-digit syllable index."""
    return (TPCC_SYLLABLES[(num // 100) % 10]
            + TPCC_SYLLABLES[(num // 10) % 10]
            + TPCC_SYLLABLES[num % 10])


class ZipfGenerator:
    """Zipf-distributed integers over ``[0, n)``.

    Uses the rejection-inversion-free YCSB algorithm (Gray et al., "Quickly
    Generating Billion-Record Synthetic Databases"): constant-time sampling
    after an O(n)-free closed-form setup.
    """

    def __init__(self, n: int, theta: float = 0.99) -> None:
        if n <= 0:
            raise ValueError("n must be positive")
        if not 0 < theta < 1:
            raise ValueError("theta must be in (0, 1)")
        self.n = n
        self.theta = theta
        self._alpha = 1.0 / (1.0 - theta)
        self._zetan = self._zeta(n, theta)
        self._zeta2 = self._zeta(2, theta)
        denominator = 1 - self._zeta2 / self._zetan
        if denominator == 0:  # n <= 2: the closed form degenerates
            self._eta = 0.0
        else:
            self._eta = ((1 - (2.0 / n) ** (1 - theta)) / denominator)

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        # Exact for small n; Euler–Maclaurin style integral approximation for
        # large n keeps loader setup fast at big scale factors.
        if n <= 10000:
            return sum(1.0 / (i ** theta) for i in range(1, n + 1))
        head = sum(1.0 / (i ** theta) for i in range(1, 10001))
        tail = ((n ** (1 - theta)) - (10000 ** (1 - theta))) / (1 - theta)
        return head + tail

    def next(self, rng: random.Random) -> int:
        u = rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return min(1, self.n - 1)
        value = int(self.n * ((self._eta * u - self._eta + 1)
                              ** self._alpha))
        return min(value, self.n - 1)  # guard float rounding at the edge


class ScrambledZipfGenerator:
    """Zipfian popularity spread over the whole key space via hashing.

    YCSB's ``ScrambledZipfianGenerator``: the most popular items are not the
    lowest keys but scattered deterministically, which avoids accidental
    range locality.
    """

    _FNV_OFFSET = 0xCBF29CE484222325
    _FNV_PRIME = 0x100000001B3

    def __init__(self, n: int, theta: float = 0.99) -> None:
        self.n = n
        self._zipf = ZipfGenerator(n, theta)

    @classmethod
    def _fnv_hash(cls, value: int) -> int:
        h = cls._FNV_OFFSET
        for _ in range(8):
            h = ((h ^ (value & 0xFF)) * cls._FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
            value >>= 8
        return h

    def next(self, rng: random.Random) -> int:
        return self._fnv_hash(self._zipf.next(rng)) % self.n


class LatestGenerator:
    """YCSB "latest" distribution: recent insertions are most popular."""

    def __init__(self, n: int, theta: float = 0.99) -> None:
        self._zipf = ZipfGenerator(n, theta)
        self.n = n

    def set_max(self, n: int) -> None:
        if n != self.n and n > 0:
            self.n = n
            self._zipf = ZipfGenerator(n, self._zipf.theta)

    def next(self, rng: random.Random) -> int:
        return self.n - 1 - self._zipf.next(rng)


class HotspotGenerator:
    """A ``hot_fraction`` of operations target ``hot_set_fraction`` of keys."""

    def __init__(self, n: int, hot_set_fraction: float = 0.2,
                 hot_op_fraction: float = 0.8) -> None:
        if not 0 < hot_set_fraction <= 1:
            raise ValueError("hot_set_fraction must be in (0, 1]")
        if not 0 <= hot_op_fraction <= 1:
            raise ValueError("hot_op_fraction must be in [0, 1]")
        self.n = n
        self.hot_count = max(1, int(n * hot_set_fraction))
        self.hot_op_fraction = hot_op_fraction

    def next(self, rng: random.Random) -> int:
        if rng.random() < self.hot_op_fraction:
            return rng.randrange(self.hot_count)
        if self.hot_count >= self.n:
            return rng.randrange(self.n)
        return rng.randrange(self.hot_count, self.n)


class DiscreteDistribution:
    """Weighted sampling over arbitrary values with O(log n) draws.

    This backs transaction-mixture sampling: weights are OLTP-Bench style
    percentages (they need not sum to exactly 100; they are normalised).
    """

    def __init__(self, values: Sequence[object], weights: Sequence[float]) -> None:
        if len(values) != len(weights):
            raise ValueError("values and weights must have equal length")
        if not values:
            raise ValueError("empty distribution")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("weights must not all be zero")
        self.values = list(values)
        self.weights = [float(w) for w in weights]
        self._cdf: list[float] = []
        acc = 0.0
        for w in self.weights:
            acc += w / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0

    def sample(self, rng: random.Random) -> object:
        return self.values[bisect_right(self._cdf, rng.random())]

    def probability(self, value: object) -> float:
        total = sum(self.weights)
        try:
            idx = self.values.index(value)
        except ValueError:
            return 0.0
        return self.weights[idx] / total


def exponential_interarrival(rng: random.Random, rate: float) -> float:
    """Exponentially distributed inter-arrival gap for a Poisson process."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    return -math.log(1.0 - rng.random()) / rate


def make_rng(seed: int | None, *salt: object) -> random.Random:
    """Derive an independent, reproducible RNG from a base seed and salt.

    The derivation hashes ``repr((seed, *salt))`` with BLAKE2 rather than
    the built-in ``hash()``: string hashing is randomized per process
    (PYTHONHASHSEED), which would make every salted stream — arrival
    schedules, worker RNGs, fault schedules — unreproducible across
    invocations of the same seed.
    """
    if seed is None:
        return random.Random()
    digest = hashlib.blake2b(repr((seed, *salt)).encode(),
                             digest_size=6).digest()
    return random.Random(int.from_bytes(digest, "big"))
