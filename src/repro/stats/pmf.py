"""Discrete probability mass functions over quantized durations.

§5.2 of the paper computes a replica's response-time distribution as the
*discrete convolution* of the pmfs of its service time ``S``, queuing delay
``W``, (for deferred reads) lazy-update wait ``U``, and the most recent
gateway delay ``G``.  The pmfs themselves come from the relative frequency
of values recorded in sliding windows.

:class:`DiscretePmf` represents a pmf on a uniform grid: values are
``(offset + index) * quantum`` seconds.  The grid makes convolution a plain
``numpy.convolve`` (offsets add, mass arrays convolve), which keeps the
online prediction cheap — exactly the property the paper's Figure 3
overhead measurement depends on.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np

DEFAULT_QUANTUM = 1e-3  # 1 ms bins


class DiscretePmf:
    """A pmf on the uniform grid ``value = (offset + i) * quantum``.

    Instances are immutable in practice: all operations return new pmfs.
    """

    __slots__ = ("quantum", "offset", "mass", "_cum", "_pad")

    def __init__(self, quantum: float, offset: int, mass: np.ndarray) -> None:
        if quantum <= 0:
            raise ValueError(f"non-positive quantum {quantum!r}")
        if offset < 0:
            raise ValueError(f"negative offset {offset!r} (durations only)")
        mass = np.asarray(mass, dtype=float)
        if mass.ndim != 1 or mass.size == 0:
            raise ValueError("mass must be a non-empty 1-D array")
        if np.any(mass < -1e-12):
            raise ValueError("negative probability mass")
        total = float(mass.sum())
        if total <= 0:
            raise ValueError("zero total probability mass")
        self.quantum = float(quantum)
        self.offset = int(offset)
        self.mass = np.clip(mass, 0.0, None) / total
        self._cum: Optional[np.ndarray] = None
        self._pad: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_samples(
        cls, samples: Iterable[float], quantum: float = DEFAULT_QUANTUM
    ) -> "DiscretePmf":
        """Build a pmf from raw duration samples by quantizing to the grid.

        Each sample contributes equal mass (relative frequency, as §5.2
        prescribes).  Negative samples are clamped to zero.
        """
        values = np.asarray(list(samples), dtype=float)
        if values.size == 0:
            raise ValueError("cannot build a pmf from zero samples")
        bins = np.rint(np.clip(values, 0.0, None) / quantum).astype(int)
        low = int(bins.min())
        mass = np.bincount(bins - low).astype(float)
        return cls(quantum, low, mass)

    @classmethod
    def from_histogram(
        cls,
        quantum: float,
        offset: int,
        counts: Sequence[float] | np.ndarray,
    ) -> "DiscretePmf":
        """Build a pmf from pre-binned counts on the grid.

        The counterpart of :meth:`from_samples` for callers that already
        maintain an incremental histogram (``SlidingWindow.histogram``):
        the counts are taken as-is, so construction is O(bins) with no
        pass over raw samples.  Bit-for-bit equivalent to
        :meth:`from_samples` on the samples the histogram summarizes.
        """
        return cls(quantum, offset, np.asarray(counts, dtype=float))

    @classmethod
    def degenerate(
        cls, value: float, quantum: float = DEFAULT_QUANTUM
    ) -> "DiscretePmf":
        """A point mass at ``value`` (used for the latest gateway delay)."""
        bin_index = max(0, int(round(max(0.0, value) / quantum)))
        return cls(quantum, bin_index, np.array([1.0]))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def support_min(self) -> float:
        return self.offset * self.quantum

    @property
    def support_max(self) -> float:
        return (self.offset + self.mass.size - 1) * self.quantum

    def values(self) -> np.ndarray:
        """Grid values (seconds) aligned with :attr:`mass`."""
        return (self.offset + np.arange(self.mass.size)) * self.quantum

    def mean(self) -> float:
        return float(np.dot(self.values(), self.mass))

    def variance(self) -> float:
        values = self.values()
        mu = float(np.dot(values, self.mass))
        return float(np.dot((values - mu) ** 2, self.mass))

    def _cumulative(self) -> np.ndarray:
        """Lazily materialized running sum of :attr:`mass`.

        Built once per pmf, after which every :meth:`cdf` is an O(1)
        index, :meth:`quantile` an O(log n) bisection, and
        :meth:`cdf_many` one vectorized gather — instead of O(n) slicing
        per call.  Safe because instances are immutable in practice.
        """
        cum = self._cum
        if cum is None:
            cum = np.cumsum(self.mass)
            self._cum = cum
        return cum

    def _padded_cumulative(self) -> np.ndarray:
        """Cumulative mass with a leading 0.0, cached like :attr:`_cum`.

        The pad turns a :meth:`cdf_many` gather into one fancy index with
        no branch for the "before the support" bucket; caching it keeps
        repeated batched evaluations (the selection hot loop) from
        re-allocating the array per call.
        """
        padded = self._pad
        if padded is None:
            padded = np.concatenate(([0.0], self._cumulative()))
            self._pad = padded
        return padded

    def cdf(self, x: float) -> float:
        """P(X <= x): total mass of grid values <= x (float-error tolerant)."""
        if x < self.support_min:
            return 0.0
        # math.floor == np.floor for every finite float, without the numpy
        # scalar round-trip — this is the hottest line of the predictor.
        upto = math.floor(x / self.quantum + 1e-9) - self.offset + 1
        if upto <= 0:
            return 0.0
        if upto >= self.mass.size:
            return 1.0
        return float(self._cumulative()[upto - 1])

    def cdf_many(self, xs: Iterable[float]) -> np.ndarray:
        """Vectorized :meth:`cdf` over many evaluation points at once.

        One gather against the cached cumulative array, for callers that
        evaluate a batch of deadlines (or one deadline against a grid of
        candidates) in a single step.  Element-for-element identical to
        calling :meth:`cdf` in a loop.
        """
        xs = np.asarray(list(xs) if not isinstance(xs, np.ndarray) else xs, dtype=float)
        bins = np.floor(xs / self.quantum + 1e-9).astype(int)
        upto = np.clip(bins - self.offset + 1, 0, self.mass.size)
        out = self._padded_cumulative()[upto]
        out[upto == self.mass.size] = 1.0
        out[xs < self.support_min] = 0.0
        return out

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` i.i.d. values from the pmf (inverse-CDF on the grid).

        One uniform vector and one ``searchsorted`` against the cached
        cumulative array.  Each draw is a grid value, i.e. exactly a value
        :meth:`quantile` could return.  (The aggregated client tier draws
        whole batches' first replies through :class:`FirstReply` instead.)
        """
        if n < 0:
            raise ValueError(f"negative sample count {n!r}")
        if n == 0:
            return np.empty(0, dtype=float)
        u = rng.random(n)
        indices = np.searchsorted(self._cumulative(), u, side="right")
        np.minimum(indices, self.mass.size - 1, out=indices)
        return (self.offset + indices) * self.quantum

    def quantile(self, q: float) -> float:
        """Smallest grid value v with P(X <= v) >= q."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile level {q!r} outside [0, 1]")
        cumulative = self._cumulative()
        index = int(np.searchsorted(cumulative, q - 1e-12))
        index = min(index, self.mass.size - 1)
        return (self.offset + index) * self.quantum

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def convolve(self, other: "DiscretePmf") -> "DiscretePmf":
        """Distribution of the sum of two independent grid variables."""
        if abs(other.quantum - self.quantum) > 1e-15:
            raise ValueError(
                f"quantum mismatch: {self.quantum} vs {other.quantum}"
            )
        mass = np.convolve(self.mass, other.mass)
        return DiscretePmf(self.quantum, self.offset + other.offset, mass)

    def shift(self, delta: float) -> "DiscretePmf":
        """Add a constant (non-negative after quantization) to the variable."""
        bins = int(round(delta / self.quantum))
        new_offset = self.offset + bins
        if new_offset < 0:
            raise ValueError(f"shift {delta!r} would move support negative")
        return DiscretePmf(self.quantum, new_offset, self.mass.copy())

    def mix(self, other: "DiscretePmf", weight: float) -> "DiscretePmf":
        """Mixture ``weight * self + (1 - weight) * other``."""
        if not 0.0 <= weight <= 1.0:
            raise ValueError(f"mixture weight {weight!r} outside [0, 1]")
        if abs(other.quantum - self.quantum) > 1e-15:
            raise ValueError("quantum mismatch in mixture")
        low = min(self.offset, other.offset)
        high = max(self.offset + self.mass.size, other.offset + other.mass.size)
        mass = np.zeros(high - low, dtype=float)
        mass[self.offset - low : self.offset - low + self.mass.size] += (
            weight * self.mass
        )
        mass[other.offset - low : other.offset - low + other.mass.size] += (
            1.0 - weight
        ) * other.mass
        return DiscretePmf(self.quantum, low, mass)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DiscretePmf(quantum={self.quantum}, bins={self.mass.size}, "
            f"support=[{self.support_min:.4f}, {self.support_max:.4f}], "
            f"mean={self.mean():.4f})"
        )


class FirstReply:
    """The first reply among independent replicas, as one joint pmf.

    A read sent to replicas ``X_1 .. X_k`` (independent grid variables,
    in selection order) is answered at ``T = min_j X_j``; ties go to the
    earliest replica in selection order.  ``deferred[j]`` marks replicas
    whose reply is a deferred one, and the read counts as deferred iff
    such a replica sent the first reply.  On the common grid,

        P(T = t, winner = j) = p_j(t) · Π_{i<j} P(X_i > t) · Π_{i>j} P(X_i ≥ t)

    — prefix products of ``P(X_i > t)`` and suffix products of
    ``P(X_i ≥ t)``, so building the pmf costs O(k·L) for a grid of ``L``
    bins.  :attr:`mass` row 0 sums the replicas with ``deferred`` False,
    row 1 those with it True.  With no replicas the read is never
    answered: :meth:`sample` returns infinite times and draws nothing.
    """

    __slots__ = ("quantum", "offset", "mass", "_cum")

    def __init__(
        self, pmfs: Sequence[DiscretePmf], deferred: Sequence[bool]
    ) -> None:
        if len(pmfs) != len(deferred):
            raise ValueError("one deferred flag per pmf")
        self.quantum = pmfs[0].quantum if pmfs else DEFAULT_QUANTUM
        for pmf in pmfs:
            if abs(pmf.quantum - self.quantum) > 1e-15:
                raise ValueError(f"quantum mismatch: {self.quantum} vs {pmf.quantum}")
        self._cum: Optional[np.ndarray] = None
        if not pmfs:
            self.offset = 0
            self.mass = np.zeros((2, 0))
            return
        # Past the earliest support end some replica has surely replied.
        low = min(p.offset for p in pmfs)
        bins = min(p.offset + p.mass.size for p in pmfs) - low
        k = len(pmfs)
        own = np.zeros((k, bins))
        at_least = np.ones((k, bins + 1))  # P(X_j >= low + i), i = 0..bins
        for j, pmf in enumerate(pmfs):
            start = pmf.offset - low
            if start >= bins:
                continue  # starts after someone surely replied: never first
            tail = np.cumsum(pmf.mass[::-1])[::-1]
            take = min(tail.size, bins + 1 - start)
            at_least[j, start:start + take] = tail[:take]
            at_least[j, start + take:] = 0.0
            size = min(pmf.mass.size, bins - start)
            own[j, start:start + size] = pmf.mass[:size]
        beyond = at_least[:, 1:]  # P(X_j > t)
        at_least = at_least[:, :-1]
        before = np.ones((k, bins))
        np.cumprod(beyond[:-1], axis=0, out=before[1:])
        after = np.ones((k, bins))
        after[:-1] = np.cumprod(at_least[:0:-1], axis=0)[::-1]
        joint = own * before * after
        flags = np.asarray(deferred, dtype=bool)
        self.offset = low
        self.mass = np.stack((joint[~flags].sum(axis=0), joint[flags].sum(axis=0)))

    def sample(
        self, n: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """``n`` i.i.d. ``(first-reply time, deferred)`` pairs, one uniform each.

        Inverse CDF over the two rows of :attr:`mass` laid end to end:
        one ``searchsorted`` per value, whatever the replica count.
        """
        if n < 0:
            raise ValueError(f"negative sample count {n!r}")
        bins = self.mass.shape[1]
        if bins == 0:
            return np.full(n, np.inf), np.zeros(n, dtype=bool)
        cum = self._cum
        if cum is None:
            cum = np.cumsum(self.mass.ravel())
            cum /= cum[-1]  # cum[-1] == 1.0 exactly, so no index overruns
            self._cum = cum
        row, index = np.divmod(np.searchsorted(cum, rng.random(n), side="right"), bins)
        return (self.offset + index) * self.quantum, row.astype(bool)


# Combined operand size (in bins) above which a pairwise convolution goes
# through the FFT instead of the direct O(n*m) product.  Below it, direct
# convolution is both faster and exact — in particular, every pmf the §6
# testbed produces (sliding windows of 10–40 samples) stays far below the
# threshold, so the figure sweeps remain bit-identical to the direct path.
CONVOLVE_FFT_THRESHOLD = 1024


def _convolve_mass(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Convolve two mass arrays, via FFT when the operands are large.

    The FFT path introduces float noise of order 1e-15; masses are
    clipped to non-negative (DiscretePmf renormalizes on construction),
    and the property tests pin the result to the direct convolution
    within 1e-12.
    """
    if a.size + b.size < CONVOLVE_FFT_THRESHOLD:
        return np.convolve(a, b)
    try:
        from scipy.signal import fftconvolve

        out = fftconvolve(a, b)
    except ImportError:  # pragma: no cover - scipy is a baked-in dependency
        n = a.size + b.size - 1
        nfft = 1 << (n - 1).bit_length()
        out = np.fft.irfft(np.fft.rfft(a, nfft) * np.fft.rfft(b, nfft), nfft)[:n]
    return np.clip(out, 0.0, None)


def convolve_all(pmfs: Sequence[DiscretePmf]) -> DiscretePmf:
    """Convolve a sequence of pmfs (sum of independent variables).

    Small inputs (total support below :data:`CONVOLVE_FFT_THRESHOLD`)
    take the historical left fold over :meth:`DiscretePmf.convolve`,
    which is exact and bit-stable.  Large inputs switch to a balanced
    tree reduction — pairing off neighbours keeps operand sizes even, so
    the total work is O(S log k) with FFT pairs instead of the left
    fold's O(S^2) for k pmfs of total support S.
    """
    if not pmfs:
        raise ValueError("convolve_all needs at least one pmf")
    quantum = pmfs[0].quantum
    for pmf in pmfs[1:]:
        if abs(pmf.quantum - quantum) > 1e-15:
            raise ValueError(f"quantum mismatch: {quantum} vs {pmf.quantum}")
    if sum(p.mass.size for p in pmfs) < CONVOLVE_FFT_THRESHOLD:
        result = pmfs[0]
        for pmf in pmfs[1:]:
            result = result.convolve(pmf)
        return result
    level: list[tuple[int, np.ndarray]] = [(p.offset, p.mass) for p in pmfs]
    while len(level) > 1:
        next_level = []
        for i in range(0, len(level) - 1, 2):
            (off_a, mass_a), (off_b, mass_b) = level[i], level[i + 1]
            next_level.append((off_a + off_b, _convolve_mass(mass_a, mass_b)))
        if len(level) % 2:
            next_level.append(level[-1])
        level = next_level
    offset, mass = level[0]
    return DiscretePmf(quantum, offset, mass)
