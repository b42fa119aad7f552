"""Efron's bootstrap.

The paper (Table 3) reports speedups as ``(t0 - t_opt) / t0`` with standard
error computed by Efron's bootstrap over ten runs of each configuration.
This module reproduces that computation deterministically.

The resampling stream is *defined* as sequential ``randrange`` draws from
``random.Random(seed)``: each iteration draws ``randrange(n)`` once per
element of the first group, then once per element of the second.  Every
bootstrap here reads that one stream through :func:`resample_indices`,
which computes it in bulk as index arrays rather than one draw at a time.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from statistics import mean
from typing import Callable, List, Sequence, Tuple

import numpy as np

#: 32-bit words per ``getrandbits`` call: bounds the temporary int and bytes
_CHUNK_WORDS = 1 << 16


def _draw_words(rng: random.Random, count: int) -> np.ndarray:
    """The next ``count`` 32-bit Mersenne Twister outputs of ``rng``, in order."""
    out = np.empty(count, dtype=np.uint32)
    for lo in range(0, count, _CHUNK_WORDS):
        n = min(_CHUNK_WORDS, count - lo)
        # getrandbits(32 * n) puts the first output in the lowest 32 bits
        bits = rng.getrandbits(32 * n).to_bytes(4 * n, "little")
        out[lo:lo + n] = np.frombuffer(bits, dtype="<u4")
    return out


def _block_table(words: np.ndarray, n: int):
    """Where ``randrange(n)`` draws land in ``words``.

    Returns ``(pos, before, end)``: the positions of the words CPython's
    rule accepts (top ``n.bit_length()`` bits below ``n``), the number of
    accepted words before each position ``p``, and ``end[p]``, the position
    after a block of ``n`` draws starting at ``p``.  ``end`` maps blocks that
    run past the buffer to ``len(words) + 1``, which maps to itself.
    """
    size = len(words)
    accepted = (words >> (32 - n.bit_length())) < n
    pos = np.flatnonzero(accepted)
    before = np.zeros(size + 1, dtype=np.intp)
    np.cumsum(accepted, out=before[1:])
    last = before + (n - 1)
    fits = last < len(pos)
    end = np.full(size + 2, size + 1, dtype=np.intp)
    end[:size + 1][fits] = pos[last[fits]] + 1
    return pos, before, end


def resample_indices(seed: int, sizes: Sequence[int], n_boot: int) -> List[np.ndarray]:
    """Bootstrap index draws: one ``(n_boot, n)`` array per group size ``n``.

    Row ``t`` of group ``g``'s array holds the indices iteration ``t``
    resamples from that group.  The values are exactly what
    ``random.Random(seed)`` returns for, per iteration, ``sizes[0]`` calls
    of ``randrange(sizes[0])``, then ``sizes[1]`` calls of
    ``randrange(sizes[1])``, and so on.  CPython draws below ``n`` by taking
    the top ``n.bit_length()`` bits of the next 32-bit word and rejecting
    values ``>= n``; this applies that rule to bulk words, then walks the
    blocks of draws in stream order to find where each one starts.  Sizes
    must lie in ``[1, 2**32)``, where one draw reads one word.
    """
    sizes = [operator.index(n) for n in sizes]
    for n in sizes:
        if not 1 <= n < 1 << 32:
            raise ValueError(f"group size must be in [1, 2**32), got {n}")
    rng = random.Random(seed)
    # a draw below n reads 2**k / n words on average (k = n.bit_length())
    expected = n_boot * sum(1 << n.bit_length() for n in sizes)
    words = _draw_words(rng, expected + 4 * math.isqrt(expected) + 64)
    while True:
        tables = [_block_table(words, n) for n in sizes]
        ends = [memoryview(end) for _, _, end in tables]
        starts = []
        p = 0  # next unread word
        for _ in range(n_boot):
            for end in ends:
                starts.append(p)
                p = end[p]
        if p <= len(words):
            break
        # the buffer ran short: the stream simply continues
        words = np.concatenate((words, _draw_words(rng, len(words))))
    starts = np.array(starts, dtype=np.intp).reshape(n_boot, len(sizes))
    out = []
    for g, (n, (pos, before, _)) in enumerate(zip(sizes, tables)):
        first = before[starts[:, g]]
        drawn = words[pos[first[:, None] + np.arange(n)]]
        out.append((drawn >> (32 - n.bit_length())).astype(np.intp))
    return out


def standard_error(replicates: Sequence[float]) -> float:
    """Standard deviation (n - 1 denominator) of bootstrap replicates;
    0.0 for fewer than two."""
    if len(replicates) < 2:
        return 0.0
    m = mean(replicates)
    return (sum((v - m) ** 2 for v in replicates) / (len(replicates) - 1)) ** 0.5


def _resamples(data: Sequence, n_boot: int, seed: int):
    """Each iteration's resample of ``data``, as a list."""
    (idx,) = resample_indices(seed, [len(data)], n_boot)
    for row in idx:
        yield [data[i] for i in row.tolist()]


def bootstrap_se(
    data: Sequence[float],
    statistic: Callable[[Sequence[float]], float] = mean,
    n_boot: int = 1000,
    seed: int = 0,
) -> float:
    """Bootstrap standard error of ``statistic`` over ``data``."""
    if len(data) < 2:
        return 0.0
    return standard_error([statistic(r) for r in _resamples(data, n_boot, seed)])


def bootstrap_pair_se(
    a: Sequence,
    b: Sequence,
    statistic: Callable[[Sequence, Sequence], "float | None"],
    n_boot: int = 1000,
    seed: int = 0,
) -> float:
    """Bootstrap SE of a two-sample statistic, resampling both groups.

    Each iteration resamples ``a`` then ``b`` from one stream (see
    :func:`resample_indices`; an empty group draws nothing and resamples
    to ``[]``) and evaluates ``statistic`` on the pair.  Iterations where
    it returns ``None`` (undefined, e.g. no progress visits in a resample)
    are skipped.  Returns 0.0 when neither group has two elements, or
    when fewer than two iterations produced a value.
    """
    if len(a) < 2 and len(b) < 2:
        return 0.0
    sizes = (len(a), len(b))
    drawn = iter(resample_indices(seed, [n for n in sizes if n], n_boot))
    ia, ib = (next(drawn) if n else np.empty((n_boot, 0), np.intp) for n in sizes)
    vals = []
    for ra, rb in zip(ia, ib):
        s = statistic([a[i] for i in ra.tolist()], [b[i] for i in rb.tolist()])
        if s is not None:
            vals.append(s)
    return standard_error(vals)


def bootstrap_ci(
    data: Sequence[float],
    statistic: Callable[[Sequence[float]], float] = mean,
    n_boot: int = 1000,
    alpha: float = 0.05,
    seed: int = 0,
) -> Tuple[float, float]:
    """Percentile bootstrap confidence interval for ``statistic``."""
    if not data:
        raise ValueError("empty data")
    if len(data) == 1:
        return (data[0], data[0])
    stats = sorted(statistic(r) for r in _resamples(data, n_boot, seed))
    lo_idx = int((alpha / 2) * n_boot)
    hi_idx = min(n_boot - 1, int((1 - alpha / 2) * n_boot))
    return stats[lo_idx], stats[hi_idx]


@dataclass
class SpeedupStats:
    """Speedup of an optimized configuration over a baseline (Table 3 row)."""

    speedup: float        # (t0 - t_opt) / t0, as a fraction
    se: float             # bootstrap standard error of the speedup
    p_value: float        # one-tailed Mann-Whitney U: t_opt < t0
    baseline_mean: float
    optimized_mean: float
    n_baseline: int
    n_optimized: int

    @property
    def speedup_pct(self) -> float:
        return 100.0 * self.speedup

    @property
    def se_pct(self) -> float:
        return 100.0 * self.se

    def significant(self, alpha: float = 0.001) -> bool:
        """Is the speedup significant at the paper's 99.9% level?"""
        return self.p_value < alpha

    def __str__(self) -> str:
        return f"{self.speedup_pct:+.2f}% ± {self.se_pct:.2f}% (p={self.p_value:.2g})"


def speedup_stats(
    baseline: Sequence[float],
    optimized: Sequence[float],
    n_boot: int = 1000,
    seed: int = 0,
) -> SpeedupStats:
    """Table 3's statistics: bootstrap SE of the speedup + MWU significance.

    ``baseline`` and ``optimized`` are execution times (any unit).  Speedup
    is ``(t0 - t_opt) / t0`` computed on means; the bootstrap resamples both
    groups independently, exactly as in the paper's methodology.
    """
    from repro.stats.mannwhitney import mann_whitney_u

    if not baseline or not optimized:
        raise ValueError("need at least one run per configuration")
    t0 = mean(baseline)
    topt = mean(optimized)
    point = (t0 - topt) / t0

    se = bootstrap_pair_se(
        baseline,
        optimized,
        lambda b, o: (mean(b) - mean(o)) / mean(b),
        n_boot=n_boot,
        seed=seed,
    )

    p = mann_whitney_u(optimized, baseline, alternative="less").p_value
    return SpeedupStats(
        speedup=point,
        se=se,
        p_value=p,
        baseline_mean=t0,
        optimized_mean=topt,
        n_baseline=len(baseline),
        n_optimized=len(optimized),
    )
