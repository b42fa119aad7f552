"""Efron bootstrap: SE, CI, and the Table 3 speedup statistics."""

import random
from statistics import mean, stdev
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import bootstrap
from repro.stats.bootstrap import (
    bootstrap_ci,
    bootstrap_se,
    resample_indices,
    speedup_stats,
)


def test_se_close_to_analytic_for_the_mean():
    rng = random.Random(7)
    data = [rng.gauss(100, 10) for _ in range(100)]
    se = bootstrap_se(data, n_boot=800, seed=1)
    analytic = stdev(data) / len(data) ** 0.5
    assert se == pytest.approx(analytic, rel=0.2)


def test_se_zero_for_tiny_samples():
    assert bootstrap_se([5.0]) == 0.0
    assert bootstrap_se([]) == 0.0


def test_se_deterministic_given_seed():
    data = [1.0, 2.0, 3.0, 4.0]
    assert bootstrap_se(data, seed=3) == bootstrap_se(data, seed=3)
    assert bootstrap_se(data, seed=3) != bootstrap_se(data, seed=4)


def test_ci_contains_mean_for_well_behaved_data():
    rng = random.Random(11)
    data = [rng.gauss(50, 5) for _ in range(60)]
    lo, hi = bootstrap_ci(data, n_boot=500, seed=2)
    assert lo < mean(data) < hi
    assert hi - lo < 5


def test_ci_validates_input():
    with pytest.raises(ValueError):
        bootstrap_ci([])
    assert bootstrap_ci([3.0]) == (3.0, 3.0)


def test_speedup_stats_table3_semantics():
    """speedup = (t0 - t_opt)/t0, per the Table 3 caption."""
    baseline = [100.0, 101.0, 99.0, 100.5, 99.5] * 2
    optimized = [90.0, 91.0, 89.0, 90.5, 89.5] * 2
    s = speedup_stats(baseline, optimized, seed=5)
    assert s.speedup == pytest.approx(0.10, abs=0.005)
    assert s.speedup_pct == pytest.approx(10.0, abs=0.5)
    assert 0 < s.se < 0.02
    assert s.significant(alpha=0.001)
    assert s.n_baseline == s.n_optimized == 10


def test_speedup_stats_no_change_not_significant():
    runs = [100.0 + 0.1 * i for i in range(10)]
    s = speedup_stats(runs, list(runs), seed=6)
    assert abs(s.speedup) < 0.01
    assert not s.significant()


def test_speedup_stats_validates():
    with pytest.raises(ValueError):
        speedup_stats([], [1.0])


def test_speedup_str_rendering():
    s = speedup_stats([100.0] * 5, [90.0] * 5)
    text = str(s)
    assert "%" in text and "p=" in text


# -- pinned outputs: the draw stream and the SE arithmetic, bit for bit ---------------


def test_bootstrap_se_is_pinned():
    assert bootstrap_se([1.0, 2.0, 3.0, 4.0, 7.5], seed=3) == 0.9802743124899946


def test_bootstrap_ci_is_pinned():
    assert bootstrap_ci([1.0, 2.0, 3.0, 4.0, 7.5], n_boot=500, seed=2) == (1.8, 5.7)


def test_speedup_stats_se_is_pinned():
    baseline = [100.0, 101.0, 99.0, 100.5, 99.5] * 2
    optimized = [90.0, 91.0, 89.0, 90.5, 89.5] * 2
    assert speedup_stats(baseline, optimized, seed=5).se == 0.0030275622616176743


# -- the draw stream: bulk index draws replay sequential randrange ---------------------


def _sequential_draws(seed, sizes, n_boot):
    rng = random.Random(seed)
    out = [[] for _ in sizes]
    for _ in range(n_boot):
        for rows, n in zip(out, sizes):
            rows.append([rng.randrange(n) for _ in range(n)])
    return out


_draw_words = bootstrap._draw_words


def _starved(rng, count):
    """Draw a quarter of what was asked: every buffer runs short."""
    return _draw_words(rng, max(1, count // 4))


#: powers of two and 2^k+1 reject about half the words they read
_SIZES = st.one_of(
    st.integers(1, 300),
    st.sampled_from([1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65, 128, 129, 256, 257]),
)


@given(
    seed=st.integers(0, 2**40),
    sizes=st.lists(_SIZES, min_size=1, max_size=2),
    n_boot=st.integers(1, 300),
    short=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_resample_indices_replays_sequential_randrange(seed, sizes, n_boot, short):
    with mock.patch.object(bootstrap, "_draw_words", _starved if short else _draw_words):
        drawn = resample_indices(seed, sizes, n_boot)
    assert [a.shape for a in drawn] == [(n_boot, n) for n in sizes]
    assert [a.tolist() for a in drawn] == _sequential_draws(seed, sizes, n_boot)


@pytest.mark.parametrize("n", [0, -1, 2**32, 2**40])
def test_resample_indices_rejects_sizes_outside_one_word(n):
    with pytest.raises(ValueError):
        resample_indices(0, [4, n], 10)
