"""The verdict ``tools/bench_pairs.py`` writes per workload and metric, on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def verdict():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.verdict


PARENT = [20.0, 20.4, 20.8, 21.0, 21.2, 20.6, 20.2, 21.4, 20.9, 20.5]  # IQR 0.58 around 20.7


def test_a_change_that_wins_nine_pairs_by_more_than_the_iqr_is_a_gain(verdict):
    change = [1.3 * v for v in PARENT]
    change[3] = PARENT[3] - 0.1  # one lost pair of ten
    assert verdict(PARENT, change, "higher", 0.24) == "gain"
    # lower is better: the same runs, read as a cost, are a loss beyond a 15% bound
    assert verdict(PARENT, change, "lower", 0.15) == "worse"


def test_eight_wins_of_ten_is_not_a_gain(verdict):
    change = [1.3 * v for v in PARENT]
    change[3], change[7] = PARENT[3] - 0.1, PARENT[7] - 0.1
    assert verdict(PARENT, change, "higher", 0.24) == "within_bound"


def test_a_median_ahead_by_less_than_the_iqr_is_not_a_gain(verdict):
    change = [v + 0.3 for v in PARENT]  # wins every pair, by half the IQR
    assert verdict(PARENT, change, "higher", 0.24) == "within_bound"


def test_worse_and_within_bound_compare_the_medians_with_the_bound(verdict):
    assert verdict(PARENT, [0.8 * v for v in PARENT], "higher", 0.24) == "within_bound"
    assert verdict(PARENT, [0.7 * v for v in PARENT], "higher", 0.24) == "worse"
    rss = [190.0, 191.0, 191.5, 192.0, 190.5]
    assert verdict(rss, [1.02 * v for v in rss], "lower", 0.15) == "within_bound"
    assert verdict(rss, [1.2 * v for v in rss], "lower", 0.15) == "worse"
    assert verdict([1.0] * 5, [1.0] * 5, "higher", 0.01) == "within_bound"
    assert verdict([1.0] * 5, [0.9] * 5, "higher", 0.01) == "worse"


def test_a_parent_spread_beyond_the_bound_is_unresolved_unless_the_runs_separate(verdict):
    wide = [1.0, 1.6, 0.8, 1.4, 1.1, 0.9]  # IQR/median about 0.45
    assert verdict(wide, [0.6 * v for v in wide], "lower", 0.25) == "unresolved"
    assert verdict(wide, [v + 0.05 for v in wide], "lower", 0.25) == "unresolved"
    # every change run loses to every parent run: still too wide to call
    assert verdict(wide, [v - 1.0 for v in wide], "higher", 0.25) == "unresolved"
    # every change run beats every parent run: resolved, and a gain
    assert verdict(wide, [v + 1.0 for v in wide], "higher", 0.25) == "gain"
