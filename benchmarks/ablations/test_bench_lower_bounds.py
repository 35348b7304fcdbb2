"""Ablation: what each lower-bound stage buys in 1-NN search.

Section 3.4's repeated-use argument quantified: the cascade is lossless
(identical neighbours) while evaluating a fraction of the DP cells;
each stage contributes.
"""

from repro.datasets.gestures import gesture_dataset
from repro.search.nn_search import nearest_neighbor


def _workload():
    data = gesture_dataset(
        n_classes=4, per_class=12, length=128, seed=9, name="lb-bench"
    )
    series = [list(s) for s in data.series]
    return series[0], series[1:]


class TestLowerBoundAblation:
    def test_no_bounds(self, benchmark):
        query, candidates = _workload()
        res = benchmark(
            lambda: nearest_neighbor(query, candidates, "cdtw",
                                     window=0.10)
        )
        assert res.distance >= 0

    def test_full_cascade(self, benchmark):
        query, candidates = _workload()
        res = benchmark(
            lambda: nearest_neighbor(query, candidates, "cdtw+lb",
                                     window=0.10)
        )
        assert res.distance >= 0

    def test_stage_contributions_report(self, benchmark, save_report):
        query, candidates = _workload()
        res = benchmark.pedantic(
            lambda: nearest_neighbor(query, candidates, "cdtw+lb",
                                     window=0.10),
            rounds=1, iterations=1,
        )
        s = res.stats
        save_report(
            "ablation_lower_bounds",
            f"candidates:            {s.candidates}\n"
            f"pruned by LB_Kim:      {s.pruned_kim}\n"
            f"pruned by LB_Keogh:    {s.pruned_keogh}\n"
            f"pruned by reversed LB: {s.pruned_keogh_reversed}\n"
            f"abandoned mid-DTW:     {s.abandoned_dtw}\n"
            f"full DTW computed:     {s.full_dtw}\n"
            f"prune rate:            {s.prune_rate():.0%}",
        )
        plain = nearest_neighbor(query, candidates, "cdtw", window=0.10)
        assert res.index == plain.index
        assert res.cells < plain.cells
