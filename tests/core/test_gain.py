"""Gain heuristic tests, anchored on the paper's Table II example."""

import pytest
from hypothesis import given, strategies as st

from repro.core.gain import GainTracker, gain_scores, pairwise_gain
from repro.experiments.table2_gain import PAPER_DELTAS, PAPER_GAINS, PAPER_HD
from repro.utils.validation import ValidationError


class TestTable2:
    """The worked example of the paper's Table II, to 3 decimals."""

    @pytest.mark.parametrize("task", ["t_A", "t_B", "t_C"])
    @pytest.mark.parametrize("arch", ["a1", "a2"])
    def test_matches_published_value(self, task, arch):
        gains = gain_scores(PAPER_DELTAS[task], PAPER_HD)
        assert gains[arch] == pytest.approx(PAPER_GAINS[task][arch], abs=1e-3)

    def test_tracker_reaches_published_hd(self):
        tracker = GainTracker()
        for task in ("t_A", "t_B", "t_C"):
            tracker.observe_and_score(PAPER_DELTAS[task])
        assert tracker.hd("a1") == pytest.approx(19.0)
        assert tracker.hd("a2") == pytest.approx(19.0)

    def test_tracker_scores_match_after_priming(self):
        tracker = GainTracker()
        for task in ("t_A", "t_B", "t_C"):
            tracker.observe_and_score(PAPER_DELTAS[task])
        # Re-score once hd has converged to the table's value.
        for task in ("t_A", "t_B", "t_C"):
            gains = gain_scores(PAPER_DELTAS[task], {"a1": tracker.hd("a1"), "a2": tracker.hd("a2")})
            for arch in ("a1", "a2"):
                assert gains[arch] == pytest.approx(PAPER_GAINS[task][arch], abs=1e-3)


class TestGainProperties:
    def test_single_architecture_scores_one(self):
        assert gain_scores({"cpu": 3.0}, {}) == {"cpu": 1.0}

    def test_fastest_arch_scores_at_least_half(self):
        gains = gain_scores({"cpu": 10.0, "cuda": 2.0}, {"cpu": 8.0, "cuda": 8.0})
        assert gains["cuda"] >= 0.5
        assert gains["cpu"] <= 0.5

    def test_zero_hd_is_neutral(self):
        gains = gain_scores({"cpu": 5.0, "cuda": 5.0}, {"cpu": 0.0, "cuda": 0.0})
        assert gains == {"cpu": 0.5, "cuda": 0.5}

    def test_empty_deltas_rejected(self):
        with pytest.raises(ValidationError):
            gain_scores({}, {})

    def test_negative_hd_rejected(self):
        with pytest.raises(ValidationError):
            pairwise_gain(1.0, 2.0, -1.0, True)

    def test_clamped_to_unit_interval_with_stale_hd(self):
        # A task whose difference exceeds the recorded hd must clamp.
        gains = gain_scores({"cpu": 100.0, "cuda": 1.0}, {"cpu": 10.0, "cuda": 10.0})
        assert gains["cuda"] == 1.0
        assert gains["cpu"] == 0.0

    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.floats(min_value=1e-3, max_value=1e6),
            min_size=1,
            max_size=4,
        )
    )
    def test_scores_always_in_unit_interval(self, deltas):
        tracker = GainTracker()
        gains = tracker.observe_and_score(deltas)
        assert set(gains) == set(deltas)
        for value in gains.values():
            assert 0.0 <= value <= 1.0

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=1e4),
                st.floats(min_value=0.1, max_value=1e4),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_fastest_arch_always_wins_the_comparison(self, delta_pairs):
        """Across any push history, the fastest architecture's gain is
        always >= every slower architecture's gain for the same task."""
        tracker = GainTracker()
        for d_cpu, d_gpu in delta_pairs:
            gains = tracker.observe_and_score({"cpu": d_cpu, "cuda": d_gpu})
            fastest = "cpu" if d_cpu <= d_gpu else "cuda"
            other = "cuda" if fastest == "cpu" else "cpu"
            assert gains[fastest] >= gains[other]

    def test_hd_is_monotone_nondecreasing(self):
        tracker = GainTracker()
        tracker.observe_and_score({"cpu": 5.0, "cuda": 1.0})
        first = tracker.hd("cpu")
        tracker.observe_and_score({"cpu": 2.0, "cuda": 1.0})
        assert tracker.hd("cpu") == first  # smaller diff does not shrink hd
        tracker.observe_and_score({"cpu": 50.0, "cuda": 1.0})
        assert tracker.hd("cpu") > first

    def test_reset_clears_history(self):
        tracker = GainTracker()
        tracker.observe_and_score({"cpu": 5.0, "cuda": 1.0})
        tracker.reset()
        assert tracker.hd("cpu") == 0.0


class TestTrackerVersion:
    """``version`` moves exactly when cached scores may be out of date."""

    def test_bumps_exactly_when_a_maximum_rises(self):
        tracker = GainTracker()
        assert tracker.version == 0
        tracker.observe_and_score({"cpu": 5.0})  # one arch: no difference
        assert tracker.version == 0
        tracker.observe_and_score({"cpu": 5.0, "cuda": 1.0})
        after_first = tracker.version
        assert after_first > 0
        tracker.observe_and_score({"cpu": 3.0, "cuda": 1.0})  # smaller diff
        assert tracker.version == after_first
        tracker.observe_and_score({"cpu": 50.0, "cuda": 1.0})
        assert tracker.version > after_first

    def test_reobserving_the_same_deltas_changes_nothing(self):
        tracker = GainTracker()
        deltas = {"cpu": 9.0, "cuda": 2.0, "opencl": 4.0}
        first = tracker.observe_and_score(deltas)
        hd = {a: tracker.hd(a) for a in deltas}
        version = tracker.version
        again = tracker.observe_and_score(dict(deltas))
        assert again == first
        assert {a: tracker.hd(a) for a in deltas} == hd
        assert tracker.version == version

    def test_reset_bumps_version(self):
        tracker = GainTracker()
        tracker.reset()
        assert tracker.version == 1
        tracker.observe_and_score({"cpu": 5.0, "cuda": 1.0})
        before = tracker.version
        tracker.reset()
        assert tracker.version == before + 1

    def test_score_matches_gain_scores_without_observing(self):
        tracker = GainTracker()
        tracker.observe_and_score({"cpu": 5.0, "cuda": 1.0})
        version = tracker.version
        deltas = {"cpu": 100.0, "cuda": 1.0}  # would raise hd if observed
        assert tracker.score(deltas) == gain_scores(
            deltas, {"cpu": tracker.hd("cpu"), "cuda": tracker.hd("cuda")}
        )
        assert tracker.version == version
        assert tracker.hd("cpu") == 4.0
