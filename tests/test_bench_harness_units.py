"""Unit tests for the benchmark harness itself (report + fault runner)."""

import pytest

from repro.bench.faultexp import (
    HW_DURING_PROCESS_CREATION,
    PAPER_TABLE_7_4,
    FaultExperimentRunner,
    FaultTrialResult,
    ScenarioSummary,
)
from repro.bench.report import ComparisonRow, ComparisonTable


class TestComparisonTable:
    def test_ratio(self):
        assert ComparisonRow("x", 10, 12).ratio == pytest.approx(1.2)
        assert ComparisonRow("x", None, 12).ratio is None
        assert ComparisonRow("x", 10, None).ratio is None
        assert ComparisonRow("x", 10, "4/4").ratio is None
        assert ComparisonRow("x", 0, 5).ratio is None

    def test_render_contains_rows(self):
        table = ComparisonTable("T")
        table.add("alpha", 1.0, 2.0, "us")
        table.add("beta", None, "3/3", "trials")
        text = table.render()
        assert "alpha" in text and "2" in text and "us" in text
        assert "3/3" in text

    def test_large_number_formatting(self):
        table = ComparisonTable("T")
        table.add("big", 10_000, 12_345.6)
        assert "12,346" in table.render()


class TestScenarioSummary:
    def _trial(self, latency_ms, contained=True):
        return FaultTrialResult(
            scenario="s", seed=0, injected_at_ns=0, detected=True,
            last_entry_latency_ns=(None if latency_ms is None
                                   else int(latency_ms * 1e6)),
            contained=contained, survivors_alive=True, outputs_ok=True,
            check_ok=True)

    def test_latency_aggregation(self):
        summary = ScenarioSummary("s", trials=[
            self._trial(10), self._trial(20), self._trial(None)])
        assert summary.avg_latency_ms == pytest.approx(15)
        assert summary.max_latency_ms == pytest.approx(20)

    def test_contained_count(self):
        summary = ScenarioSummary("s", trials=[
            self._trial(1), self._trial(2, contained=False)])
        assert summary.contained_count == 1


class TestRunnerConfig:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            FaultExperimentRunner().run_trial("nonsense")

    def test_paper_table_shape(self):
        # Guard against accidental edits: the paper's counts total 69.
        assert sum(n for _w, n, _a, _m in PAPER_TABLE_7_4.values()) == 69

    def test_scale_controls_trial_counts(self):
        runner = FaultExperimentRunner()
        # 0 scale still runs at least one trial per scenario.
        counts = {s: max(1, int(round(n * 0.0)))
                  for s, (_w, n, _a, _m) in PAPER_TABLE_7_4.items()}
        assert all(c == 1 for c in counts.values())

    def test_trial_result_latency_property(self):
        trial = FaultTrialResult(
            scenario=HW_DURING_PROCESS_CREATION, seed=0,
            injected_at_ns=0, detected=True,
            last_entry_latency_ns=5_000_000, contained=True,
            survivors_alive=True, outputs_ok=True, check_ok=True)
        assert trial.latency_ms == pytest.approx(5.0)

    def test_trial_result_reason_names_every_failed_condition(self):
        def trial(**kw):
            fields = dict(scenario="s", seed=3, injected_at_ns=0,
                          detected=True, last_entry_latency_ns=None,
                          contained=False, survivors_alive=True,
                          outputs_ok=True, check_ok=True)
            fields.update(kw)
            return FaultTrialResult(**fields)

        assert trial(contained=True).reason == ""
        assert trial(detected=False).reason == "not detected"
        assert trial(survivors_alive=False, check_ok=False).reason == (
            "a surviving cell died")
        assert trial(check_ok=False,
                     notes="check: RuntimeError: boom").reason == (
            "check run failed; check: RuntimeError: boom")
        assert trial(detected=False, outputs_ok=False,
                     notes="main workload: BusError").reason == (
            "not detected; workload outputs wrong; main workload: BusError")
        # a property, not a field: the shard form does not change
        assert "reason" not in trial(detected=False).to_dict()
