"""Tests for the experiment runner behind EXPERIMENTS.md."""

import pytest

from repro.bench import (
    ALL_EXPERIMENTS,
    ExperimentResult,
    MeasurementRow,
    SweepReport,
    render_markdown,
    run_all_experiments,
    write_report,
)
from repro.bench.experiments import (
    run_exp_ablations,
    run_exp_adjustment,
    run_exp_figure_4_1,
    run_exp_special_cases,
    run_exp_travel_example,
)


class TestExperimentResult:
    def test_observation_marks_agreement(self):
        result = ExperimentResult("EXP-X", "title", "claim")
        result.add_observation("matches", agrees=True)
        assert result.agreement
        result.add_observation("does not match", agrees=False)
        assert not result.agreement
        assert result.observations[0].startswith("✓")
        assert result.observations[1].startswith("✗")


class TestIndividualExperiments:
    """The cheap experiments run as part of the unit suite; the rest are benchmarks."""

    def test_figure_4_1_regeneration_agrees(self):
        result = run_exp_figure_4_1(quick=True)
        assert result.experiment_id == "EXP-F4.1"
        assert result.agreement
        assert result.reports and result.reports[0].rows

    def test_travel_example_agrees(self):
        result = run_exp_travel_example(quick=True)
        assert result.agreement
        assert len(result.observations) == 3

    def test_special_cases_constant_bound_faster(self):
        result = run_exp_special_cases(quick=True)
        assert result.reports[0].rows
        labels = {row.label for row in result.reports[0].rows}
        assert "poly bound, query Qc" in labels
        assert "items (singletons, no Qc)" in labels

    def test_ablations_report_pruning_and_heuristics(self):
        result = run_exp_ablations(quick=True)
        assert result.experiment_id == "EXP-ABL"
        labels = {row.label for row in result.reports[0].rows}
        assert "exhaustive, pruning off" in labels
        assert "greedy heuristic" in labels


    def test_package_adjustment_verdict_is_judged_on_tries(self):
        """EXP-S8 judges package ARPP on ``adjustments_tried`` of a full sweep with
        k′ = #variables: Σ_{j≤v} C(2v, j) insertions, not on ~1 ms timings."""
        result = run_exp_adjustment(quick=True)
        package_rows = result.reports[0].rows
        assert [row.size for row in package_rows] == [2, 3, 4]
        assert [row.work for row in package_rows] == [11, 42, 163]
        assert "11/42/163 adjustments tried" in result.observations[0]
        assert result.observations[0].startswith("✓")

    def test_package_adjustment_verdict_rejects_polynomial_growth(self, monkeypatch):
        """With k′ fixed at 2 the counts are quadratic in the variables (11/22/37)."""
        from dataclasses import replace

        import repro.bench.experiments as experiments

        real = experiments.arpp_from_3sat
        monkeypatch.setattr(
            experiments, "arpp_from_3sat", lambda formula: replace(real(formula), max_changes=2)
        )
        result = run_exp_adjustment(quick=True)
        assert [row.work for row in result.reports[0].rows] == [11, 22, 37]
        assert result.observations[0].startswith("✗")

    def test_item_adjustment_rows_carry_the_tries_counter(self):
        """EXP-S8 judges item ARPP on ``adjustments_tried``, not on ~1 ms timings."""
        result = run_exp_adjustment(quick=True)
        item_rows = result.reports[1].rows
        assert [row.size for row in item_rows] == [4, 6, 8]
        assert all(row.work is not None and row.work > 0 for row in item_rows)
        tries = "/".join(f"{row.work:.0f}" for row in item_rows)
        assert f"{tries} adjustments tried" in result.observations[1]

    def test_item_adjustment_verdict_needs_exponential_growth(self):
        """The full sweep with k′ = |D′|/2 tries every adjustment: Σ_{j≤k′} C(|D′|, j)."""
        result = run_exp_adjustment(quick=True)
        assert [row.work for row in result.reports[1].rows] == [11, 42, 163]
        assert result.observations[1].startswith("✓")

    def test_item_adjustment_verdict_rejects_polynomial_growth(self, monkeypatch):
        """With k′ fixed at 2 the counts are quadratic in |D′| (11/22/37): the ratio falls."""
        import repro.bench.experiments as experiments

        real = experiments.find_item_adjustment

        def fixed_budget(*args, **kwargs):
            return real(*args, **{**kwargs, "max_changes": 2})

        monkeypatch.setattr(experiments, "find_item_adjustment", fixed_budget)
        result = run_exp_adjustment(quick=True)
        assert [row.work for row in result.reports[1].rows] == [11, 22, 37]
        assert result.observations[1].startswith("✗")


class TestRunner:
    def test_registry_ids_are_unique(self):
        ids = [experiment_id for experiment_id, _ in ALL_EXPERIMENTS]
        assert len(ids) == len(set(ids))
        assert "EXP-T8.1" in ids and "EXP-S8" in ids

    def test_only_filter(self):
        results = run_all_experiments(quick=True, only=["EXP-F4.1"])
        assert [result.experiment_id for result in results] == ["EXP-F4.1"]

    def test_unknown_only_returns_nothing(self):
        assert run_all_experiments(quick=True, only=["EXP-NOPE"]) == []


class TestRendering:
    def _fake_results(self):
        report = SweepReport(title="sweep", paper_cell="coNP-complete")
        report.add(MeasurementRow(label="n = 2", size=2, seconds=0.001))
        report.add(MeasurementRow(label="n = 4", size=4, seconds=0.004))
        good = ExperimentResult("EXP-OK", "ok — something", "a claim")
        good.reports = [report]
        good.add_observation("as expected")
        bad = ExperimentResult("EXP-BAD", "bad — something else", "another claim")
        bad.add_observation("mismatch", agrees=False)
        return [good, bad]

    def test_render_contains_summary_and_sections(self):
        text = render_markdown(self._fake_results())
        assert "# EXPERIMENTS" in text
        assert "| EXP-OK |" in text and "| EXP-BAD |" in text
        assert "NO — see below" in text
        assert "## EXP-OK — ok — something" in text
        assert "log-log growth exponent" in text
        assert "coNP-complete" in text

    def test_render_adds_a_work_column_only_when_a_row_carries_work(self):
        results = self._fake_results()
        assert "| configuration | size | seconds |" in render_markdown(results)
        assert "work |" not in render_markdown(results)
        results[0].reports[0].add(MeasurementRow(label="n = 8", size=8, seconds=0.02, work=163))
        text = render_markdown(results)
        assert "| configuration | size | seconds | work |" in text
        assert "| n = 8 | 8 | 0.0200 | 163 |" in text
        assert "| n = 2 | 2 | 0.0010 | - |" in text

    def test_render_includes_reference_tables(self):
        text = render_markdown(self._fake_results())
        assert "Reference tables" in text
        assert "EXPTIME" in text

    def test_write_report_creates_file(self, tmp_path):
        path = tmp_path / "EXPERIMENTS.md"
        text = write_report(str(path), quick=True, only=["EXP-F4.1"])
        assert path.exists()
        assert path.read_text(encoding="utf-8") == text
        assert "EXP-F4.1" in text
