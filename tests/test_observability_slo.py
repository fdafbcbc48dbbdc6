"""Declarative SLOs: objective parsing, evaluation, report rendering."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObservabilityError
from repro.observability import (
    LogBucketSketch,
    MetricsRegistry,
    SloObjective,
    evaluate_slos,
    load_objectives,
)
from repro.observability.histo import nearest_rank
from repro.observability.slo import _HISTOGRAM_STATS


def _registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    hist = reg.histogram("latency_s", {"tenant": "CC"})
    for value in (0.001, 0.002, 0.003, 0.004, 0.100):
        hist.observe(value)
    reg.counter("errors").inc(2)
    reg.counter("requests").inc(100)
    reg.gauge("queue.peak").max(7)
    return reg


class TestObjective:
    def test_round_trips_through_dict(self):
        objective = SloObjective(
            "latency_s", "p99", "<", 0.05,
            labels={"tenant": "CC"}, per=None, name="cc-tail",
        )
        clone = SloObjective.from_dict(
            json.loads(json.dumps(objective.to_dict()))
        )
        assert clone == objective

    def test_describe_names_the_expression(self):
        objective = SloObjective("errors", "value", "<=", 0.05,
                                 per="requests")
        assert objective.describe() == (
            "value(errors) / value(requests) <= 0.05"
        )

    def test_rejects_unknown_op_and_fields(self):
        with pytest.raises(ObservabilityError, match="SLO op"):
            SloObjective("m", "value", "!=", 1.0)
        with pytest.raises(ObservabilityError, match="unknown SLO"):
            SloObjective.from_dict(
                {"metric": "m", "op": "<", "threshold": 1, "color": "red"}
            )
        with pytest.raises(ObservabilityError, match="missing required"):
            SloObjective.from_dict({"metric": "m", "op": "<"})

    @pytest.mark.parametrize("threshold", ["nan", "abc", "0.5", True,
                                           float("nan"), float("inf")])
    def test_rejects_non_numeric_or_non_finite_threshold(self, threshold):
        with pytest.raises(ObservabilityError, match="threshold"):
            SloObjective.from_dict(
                {"metric": "m", "op": "<", "threshold": threshold}
            )


class TestEvaluate:
    def test_histogram_percentile_objective(self):
        report = evaluate_slos(_registry(), [
            SloObjective("latency_s", "p50", "<", 0.01,
                         labels={"tenant": "CC"}),
            SloObjective("latency_s", "p99", "<", 0.01,
                         labels={"tenant": "CC"}),
        ])
        assert not report.ok
        passed, failed = report.checks
        assert passed.passed and passed.observed == pytest.approx(0.003)
        assert not failed.passed
        assert failed.observed == pytest.approx(0.100)
        assert report.violations == (failed,)

    def test_rate_objective_divides_by_denominator(self):
        report = evaluate_slos(_registry(), [
            SloObjective("errors", "value", "<=", 0.05, per="requests"),
        ])
        assert report.ok
        assert report.checks[0].observed == pytest.approx(0.02)

    def test_missing_metric_fails_loudly(self):
        report = evaluate_slos(_registry(), [
            SloObjective("latency_s", "p99", "<", 1.0),  # unlabeled: absent
        ])
        assert not report.ok
        assert report.checks[0].detail == "metric not recorded"

    def test_zero_denominator_fails(self):
        reg = _registry()
        reg.counter("zero")
        report = evaluate_slos(reg, [
            SloObjective("errors", "value", "<", 1.0, per="zero"),
        ])
        assert not report.ok
        assert "zero" in report.checks[0].detail

    def test_plain_dicts_are_accepted(self):
        report = evaluate_slos(_registry(), [
            {"metric": "queue.peak", "op": "<=", "threshold": 10},
        ])
        assert report.ok
        assert report.checks[0].observed == 7.0

    def test_format_lists_every_check(self):
        report = evaluate_slos(_registry(), [
            SloObjective("latency_s", "p99", "<", 0.01,
                         labels={"tenant": "CC"}),
            SloObjective("requests", "value", ">", 1.0),
        ])
        text = report.format()
        assert "1 of 2 objectives violated" in text
        assert "FAIL" in text and "ok" in text


class TestLoadObjectives:
    def test_loads_list_and_wrapped_forms(self, tmp_path):
        objectives = [
            {"metric": "latency_s", "stat": "p99", "op": "<",
             "threshold": 0.05, "labels": {"tenant": "CC"}},
        ]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(objectives))
        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text(json.dumps({"objectives": objectives}))
        assert load_objectives(str(bare)) == load_objectives(str(wrapped))
        assert load_objectives(str(bare))[0].stat == "p99"

    def test_rejects_non_list_payload(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('"latency"')
        with pytest.raises(ObservabilityError, match="list of objectives"):
            load_objectives(str(path))


class TestHistogramStatResolution:
    """Every _HISTOGRAM_STATS name must resolve against a known sample
    set to exactly the value computed directly from the data — in
    particular ``p999`` means the 99.9th percentile (q=99.9), never
    ``q=999``."""

    SAMPLES = [float(i) for i in range(1, 1001)]  # 1..1000, exact path

    def _report(self, stat):
        reg = MetricsRegistry()
        hist = reg.histogram("sample_s")
        for value in self.SAMPLES:
            hist.observe(value)
        report = evaluate_slos(
            reg, [SloObjective("sample_s", stat, "<=", float("inf"))]
        )
        return report.checks[0]

    @pytest.mark.parametrize("stat", list(_HISTOGRAM_STATS))
    def test_every_stat_resolves_without_detail(self, stat):
        check = self._report(stat)
        assert check.passed, check.detail
        assert check.observed is not None
        assert check.detail == ""

    @pytest.mark.parametrize(
        "stat,expected_q",
        [("p50", 50.0), ("p90", 90.0), ("p99", 99.0), ("p999", 99.9)],
    )
    def test_quantile_stats_hit_nearest_rank(self, stat, expected_q):
        check = self._report(stat)
        expected = nearest_rank(self.SAMPLES, expected_q)
        assert check.observed == expected

    def test_p999_is_the_99_9th_percentile(self):
        # p999 resolves to q=99.9 — above p99, and q=999 would not even
        # be a legal percentile (nearest_rank rejects it outright).
        observed = self._report("p999").observed
        assert observed == nearest_rank(self.SAMPLES, 99.9)
        assert observed >= nearest_rank(self.SAMPLES, 99.0)
        with pytest.raises(ObservabilityError):
            nearest_rank(self.SAMPLES, 999.0)

    def test_non_quantile_stats_match_direct_computation(self):
        n = len(self.SAMPLES)
        expected = {
            "mean": sum(self.SAMPLES) / n,
            "min": min(self.SAMPLES),
            "max": max(self.SAMPLES),
            "count": float(n),
            "sum": float(sum(self.SAMPLES)),
        }
        for stat, value in expected.items():
            assert self._report(stat).observed == pytest.approx(value)

    @given(
        samples=st.lists(
            st.floats(
                min_value=1e-9, max_value=1e9,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=1, max_size=200,
        )
    )
    @settings(deadline=None, max_examples=50)
    def test_quantiles_match_sketch_on_random_samples(self, samples):
        reg = MetricsRegistry()
        hist = reg.histogram("rand_s")
        sketch = LogBucketSketch()
        for value in samples:
            hist.observe(value)
            sketch.observe(value)
        for stat, q in (("p50", 50.0), ("p90", 90.0),
                        ("p99", 99.0), ("p999", 99.9)):
            report = evaluate_slos(
                reg, [SloObjective("rand_s", stat, "<=", float("inf"))]
            )
            assert report.checks[0].observed == sketch.quantile(q)


class TestEmptySketchFailsLoudly:
    """A valid stat over a histogram nothing observed must fail the
    objective with an explicit detail — silence is not success."""

    def test_empty_histogram_fails_with_detail(self):
        reg = MetricsRegistry()
        reg.histogram("noop_s")  # registered, never observed
        report = evaluate_slos(
            reg, [SloObjective("noop_s", "p99", "<", 1.0)]
        )
        check = report.checks[0]
        assert not report.ok
        assert not check.passed
        assert check.observed is None
        assert check.detail == "histogram has no observations"

    def test_empty_histogram_fails_for_every_quantile_stat(self):
        reg = MetricsRegistry()
        reg.histogram("noop_s")
        for stat in ("p50", "p90", "p99", "p999", "mean", "min", "max"):
            report = evaluate_slos(
                reg, [SloObjective("noop_s", stat, "<", 1.0)]
            )
            assert not report.ok, stat
            assert report.checks[0].detail == (
                "histogram has no observations"
            ), stat
