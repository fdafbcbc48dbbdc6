"""Cross-model conformance engine: matrix, checks, config, cache."""

import pytest

from repro.config import ConformanceConfig
from repro.conformance import (
    CHECKS,
    ConformancePoint,
    enumerate_matrix,
    run_matrix,
    run_point,
)
from repro.errors import ConformanceError

#: A four-point sub-matrix small enough for tier-1.
QUICK = ConformanceConfig(
    collectives=("all_reduce", "all_to_all"),
    shapes=((2, 2, 1), (2, 2, 2)),
    payload_bytes=(256,),
)


class TestConformancePoint:
    def test_label_and_derived_geometry(self):
        point = ConformancePoint("all_reduce", 4, 2, 2, 4096)
        assert point.label() == "all_reduce@4x2x2/4096B"
        assert point.num_dpus == 16
        assert point.shape.num_dpus == 16
        assert point.num_elements(8) == 512

    def test_params_round_trip(self):
        point = ConformancePoint("broadcast", 2, 2, 1, 256)
        assert ConformancePoint.from_params(point.params) == point

    def test_unknown_collective_rejected(self):
        with pytest.raises(ConformanceError, match="unknown collective"):
            ConformancePoint("all_shuffle", 2, 2, 2, 256)

    @pytest.mark.parametrize("field", ["banks", "chips", "ranks",
                                       "payload_bytes"])
    def test_nonpositive_dims_rejected(self, field):
        params = {"collective": "all_reduce", "banks": 2, "chips": 2,
                  "ranks": 2, "payload_bytes": 256, field: 0}
        with pytest.raises(ConformanceError, match="positive int"):
            ConformancePoint(**params)

    def test_from_params_rejects_unknown_and_missing_fields(self):
        with pytest.raises(ConformanceError, match="unknown point field"):
            ConformancePoint.from_params(
                {**ConformancePoint("all_reduce", 2, 2, 2, 256).params,
                 "color": "red"}
            )
        with pytest.raises(ConformanceError, match="missing field"):
            ConformancePoint.from_params({"collective": "all_reduce"})

    def test_indivisible_payload_rejected(self):
        point = ConformancePoint("all_reduce", 2, 2, 2, 100)
        with pytest.raises(ConformanceError, match="multiple"):
            point.num_elements(8)


class TestMatrixEnumeration:
    def test_default_matrix_is_the_issue_floor(self):
        """The acceptance floor: >= 5 collectives x 3 shapes x 3 payloads."""
        config = ConformanceConfig()
        points = enumerate_matrix(config)
        assert len(points) == config.num_points
        assert len({p.collective for p in points}) >= 5
        assert len({(p.banks, p.chips, p.ranks) for p in points}) >= 3
        assert len({p.payload_bytes for p in points}) >= 3
        assert len(set(points)) == len(points)

    def test_order_is_collective_major_then_shape_then_payload(self):
        points = enumerate_matrix(QUICK)
        labels = [p.label() for p in points]
        assert labels == [
            "all_reduce@2x2x1/256B",
            "all_reduce@2x2x2/256B",
            "all_to_all@2x2x1/256B",
            "all_to_all@2x2x2/256B",
        ]


class TestConformanceConfig:
    def test_round_trip(self):
        assert ConformanceConfig.from_dict(QUICK.as_dict()) == QUICK

    def test_unknown_field_rejected(self):
        with pytest.raises(ConformanceError, match="unknown conformance"):
            ConformanceConfig.from_dict({"tolerance": 2})

    def test_unknown_collective_rejected(self):
        with pytest.raises(ConformanceError, match="unknown collective"):
            ConformanceConfig(collectives=("warp_sum",))

    def test_bad_shape_rejected(self):
        with pytest.raises(ConformanceError, match="three positive ints"):
            ConformanceConfig(shapes=((2, 2),))

    def test_payload_must_divide_itemsize(self):
        with pytest.raises(ConformanceError, match="multiple"):
            ConformanceConfig(payload_bytes=(100,))

    @pytest.mark.parametrize("kwargs", [
        {"latency_rel_tol": float("nan")},
        {"latency_rel_tol": -0.5},
        {"latency_min_ratio": 1.5},
        {"latency_abs_slack_cycles": float("inf")},
        {"seed": -1},
        {"latency_rel_tol": True},
    ])
    def test_bad_tolerances_rejected(self, kwargs):
        with pytest.raises(ConformanceError):
            ConformanceConfig(**kwargs)


class TestRunPoint:
    def test_agreeing_point_reports_all_checks_ok(self):
        report = run_point(
            ConformancePoint("all_reduce", 2, 2, 2, 1024), QUICK
        )
        assert report["ok"]
        assert set(report["checks"]) == set(CHECKS)
        assert all(c["ok"] for c in report["checks"].values())
        assert report["mutation"] is None

    def test_latency_report_carries_the_band(self):
        report = run_point(
            ConformancePoint("all_to_all", 2, 2, 2, 1024), QUICK
        )
        latency = report["checks"]["latency"]
        assert latency["analytic_cycles"] > 0
        assert (
            latency["lower_cycles"]
            <= latency["noc_cycles"]
            <= latency["upper_cycles"]
        )

    def test_conservation_counts_schedule_flits(self):
        report = run_point(
            ConformancePoint("all_gather", 2, 2, 1, 256), QUICK
        )
        conservation = report["checks"]["conservation"]
        assert conservation["expected_flits"] > 0
        assert conservation["delivered_flits"] == (
            conservation["expected_flits"]
        )

    def test_infeasible_point_raises_not_reports(self):
        # One element across two banks: the ring segmentation cannot
        # divide it — infeasibility must be an exception, not a failure.
        with pytest.raises(ConformanceError, match="infeasible"):
            run_point(ConformancePoint("all_reduce", 2, 2, 1, 8), QUICK)

    def test_report_is_deterministic(self):
        point = ConformancePoint("reduce_scatter", 2, 2, 2, 512)
        assert run_point(point, QUICK) == run_point(point, QUICK)


class TestRunMatrix:
    def test_quick_matrix_agrees(self, tmp_path):
        report = run_matrix(QUICK, cache_enabled=False)
        assert report.ok
        assert len(report.reports) == QUICK.num_points
        assert report.failures == ()
        assert report.config == QUICK.as_dict()

    def test_warm_rerun_is_all_cache_hits(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_matrix(QUICK, cache_dir=cache_dir)
        assert (cold.cache_hits, cold.cache_misses) == (
            0, QUICK.num_points
        )
        warm = run_matrix(QUICK, cache_dir=cache_dir)
        assert (warm.cache_hits, warm.cache_misses) == (
            QUICK.num_points, 0
        )
        assert warm.reports == cold.reports

    def test_format_mentions_every_point_and_the_totals(self):
        report = run_matrix(QUICK, cache_enabled=False)
        text = report.format()
        for point in enumerate_matrix(QUICK):
            assert point.label() in text
        assert f"{QUICK.num_points} point(s), 0 failure(s)" in text


@pytest.mark.slow
class TestFullMatrix:
    def test_default_matrix_all_models_agree(self, conformance_cold_run):
        """The acceptance criterion: the full 5x3x3 matrix passes with
        functional bit-exactness, latency within band, and flit
        conservation on every point (read from the shared cold run)."""
        payload = conformance_cold_run.payload
        reports = payload["reports"]
        failing = [
            f"{r['point']}: "
            + ",".join(n for n in CHECKS if not r["checks"][n]["ok"])
            for r in reports
            if not r["ok"]
        ]
        assert payload["ok"] and not failing, failing
        assert payload["cache_misses"] == len(reports)
        assert len(reports) == ConformanceConfig().num_points == 45
