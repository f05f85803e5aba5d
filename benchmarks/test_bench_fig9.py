"""Figure 9: elapsed-time distributions, errors-vs-duration, unavailability."""

import pytest

from repro.core.report import figure9_result


@pytest.fixture(scope="module")
def impact(bench_study):
    analyzer = bench_study.job_impact()
    analyzer.classify_jobs()
    return analyzer


@pytest.fixture(scope="module")
def availability(bench_study):
    return bench_study.availability()


def test_bench_figure9_renders(benchmark, impact, availability, report_sink):
    text = benchmark.pedantic(
        lambda: figure9_result(impact, availability).render_text(), rounds=3, iterations=1
    )
    report_sink.append(text)


class TestFigure9a:
    def test_failures_prevalent_in_short_jobs(self, impact):
        histogram = impact.elapsed_histogram()
        short_failed = sum(histogram.gpu_failed[:4])  # < 1,000 minutes
        long_failed = sum(histogram.gpu_failed[4:])
        assert short_failed > 3 * max(long_failed, 1)

    def test_lost_node_hours_order_of_magnitude(self, impact, bench_scale):
        lost = impact.lost_node_hours()
        # Paper: ~7,500 node-hours; tail-dominated, so wide tolerance.
        assert 0.2 * 7_500 * bench_scale < lost < 6 * 7_500 * bench_scale


class TestFigure9b:
    def test_long_completers_accumulate_errors(self, impact):
        series = impact.errors_vs_duration()
        completed = dict((round(mid), mean) for mid, mean in series["completed"])
        # >4,000-minute completed jobs face multiple errors yet finish.
        long_bin = series["completed"][-1][1]
        short_bin = series["completed"][0][1]
        assert long_bin > 0.5
        assert long_bin > 10 * max(short_bin, 0.01)

    def test_some_long_jobs_complete_despite_errors(self, impact):
        histogram = impact.elapsed_histogram(edges_minutes=(4_000, 50_000))
        assert histogram.completed[0] > 0


class TestFigure9c:
    def test_expected_service_time(self, availability):
        dist = availability.unavailability_distribution()
        assert dist["mean_hours"] == pytest.approx(0.3, abs=0.08)

    def test_heavy_tail_reaches_long_reboots(self, availability):
        dist = availability.unavailability_distribution()
        assert dist["max_hours"] > 5.0
        assert dist["p50_hours"] < 0.3

    def test_availability_99_5(self, availability):
        report = availability.report()
        assert report.availability == pytest.approx(0.995, abs=0.003)
        assert report.downtime_minutes_per_day == pytest.approx(7.0, abs=3.5)

    def test_total_downtime_scales(self, availability, bench_scale):
        report = availability.report()
        assert report.total_downtime_node_hours == pytest.approx(
            5_700 * bench_scale, rel=0.4
        )
