"""SVG rendering: structural validity and content checks."""

import xml.etree.ElementTree as ET

import pytest

from repro.viz.charts import bar_chart, cdf_chart, grouped_bar_chart, line_chart
from repro.viz.svg import SvgCanvas

SVG_NS = "{http://www.w3.org/2000/svg}"


def _parse(canvas: SvgCanvas) -> ET.Element:
    return ET.fromstring(canvas.render())


def _count(root: ET.Element, tag: str) -> int:
    return len(root.findall(f".//{SVG_NS}{tag}"))


class TestCanvas:
    def test_valid_xml_document(self):
        canvas = SvgCanvas(100, 80)
        canvas.rect(1, 2, 3, 4, fill="#fff")
        canvas.line(0, 0, 10, 10)
        canvas.circle(5, 5, 2, fill="#000")
        canvas.text(1, 1, "hello <world> & co")
        root = _parse(canvas)
        assert root.attrib["width"] == "100"
        assert _count(root, "rect") == 2  # background + the rect
        assert _count(root, "circle") == 1

    def test_text_escaped(self):
        canvas = SvgCanvas(50, 50)
        canvas.text(0, 0, "a<b>&c")
        root = _parse(canvas)
        text = root.find(f".//{SVG_NS}text")
        assert text.text == "a<b>&c"

    def test_arrow_draws_three_lines(self):
        canvas = SvgCanvas(50, 50)
        canvas.arrow(0, 0, 20, 20)
        assert _count(_parse(canvas), "line") == 3

    def test_save(self, tmp_path):
        canvas = SvgCanvas(10, 10)
        path = canvas.save(tmp_path / "sub" / "x.svg")
        assert path.exists()
        ET.parse(path)  # parses cleanly from disk

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            SvgCanvas(0, 10)

    def test_rect_tooltip(self):
        canvas = SvgCanvas(50, 50)
        canvas.rect(0, 0, 5, 5, fill="#fff", title="MMU: 42")
        root = _parse(canvas)
        title = root.find(f".//{SVG_NS}title")
        assert title is not None and title.text == "MMU: 42"


class TestCharts:
    def test_bar_chart_one_bar_per_value(self):
        canvas = bar_chart("T", ["a", "b", "c"], [1.0, 10.0, 100.0], log_y=True)
        root = _parse(canvas)
        bars = [
            r for r in root.findall(f".//{SVG_NS}rect")
            if r.find(f"{SVG_NS}title") is not None
        ]
        assert len(bars) == 3

    def test_bar_chart_mismatched_input(self):
        with pytest.raises(ValueError):
            bar_chart("T", ["a"], [1.0, 2.0])

    def test_grouped_bars(self):
        canvas = grouped_bar_chart(
            "T", ["x", "y"], [("s1", [1, 2]), ("s2", [3, 4])]
        )
        root = _parse(canvas)
        bars = [
            r for r in root.findall(f".//{SVG_NS}rect")
            if r.find(f"{SVG_NS}title") is not None
        ]
        assert len(bars) == 4

    def test_cdf_monotone_path(self):
        canvas = cdf_chart("T", [5.0, 1.0, 3.0, 2.0], log_x=True)
        root = _parse(canvas)
        polyline = root.find(f".//{SVG_NS}polyline")
        points = [
            tuple(float(v) for v in pair.split(","))
            for pair in polyline.attrib["points"].split()
        ]
        xs = [x for x, _ in points]
        ys = [y for _, y in points]
        assert xs == sorted(xs)
        assert ys == sorted(ys, reverse=True)  # CDF climbs (y shrinks in SVG)

    def test_cdf_rejects_empty(self):
        with pytest.raises(ValueError):
            cdf_chart("T", [])

    def test_line_chart_series_and_legend(self):
        canvas = line_chart("T", [("a", [(0, 1), (1, 2)]), ("b", [(0, 2), (1, 1)])])
        root = _parse(canvas)
        assert _count(root, "polyline") == 2


class TestPaperFigures:
    def test_render_all_figures(self, tmp_path, study):
        from repro.viz.figures import render_all_figures

        paths = render_all_figures(
            stats=study.error_statistics(),
            impact=study.job_impact(),
            availability=study.availability(),
            graph=study.propagation().analyze(),
            sweep={(5.0, 0.995): 0.05, (40.0, 0.995): 0.20},
            directory=tmp_path / "figures",
        )
        assert len(paths) == 7
        for path in paths:
            assert path.exists()
            ET.parse(path)

    def test_propagation_figure_shows_measured_edges(self, study):
        from repro.viz.figures import propagation_figure

        canvas = propagation_figure(study.propagation().analyze())
        text = canvas.render()
        assert "119" in text and "122" in text
        assert "terminal" in text

    def test_figure9b_lines(self, study):
        from repro.viz.figures import errors_vs_duration_figure

        canvas = errors_vs_duration_figure(study.job_impact())
        text = canvas.render()
        assert "Figure 9b" in text
        assert text.count("<polyline") == 2  # completed + GPU-failed series

    def test_propagation_figure_empty_graph(self):
        from repro.core.propagation import PropagationGraph
        from repro.viz.figures import propagation_figure

        canvas = propagation_figure(PropagationGraph())
        assert "no events" in canvas.render()
