"""ASCII table rendering."""

import pytest

from repro.util.tables import Table, format_cell


class TestFormatCell:
    def test_int_gets_separators(self):
        assert format_cell(63253) == "63,253"

    def test_float_precision(self):
        assert format_cell(3.14159) == "3.14"
        assert format_cell(3.14159, precision=3) == "3.142"

    def test_large_float_gets_separators(self):
        assert format_cell(132097.5) == "132,097.5"

    def test_nan_renders_dash(self):
        assert format_cell(float("nan")) == "-"

    def test_bool_is_not_treated_as_int(self):
        assert format_cell(True) == "yes"
        assert format_cell(False) == "no"

    def test_string_passthrough(self):
        assert format_cell("MMU Err.") == "MMU Err."


class TestTable:
    def test_render_alignment(self):
        table = Table("T", ["a", "long-header"])
        table.add_row(1, 2.5)
        table.add_row(100, 3.25)
        text = table.render()
        lines = text.splitlines()
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # every row same width

    def test_wrong_arity_rejected(self):
        table = Table("T", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_title_in_output(self):
        table = Table("My Title", ["a"])
        table.add_row(1)
        assert table.render().startswith("My Title")

    def test_str_matches_render(self):
        table = Table("T", ["a"])
        table.add_row(1)
        assert str(table) == table.render()
