"""LaTeX rendering of experiment tables."""

import pytest

from repro.analysis.latex import (
    escape,
    format_latex_table,
)


class TestEscape:
    def test_special_characters(self):
        assert escape("a_b") == r"a\_b"
        assert escape("100%") == r"100\%"
        assert escape("x&y") == r"x\&y"
        assert escape("{q}") == r"\{q\}"

    def test_plain_text_unchanged(self):
        assert escape("hello world") == "hello world"

    def test_backslash(self):
        assert "textbackslash" in escape("a\\b")


class TestTable:
    ROWS = [
        {"protocol": "algorithm1", "CC": 342.5, "correct": True},
        {"protocol": "brute_force", "CC": 1013, "correct": False},
    ]

    def test_structure(self):
        tex = format_latex_table(self.ROWS, caption="Costs", label="tab:cc")
        assert tex.startswith(r"\begin{table}[t]")
        assert r"\caption{Costs}" in tex
        assert r"\label{tab:cc}" in tex
        assert r"\toprule" in tex
        assert tex.rstrip().endswith(r"\end{table}")

    def test_column_alignment(self):
        tex = format_latex_table(self.ROWS)
        # protocol is text (l), CC numeric (r), correct boolean (l).
        assert r"\begin{tabular}{lrl}" in tex

    def test_booleans_render_as_marks(self):
        tex = format_latex_table(self.ROWS)
        assert r"\checkmark" in tex
        assert r"$\times$" in tex

    def test_underscores_escaped_in_cells(self):
        tex = format_latex_table(self.ROWS)
        assert r"brute\_force" in tex

    def test_no_booktabs_fallback(self):
        tex = format_latex_table(self.ROWS, booktabs=False)
        assert r"\hline" in tex
        assert r"\toprule" not in tex

    def test_column_selection(self):
        tex = format_latex_table(self.ROWS, columns=["CC"])
        assert "protocol" not in tex

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            format_latex_table([])

    def test_float_formatting_trims_zeroes(self):
        tex = format_latex_table([{"v": 2.50}])
        assert "2.5 " in tex or r"2.5 \\" in tex
