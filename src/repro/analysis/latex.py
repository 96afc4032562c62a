"""LaTeX rendering of experiment tables.

The ASCII tables in :mod:`repro.analysis.tables` are terminal-first; this
module renders the same row dictionaries as LaTeX ``tabular``/``booktabs``
environments for inclusion in a write-up — the final mile of a
reproduction.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

#: Characters needing escapes inside LaTeX text cells.
_ESCAPES = {
    "&": r"\&",
    "%": r"\%",
    "$": r"\$",
    "#": r"\#",
    "_": r"\_",
    "{": r"\{",
    "}": r"\}",
    "~": r"\textasciitilde{}",
    "^": r"\textasciicircum{}",
    "\\": r"\textbackslash{}",
}


def escape(text: str) -> str:
    """Escape a string for use in LaTeX text mode."""
    return "".join(_ESCAPES.get(ch, ch) for ch in str(text))


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return r"\checkmark" if value else r"$\times$"
    if isinstance(value, float):
        return f"{value:,.2f}".rstrip("0").rstrip(".")
    return escape(str(value))


def format_latex_table(
    rows: Sequence[Dict[str, Any]],
    columns: Optional[Sequence[str]] = None,
    caption: Optional[str] = None,
    label: Optional[str] = None,
    booktabs: bool = True,
) -> str:
    """Render dict rows as a LaTeX table environment.

    Numeric columns are right-aligned, text columns left-aligned; booleans
    render as check/cross marks.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to render")
    if columns is None:
        columns = list(rows[0].keys())

    def is_numeric(col: str) -> bool:
        return all(
            isinstance(row.get(col), (int, float))
            and not isinstance(row.get(col), bool)
            for row in rows
        )

    spec = "".join("r" if is_numeric(col) else "l" for col in columns)
    top, mid, bottom = (
        (r"\toprule", r"\midrule", r"\bottomrule")
        if booktabs
        else (r"\hline", r"\hline", r"\hline")
    )
    lines = [r"\begin{table}[t]", r"\centering"]
    if caption:
        lines.append(rf"\caption{{{escape(caption)}}}")
    if label:
        lines.append(rf"\label{{{label}}}")
    lines.append(rf"\begin{{tabular}}{{{spec}}}")
    lines.append(top)
    lines.append(" & ".join(escape(col) for col in columns) + r" \\")
    lines.append(mid)
    for row in rows:
        lines.append(
            " & ".join(_fmt(row.get(col, "")) for col in columns) + r" \\"
        )
    lines.append(bottom)
    lines.append(r"\end{tabular}")
    lines.append(r"\end{table}")
    return "\n".join(lines)
