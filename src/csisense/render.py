"""Static SVG timelines of per-packet label series.

The plots are built by direct string assembly (fixed coordinate formatting,
run-collapsed step paths) so a rerun produces byte-identical files.

The renderer relies on its caller and checks nothing: it is handed at least
one series, each a non-empty class code series, all of one length, as
``read_predictions`` returns them.
"""

from __future__ import annotations

import numpy as np

from .domain import LABELS
from .postprocess import label_runs

_SERIES_COLORS = {
    "true": "#6b7280",
    "ensembled": "#1d4ed8",
    "smoothed": "#dc2626",
}

_WIDTH = 920
_HEIGHT = 380
_MARGIN_LEFT = 118
_MARGIN_RIGHT = 16
_MARGIN_TOP = 34
_MARGIN_BOTTOM = 42


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


def step_path(values: np.ndarray, x_left: float, x_step: float, y_of) -> str:
    """SVG path for a step plot; consecutive equal labels collapse into one
    horizontal segment so long trials stay small on disk."""
    values = np.asarray(values, dtype=np.int64)
    parts = []
    for label, start, length in label_runs(values):
        x0 = x_left + start * x_step
        x1 = x_left + (start + length) * x_step
        y = y_of(label)
        if not parts:
            parts.append(f"M{_fmt(x0)},{_fmt(y)}")
        else:
            parts.append(f"V{_fmt(y)}")
        parts.append(f"H{_fmt(x1)}")
    return " ".join(parts)


def render_label_plot(series: list[tuple[str, np.ndarray]], title: str) -> str:
    """One SVG document: packet index on x, class code on y, one step path
    per (name, labels) series plus a legend.  Each series name is one of
    ``true``, ``ensembled`` and ``smoothed``, and picks the series colour."""
    n = len(series[0][1])
    n_classes = len(LABELS)

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    x_step = plot_w / n

    def y_of(label: int) -> float:
        # class 0 at the bottom, each class in the middle of its band
        return _MARGIN_TOP + plot_h - (label + 0.5) * plot_h / n_classes

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<text x="{_MARGIN_LEFT}" y="20" font-size="14" fill="#111827">{_escape(title)}</text>',
    ]
    for c in range(n_classes):
        y = y_of(c)
        out.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{_fmt(y)}" x2="{_WIDTH - _MARGIN_RIGHT}" '
            f'y2="{_fmt(y)}" stroke="#e5e7eb" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_MARGIN_LEFT - 6}" y="{_fmt(y + 3)}" font-size="9" fill="#4b5563" '
            f'text-anchor="end">{_escape(LABELS[c])}</text>'
        )
    axis_y = _MARGIN_TOP + plot_h
    out.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{_fmt(axis_y)}" x2="{_WIDTH - _MARGIN_RIGHT}" '
        f'y2="{_fmt(axis_y)}" stroke="#9ca3af" stroke-width="1"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = _MARGIN_LEFT + frac * plot_w
        out.append(
            f'<text x="{_fmt(x)}" y="{_fmt(axis_y + 16)}" font-size="10" fill="#4b5563" '
            f'text-anchor="middle">{int(round(frac * n))}</text>'
        )
    out.append(
        f'<text x="{_fmt(_MARGIN_LEFT + plot_w / 2)}" y="{_fmt(axis_y + 32)}" font-size="11" '
        f'fill="#374151" text-anchor="middle">packet index</text>'
    )

    legend_x = _MARGIN_LEFT
    for name, values in series:
        color = _SERIES_COLORS[name]
        path = step_path(np.asarray(values), _MARGIN_LEFT, x_step, y_of)
        out.append(
            f'<path d="{path}" fill="none" stroke="{color}" stroke-width="1.6" '
            f'stroke-linejoin="round"/>'
        )
        out.append(
            f'<rect x="{_fmt(legend_x)}" y="{_HEIGHT - 14}" width="14" height="4" fill="{color}"/>'
        )
        out.append(
            f'<text x="{_fmt(legend_x + 18)}" y="{_HEIGHT - 8}" font-size="10" '
            f'fill="#374151">{_escape(name)}</text>'
        )
        legend_x += 26 + 7 * len(name)
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
