"""Hand-emitted SVG charts: first-stage forest plots and effect bar charts.

No plotting library: elements are written in a fixed order with fixed
coordinate formatting, so outputs are byte-stable and diffable in golden
tests. Both charts use a 960x540 (16:9) viewBox.
"""

from __future__ import annotations

from typing import Sequence

WIDTH, HEIGHT = 960.0, 540.0
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 150.0, 30.0, 50.0, 45.0

CLASS_COLORS = {
    "negative": "#c0392b",  # instrument moves the item up the ranking
    "null": "#222222",
    "positive": "#2e6da4",
}
SPEC_PALETTE = ("#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#b07aa1", "#76b7b2")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_fmt(WIDTH)} {_fmt(HEIGHT)}">',
        f'<rect x="0" y="0" width="{_fmt(WIDTH)}" height="{_fmt(HEIGHT)}" fill="#ffffff"/>',
        f'<text x="{_fmt(WIDTH / 2)}" y="28" text-anchor="middle" '
        f'font-family="sans-serif" font-size="18">{title}</text>',
    ]


def forest_svg(entries: Sequence[tuple[str, float, float, float, str]]) -> str:
    """Forest plot: one (label, coef, ci_low, ci_high, classification) per row."""
    if not entries:
        raise ValueError("no entries to plot")
    lo = min(e[2] for e in entries)
    hi = max(e[3] for e in entries)
    lo, hi = min(lo, 0.0), max(hi, 0.0)
    span = (hi - lo) or 1.0
    lo -= 0.05 * span
    hi += 0.05 * span

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(v: float) -> float:
        return MARGIN_LEFT + (v - lo) / (hi - lo) * plot_w

    step = plot_h / len(entries)
    parts = _header("First-stage effect of treatment on position")
    zero_x = sx(0.0)
    parts.append(
        f'<line x1="{_fmt(zero_x)}" y1="{_fmt(MARGIN_TOP)}" x2="{_fmt(zero_x)}" '
        f'y2="{_fmt(HEIGHT - MARGIN_BOTTOM)}" stroke="#888888" stroke-dasharray="4 3"/>'
    )
    for i, (label, coef, ci_lo, ci_hi, cls) in enumerate(entries):
        y = MARGIN_TOP + (i + 0.5) * step
        color = CLASS_COLORS.get(cls, CLASS_COLORS["null"])
        parts.append(
            f'<line x1="{_fmt(sx(ci_lo))}" y1="{_fmt(y)}" x2="{_fmt(sx(ci_hi))}" '
            f'y2="{_fmt(y)}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<circle cx="{_fmt(sx(coef))}" cy="{_fmt(y)}" r="4" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_fmt(MARGIN_LEFT - 8)}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{label}</text>'
        )
    for v in (lo, 0.0, hi):
        parts.append(
            f'<text x="{_fmt(sx(v))}" y="{_fmt(HEIGHT - MARGIN_BOTTOM + 18)}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12">{v:.3g}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def bars_svg(
    item_labels: Sequence[str],
    group_labels: Sequence[str],
    values: Sequence[Sequence[float]],
) -> str:
    """Grouped bar chart: values[i][g] for item i, group (spec) g."""
    if not item_labels or not group_labels:
        raise ValueError("nothing to plot")
    flat = [v for row in values for v in row]
    lo, hi = min(min(flat), 0.0), max(max(flat), 0.0)
    span = (hi - lo) or 1.0
    lo -= 0.05 * span
    hi += 0.05 * span

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sy(v: float) -> float:
        return MARGIN_TOP + (hi - v) / (hi - lo) * plot_h

    n_items, n_groups = len(item_labels), len(group_labels)
    slot = plot_w / n_items
    bar = slot * 0.8 / n_groups

    parts = _header("Position effect by item and specification")
    zero_y = sy(0.0)
    parts.append(
        f'<line x1="{_fmt(MARGIN_LEFT)}" y1="{_fmt(zero_y)}" '
        f'x2="{_fmt(WIDTH - MARGIN_RIGHT)}" y2="{_fmt(zero_y)}" stroke="#555555"/>'
    )
    for i, label in enumerate(item_labels):
        x0 = MARGIN_LEFT + i * slot + slot * 0.1
        for g in range(n_groups):
            v = values[i][g]
            color = SPEC_PALETTE[g % len(SPEC_PALETTE)]
            top = min(sy(v), zero_y)
            height = abs(sy(v) - zero_y)
            parts.append(
                f'<rect x="{_fmt(x0 + g * bar)}" y="{_fmt(top)}" width="{_fmt(bar)}" '
                f'height="{_fmt(height)}" fill="{color}"/>'
            )
        parts.append(
            f'<text x="{_fmt(MARGIN_LEFT + (i + 0.5) * slot)}" '
            f'y="{_fmt(HEIGHT - MARGIN_BOTTOM + 18)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{label}</text>'
        )
    for g, label in enumerate(group_labels):
        x = MARGIN_LEFT + g * 130.0
        color = SPEC_PALETTE[g % len(SPEC_PALETTE)]
        parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(HEIGHT - 16)}" width="12" height="12" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_fmt(x + 16)}" y="{_fmt(HEIGHT - 6)}" '
            f'font-family="sans-serif" font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
