"""Deterministic SVG heatmap of layer x epoch sparsity ratios."""

from __future__ import annotations

from pathlib import Path

CELL = 28
MARGIN_LEFT = 64
MARGIN_TOP = 36
MARGIN_BOTTOM = 28


def _shade(value: float) -> str:
    # 0 -> white, 1 -> black
    level = round(255 * (1.0 - value))
    return f"#{level:02x}{level:02x}{level:02x}"


def render_heatmap_svg(table) -> str:
    """Render a rectangular table of [0, 1] values (layer rows, epoch columns) as SVG."""
    rows = [list(map(float, row)) for row in table]
    if not rows or not rows[0]:
        raise ValueError("table must be non-empty")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"ragged table: row {i} has {len(row)} cells, expected {width}")
        for j, v in enumerate(row):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"value out of range at ({i}, {j}): {v}")

    height = len(rows)
    total_w = MARGIN_LEFT + width * CELL + 12
    total_h = MARGIN_TOP + height * CELL + MARGIN_BOTTOM
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" height="{total_h}" '
        f'viewBox="0 0 {total_w} {total_h}">',
        f'<text x="{MARGIN_LEFT}" y="16" font-family="monospace" font-size="12">'
        "layer x epoch sparsity ratio</text>",
    ]
    for i, row in enumerate(rows):
        y = MARGIN_TOP + i * CELL
        parts.append(
            f'<text x="4" y="{y + CELL - 9}" font-family="monospace" font-size="11">'
            f"layer {i}</text>"
        )
        for j, v in enumerate(row):
            x = MARGIN_LEFT + j * CELL
            parts.append(
                f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" '
                f'fill="{_shade(v)}" stroke="#888" stroke-width="1"/>'
            )
    for j in range(width):
        x = MARGIN_LEFT + j * CELL
        parts.append(
            f'<text x="{x + 4}" y="{total_h - 10}" font-family="monospace" font-size="11">'
            f"{j}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_heatmap_svg(table, path) -> None:
    """Write the heatmap; identical input yields identical bytes."""
    Path(path).write_bytes(render_heatmap_svg(table).encode("utf-8"))
