"""Minimal in-house SVG line plots (no plotting dependency)."""

from __future__ import annotations

import numpy as np

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#17becf")


def svg_line_plot(series, path, title="", xlabel="", ylabel=""):
    """Write a 700 x 500 SVG overlay plot of (label, x, y) series."""
    width, height, margin = 700, 500, 60
    xs = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 - x0 < 1e-15:
        x1 = x0 + 1.0
    if y1 - y0 < 1e-15:
        y1 = y0 + 1.0

    def sx(x):
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
    ]
    for k in range(5):
        xv = x0 + k * (x1 - x0) / 4
        yv = y0 + k * (y1 - y0) / 4
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{height - margin + 18}" font-size="11" '
            f'text-anchor="middle">{xv:.3g}</text>')
        parts.append(
            f'<text x="{margin - 8}" y="{sy(yv):.1f}" font-size="11" '
            f'text-anchor="end" dominant-baseline="middle">{yv:.3g}</text>')
    for idx, (label, x, y) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, y))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{pts}"/>')
        parts.append(f'<text x="{width - margin + 4}" '
                     f'y="{sy(float(np.asarray(y)[-1])):.1f}" font-size="11" '
                     f'fill="{color}">{label}</text>')
    if title:
        parts.append(f'<text x="{width / 2:.0f}" y="24" font-size="14" '
                     f'text-anchor="middle">{title}</text>')
    if xlabel:
        parts.append(f'<text x="{width / 2:.0f}" y="{height - 12}" font-size="12" '
                     f'text-anchor="middle">{xlabel}</text>')
    if ylabel:
        parts.append(f'<text x="16" y="{height / 2:.0f}" font-size="12" '
                     f'text-anchor="middle" transform="rotate(-90 16 {height / 2:.0f})">'
                     f'{ylabel}</text>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
