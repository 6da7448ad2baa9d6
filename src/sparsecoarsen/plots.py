"""Minimal self-contained SVG line charts (no plotting dependency).

The CSV files are the primary artifact; these charts are a convenience for
eyeballing convergence and decay curves, so they stay deliberately simple:
log-y polylines with decade ticks and a small legend.
"""

import math

_PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2",
]

_W, _H = 720, 460
_ML, _MR, _MT, _MB = 70, 160, 40, 50
_N_X_TICKS = 6


def _nice_x_ticks(lo, hi):
    if hi <= lo:
        return [lo]
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / (_N_X_TICKS - 1)))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= _N_X_TICKS - 1:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(round(t, 10))
        t += step
    return ticks or [lo]


def write_line_chart(path, series, title, xlabel, ylabel):
    """Write a log-y polyline chart; series is a list of (label, xs, ys).

    Non-finite points and non-positive y values are skipped.  Output is
    deterministic for identical input.
    """
    pts = []
    for _, xs, ys in series:
        for x, y in zip(xs, ys):
            if math.isfinite(x) and math.isfinite(y) and y > 0.0:
                pts.append((x, y))
    if not pts:
        pts = [(0.0, 1.0), (1.0, 1.0)]

    x_lo = min(p[0] for p in pts)
    x_hi = max(p[0] for p in pts)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    y_lo = math.floor(math.log10(min(p[1] for p in pts)))
    y_hi = math.ceil(math.log10(max(p[1] for p in pts)))
    if y_hi == y_lo:
        y_hi = y_lo + 1

    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def sx(x):
        return _ML + plot_w * (x - x_lo) / (x_hi - x_lo)

    def sy(y):
        return _MT + plot_h * (1.0 - (math.log10(y) - y_lo) / (y_hi - y_lo))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_ML + plot_w / 2:.1f}" y="22" text-anchor="middle" '
        f'font-size="15">{title}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333"/>',
    ]

    for t in _nice_x_ticks(x_lo, x_hi):
        px = sx(t)
        out.append(f'<line x1="{px:.1f}" y1="{_MT + plot_h}" x2="{px:.1f}" '
                   f'y2="{_MT + plot_h + 5}" stroke="#333"/>')
        label = f"{t:g}"
        out.append(f'<text x="{px:.1f}" y="{_MT + plot_h + 18}" '
                   f'text-anchor="middle">{label}</text>')
    for d in range(y_lo, y_hi + 1):
        py = sy(10.0 ** d)
        out.append(f'<line x1="{_ML - 5}" y1="{py:.1f}" x2="{_ML}" '
                   f'y2="{py:.1f}" stroke="#333"/>')
        out.append(f'<line x1="{_ML}" y1="{py:.1f}" x2="{_ML + plot_w}" '
                   f'y2="{py:.1f}" stroke="#eee"/>')
        out.append(f'<text x="{_ML - 8}" y="{py + 4:.1f}" '
                   f'text-anchor="end">1e{d}</text>')

    out.append(f'<text x="{_ML + plot_w / 2:.1f}" y="{_H - 10}" '
               f'text-anchor="middle">{xlabel}</text>')
    out.append(f'<text x="18" y="{_MT + plot_h / 2:.1f}" text-anchor="middle" '
               f'transform="rotate(-90 18 {_MT + plot_h / 2:.1f})">{ylabel}</text>')

    for k, (label, xs, ys) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        coords = [
            f"{sx(x):.2f},{sy(y):.2f}"
            for x, y in zip(xs, ys)
            if math.isfinite(x) and math.isfinite(y) and y > 0.0
        ]
        if coords:
            out.append(f'<polyline points="{" ".join(coords)}" fill="none" '
                       f'stroke="{color}" stroke-width="1.5"/>')
        ly = _MT + 16 * (k + 1)
        out.append(f'<line x1="{_ML + plot_w + 10}" y1="{ly - 4}" '
                   f'x2="{_ML + plot_w + 30}" y2="{ly - 4}" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        out.append(f'<text x="{_ML + plot_w + 35}" y="{ly}">{label}</text>')

    out.append("</svg>")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(out) + "\n")
