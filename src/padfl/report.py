"""Static reporting: learning-curve SVG, capacity-cluster tables, and
the analytic cost table. SVG is emitted directly as polylines so the
output is dependency-free and diffable."""
from __future__ import annotations

import csv
import json
import os
from fractions import Fraction
from typing import get_type_hints

import numpy as np

from . import runner
from .config import RunConfig
from .decomp import flops_account, supported_widths
from .errors import ConfigurationError, FormatError
from .protocol import ClientRow, width_for_capacity

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#7f7f7f")


def read_metrics(run_dir):
    """(label, rows) from one self-describing run directory. Each column
    parses as the type of the `ClientRow` field of its name."""
    path = os.path.join(run_dir, "metrics.csv")
    types = {"round": int, **get_type_hints(ClientRow)}
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        reader = csv.reader(raw.decode("utf-8").splitlines())
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"{path}: line {line}: not UTF-8: {exc}") from exc
    header = next(reader, None)
    if header is None or sorted(header) != sorted(types):
        raise FormatError(f"{path}: unexpected columns {header}")
    rows = []
    for cells in reader:
        where = f"{path}: line {reader.line_num}"
        if len(cells) != len(header):
            raise FormatError(f"{where}: {len(cells)} fields, the header has {len(header)}")
        try:
            row = {name: types[name](cell) for name, cell in zip(header, cells)}
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"{where}: {exc}") from exc
        for name in ("val_acc", "test_acc"):
            if not 0.0 <= row[name] <= 1.0:  # nan fails this too
                raise FormatError(f"{where}: {name} {row[name]!r} outside [0, 1]")
        rows.append(row)
    label = os.path.basename(os.path.normpath(run_dir))
    summary = os.path.join(run_dir, "summary.json")
    if os.path.exists(summary):
        try:
            with open(summary) as fh:
                label = json.load(fh)["config"]["method"]
        except (ValueError, KeyError, TypeError) as exc:
            raise FormatError(f"{summary}: no readable config.method: {exc!r}") from exc
    return label, rows


def mean_test_by_round(rows):
    acc = {}
    for r in rows:
        acc.setdefault(r["round"], []).append(r["test_acc"])
    return [(t, float(np.mean(acc[t]))) for t in sorted(acc)]


def capacity_clusters(rows, bins=5):
    """Mean of each client's last test accuracy per capacity bin.

    Capacities are grouped into `bins` equal-width clusters of (0, 1];
    returns one dict per cluster (empty clusters report count 0).
    """
    last = {r["client_id"]: r for r in sorted(rows, key=lambda r: r["round"])}
    edges = np.linspace(0.0, 1.0, bins + 1)
    out = []
    for b in range(bins):
        members = [v for v in last.values()
                   if (edges[b] < v["capacity_r"] <= edges[b + 1])
                   or (b == 0 and v["capacity_r"] <= edges[1])]
        out.append({
            "cluster": b,
            "capacity_low": float(edges[b]),
            "capacity_high": float(edges[b + 1]),
            "clients": len(members),
            "mean_test_acc": float(np.mean([m["test_acc"] for m in members]))
            if members else None,
        })
    return out


# ---------------------------------------------------------------------------
# SVG

def _polyline(points, color):
    coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'


def curves_svg(series, width=640, height=420):
    """series: list of (label, [(round, acc), ...])."""
    ml, mr, mt, mb = 50, 16, 16, 40
    pw, ph = width - ml - mr, height - mt - mb
    max_round = max((pts[-1][0] for _, pts in series if pts), default=1) or 1
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = mt + ph * (1 - frac)
        parts.append(f'<line x1="{ml - 4}" y1="{y:.2f}" x2="{ml}" y2="{y:.2f}" stroke="#333"/>')
        parts.append(f'<text x="{ml - 8}" y="{y + 4:.2f}" font-size="11" '
                     f'text-anchor="end">{frac:.2f}</text>')
        x = ml + pw * frac
        parts.append(f'<line x1="{x:.2f}" y1="{mt + ph}" x2="{x:.2f}" '
                     f'y2="{mt + ph + 4}" stroke="#333"/>')
        parts.append(f'<text x="{x:.2f}" y="{mt + ph + 16}" font-size="11" '
                     f'text-anchor="middle">{int(round(frac * max_round))}</text>')
    parts.append(f'<text x="{ml + pw / 2:.2f}" y="{height - 6}" font-size="12" '
                 f'text-anchor="middle">communication round</text>')
    parts.append(f'<text x="12" y="{mt + ph / 2:.2f}" font-size="12" text-anchor="middle" '
                 f'transform="rotate(-90 12 {mt + ph / 2:.2f})">mean test accuracy</text>')
    for k, (label, pts) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        coords = [(ml + pw * (t / max_round), mt + ph * (1 - a)) for t, a in pts]
        if coords:
            parts.append(_polyline(coords, color))
        lx, ly = ml + 10, mt + 16 + 16 * k
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 24}" y="{ly}" font-size="12">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_report(run_dirs, out_dir):
    """Learning-curve SVG plus per-run capacity-cluster table."""
    if not run_dirs:
        raise ConfigurationError("report needs at least one run directory")
    os.makedirs(out_dir, exist_ok=True)
    series = []
    cluster_lines = ["run,method,cluster,capacity_low,capacity_high,clients,mean_test_acc"]
    for run_dir in run_dirs:
        label, rows = read_metrics(run_dir)
        series.append((label, mean_test_by_round(rows)))
        for c in capacity_clusters(rows):
            mean = "" if c["mean_test_acc"] is None else repr(c["mean_test_acc"])
            cluster_lines.append(
                f"{os.path.basename(os.path.normpath(run_dir))},{label},{c['cluster']},"
                f"{c['capacity_low']:.1f},{c['capacity_high']:.1f},{c['clients']},{mean}")
    svg_path = os.path.join(out_dir, "curves.svg")
    with open(svg_path, "w") as fh:
        fh.write(curves_svg(series))
    table_path = os.path.join(out_dir, "capacity_clusters.csv")
    with open(table_path, "w") as fh:
        fh.write("\n".join(cluster_lines) + "\n")
    return svg_path, table_path


# ---------------------------------------------------------------------------
# analytic cost accounting

ACCOUNT_RATIOS = (Fraction(1, 256), Fraction(1, 64), Fraction(1, 4), Fraction(1))


def account(cfg: RunConfig):
    """(rows, notes): analytic per-capacity cost rows for the configured
    model, and one note per width that the layout cannot prune to (see
    `Layout.check`), whose capacities get no row. Raises if no width is
    left. Validates `cfg` first."""
    cfg = cfg.finalize()
    layout = runner.configured_layout(
        cfg, None if cfg.dataset == "synth" else runner.build_dataset(cfg))
    grid = supported_widths(cfg.min_width)
    rows, dropped = [], {}  # width -> (reason, capacities)
    for r in ACCOUNT_RATIOS:
        p = width_for_capacity(r, grid)
        try:
            layout.check(p)
        except ConfigurationError as exc:
            dropped.setdefault(p, (exc, []))[1].append(r)
            continue
        forward = cfg.batch * layout.head_in(p) * layout.classes
        recovery = 0
        for spec in layout.specs:
            f, ratio = flops_account(spec, cfg.batch, p)
            forward += f
            recovery += ratio * f  # exact: the recovery's multiply-adds
        rows.append({
            "capacity_r": str(r),
            "width_p": str(p),
            "forward_madds": int(forward),
            "param_count": layout.client_param_count(p),
            "recovery_overhead": float(recovery / forward),
        })
    notes = [f"note: width {p} dropped (capacity {', '.join(map(str, caps))}): {exc}"
             for p, (exc, caps) in dropped.items()]
    if not rows:
        raise ConfigurationError("; ".join(notes))
    return rows, notes


def format_account(rows, notes) -> str:
    header = f"{'capacity':>10} {'width':>8} {'fwd madds':>14} {'params':>12} {'rec ovh':>10}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(f"{r['capacity_r']:>10} {r['width_p']:>8} {r['forward_madds']:>14} "
                     f"{r['param_count']:>12} {r['recovery_overhead']:>10.2e}")
    return "\n".join([*lines, *notes])
