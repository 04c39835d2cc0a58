"""Deterministic experiment outputs.

Every table (CSV) and log (JSONL) must be byte-identical across re-runs of
the same config and seed, so cell formatting is pinned here in one place:
floats are written with repr (shortest round-trip), rows keep a stable
column order, and line endings are always "\n".  Wall-clock provenance goes
only into summary.json, which is the one file allowed to differ.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence

from . import __version__
from .errors import ConfigError, DomainError

__all__ = [
    "ResultBundle",
    "format_cell",
    "write_csv",
    "write_jsonl",
    "load_config",
    "error_histogram",
    "HISTOGRAM_BIN_COUNT",
    "ChartSeries",
    "svg_chart",
]

HISTOGRAM_BIN_COUNT = 100


def format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_cell(cell) for cell in row])


def write_jsonl(path: Path, records: Iterable[dict]) -> None:
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
            fh.write("\n")


def load_config(path) -> dict:
    """Read a JSON config file; the top level must be an object."""
    try:
        with open(path) as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(loaded, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return loaded


@dataclass
class ResultBundle:
    """One command's output directory, config echo, and file inventory."""

    out_dir: Path
    command: str
    config: dict
    seed: int | None
    files: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.out_dir = Path(self.out_dir)
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot create output directory {self.out_dir}: {exc.strerror}"
            ) from None

    def _register(self, name: str) -> Path:
        if name not in self.files:
            self.files.append(name)
        return self.out_dir / name

    def add_csv(self, name: str, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
        path = self._register(name)
        write_csv(path, header, rows)
        return path

    def add_jsonl(self, name: str, records: Iterable[dict]) -> Path:
        path = self._register(name)
        write_jsonl(path, records)
        return path

    def add_text(self, name: str, text: str) -> Path:
        path = self._register(name)
        path.write_text(text)
        return path

    def note_file(self, name: str) -> Path:
        """Register a file some other writer will produce at this path."""
        return self._register(name)

    def write_summary(self, results: dict) -> Path:
        payload = {
            "command": self.command,
            "config": self.config,
            "provenance": {
                "tool": "qlabelsec",
                "version": __version__,
                "seed": self.seed,
                "timestamp": datetime.now(timezone.utc).isoformat(),
            },
            "results": results,
            "files": sorted(self.files),
        }
        path = self.out_dir / f"{self.command}-summary.json"
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def error_histogram(errors: Sequence[float], test_size: int) -> list[int]:
    """Bin error fractions into 100 bins of width exactly 0.01.

    Bin i covers [i/100, (i+1)/100), with 1.0 closed into the last bin.
    Errors from a test set of known size are multiples of 1/test_size, so
    the bin index is computed in integer arithmetic; float rounding can
    never move a boundary value across a bin edge.
    """
    if test_size < 1:
        raise DomainError(f"test size must be >= 1, got {test_size}")
    counts = [0] * HISTOGRAM_BIN_COUNT
    for error in errors:
        if not 0.0 <= error <= 1.0:
            raise DomainError(f"error fraction {error} outside [0, 1]")
        wrong = round(error * test_size)
        if abs(wrong - error * test_size) > 1e-6:
            raise DomainError(
                f"error fraction {error} is not a multiple of 1/{test_size}"
            )
        index = min(HISTOGRAM_BIN_COUNT - 1, (wrong * HISTOGRAM_BIN_COUNT) // test_size)
        counts[index] += 1
    return counts


# ---------------------------------------------------------------------------
# minimal SVG line/step charts; data-only CSV stays the primary output
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")

_MARGIN = 60
_WIDTH = 640
_HEIGHT = 420


@dataclass(frozen=True)
class ChartSeries:
    name: str
    xs: Sequence[float]
    ys: Sequence[float]
    low: Sequence[float] | None = None
    high: Sequence[float] | None = None


def _scale(lo: float, hi: float, span: float):
    if hi <= lo:
        hi = lo + 1.0
    return lambda v: span * (v - lo) / (hi - lo)


def _tick_label(v: float) -> str:
    return f"{v:.4g}"


def svg_chart(
    series: Sequence[ChartSeries],
    title: str,
    x_label: str,
    y_label: str,
    step: bool = False,
) -> str:
    """Render line (or step) series with optional shaded bands as SVG text."""
    if not series or any(len(s.xs) == 0 for s in series):
        raise DomainError("every chart series needs at least one point")
    xs_all = [x for s in series for x in s.xs]
    ys_all = [y for s in series for y in s.ys]
    for s in series:
        if s.low is not None:
            ys_all.extend(s.low)
        if s.high is not None:
            ys_all.extend(s.high)
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(0.0, min(ys_all)), max(ys_all)
    plot_w = _WIDTH - 2 * _MARGIN
    plot_h = _HEIGHT - 2 * _MARGIN
    sx = _scale(x_lo, x_hi, plot_w)
    sy = _scale(y_lo, y_hi, plot_h)

    def px(x: float) -> float:
        return _MARGIN + sx(x)

    def py(y: float) -> float:
        return _HEIGHT - _MARGIN - sy(y)

    def path_points(s: ChartSeries) -> list[tuple[float, float]]:
        pts = list(zip(s.xs, s.ys))
        if not step:
            return pts
        stepped = [pts[0]]
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            stepped.append((x1, y0))
            stepped.append((x1, y1))
        return stepped

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    # axes
    parts.append(
        f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>'
    )
    for i in range(5):
        frac = i / 4
        tx = x_lo + frac * (x_hi - x_lo)
        ty = y_lo + frac * (max(y_hi, y_lo + 1e-12) - y_lo)
        parts.append(
            f'<text x="{px(tx):.2f}" y="{_HEIGHT - _MARGIN + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_tick_label(tx)}</text>'
        )
        parts.append(
            f'<text x="{_MARGIN - 8}" y="{py(ty) + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_tick_label(ty)}</text>'
        )
    parts.append(
        f'<text x="{_WIDTH / 2:.0f}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{_HEIGHT / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {_HEIGHT / 2:.0f})">{y_label}</text>'
    )
    for idx, s in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        if s.low is not None and s.high is not None:
            upper = list(zip(s.xs, s.high))
            lower = list(zip(reversed(s.xs), reversed(s.low)))
            ring = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in upper + lower)
            parts.append(f'<polygon points="{ring}" fill="{color}" opacity="0.15"/>')
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in path_points(s))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
        legend_y = _MARGIN + 16 * idx
        parts.append(
            f'<rect x="{_WIDTH - _MARGIN - 150}" y="{legend_y - 9}" width="12" '
            f'height="12" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_WIDTH - _MARGIN - 132}" y="{legend_y + 2}" '
            f'font-family="sans-serif" font-size="12">{s.name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
