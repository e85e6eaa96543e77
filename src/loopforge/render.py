"""SVG rendering of generate-and-remask trajectories.

One header image shows the test input and ground truth; every denoise
step then gets its own image of a frame, a (grid, remasked, q, timestep)
tuple: the full prediction in colours 0-9, the (row, col) cells masked
after it, drawn as crosses, and the step's q and timestep, printed in the
caption.  Plain markup strings, no drawing library.
"""

from __future__ import annotations

from itertools import accumulate
from pathlib import Path

import numpy as np

# the usual ten grid colours
PALETTE = ("#000000", "#0074D9", "#FF4136", "#2ECC40", "#FFDC00",
           "#AAAAAA", "#F012BE", "#FF851B", "#7FDBFF", "#870C25")

CELL = 22
PAD_PX = 6
CAPTION_PX = 22
GAP_PX = 3 * CELL


def _grid_markup(grid: np.ndarray, x0: int, y0: int, remasked=()) -> list[str]:
    h, w = grid.shape
    parts = []
    for r in range(h):
        for c in range(w):
            parts.append(f'<rect x="{x0 + c * CELL}" y="{y0 + r * CELL}" '
                         f'width="{CELL}" height="{CELL}" '
                         f'fill="{PALETTE[int(grid[r, c])]}" '
                         f'stroke="#555555" stroke-width="1"/>')
    for (r, c) in remasked:
        x, y = x0 + c * CELL, y0 + r * CELL
        parts.append(f'<line x1="{x + 3}" y1="{y + 3}" x2="{x + CELL - 3}" '
                     f'y2="{y + CELL - 3}" stroke="#FFFFFF" stroke-width="3"/>')
        parts.append(f'<line x1="{x + 3}" y1="{y + CELL - 3}" x2="{x + CELL - 3}" '
                     f'y2="{y + 3}" stroke="#FFFFFF" stroke-width="3"/>')
    return parts


def _write_panels(path: Path, panels) -> None:
    """One SVG of (caption, grid, remasked cells) panels placed side by
    side, GAP_PX apart; every caption precedes every grid."""
    xs = list(accumulate((g.shape[1] * CELL + GAP_PX for _, g, _ in panels),
                         initial=PAD_PX))
    width = xs[-1] - GAP_PX + PAD_PX
    height = PAD_PX * 2 + CAPTION_PX + max(g.shape[0] for _, g, _ in panels) * CELL
    body = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f'<rect x="0" y="0" width="{width}" height="{height}" fill="#1b1b1b"/>']
    body += [f'<text x="{x}" y="{PAD_PX + 14}" fill="#e8e8e8" font-size="13" '
             f'font-family="monospace">{caption}</text>'
             for x, (caption, _, _) in zip(xs, panels)]
    for x, (_, grid, remasked) in zip(xs, panels):
        body += _grid_markup(grid, x, PAD_PX + CAPTION_PX, remasked)
    Path(path).write_text("\n".join([*body, "</svg>"]) + "\n")


def render_trajectory(input_grid: np.ndarray, target_grid: np.ndarray,
                      frames: list, out_dir) -> list[Path]:
    """Write the header, then one image per (grid, remasked, q, timestep)
    frame, in place of the step images already in out_dir; returns the
    written paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for old in out_dir.glob("step_*.svg"):
        old.unlink()
    paths = [out_dir / "header.svg"]
    _write_panels(paths[0], [("input", input_grid, ()), ("target", target_grid, ())])
    for i, (grid, remasked, q, timestep) in enumerate(frames):
        paths.append(out_dir / f"step_{i + 1:03d}.svg")
        caption = (f"step {i + 1}/{len(frames)}  t={timestep:.3f}  "
                   f"q={q:.3f}  remask={len(remasked)}")
        _write_panels(paths[-1], [(caption, grid, remasked)])
    return paths
