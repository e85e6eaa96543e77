"""Shared test helpers."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from loopforge import autodiff as ad
from loopforge import tasks as tk


def family_rule_holds(family: str, task: tk.Task) -> bool:
    """Check every pair of a synthetic task against its family's rule."""
    for inp, out in task.train_pairs + task.test_pairs:
        if family == "copy":
            good = np.array_equal(out, inp)
        elif family == "recolor_map":
            # recover the mapping from the first train pair, then check
            ref_in, ref_out = task.train_pairs[0]
            lut = np.full(tk.NUM_COLOURS, -1)
            lut[ref_in.ravel()] = ref_out.ravel()
            seen = lut[inp.ravel()]
            good = np.all((seen == out.ravel()) | (seen == -1))
        elif family == "hmirror":
            good = np.array_equal(out, np.fliplr(inp))
        elif family == "border_fill":
            c = out[0, 0]
            want = inp.copy()
            want[0, :] = want[-1, :] = want[:, 0] = want[:, -1] = c
            good = np.array_equal(out, want)
        elif family == "translate_object":
            good = np.count_nonzero(inp) == np.count_nonzero(out)
        elif family == "mini_sudoku4":
            sols = tk.solve_sudoku4(inp)
            good = len(sols) == 1 and np.array_equal(sols[0], out)
        else:
            raise tk.TaskError(f"unknown family {family!r}")
        if not good:
            return False
    return True


def save_tasks(tasks: list[tk.Task], out_dir) -> None:
    """Write each task as ARC JSON, <task_id>.json, under out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for t in tasks:
        (out_dir / f"{t.task_id}.json").write_text(json.dumps(tk.serialize_task(t)))


def dihedral_compose(second: int, first: int) -> int:
    """Dihedral element equal to applying `first` then `second`."""
    k1, f1 = first % 4, first >= 4
    k2, f2 = second % 4, second >= 4
    k = (k2 - k1) % 4 if f2 else (k2 + k1) % 4
    return k + 4 * (f1 ^ f2)


def param_count(params) -> int:
    """Number of scalars across all parameter arrays."""
    return sum(v.size for v in params.arrays.values())


def spy_backward(monkeypatch) -> list[dict]:
    """Record each root `ad.backward` is called on, as its graph nodes and
    loss value, before running the real backward.  The record keeps every
    recorded graph alive, which plain training does not."""
    seen: list[dict] = []
    backward = ad.backward

    def spy(root):
        seen.append({"nodes": ad.graph_nodes(root), "loss": float(root.value)})
        backward(root)

    monkeypatch.setattr(ad, "backward", spy)
    return seen
