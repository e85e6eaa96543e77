"""Grid tasks: ARC JSON ingestion, synthetic families, augmentation, templates.

A task is a handful of (input grid, output grid) demonstration pairs plus
held-out test pairs.  Grids are small integer arrays over ten colours.
For the model everything is flattened row-major into a fixed template with
PAD outside the real grid; corruption and remasking later introduce MASK.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .seeding import rng_for

NUM_COLOURS = 10
PAD = 10
MASK = 11

# families with a constructive rule; all emit same-shape pairs
SYNTHETIC_FAMILIES = ("copy", "recolor_map", "hmirror", "border_fill",
                      "translate_object", "mini_sudoku4")


class TaskError(ValueError):
    """Malformed task data (parse errors, invalid grids, bad geometry)."""


def validate_grid(cells, where: str = "grid") -> np.ndarray:
    try:
        arr = np.asarray(cells)
    except ValueError as e:  # ragged rows
        raise TaskError(f"{where}: not a rectangular grid ({e})") from e
    if arr.ndim != 2:
        raise TaskError(f"{where}: expected 2 dimensions, got {arr.ndim}")
    h, w = arr.shape
    if not (1 <= h <= 30 and 1 <= w <= 30):
        raise TaskError(f"{where}: size {h}x{w} outside 1..30")
    if not np.issubdtype(arr.dtype, np.integer):
        raise TaskError(f"{where}: cells must be integers, got {arr.dtype}")
    bad = (arr < 0) | (arr >= NUM_COLOURS)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise TaskError(f"{where}: cell ({r},{c}) holds {arr[r, c]}, valid colours are 0-9")
    return arr.astype(np.int8)


@dataclass
class Task:
    task_id: str
    train_pairs: list[tuple[np.ndarray, np.ndarray]]
    test_pairs: list[tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        if len(self.train_pairs) < 1:
            raise TaskError(f"task {self.task_id}: needs at least one train pair")
        if not (1 <= len(self.test_pairs) <= 3):
            raise TaskError(f"task {self.task_id}: needs 1-3 test pairs, "
                            f"got {len(self.test_pairs)}")


# ---------------------------------------------------------------------------
# ARC JSON


def _parse_pair(obj, where: str) -> tuple[np.ndarray, np.ndarray]:
    if not isinstance(obj, dict) or "input" not in obj or "output" not in obj:
        raise TaskError(f"{where}: pair must be an object with 'input' and 'output'")
    return (validate_grid(obj["input"], f"{where}.input"),
            validate_grid(obj["output"], f"{where}.output"))


def parse_task(obj: dict, task_id: str) -> Task:
    if not (isinstance(obj, dict) and isinstance(obj.get("train"), list)
            and isinstance(obj.get("test"), list)):
        raise TaskError(f"task {task_id}: expected object with 'train' and 'test' arrays")
    train = [_parse_pair(p, f"task {task_id} train[{i}]") for i, p in enumerate(obj["train"])]
    test = [_parse_pair(p, f"task {task_id} test[{i}]") for i, p in enumerate(obj["test"])]
    return Task(task_id, train, test)


def load_arc_json(path) -> list[Task]:
    """Load one task file or a directory of task files (id = file stem)."""
    path = Path(path)
    if path.is_dir():
        files = sorted(path.glob("*.json"))
        if not files:
            raise TaskError(f"{path}: no .json task files found")
        return [t for f in files for t in load_arc_json(f)]
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as e:  # unreadable, not UTF-8, not JSON, too deep
        raise TaskError(f"{path}: cannot read task JSON ({e})")
    return [parse_task(obj, path.stem)]


def serialize_task(task: Task) -> dict:
    def enc(pairs):
        return [{"input": a.tolist(), "output": b.tolist()} for a, b in pairs]
    return {"train": enc(task.train_pairs), "test": enc(task.test_pairs)}


def dataset_hash(tasks: list[Task]) -> str:
    """Content hash over the canonical JSON of all tasks, order-sensitive."""
    h = hashlib.sha256()
    for t in tasks:
        h.update(t.task_id.encode())
        h.update(json.dumps(serialize_task(t), separators=(",", ":")).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# synthetic families


def _random_grid(rng, size: int) -> np.ndarray:
    return rng.integers(0, NUM_COLOURS, size=(size, size)).astype(np.int8)


def _blob_cells(rng, box: int = 4):
    # grow a small connected blob by random adjacent steps inside a box,
    # returned as coordinates normalized to start at (0, 0)
    cells = {(int(rng.integers(box)), int(rng.integers(box)))}
    target = int(rng.integers(3, 7))
    for _ in range(40):
        if len(cells) >= target:
            break
        r, c = sorted(cells)[int(rng.integers(len(cells)))]
        dr, dc = [(0, 1), (0, -1), (1, 0), (-1, 0)][int(rng.integers(4))]
        nr, nc = r + dr, c + dc
        if 0 <= nr < box and 0 <= nc < box:
            cells.add((nr, nc))
    rows = np.array([r for r, _ in sorted(cells)])
    cols = np.array([c for _, c in sorted(cells)])
    return rows - rows.min(), cols - cols.min()


def _gen_copy(rng, size):
    g = _random_grid(rng, size)
    return g, g.copy()


def _gen_recolor(rng, size, perm):
    g = _random_grid(rng, size)
    return g, perm[g].astype(np.int8)


def _gen_hmirror(rng, size):
    g = _random_grid(rng, size)
    return g, np.fliplr(g).copy()


def _gen_border_fill(rng, size, colour):
    g = _random_grid(rng, size)
    out = g.copy()
    out[0, :] = colour
    out[-1, :] = colour
    out[:, 0] = colour
    out[:, -1] = colour
    return g, out


def _gen_translate(rng, size, dy, dx):
    rows, cols = _blob_cells(rng)
    # place so that both the blob and its translate stay inside the grid
    r_lo, r_hi = max(0, -dy), size - 1 - max(0, dy)
    c_lo, c_hi = max(0, -dx), size - 1 - max(0, dx)
    r0 = r_lo + int(rng.integers(r_hi - r_lo - rows.max() + 1))
    c0 = c_lo + int(rng.integers(c_hi - c_lo - cols.max() + 1))
    rows, cols = rows + r0, cols + c0
    colour = int(rng.integers(1, NUM_COLOURS))
    inp = np.zeros((size, size), dtype=np.int8)
    out = np.zeros((size, size), dtype=np.int8)
    inp[rows, cols] = colour
    out[rows + dy, cols + dx] = colour
    return inp, out


SUDOKU_BASE = np.array([[1, 2, 3, 4],
                        [3, 4, 1, 2],
                        [2, 1, 4, 3],
                        [4, 3, 2, 1]], dtype=np.int8)


def solve_sudoku4(grid: np.ndarray, limit: int = 2) -> list[np.ndarray]:
    """All completions (up to limit) of a 4x4 sudoku; 0 marks a blank."""
    g = grid.astype(np.int8).copy()
    blanks = [(r, c) for r in range(4) for c in range(4) if g[r, c] == 0]
    out: list[np.ndarray] = []

    def ok(r, c, v):
        if v in g[r, :] or v in g[:, c]:
            return False
        br, bc = 2 * (r // 2), 2 * (c // 2)
        return v not in g[br:br + 2, bc:bc + 2]

    def rec(i):
        if len(out) >= limit:
            return
        if i == len(blanks):
            out.append(g.copy())
            return
        r, c = blanks[i]
        for v in range(1, 5):
            if ok(r, c, v):
                g[r, c] = v
                rec(i + 1)
                g[r, c] = 0

    rec(0)
    return out


def _gen_sudoku(rng):
    sol = SUDOKU_BASE.copy()
    if rng.integers(2):
        sol = sol.T.copy()
    if rng.integers(2):
        sol = sol[[1, 0, 2, 3]]
    if rng.integers(2):
        sol = sol[[0, 1, 3, 2]]
    if rng.integers(2):
        sol = sol[:, [1, 0, 2, 3]]
    if rng.integers(2):
        sol = sol[:, [0, 1, 3, 2]]
    digits = np.concatenate([[0], rng.permutation(4) + 1]).astype(np.int8)
    sol = digits[sol]
    puzzle = sol.copy()
    order = rng.permutation(16)
    removed = 0
    for idx in order:
        if removed >= 9:
            break
        r, c = divmod(int(idx), 4)
        keep = puzzle[r, c]
        puzzle[r, c] = 0
        if len(solve_sudoku4(puzzle)) != 1:
            puzzle[r, c] = keep
        else:
            removed += 1
    return puzzle, sol


def generate_synthetic(family: str, grid_size: int, num_tasks: int, seed: int) -> list[Task]:
    """Procedural tasks: one latent rule per task, 3 train pairs + 1 test pair."""
    if family not in SYNTHETIC_FAMILIES:
        raise TaskError(f"unknown family {family!r}, choose from {SYNTHETIC_FAMILIES}")
    if family != "mini_sudoku4":
        if not 3 <= grid_size <= 12:
            raise TaskError(f"{family}: grid_size {grid_size} outside the desk range 3-12")
        if family == "translate_object" and grid_size < 6:
            raise TaskError("translate_object: needs grid_size >= 6 to fit moving objects")
    tasks = []
    for i in range(num_tasks):
        rng = rng_for(seed, "task", family, i)
        if family == "copy":
            gen = lambda: _gen_copy(rng, grid_size)
        elif family == "recolor_map":
            perm = rng.permutation(NUM_COLOURS)
            gen = lambda: _gen_recolor(rng, grid_size, perm)
        elif family == "hmirror":
            gen = lambda: _gen_hmirror(rng, grid_size)
        elif family == "border_fill":
            colour = int(rng.integers(1, NUM_COLOURS))
            gen = lambda: _gen_border_fill(rng, grid_size, colour)
        elif family == "translate_object":
            dy, dx = 0, 0
            while dy == 0 and dx == 0:
                dy = int(rng.integers(-2, 3))
                dx = int(rng.integers(-2, 3))
            gen = lambda: _gen_translate(rng, grid_size, dy, dx)
        else:
            gen = lambda: _gen_sudoku(rng)
        pairs = [gen() for _ in range(4)]
        tasks.append(Task(f"{family}_{i:04d}", pairs[:3], pairs[3:]))
    return tasks


# ---------------------------------------------------------------------------
# augmentation: colour permutation x dihedral x template translation


@dataclass(frozen=True)
class Augmentation:
    colour_perm: tuple    # length-10 bijection
    dihedral: int         # 0..7; >=4 means flip left-right first, then rotate
    offset: tuple         # (dy, dx) placement inside the template

    def __post_init__(self):
        if sorted(self.colour_perm) != list(range(NUM_COLOURS)):
            raise TaskError(f"colour_perm {self.colour_perm} is not a bijection on 0-9")
        if not 0 <= self.dihedral <= 7:
            raise TaskError(f"dihedral element {self.dihedral} outside 0-7")


def identity_augmentation() -> Augmentation:
    return Augmentation(tuple(range(NUM_COLOURS)), 0, (0, 0))


def apply_dihedral(grid: np.ndarray, element: int) -> np.ndarray:
    g = np.fliplr(grid) if element >= 4 else grid
    return np.rot90(g, k=element % 4).copy()


def dihedral_inverse(element: int) -> int:
    # reflections are involutions; pure rotations invert to 4-k
    return element if element >= 4 else (4 - element) % 4


def apply_augmentation(pair, aug: Augmentation):
    """Colour permutation plus dihedral transform on both grids of a pair.

    Translation is not applied here; it happens when the grid is placed
    into the template (the offset travels with the augmentation record).
    """
    lut = np.asarray(aug.colour_perm, dtype=np.int8)
    return tuple(apply_dihedral(lut[g], aug.dihedral) for g in pair)


def undo_augmentation(grid: np.ndarray, aug: Augmentation) -> np.ndarray:
    inv_lut = np.empty(NUM_COLOURS, dtype=np.int8)
    inv_lut[np.asarray(aug.colour_perm)] = np.arange(NUM_COLOURS, dtype=np.int8)
    return inv_lut[apply_dihedral(grid, dihedral_inverse(aug.dihedral))]


def random_augmentation(rng, max_h: int, max_w: int, template_h: int,
                        template_w: int) -> Augmentation:
    """Sample (perm, dihedral) such that max_h x max_w still fits the
    template.  The offset is (0, 0): `build_dataset` places each pair at
    an offset of its own."""
    perm = tuple(int(v) for v in rng.permutation(NUM_COLOURS))
    element = int(rng.integers(8))
    h, w = (max_w, max_h) if element % 2 == 1 else (max_h, max_w)
    if h > template_h or w > template_w:
        raise TaskError(f"grid {h}x{w} cannot fit template {template_h}x{template_w}")
    return Augmentation(perm, element, (0, 0))


# ---------------------------------------------------------------------------
# template packing


def to_template(grid: np.ndarray, template_h: int, template_w: int,
                offset=(0, 0)) -> tuple[np.ndarray, np.ndarray]:
    """The grid at offset in a PAD template, flattened: (tokens, mask of its cells)."""
    h, w = grid.shape
    dy, dx = offset
    if dy < 0 or dx < 0 or dy + h > template_h or dx + w > template_w:
        raise TaskError(f"grid {h}x{w} at offset ({dy},{dx}) overflows "
                        f"template {template_h}x{template_w}")
    canvas = np.full((template_h, template_w), PAD, dtype=np.int64)
    canvas[dy:dy + h, dx:dx + w] = grid
    mask = np.zeros((template_h, template_w), dtype=bool)
    mask[dy:dy + h, dx:dx + w] = True
    return canvas.reshape(-1), mask.reshape(-1)


def from_template(tokens: np.ndarray, height: int, width: int, template_h: int,
                  template_w: int, offset=(0, 0)) -> np.ndarray:
    dy, dx = offset
    canvas = np.asarray(tokens).reshape(template_h, template_w)
    region = canvas[dy:dy + height, dx:dx + width]
    if region.min() < 0 or region.max() >= NUM_COLOURS:
        raise TaskError("template region holds non-colour tokens; cannot form a grid")
    return region.astype(np.int8)


# ---------------------------------------------------------------------------
# packed datasets for training and evaluation


@dataclass
class PackedExample:
    row: int                  # task-embedding row
    input_tokens: np.ndarray  # (M,) int64
    target_tokens: np.ndarray
    loss_mask: np.ndarray     # (M,) bool


@dataclass
class EvalCase:
    task_index: int
    test_index: int
    row: int
    input_tokens: np.ndarray
    loss_mask: np.ndarray
    aug: Augmentation
    shape: tuple              # augmented grid shape inside the template
    target_grid: np.ndarray   # canonical (un-augmented) ground truth


@dataclass
class DeskDataset:
    tasks: list[Task]
    train_examples: list[PackedExample]
    eval_cases: list[EvalCase]
    num_rows: int
    template: tuple

    @property
    def seq_len(self) -> int:
        return self.template[0] * self.template[1]


def build_dataset(tasks: list[Task], num_augmentations: int, template_h: int,
                  template_w: int, seed: int) -> DeskDataset:
    """Pack every (task, augmentation) into template token sequences.

    Augmentation 0 is the identity.  Each (task, augmentation) id owns a
    task-embedding row; train pairs of a task share the row across pairs.
    Only same-shape pairs are supported: the answer region at inference is
    taken from the input's footprint.
    """
    if num_augmentations < 1:
        raise TaskError("need at least one augmentation (the identity)")
    train, evals = [], []
    for t_idx, task in enumerate(tasks):
        for pair in task.train_pairs + task.test_pairs:
            if pair[0].shape != pair[1].shape:
                raise TaskError(f"task {task.task_id}: input {pair[0].shape} and output "
                                f"{pair[1].shape} differ; only same-shape tasks supported")
        max_h = max(g.shape[0] for p in task.train_pairs + task.test_pairs for g in p)
        max_w = max(g.shape[1] for p in task.train_pairs + task.test_pairs for g in p)
        for a_idx in range(num_augmentations):
            row = t_idx * num_augmentations + a_idx
            if a_idx == 0:
                aug = identity_augmentation()
            else:
                rng = rng_for(seed, "augment", t_idx, a_idx)
                aug = random_augmentation(rng, max_h, max_w, template_h, template_w)
            for p_idx, pair in enumerate(task.train_pairs):
                ain, aout = apply_augmentation(pair, aug)
                off = _pair_offset(seed, t_idx, a_idx, p_idx, ain.shape,
                                   template_h, template_w)
                in_tokens, mask = to_template(ain, template_h, template_w, off)
                out_tokens, _ = to_template(aout, template_h, template_w, off)
                train.append(PackedExample(row, in_tokens, out_tokens, mask))
            for s_idx, pair in enumerate(task.test_pairs):
                ain, _ = apply_augmentation(pair, aug)
                off = _pair_offset(seed, t_idx, a_idx, 100 + s_idx, ain.shape,
                                   template_h, template_w)
                tokens, mask = to_template(ain, template_h, template_w, off)
                evals.append(EvalCase(t_idx, s_idx, row, tokens, mask,
                                      Augmentation(aug.colour_perm, aug.dihedral, off),
                                      ain.shape, pair[1]))
    return DeskDataset(tasks, train, evals, len(tasks) * num_augmentations,
                       (template_h, template_w))


def _pair_offset(seed, t_idx, a_idx, p_idx, shape, th, tw) -> tuple:
    if a_idx == 0:
        return (0, 0)
    rng = rng_for(seed, "offset", t_idx, a_idx, p_idx)
    h, w = shape
    return (int(rng.integers(th - h + 1)), int(rng.integers(tw - w + 1)))
