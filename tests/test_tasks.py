"""Task loading, synthetic families, augmentation group, template packing."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dihedral_compose, family_rule_holds, save_tasks
from loopforge import tasks as tk
from loopforge.seeding import rng_for


def write_task(tmp_path, name, obj):
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(obj))
    return p


GOOD_TASK = {
    "train": [{"input": [[1, 2], [3, 4]], "output": [[4, 3], [2, 1]]}],
    "test": [{"input": [[5, 6], [7, 8]], "output": [[8, 7], [6, 5]]}],
}


def test_load_single_file(tmp_path):
    p = write_task(tmp_path, "abc", GOOD_TASK)
    tasks = tk.load_arc_json(p)
    assert len(tasks) == 1
    assert tasks[0].task_id == "abc"
    assert len(tasks[0].train_pairs) == 1
    assert len(tasks[0].test_pairs) == 1


def test_load_directory_sorted(tmp_path):
    write_task(tmp_path, "b", GOOD_TASK)
    write_task(tmp_path, "a", GOOD_TASK)
    tasks = tk.load_arc_json(tmp_path)
    assert [t.task_id for t in tasks] == ["a", "b"]


def test_serialize_round_trip(tmp_path):
    p = write_task(tmp_path, "rt", GOOD_TASK)
    task = tk.load_arc_json(p)[0]
    assert tk.serialize_task(task) == GOOD_TASK


def test_bad_cell_names_coordinate(tmp_path):
    bad = {"train": [{"input": [[0, 10], [0, 0]], "output": [[0, 0], [0, 0]]}],
           "test": [{"input": [[0]], "output": [[0]]}]}
    p = write_task(tmp_path, "bad", bad)
    with pytest.raises(tk.TaskError, match=r"\(0,1\)"):
        tk.load_arc_json(p)


def test_empty_train_rejected(tmp_path):
    p = write_task(tmp_path, "empty", {"train": [], "test": GOOD_TASK["test"]})
    with pytest.raises(tk.TaskError, match="train"):
        tk.load_arc_json(p)


def test_malformed_json(tmp_path):
    p = tmp_path / "x.json"
    p.write_text("{not json")
    with pytest.raises(tk.TaskError):
        tk.load_arc_json(p)


@pytest.mark.parametrize("raw", [
    json.dumps({"train": 5, "test": GOOD_TASK["test"]}).encode(),
    json.dumps({"train": [{"input": [[1, 2], [3]], "output": [[1]]}],
                "test": GOOD_TASK["test"]}).encode(),
    '{"train": [], "test": [], "caf\xe9": 1}'.encode("latin-1"),
    b"[" * 100_000,
], ids=["train_not_a_list", "ragged_grid", "not_utf8", "too_deep"])
def test_malformed_task_file_raises_task_error(tmp_path, raw):
    p = tmp_path / "bad.json"
    p.write_bytes(raw)
    with pytest.raises(tk.TaskError):
        tk.load_arc_json(p)


# any JSON document; keys and small integers lean towards task structure
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 10) | st.integers()
    | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["train", "test", "input", "output", "x"]), inner,
        max_size=4),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_parse_task_returns_task_or_raises_task_error(obj):
    try:
        assert isinstance(tk.parse_task(obj, "fuzz"), tk.Task)
    except tk.TaskError:
        pass


def test_too_many_test_pairs(tmp_path):
    obj = {"train": GOOD_TASK["train"], "test": GOOD_TASK["test"] * 4}
    p = write_task(tmp_path, "many", obj)
    with pytest.raises(tk.TaskError, match="test"):
        tk.load_arc_json(p)


def test_save_load_round_trip(tmp_path):
    tasks = tk.generate_synthetic("recolor_map", 5, 4, seed=3)
    save_tasks(tasks, tmp_path / "ds")
    back = tk.load_arc_json(tmp_path / "ds")
    assert len(back) == len(tasks)
    for a, b in zip(sorted(tasks, key=lambda t: t.task_id), back):
        assert a.task_id == b.task_id
        for (x, y), (u, v) in zip(a.train_pairs + a.test_pairs,
                                  b.train_pairs + b.test_pairs):
            assert np.array_equal(x, u) and np.array_equal(y, v)


def test_dataset_hash_tracks_content():
    a = tk.generate_synthetic("copy", 4, 3, seed=1)
    b = tk.generate_synthetic("copy", 4, 3, seed=1)
    c = tk.generate_synthetic("copy", 4, 3, seed=2)
    assert tk.dataset_hash(a) == tk.dataset_hash(b)
    assert tk.dataset_hash(a) != tk.dataset_hash(c)


# ---------------------------------------------------------------------------
# synthetic families


@pytest.mark.parametrize("family", tk.SYNTHETIC_FAMILIES)
def test_family_rules_hold(family):
    size = 4 if family == "mini_sudoku4" else 6
    tasks = tk.generate_synthetic(family, size, 8, seed=11)
    assert len(tasks) == 8
    for t in tasks:
        assert len(t.train_pairs) == 3 and len(t.test_pairs) == 1
        for inp, out in t.train_pairs + t.test_pairs:
            assert inp.shape == out.shape
        assert family_rule_holds(family, t), t.task_id


def test_copy_outputs_equal_inputs():
    for t in tk.generate_synthetic("copy", 5, 5, seed=0):
        for inp, out in t.train_pairs + t.test_pairs:
            assert np.array_equal(inp, out)


def test_hmirror_involution():
    for t in tk.generate_synthetic("hmirror", 6, 5, seed=0):
        for inp, out in t.train_pairs:
            assert np.array_equal(np.fliplr(out), inp)


def test_sudoku_unique_and_valid():
    for t in tk.generate_synthetic("mini_sudoku4", 4, 10, seed=5):
        for puzzle, sol in t.train_pairs + t.test_pairs:
            assert (puzzle == 0).sum() > 0
            sols = tk.solve_sudoku4(puzzle)
            assert len(sols) == 1
            assert np.array_equal(sols[0], sol)
            for i in range(4):
                assert sorted(sol[i, :]) == [1, 2, 3, 4]
                assert sorted(sol[:, i]) == [1, 2, 3, 4]
            for br in (0, 2):
                for bc in (0, 2):
                    assert sorted(sol[br:br + 2, bc:bc + 2].ravel()) == [1, 2, 3, 4]


def test_sudoku_solver_finds_multiple_on_empty():
    assert len(tk.solve_sudoku4(np.zeros((4, 4), dtype=np.int8))) == 2  # hit the limit


def test_unknown_family():
    with pytest.raises(tk.TaskError):
        tk.generate_synthetic("nope", 6, 1, seed=0)


def test_translate_needs_room():
    with pytest.raises(tk.TaskError):
        tk.generate_synthetic("translate_object", 4, 1, seed=0)


def test_generation_is_deterministic():
    a = tk.generate_synthetic("border_fill", 7, 6, seed=9)
    b = tk.generate_synthetic("border_fill", 7, 6, seed=9)
    for x, y in zip(a, b):
        for (i1, o1), (i2, o2) in zip(x.train_pairs + x.test_pairs,
                                      y.train_pairs + y.test_pairs):
            assert np.array_equal(i1, i2) and np.array_equal(o1, o2)


# ---------------------------------------------------------------------------
# augmentation group


def random_grid(rng, h, w):
    return rng.integers(0, 10, size=(h, w)).astype(np.int8)


def test_rot90_has_order_four():
    rng = rng_for(0, "rot")
    g = random_grid(rng, 5, 7)
    out = g
    for _ in range(4):
        out = tk.apply_dihedral(out, 1)
    assert np.array_equal(out, g)
    assert not np.array_equal(tk.apply_dihedral(g, 1), g)


def test_dihedral_inverse_all_elements():
    rng = rng_for(1, "inv")
    for e in range(8):
        g = random_grid(rng, 4, 6)
        assert np.array_equal(tk.apply_dihedral(tk.apply_dihedral(g, e),
                                                tk.dihedral_inverse(e)), g)


def test_dihedral_composition_table():
    rng = rng_for(2, "comp")
    g = random_grid(rng, 5, 5)
    for e1 in range(8):
        for e2 in range(8):
            two_step = tk.apply_dihedral(tk.apply_dihedral(g, e1), e2)
            one_step = tk.apply_dihedral(g, dihedral_compose(e2, e1))
            assert np.array_equal(two_step, one_step), (e1, e2)


def test_colour_permutations_compose():
    rng = rng_for(3, "perm")
    g = random_grid(rng, 6, 6)
    p1 = rng.permutation(10)
    p2 = rng.permutation(10)
    combined = p2[p1]
    assert np.array_equal(p2[p1[g]], combined[g])


def test_undo_apply_identity_thousand_pairs():
    for seed in range(1000):
        rng = rng_for(seed, "undo")
        h, w = int(rng.integers(1, 13)), int(rng.integers(1, 13))
        g1, g2 = random_grid(rng, h, w), random_grid(rng, h, w)
        aug = tk.random_augmentation(rng, h, w, 14, 14)
        a1, a2 = tk.apply_augmentation((g1, g2), aug)
        assert np.array_equal(tk.undo_augmentation(a1, aug), g1)
        assert np.array_equal(tk.undo_augmentation(a2, aug), g2)


def test_identity_augmentation_is_identity():
    rng = rng_for(4, "id")
    g = random_grid(rng, 3, 8)
    a, b = tk.apply_augmentation((g, g), tk.identity_augmentation())
    assert np.array_equal(a, g) and np.array_equal(b, g)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_augmentation_closure_on_components(seed):
    # composing two (perm, dihedral) pairs lands on another valid pair
    rng = rng_for(seed, "closure")
    g = random_grid(rng, 5, 5)
    a1 = tk.random_augmentation(rng, 5, 5, 12, 12)
    a2 = tk.random_augmentation(rng, 5, 5, 12, 12)
    p1, p2 = np.asarray(a1.colour_perm), np.asarray(a2.colour_perm)
    d = dihedral_compose(a2.dihedral, a1.dihedral)
    combined = tk.Augmentation(tuple(int(v) for v in p2[p1]), d, (0, 0))
    step = tk.apply_augmentation((g, g), a1)
    two = tk.apply_augmentation(step, a2)[0]
    one = tk.apply_augmentation((g, g), combined)[0]
    assert np.array_equal(two, one)


def test_augmentation_validation():
    with pytest.raises(tk.TaskError):
        tk.Augmentation((0,) * 10, 0, (0, 0))
    with pytest.raises(tk.TaskError):
        tk.Augmentation(tuple(range(10)), 9, (0, 0))


# ---------------------------------------------------------------------------
# template packing


def test_template_round_trip():
    rng = rng_for(5, "tmpl")
    g = random_grid(rng, 4, 7)
    tokens, mask = tk.to_template(g, 12, 12, (3, 2))
    assert tokens.shape == (144,)
    assert int(mask.sum()) == 28
    back = tk.from_template(tokens, 4, 7, 12, 12, (3, 2))
    assert np.array_equal(back, g)


def test_template_pad_count():
    g = np.array([[3]], dtype=np.int8)
    tokens, mask = tk.to_template(g, 30, 30, (0, 0))
    assert int((tokens == tk.PAD).sum()) == 899
    assert int(mask.sum()) == 1


def test_template_full_grid_no_pad():
    rng = rng_for(6, "full")
    g = random_grid(rng, 30, 30)
    tokens, _ = tk.to_template(g, 30, 30)
    assert int((tokens == tk.PAD).sum()) == 0


def test_template_overflow():
    g = np.zeros((5, 5), dtype=np.int8)
    with pytest.raises(tk.TaskError, match="overflow"):
        tk.to_template(g, 6, 6, (2, 2))


def test_pad_exactly_outside_mask():
    rng = rng_for(7, "pad")
    g = random_grid(rng, 3, 3)
    tokens, mask = tk.to_template(g, 8, 8, (1, 4))
    assert np.all((tokens == tk.PAD) == ~mask)


# ---------------------------------------------------------------------------
# packed datasets


def test_build_dataset_shapes_and_rows():
    tasks = tk.generate_synthetic("recolor_map", 5, 4, seed=2)
    ds = tk.build_dataset(tasks, num_augmentations=3, template_h=8, template_w=8, seed=0)
    assert ds.num_rows == 12
    assert len(ds.train_examples) == 4 * 3 * 3
    assert len(ds.eval_cases) == 4 * 3
    assert ds.seq_len == 64
    rows = {e.row for e in ds.train_examples}
    assert rows == set(range(12))


def test_build_dataset_identity_slot():
    tasks = tk.generate_synthetic("copy", 4, 2, seed=8)
    ds = tk.build_dataset(tasks, 2, 6, 6, seed=1)
    first = ds.train_examples[0]  # task 0, augmentation 0, pair 0
    tokens, mask = tk.to_template(tasks[0].train_pairs[0][0], 6, 6, (0, 0))
    assert np.array_equal(first.input_tokens, tokens)
    assert np.array_equal(first.loss_mask, mask)


def test_build_dataset_undo_recovers_truth():
    # packing a test pair's *output* through the recorded augmentation and
    # offset, then undoing, must give back the canonical grid
    tasks = tk.generate_synthetic("hmirror", 6, 3, seed=4)
    ds = tk.build_dataset(tasks, 4, 10, 10, seed=9)
    for case in ds.eval_cases:
        task = tasks[case.task_index]
        _, out_grid = task.test_pairs[case.test_index]
        base_aug = tk.Augmentation(case.aug.colour_perm, case.aug.dihedral, (0, 0))
        packed_out, = tk.apply_augmentation((out_grid,), base_aug)
        tokens, _ = tk.to_template(packed_out, 10, 10, case.aug.offset)
        h, w = case.shape
        lifted = tk.from_template(tokens, h, w, 10, 10, case.aug.offset)
        assert np.array_equal(tk.undo_augmentation(lifted, case.aug), out_grid)


def test_build_dataset_rejects_shape_change():
    weird = tk.Task("odd", [(np.zeros((2, 2), dtype=np.int8),
                             np.zeros((3, 3), dtype=np.int8))],
                    [(np.zeros((2, 2), dtype=np.int8), np.zeros((2, 2), dtype=np.int8))])
    with pytest.raises(tk.TaskError, match="same-shape"):
        tk.build_dataset([weird], 1, 6, 6, seed=0)
