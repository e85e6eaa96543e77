"""The SVG renderer on hand-built grids and frames."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from loopforge.render import CAPTION_PX, CELL, PAD_PX, render_trajectory

SVG = "{http://www.w3.org/2000/svg}"


def frame(grid, remasked, q, timestep):
    return (np.array(grid), remasked, q, timestep)


@pytest.fixture
def rendered(tmp_path):
    frames = [frame([[1, 2], [3, 4]], [(0, 1), (1, 0)], 0.25, 0.9),
              frame([[1, 2], [3, 5]], [(1, 1)], 0.5, 0.4),
              frame([[1, 2], [3, 5]], [], 0.875, 0.0)]
    paths = render_trajectory(np.arange(6).reshape(2, 3), np.arange(4).reshape(4, 1),
                              frames, tmp_path)
    return paths, [ET.fromstring(p.read_text()) for p in paths]


def test_one_header_then_one_image_per_frame(rendered, tmp_path):
    paths, _ = rendered
    assert [p.name for p in paths] == ["header.svg", "step_001.svg", "step_002.svg",
                                       "step_003.svg"]
    assert all(p.parent == tmp_path for p in paths)


def test_header_size_and_viewbox(rendered):
    # a 2x3 input and a 4x1 target, three cells apart, under one caption row
    _, (header, *_) = rendered
    width = 2 * PAD_PX + (3 + 1) * CELL + 3 * CELL
    height = 2 * PAD_PX + CAPTION_PX + 4 * CELL
    assert header.get("width") == str(width)
    assert header.get("height") == str(height)
    assert header.get("viewBox") == f"0 0 {width} {height}"
    assert [t.text for t in header.iter(f"{SVG}text")] == ["input", "target"]
    # the background and one rect per cell
    assert len(header.findall(f"{SVG}rect")) == 1 + 6 + 4


def test_frame_captions(rendered):
    _, (_, *steps) = rendered
    assert [[t.text for t in s.iter(f"{SVG}text")] for s in steps] == [
        ["step 1/3  t=0.900  q=0.250  remask=2"],
        ["step 2/3  t=0.400  q=0.500  remask=1"],
        ["step 3/3  t=0.000  q=0.875  remask=0"]]
    for s in steps:
        assert s.get("width") == str(2 * PAD_PX + 2 * CELL)
        assert s.get("height") == str(2 * PAD_PX + CAPTION_PX + 2 * CELL)


def test_two_lines_per_remasked_cell(rendered):
    _, (header, *steps) = rendered
    assert [len(s.findall(f"{SVG}line")) for s in (header, *steps)] == [0, 4, 2, 0]
    # the second frame's cross sits on cell (1, 1)
    x0, y0 = PAD_PX + CELL, PAD_PX + CAPTION_PX + CELL
    starts = {(int(ln.get("x1")), int(ln.get("y1"))) for ln in steps[1].iter(f"{SVG}line")}
    assert starts == {(x0 + 3, y0 + 3), (x0 + 3, y0 + CELL - 3)}


def test_every_caption_precedes_the_grids(rendered):
    _, roots = rendered
    for root in roots:
        tags = [el.tag[len(SVG):] for el in root]
        # the background rect, then the captions, then the grids
        assert tags[0] == "rect"
        first_cell = tags.index("rect", 1)
        assert set(tags[1:first_cell]) == {"text"}
        assert "text" not in tags[first_cell:]


def test_rerender_replaces_earlier_step_images(tmp_path):
    grid = np.zeros((2, 2), dtype=np.int8)
    (tmp_path / "notes.txt").write_text("kept")
    render_trajectory(grid, grid, [frame(grid, [], 0.5, 0.0)] * 6, tmp_path)
    render_trajectory(grid, grid, [frame(grid, [], 0.5, 0.0)] * 2, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "header.svg", "notes.txt", "step_001.svg", "step_002.svg"]
    assert (tmp_path / "notes.txt").read_text() == "kept"
