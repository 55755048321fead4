import numpy as np
import pytest

from scalestream import (INDOOR_CLASSES, Scene, SceneError, default_room,
                         load_scene, parse_scene, scene_text)
from scalestream.geometry import Primitive


def test_default_room_uses_all_indoor_classes():
    room = default_room()
    assert room.label_map.names == INDOOR_CLASSES
    present = {p.label for p in room.primitives}
    assert present == set(range(11))


def test_default_room_primitives_inside_box():
    room = default_room()
    lo = np.asarray(room.room_lo)
    hi = np.asarray(room.room_hi)
    for p in room.primitives:
        assert np.all(np.asarray(p.lo) >= lo - 1e-9), p.name
        assert np.all(np.asarray(p.hi) <= hi + 1e-9), p.name


def test_default_room_parametric():
    room = default_room(6.0, 5.0, 3.5)
    assert room.room_hi == (6.0, 5.0, 3.5)
    with pytest.raises(SceneError):
        default_room(1.0, 4.0, 3.0)


def test_scene_rejects_bad_labels_and_degenerate_room():
    with pytest.raises(SceneError):
        Scene("x", (0, 0, 0), (1, 1, 1),
              (Primitive((0, 0, 0), (1, 1, 0), label=99),))
    with pytest.raises(SceneError):
        Scene("x", (0, 0, 0), (1, 1, 0), ())


def test_scene_file_roundtrip(tmp_path):
    room = default_room()
    text = scene_text(room)
    back = parse_scene(text)
    assert back.name == room.name
    assert back.label_map == room.label_map
    assert back.room_lo == room.room_lo and back.room_hi == room.room_hi
    assert back.primitives == room.primitives
    path = tmp_path / "room.scene"
    path.write_text(text)
    assert load_scene(path).primitives == room.primitives


def test_parse_scene_minimal():
    scene = parse_scene("""
        # tiny scene
        scene tiny
        room 0 0 0 2 2 2
        rect wall 0 0 0 0 2 2
        box table 0.5 0.5 0 1.5 1.5 0.8 desk
    """)
    assert scene.name == "tiny"
    assert len(scene.primitives) == 2
    assert scene.primitives[1].name == "desk"


def test_parse_scene_errors_name_line():
    with pytest.raises(SceneError, match="line 3"):
        parse_scene("scene x\nroom 0 0 0 1 1 1\nbox nosuch 0 0 0 1 1 1")
    with pytest.raises(SceneError, match="rect"):
        parse_scene("room 0 0 0 1 1 1\nrect wall 0 0 0 1 1 1")
    with pytest.raises(SceneError, match="no room"):
        parse_scene("box table 0 0 0 1 1 1")
    with pytest.raises(SceneError, match="classes must precede"):
        parse_scene("room 0 0 0 1 1 1\nrect wall 0 0 0 0 1 1\nclasses a,b")


def test_custom_classes():
    scene = parse_scene("""
        classes ground, obstacle
        room 0 0 0 1 1 1
        rect ground 0 0 0 1 1 0
    """)
    assert scene.class_count == 2
    assert scene.primitives[0].label == 0


@pytest.mark.parametrize("bad", ["x", "nan", "inf", "-inf"])
@pytest.mark.parametrize("template", [
    "room 0 0 0 4 4 {}",
    "room 0 0 0 4 4 3\nbox chair 1 1 0 {} 2 1",
    "room 0 0 0 4 4 3\nrect wall 0 0 0 {} 4 3",
], ids=["room", "box", "rect"])
def test_parse_scene_rejects_non_finite_coordinates(template, bad):
    """A coordinate that is not a number, or not finite, is an error that
    names its line, on every line kind that holds coordinates."""
    text = template.format(bad)
    lineno = text.count("\n") + 1
    with pytest.raises(SceneError, match=f"^line {lineno}: coordinates must "
                                         f"be finite numbers, got .*{bad}"):
        parse_scene(text)
