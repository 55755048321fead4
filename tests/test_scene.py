import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mutate_one_line
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
    room = "room 0 0 0 4 4 3\n"
    for text, lineno, message in [
            (room + "scene a b", 2, "scene takes exactly one name"),
            ("classes ,\n" + room, 1, "classes needs at least one name"),
            ("room 0 0 0 4 4", 1, "room needs 6 coordinates"),
            (room + "box chair 0 0 0 1 1", 2, "box needs a class name"),
            (room + "box chair 0 0 0 1 1 0", 2, "box must have positive extent"),
            (room + "box chair 1 1 1 0 0 0", 2, "hi corner below lo corner"),
            (room + "cone 0 0 0 1 1 1", 2, "unknown directive 'cone'")]:
        with pytest.raises(SceneError, match=f"^line {lineno}: {message}"):
            parse_scene(text)


@pytest.mark.parametrize("kind,line", [
    ("room", "room 0 0 0 5 5 3"),
    ("scene", "scene other"),
    ("classes", "classes a,b"),
])
def test_parse_scene_rejects_a_second_once_only_line(kind, line):
    """``room``, ``scene`` and ``classes`` may each appear once; a second
    one is an error that names both lines instead of replacing the first."""
    text = "scene x\nclasses floor,wall\nroom 0 0 0 4 4 3\n\n" + line + "\n"
    first = {"scene": 1, "classes": 2, "room": 3}[kind]
    with pytest.raises(SceneError, match=f"^line 5: second {kind} line "
                                         f"\\(the first is line {first}\\)$"):
        parse_scene(text)


def test_parse_scene_degenerate_room_names_its_line():
    with pytest.raises(SceneError, match=r"^line 2: degenerate room box "
                                         r"\(0.0, 0.0, 0.0\)..\(4.0, 4.0, 0.0\)$"):
        parse_scene("scene x\nroom 0 0 0 4 4 0\n")


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


#: Tokens that a hand edit may leave in a scene file: non-finite and
#: extreme numbers, a comment mark, a directive name, a class separator.
SCENE_TOKENS = ("nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "0", "-0",
                "-1", "x", "#", ",", "a,b", "room", "scene", "classes", "box",
                "rect", "chair", "wall", "floor,floor")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_parse_scene_survives_any_single_line_mutation(data):
    """Drop, repeat or move one line of the built-in room's scene text, or
    replace or insert one token: the parser returns a scene or raises a
    SceneError, and nothing else."""
    text = mutate_one_line(data, scene_text(default_room()), SCENE_TOKENS)
    try:
        assert isinstance(parse_scene(text), Scene)
    except SceneError:
        pass
