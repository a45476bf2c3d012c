"""Every JSON file of a sequence, broken in every way the sweeps below know.

Each key's value is replaced or deleted, the text is truncated, or single
bytes are flipped. `load_sequence` must then load the sequence or raise a
`DatasetError` naming the broken file or a file tied to it. Any other
exception fails, and so does an error that names an unrelated file.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from lidartrack.dataset_io import MaskRegion, load_sequence, write_sequence
from lidartrack.errors import DatasetError
from lidartrack.synth import SynthConfig, generate

MASK_FILE = "masks/000000.json"
# What an error may name besides the broken file: the files it points at
# (the manifest names the clouds, the mask file and, by frame index, the
# poses; drivable.json names its bitmask), and the mask file when the
# calibration breaks, since its regions name the cameras.
TIED = {
    "manifest.json": ("frames/000000.bin", "frames/000001.bin", MASK_FILE, "poses.json"),
    "poses.json": (),
    "calibration.json": (MASK_FILE,),
    "drivable.json": ("drivable.bin",),
    MASK_FILE: (),
}
DELETE = object()
VALUES = (DELETE, None, 0, -1, 5, "", "x", [], [1], {}, {"x": 1}, True, False)


@pytest.fixture(scope="module")
def sequence(tmp_path_factory):
    """Two frames, one car and one mask file: every JSON file there is."""
    seq = generate(SynthConfig(n_cars=1, n_frames=2))
    polygon = np.array([[0.0, 0.0], [1600.0, 0.0], [800.0, 1200.0]])
    seq.frames[0].masks = [MaskRegion("cam_front", polygon)]
    root = tmp_path_factory.mktemp("sweep") / "seq"
    write_sequence(root, seq.frames, seq.cameras, drivable=seq.drivable)
    assert sorted(TIED) == sorted(str(p.relative_to(root)) for p in root.rglob("*.json"))
    return root


def key_paths(obj, path=()):
    """The path of obj itself, then of every key and list position in it."""
    yield path
    if isinstance(obj, dict):
        children = obj.items()
    elif isinstance(obj, list):
        children = enumerate(obj)
    else:
        children = ()
    for key, value in children:
        yield from key_paths(value, path + (key,))


def edited(obj, path, value):
    """JSON text of obj with the entry at path set to value or deleted, or
    None when the whole file is deleted."""
    if not path:
        return None if value is DELETE else json.dumps(value)
    obj = json.loads(json.dumps(obj))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(obj, indent=2)


def load_with(root, name, data):
    """Load the sequence with file `name` replaced by data (None deletes it).
    Returns None if it loads, else the path the DatasetError names."""
    target = root / name
    original = target.read_bytes()
    try:
        if data is None:
            target.unlink()
        else:
            target.write_bytes(data.encode() if isinstance(data, str) else data)
        try:
            load_sequence(root)
        except DatasetError as exc:
            return Path(exc.path)
        return None
    finally:
        target.write_bytes(original)


def misnamed(root, name, named):
    """Why a DatasetError naming `named` is wrong for broken `name`, or None.
    A path field may also name a file that does not exist."""
    if named is None or named in {root / name, *(root / p for p in TIED[name])}:
        return None
    if root in named.parents and not named.exists():
        return None
    return f"names {named}"


def sweep(root, name, cases):
    failures = []
    for label, data in cases:
        try:
            why = misnamed(root, name, load_with(root, name, data))
        except Exception as exc:  # anything but a DatasetError is a failure
            why = f"{type(exc).__name__}: {exc}"
        if why:
            failures.append(f"{name} {label}: {why}")
    return failures


@pytest.mark.parametrize("name", sorted(TIED))
def test_every_key_edited_loads_or_names_the_file(sequence, name):
    obj = json.loads((sequence / name).read_text())
    cases = [
        (f"{list(path)} = {'<deleted>' if value is DELETE else repr(value)}", text)
        for path in key_paths(obj)
        for value in VALUES
        for text in [edited(obj, path, value)]
    ]
    failures = sweep(sequence, name, cases)
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("name", sorted(TIED))
def test_truncated_file_names_itself(sequence, name):
    data = (sequence / name).read_bytes()
    for size in sorted({0, 1, len(data) // 3, len(data) // 2, len(data) - 1}):
        assert load_with(sequence, name, data[:size]) == sequence / name, f"{size} bytes"


@pytest.mark.parametrize("name", sorted(TIED))
def test_flipped_byte_loads_or_names_the_file(sequence, name):
    data = (sequence / name).read_bytes()
    cases = []
    for at in range(len(data)):
        # The low bit turns one character into its neighbour (a digit into
        # another, a quote into '#'); the high bit makes the text invalid UTF-8.
        for bit in (0x01, 0x80) if at % 8 == 0 else (0x01,):
            flipped = bytearray(data)
            flipped[at] ^= bit
            cases.append((f"byte {at} ^ {bit:#04x}", bytes(flipped)))
    failures = sweep(sequence, name, cases)
    assert not failures, "\n".join(failures)
