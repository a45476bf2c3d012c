"""Every JSON file of a sequence, broken in every way the sweeps below know.

Each key's value is replaced or deleted, the text is truncated, or single
bytes are flipped. `load_sequence` must then load the sequence or raise a
`DatasetError` naming the broken file or a file tied to it. Any other
exception fails, and so does an error that names an unrelated file.

One record of `gt.jsonl` and one of a tracks file are broken the same way,
and their loaders must load the file or raise a `DatasetError` naming it
and the broken record's line.

Last, generated mutants of every file of a synth sequence go through the
command line, which must exit 0 or 2 and, on 2, name the broken file.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidartrack.cli import main
from lidartrack.dataset_io import (
    MaskRegion,
    TrackRecord,
    load_ground_truth,
    load_sequence,
    load_tracks,
    write_sequence,
    write_tracks,
)
from lidartrack.errors import DatasetError
from lidartrack.synth import SynthConfig, generate, generate_to, ground_truth

MASK_FILE = "masks/000000.json"
# What an error may name besides the broken file: the files it points at
# (the manifest names the clouds, the mask file and, by frame index, the
# poses), and the mask file when the calibration breaks, since its regions
# name the cameras. A drivable.json whose size does not fit its bitmask is
# the header's fault, so it names only itself.
TIED = {
    "manifest.json": (*(f"frames/{i:06d}.bin" for i in range(4)), MASK_FILE, "poses.json"),
    "poses.json": (),
    "calibration.json": (MASK_FILE,),
    "drivable.json": (),
    MASK_FILE: (),
}
# The same for the files that are not JSON: a bitmask whose length does not
# fit the header is reported against the header, with the bitmask's name.
TIED_BEYOND_JSON = {"drivable.bin": ("drivable.json",)}
DELETE = object()
RENAMED = object()  # the key at the path gets a new name, its value kept
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
    elif value is RENAMED:
        parent[f"{path[-1]}_"] = parent.pop(path[-1])
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
    tied = {**TIED, **TIED_BEYOND_JSON}.get(name, ())
    if named is None or named in {root / name, *(root / p for p in tied)}:
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


JSONL = {"gt.jsonl": load_ground_truth, "tracks.jsonl": load_tracks}
# VALUES, non-finite numbers, a fraction where an integer belongs, a number as a
# string, a negative fraction and a vector nested one level too deep.
NESTED = [[1.0, 2.0, 3.0]]
JSONL_VALUES = VALUES + (math.nan, math.inf, 2.5, "4.4", -4.4, NESTED)
# The keys whose value no record may hold below 0, and those that hold one vector.
NON_NEGATIVE = {"frame", "track_id", "length", "width", "height"}
VECTORS = {"center"}


def rejected(key, value):
    """Whether a record whose key is set to value must fail to load."""
    negative = isinstance(value, (int, float)) and not isinstance(value, bool) and value < 0
    return (
        value is DELETE  # every key of a record is required
        or key in NON_NEGATIVE and negative
        or key in VECTORS and value == NESTED
    )


@pytest.fixture(scope="module")
def jsonl_files(tmp_path_factory):
    """A gt.jsonl and a tracks file of two records each."""
    root = tmp_path_factory.mktemp("jsonl")
    write_sequence(root, [], {}, ground_truth=ground_truth(SynthConfig(n_cars=2, n_frames=1)))
    records = [
        TrackRecord(frame=0, track_id=i, x=1.0 + i, y=2.0, z=-0.9, vx=5.0, vy=0.0,
                    length=4.4, width=1.9, height=1.6)
        for i in range(2)
    ]
    write_tracks(root / "tracks.jsonl", records)
    return root


def record_cases(line):
    """(label, replacement line, whether it must fail) for one record: each
    key deleted or set to each value, and the line cut at every length."""
    record = json.loads(line)
    for path in key_paths(record):
        for value in JSONL_VALUES:
            text = edited(record, path, value)
            label = f"{list(path)} = {'<deleted>' if value is DELETE else repr(value)}"
            # Deleting the whole record leaves a blank line, which loads.
            must_fail = len(path) == 1 and rejected(path[0], value)
            yield label, "" if text is None else json.dumps(json.loads(text)), must_fail
    for size in range(1, len(line)):
        yield f"cut to {size} characters", line[:size], False


@pytest.mark.parametrize("name", sorted(JSONL))
def test_every_record_key_edited_loads_or_names_file_and_line(jsonl_files, name):
    path = jsonl_files / name
    original = path.read_text()
    lines = original.splitlines()
    failures = []
    try:
        for label, line, must_fail in record_cases(lines[-1]):
            path.write_text("\n".join(lines[:-1] + [line]) + "\n")
            try:
                JSONL[name](path)
            except DatasetError as exc:
                if (exc.path, exc.line) != (str(path), len(lines)):
                    failures.append(f"{label}: names {exc.path}:{exc.line}")
            except Exception as exc:  # anything but a DatasetError is a failure
                failures.append(f"{label}: {type(exc).__name__}: {exc}")
            else:
                if must_fail:
                    failures.append(f"{label}: loaded")
    finally:
        path.write_text(original)
    assert not failures, "\n".join(failures)


@pytest.fixture(scope="module")
def synth_run(tmp_path_factory):
    """A 4-frame, 2-car synth sequence and the tracks file `track` writes for it."""
    base = tmp_path_factory.mktemp("cli")
    root = generate_to(base / "seq", SynthConfig(n_cars=2, n_frames=4))
    tracks = base / "tracks.jsonl"
    with redirect_stdout(io.StringIO()):
        assert main(["track", str(root), "--output", str(tracks)]) == 0
    return root, tracks


def json_edits(original: bytes):
    """The JSON text with one value replaced or one key deleted or renamed
    (None when the whole file is deleted). A replacement is one of VALUES or
    a small integer, which a grid size or a point count takes."""
    obj = json.loads(original)

    def values(path):
        renamed = (RENAMED,) if path and isinstance(path[-1], str) else ()
        value = st.one_of(st.sampled_from(VALUES + renamed), st.integers(0, 1000))
        return value.map(lambda value: edited(obj, path, value))

    return st.sampled_from(list(key_paths(obj))).flatmap(values)


def line_edits(original: bytes):
    """The text with one record line edited as `record_cases` edits it."""
    lines = original.decode().splitlines()

    def edit(i):
        cases = [line for _, line, _ in record_cases(lines[i])]
        edited_line = st.sampled_from(cases)
        return edited_line.map(lambda line: "\n".join(lines[:i] + [line] + lines[i + 1 :]) + "\n")

    return st.integers(0, len(lines) - 1).flatmap(edit)


def byte_edits(original: bytes):
    """The file cut short, grown, or with one byte overwritten."""
    return st.one_of(
        st.integers(0, len(original) - 1).map(lambda size: original[:size]),
        st.binary(min_size=1, max_size=16).map(lambda tail: original + tail),
        st.tuples(st.integers(0, len(original) - 1), st.integers(0, 255)).map(
            lambda at: original[: at[0]] + bytes([at[1]]) + original[at[0] + 1 :]
        ),
    )


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_cli_exits_0_or_2_naming_the_mutated_file(synth_run, data):
    # One JSON value or key, one gt.jsonl line, or the bytes of any one file;
    # then `eval` for gt.jsonl, which only it reads, and `track` for the rest.
    root, tracks = synth_run
    files = sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())
    kind = data.draw(st.sampled_from(["json", "line", "bytes"]), label="kind")
    names = {"json": [f for f in files if f.endswith(".json")], "line": ["gt.jsonl"], "bytes": files}
    name = data.draw(st.sampled_from(names[kind]), label="file")
    target = root / name
    original = target.read_bytes()
    edits = {"json": json_edits, "line": line_edits, "bytes": byte_edits}[kind]
    mutant = data.draw(edits(original), label="mutant")
    out = root.parent / "out" / "tracks.jsonl"
    out.unlink(missing_ok=True)
    if name == "gt.jsonl":
        argv = ["eval", str(root), str(tracks)]
    else:
        argv = ["track", str(root), "--output", str(out)]
    err = io.StringIO()
    try:
        if mutant is None:
            target.unlink()
        else:
            target.write_bytes(mutant.encode() if isinstance(mutant, str) else mutant)
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            status = main(argv)
    finally:
        target.write_bytes(original)
    err = err.getvalue()
    assert status in (0, 2), err
    if status == 2:
        named = Path(err.removeprefix("lidartrack: error: ").split(":")[0])
        assert misnamed(root, name, named) is None, err
        assert not out.exists()
        if name.startswith("frames/"):
            assert f"frame {int(Path(name).stem)}: " in err, err
