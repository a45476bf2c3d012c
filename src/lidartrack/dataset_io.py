"""Sequence directory format: load, validate, write.

Layout of a sequence directory:

    manifest.json       frame list: index, timestamp, point count, file names
    frames/NNNNNN.bin   point cloud, little-endian float32 x,y,z per point
    poses.json          per-frame ego-to-city pose (quaternion + translation)
    calibration.json    camera intrinsics and ego-to-camera extrinsics
    drivable.json       grid header: origin, resolution, width, height
    drivable.bin        row-major drivable bits, packed 8 per byte
    masks/NNNNNN.json   optional per-frame image-space mask polygons
    gt.jsonl            optional ground truth boxes, one JSON object per line;
                        read only by load_ground_truth, never by load_sequence

Track output is newline-delimited JSON: a header record first, then one
record per (frame, track). All keys are documented in docs/dataset_format.md.

Every loader error names the offending file (and line, for jsonl) so a
broken export can be located without a debugger.

A record that holds one dataclass is read and written through its fields:
its keys are the field names, each value cast by the field's type
(`_decode`), and written back in field order (`_encode`).

`load_sequence` reads and validates all the metadata up front but only
stats the cloud files: a frame's points are read when its `cloud.points`
is asked for, which detection does once per frame. So a run holds the
points of the frames being detected, not of the whole sequence.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import stat
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np

from ._frozen import FrozenRecord, check_shape, frozen
from .errors import DatasetError
from .geometry import CameraModel, RigidTransform

TRACKS_FORMAT = "lidartrack-tracks"
SEQUENCE_FORMAT = "lidartrack-sequence"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class PointCloud(FrozenRecord):
    """An in-memory frame's cloud: a read-only, C-contiguous (N, 3) point
    array. A loaded frame's cloud is a FileCloud.

    A float32 array stays float32, at 12 bytes per point, as a frame file
    stores it. Any other array becomes float64.

    Unlike the other records it holds a read-only view, not a copy:
    `synth.generate` builds each frame's array once, and a copy would hold
    every frame twice. The caller's array stays writable.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points)
        dtype = np.float32 if pts.dtype == np.float32 else np.float64
        pts = np.ascontiguousarray(pts, dtype=dtype).view()
        check_shape("points", pts, ("N", 3))
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class FileCloud:
    """A frame's point cloud file, read each time `points` is asked for.

    `load_sequence` checks the file's size against the manifest count and
    keeps only this record, so a loaded sequence holds no points. `points`
    reads the file, re-checks its size and the finiteness of every
    coordinate, and returns a read-only float32 array of its own; nothing
    keeps it once the caller lets go. `len` is the manifest count and reads
    nothing.
    """

    path: Path
    n_points: int
    frame_index: int

    @property
    def points(self) -> np.ndarray:
        return _read_cloud(self.path, self.n_points, self.frame_index)

    def __len__(self) -> int:
        return self.n_points


@dataclass(frozen=True)
class MaskRegion(FrozenRecord):
    """Image-space polygon tied to one camera."""

    camera_id: str
    polygon: np.ndarray  # (K, 2) pixel coordinates, K >= 3

    def __post_init__(self):
        object.__setattr__(self, "polygon", frozen("polygon", self.polygon, np.float64, ("K", 2)))
        if len(self.polygon) < 3:
            raise ValueError(f"polygon must have at least 3 vertices, got {len(self.polygon)}")


@dataclass(frozen=True)
class DrivableGrid(FrozenRecord):
    """Row-major boolean occupancy grid over city-frame x/y.

    Cell (ix, iy) covers [origin_x + ix*res, origin_x + (ix+1)*res) by
    [origin_y + iy*res, ...); bits[iy, ix] says whether it is drivable.
    """

    origin_xy: np.ndarray  # (2,)
    resolution: float
    bits: np.ndarray  # (height, width) bool

    def __post_init__(self):
        object.__setattr__(self, "origin_xy", frozen("origin_xy", self.origin_xy, np.float64, (2,)))
        object.__setattr__(self, "bits", frozen("bits", self.bits, bool, ("height", "width")))
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    def contains(self, xy: np.ndarray) -> np.ndarray:
        """Vectorized membership for (N, 2) city coordinates.

        Points outside the grid extent are not drivable.
        """
        xy = np.asarray(xy, dtype=np.float64)
        ix = np.floor((xy[:, 0] - self.origin_xy[0]) / self.resolution).astype(np.int64)
        iy = np.floor((xy[:, 1] - self.origin_xy[1]) / self.resolution).astype(np.int64)
        ok = (ix >= 0) & (ix < self.width) & (iy >= 0) & (iy < self.height)
        out = np.zeros(len(xy), dtype=bool)
        out[ok] = self.bits[iy[ok], ix[ok]]
        return out


@dataclass(frozen=True)
class GroundTruthBox(FrozenRecord):
    track_id: str
    center: np.ndarray  # (3,) city frame
    length: float
    width: float
    height: float

    def __post_init__(self):
        object.__setattr__(self, "center", frozen("center", self.center, np.float64, (3,)))
        _non_negative(self, "length", "width", "height")


@dataclass
class Frame:
    index: int
    timestamp: float
    cloud: PointCloud | FileCloud  # FileCloud when loaded from a directory
    ego_pose: RigidTransform  # ego -> city
    masks: list[MaskRegion] = field(default_factory=list)


@dataclass
class Sequence:
    """What tracking reads from a sequence directory: no ground truth."""

    frames: list[Frame]
    cameras: dict[str, CameraModel]
    drivable: Optional[DrivableGrid]

    def __len__(self) -> int:
        return len(self.frames)


@dataclass(frozen=True)
class TrackRecord:
    """One confirmed track in one frame, in city coordinates: what
    `Tracker.step` reports and one line of a tracks file."""

    frame: int
    track_id: int
    x: float
    y: float
    z: float
    vx: float
    vy: float
    length: float
    width: float
    height: float

    def __post_init__(self):
        _non_negative(self, "frame", "track_id", "length", "width", "height")


def _non_negative(record, *names) -> None:
    """A ValueError naming the first of record's fields named that is below 0."""
    for name in names:
        if getattr(record, name) < 0:
            raise ValueError(f"{name!r} is {getattr(record, name)}, below 0")


def _integer(value) -> int:
    """A count or an index: a JSON integer, never a float, a bool or a string."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _index(value) -> int:
    """A frame index or a grid size: a JSON integer, never negative."""
    if _integer(value) < 0:
        raise ValueError(f"{value} is below 0")
    return value


def _array(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a JSON array, got {type(value).__name__}")
    return value


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {type(value).__name__}")
    return value


def _string(value) -> str:
    """An id: a JSON string, never a number or null."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _boolean(value) -> bool:
    """An on/off value: a JSON boolean, never a number or a string."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _number(value):
    """A JSON number: an int or a float, never a bool or a string."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return value


def _finite(value) -> float:
    number = float(_number(value))
    if not math.isfinite(number):
        raise ValueError(f"{number} is not a finite number")
    return number


def _require_file(path: Path) -> None:
    """The missing-file rule of the JSON and JSON Lines readers."""
    if not path.is_file():
        raise DatasetError(path, "file is missing")


def _read_json(path: Path):
    _require_file(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise DatasetError(path, f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DatasetError(path, f"top level must be a JSON object, got {type(obj).__name__}")
    return obj


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)


def _require(record: dict, key: str, path: Path, cast, line=None):
    """cast(record[key]). A missing key or a value cast rejects is a
    DatasetError naming path (and line)."""
    if not isinstance(record, dict) or key not in record:
        raise DatasetError(path, f"record is missing key {key!r}", line=line)
    try:
        return cast(record[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise DatasetError(path, f"bad value for {key!r}: {exc}", line=line) from exc


def _path_string(value) -> str:
    """A file path relative to the JSON file that names it."""
    if not isinstance(value, str) or not value:
        raise TypeError(f"expected a non-empty path string, got {value!r}")
    return value


def _floats(value) -> np.ndarray:
    """A JSON array, nested or not, of finite numbers."""
    pending = [_array(value)]
    while pending:  # no recursion: the nesting depth is the file's to choose
        item = pending.pop()
        if isinstance(item, list):
            pending.extend(item)
        else:
            _number(item)
    numbers = np.asarray(value, dtype=np.float64)
    if not np.isfinite(numbers).all():
        raise ValueError("not every number is finite")
    return numbers


# The cast that reads a JSON value into a field of each type.
_CAST_BY_TYPE = {int: _integer, float: _finite, bool: _boolean, str: _string, np.ndarray: _floats}


@functools.cache
def _field_casts(cls) -> dict:
    """Field name -> cast of each field of dataclass cls, in order, None where
    its type has no cast. One dict per class, shared: callers only read it."""
    types = get_type_hints(cls)
    return {f.name: _CAST_BY_TYPE.get(types[f.name]) for f in dataclasses.fields(cls)}


# Worked out at import, so that no load or write pays for get_type_hints.
for _record in (TrackRecord, GroundTruthBox, MaskRegion, DrivableGrid, RigidTransform, CameraModel):
    _field_casts(_record)


def _decode(cls, record: dict, path: Path, line=None, **given):
    """cls from a JSON object: each field not in given is record[field name]
    through its type's cast. A missing key, a rejected value or a ValueError
    from cls is a DatasetError naming path (and line)."""
    for name, cast in _field_casts(cls).items():
        if name not in given:
            if cast is None:
                raise TypeError(f"{cls.__name__}.{name} has no JSON cast, so it must be given")
            given[name] = _require(record, name, path, cast, line)
    try:
        return cls(**given)
    except ValueError as exc:
        raise DatasetError(path, f"bad {cls.__name__}: {exc}", line=line) from exc


def _encode(obj, *skip) -> dict:
    """The JSON object _decode reads obj back from: its fields in order,
    arrays as lists, less the fields named in skip."""
    row = {}
    for name, cast in _field_casts(type(obj)).items():
        if name not in skip:
            value = getattr(obj, name)
            row[name] = value.tolist() if cast is _floats else value
    return row


def _jsonl(path: Path):
    """(line number, JSON value) for each non-blank line of path."""
    _require_file(path)
    with open(path, "rb") as fh:  # json.loads decodes each line itself
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError as exc:  # not JSON, or not UTF-8 text
                raise DatasetError(path, f"invalid JSON: {exc}", line=lineno) from exc
            yield lineno, rec


def _write_jsonl(path: Path, rows) -> None:
    """Each of rows as one line of JSON: the file _jsonl reads them back from."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(row) + "\n" for row in rows)


def _check_cloud_size(path: Path, size: int, expected_points: int) -> None:
    if size % 12 != 0:
        raise DatasetError(path, f"size {size} is not a multiple of 12 bytes per point")
    if size // 12 != expected_points:
        raise DatasetError(
            path, f"manifest promises {expected_points} points but file holds {size // 12}"
        )


def _stat_cloud(path: Path, expected_points: int) -> None:
    """Check, by one stat, that the file is there, is a regular file and
    holds the manifest's point count. Its points are not read."""
    try:
        info = path.stat()
    except (OSError, ValueError):  # ValueError: a NUL in the manifest's path
        info = None
    if info is None or not stat.S_ISREG(info.st_mode):
        raise DatasetError(path, "point cloud file is missing")
    _check_cloud_size(path, info.st_size, expected_points)


def _read_cloud(path: Path, expected_points: int, frame_index: int) -> np.ndarray:
    """The file's points, read straight into a float32 array of their own.
    A file that changed size since load or holds a non-finite coordinate is
    a DatasetError naming it."""
    try:
        with open(path, "rb") as fh:
            _check_cloud_size(path, os.fstat(fh.fileno()).st_size, expected_points)
            pts = np.empty((expected_points, 3), dtype="<f4")  # float32 on any little-endian host
            got = fh.readinto(pts)
    except FileNotFoundError as exc:
        raise DatasetError(path, "point cloud file is missing") from exc
    except OSError as exc:
        raise DatasetError(path, f"cannot read point cloud file: {exc}") from exc
    if got != pts.nbytes:
        raise DatasetError(path, f"file ended after {got} of {pts.nbytes} bytes")
    # A float64 sum of finite float32 values cannot overflow, and a NaN or
    # an infinity makes it non-finite, so one reduction with no temporary
    # tests them all (inf - inf is NaN). The bad rows are counted only for
    # the message.
    with np.errstate(invalid="ignore"):
        total = pts.sum(dtype=np.float64)
    if not np.isfinite(total):
        bad = int(np.count_nonzero(~np.isfinite(pts).all(axis=1)))
        raise DatasetError(
            path, f"frame {frame_index}: {bad} point(s) have NaN or infinite coordinates"
        )
    pts.flags.writeable = False
    return pts


def _load_masks(path: Path, cameras: dict[str, CameraModel]) -> list[MaskRegion]:
    obj = _read_json(path)
    regions = []
    for i, rec in enumerate(_require(obj, "regions", path, _array)):
        region = _decode(MaskRegion, rec, path)
        if region.camera_id not in cameras:
            what = f"region {i} references camera {region.camera_id!r}"
            raise DatasetError(path, f"{what} not present in calibration")
        regions.append(region)
    return regions


def load_calibration(path) -> dict[str, CameraModel]:
    """Camera models by id, from a calibration.json path (a str or a Path)."""
    path = Path(path)
    obj = _read_json(path)
    cameras = {}
    for cam_id, rec in sorted(_require(obj, "cameras", path, _object).items()):
        intrinsics = _require(rec, "intrinsics", path, _object)
        pose = _decode(RigidTransform, _require(rec, "ego_to_camera", path, _object), path)
        cameras[cam_id] = _decode(CameraModel, intrinsics, path, camera_id=cam_id, extrinsics=pose)
    return cameras


def load_drivable(header_path) -> DrivableGrid:
    """The drivable grid of a drivable.json header path (a str or a Path),
    with the bitmask file it names beside it."""
    header_path = Path(header_path)
    obj = _read_json(header_path)
    width = _require(obj, "width", header_path, _index)
    height = _require(obj, "height", header_path, _index)
    bits_file = header_path.parent / _require(obj, "file", header_path, _path_string)
    if not bits_file.is_file():
        raise DatasetError(bits_file, "drivable bitmask file is missing")
    packed = np.frombuffer(bits_file.read_bytes(), dtype=np.uint8)
    expected = (width * height + 7) // 8
    if len(packed) != expected:
        raise DatasetError(
            bits_file, f"expected {expected} packed bytes for {width}x{height}, got {len(packed)}"
        )
    bits = np.unpackbits(packed)[: width * height].reshape(height, width)
    return _decode(DrivableGrid, obj, header_path, bits=bits)


def _claim(seen: set, key, path: Path, what: str, line=None) -> None:
    """Record key as seen; a repeat is a DatasetError naming path."""
    if key in seen:
        raise DatasetError(path, f"duplicate {what}", line=line)
    seen.add(key)


def load_ground_truth(path) -> dict[int, list[GroundTruthBox]]:
    """Ground truth boxes by frame. A track_id may appear once per frame."""
    path = Path(path)
    gt: dict[int, list[GroundTruthBox]] = {}
    seen: set = set()
    for lineno, rec in _jsonl(path):
        frame = _require(rec, "frame", path, _index, lineno)
        box = _decode(GroundTruthBox, rec, path, lineno)
        what = f"track_id {box.track_id!r} in frame {frame}"
        _claim(seen, (frame, box.track_id), path, what, lineno)
        gt.setdefault(frame, []).append(box)
    return gt


def load_sequence(path) -> Sequence:
    """Load and validate a sequence directory."""
    root = Path(path)
    if not root.is_dir():
        raise DatasetError(root, "sequence directory does not exist")
    manifest_path = root / "manifest.json"
    manifest = _read_json(manifest_path)
    if manifest.get("format") != SEQUENCE_FORMAT:
        raise DatasetError(
            manifest_path,
            f"expected format {SEQUENCE_FORMAT!r}, got {manifest.get('format')!r}",
        )

    cameras = load_calibration(root / "calibration.json")

    poses_path = root / "poses.json"
    poses_obj = _read_json(poses_path)
    poses = {}
    posed: set[int] = set()
    for rec in _require(poses_obj, "frames", poses_path, _array):
        index = _require(rec, "index", poses_path, _index)
        _claim(posed, index, poses_path, f"frame index {index}")
        poses[index] = _decode(RigidTransform, rec, poses_path)

    drivable = None
    if (root / "drivable.json").is_file():
        drivable = load_drivable(root / "drivable.json")

    frames = []
    indices: set[int] = set()
    prev_ts = None
    for rec in _require(manifest, "frames", manifest_path, _array):
        index = _require(rec, "index", manifest_path, _index)
        _claim(indices, index, manifest_path, f"frame index {index}")
        ts = _require(rec, "timestamp", manifest_path, _finite)
        if prev_ts is not None and ts <= prev_ts:
            raise DatasetError(
                manifest_path,
                f"timestamps must be strictly increasing, frame {index} has "
                f"{ts} after {prev_ts}",
            )
        prev_ts = ts
        n_points = _require(rec, "points", manifest_path, _integer)
        cloud_file = root / _require(rec, "file", manifest_path, _path_string)
        _stat_cloud(cloud_file, n_points)
        if index not in poses:
            raise DatasetError(poses_path, f"no ego pose for frame {index}")
        masks: list[MaskRegion] = []
        if rec.get("masks") is not None:
            mask_rel = _require(rec, "masks", manifest_path, _path_string)
            masks = _load_masks(root / mask_rel, cameras)
        frames.append(
            Frame(
                index=index,
                timestamp=ts,
                cloud=FileCloud(cloud_file, n_points, index),
                ego_pose=poses[index],
                masks=masks,
            )
        )

    return Sequence(frames=frames, cameras=cameras, drivable=drivable)


def write_sequence(
    path,
    frames: list[Frame],
    cameras: dict[str, CameraModel],
    drivable: Optional[DrivableGrid] = None,
    ground_truth: Optional[dict[int, list[GroundTruthBox]]] = None,
) -> Path:
    """Write a sequence directory in the layout load_sequence expects.

    Clouds are stored as float32, so coordinates are quantized once on the
    first write; a load/write round trip after that is byte-identical.
    """
    root = Path(path)
    (root / "frames").mkdir(parents=True, exist_ok=True)

    manifest_frames = []
    pose_frames = []
    for fr in frames:
        rel = f"frames/{fr.index:06d}.bin"
        pts32 = fr.cloud.points.astype("<f4")
        (root / rel).write_bytes(pts32.tobytes())
        entry = {
            "index": fr.index,
            "timestamp": fr.timestamp,
            "points": len(fr.cloud),
            "file": rel,
        }
        if fr.masks:
            mask_rel = f"masks/{fr.index:06d}.json"
            (root / "masks").mkdir(exist_ok=True)
            _write_json(root / mask_rel, {"regions": [_encode(m) for m in fr.masks]})
            entry["masks"] = mask_rel
        manifest_frames.append(entry)
        pose_frames.append({"index": fr.index, **_encode(fr.ego_pose)})

    manifest = {"format": SEQUENCE_FORMAT, "version": FORMAT_VERSION, "frames": manifest_frames}
    _write_json(root / "manifest.json", manifest)
    _write_json(root / "poses.json", {"frames": pose_frames})

    cams_obj = {
        cam_id: {
            "intrinsics": _encode(cam, "camera_id", "extrinsics"),
            "ego_to_camera": _encode(cam.extrinsics),
        }
        for cam_id, cam in sorted(cameras.items())
    }
    _write_json(root / "calibration.json", {"cameras": cams_obj})

    if drivable is not None:
        (root / "drivable.bin").write_bytes(np.packbits(drivable.bits.ravel()).tobytes())
        header = {"width": drivable.width, "height": drivable.height, "file": "drivable.bin"}
        _write_json(root / "drivable.json", {**_encode(drivable, "bits"), **header})

    if ground_truth is not None:
        rows = (
            {"frame": frame, **_encode(box)}
            for frame in sorted(ground_truth)
            for box in ground_truth[frame]
        )
        _write_jsonl(root / "gt.jsonl", rows)
    return root


def write_tracks(path, records: list[TrackRecord]) -> Path:
    """Write track records as newline-delimited JSON with a header record.

    A record with a non-finite field is a ValueError, and nothing is written.
    """
    rows = [{"format": TRACKS_FORMAT, "version": FORMAT_VERSION}]
    for rec in records:
        row = _encode(rec)
        for key, value in row.items():
            if not math.isfinite(value):
                raise ValueError(
                    f"track {rec.track_id} in frame {rec.frame}: {key!r} is {value}, not finite"
                )
        rows.append(row)
    out = Path(path)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    _write_jsonl(out, rows)
    return out


def load_tracks(path) -> list[TrackRecord]:
    """Track records in file order. A track_id may appear once per frame."""
    p = Path(path)
    lines = _jsonl(p)
    lineno, header = next(lines, (None, None))
    if lineno is None:
        raise DatasetError(p, f"no header record with format {TRACKS_FORMAT!r} found")
    found = header.get("format") if isinstance(header, dict) else header
    if found != TRACKS_FORMAT:
        raise DatasetError(
            p, f"expected header with format {TRACKS_FORMAT!r}, got {found!r}", line=lineno
        )
    records = []
    seen: set = set()
    for lineno, rec in lines:
        record = _decode(TrackRecord, rec, p, lineno)
        what = f"track_id {record.track_id} in frame {record.frame}"
        _claim(seen, (record.frame, record.track_id), p, what, lineno)
        records.append(record)
    return records
