"""Sequence directory format: load, validate, write.

Layout of a sequence directory:

    manifest.json       frame list: index, timestamp, point count, file names
    frames/NNNNNN.bin   point cloud, little-endian float32 x,y,z per point
    poses.json          per-frame ego-to-city pose (quaternion + translation)
    calibration.json    camera intrinsics and ego-to-camera extrinsics
    drivable.json       grid header: origin, resolution, width, height
    drivable.bin        row-major drivable bits, packed 8 per byte
    masks/NNNNNN.json   optional per-frame image-space mask polygons
    gt.jsonl            optional ground truth boxes, one JSON object per line

Track output is newline-delimited JSON: a header record first, then one
record per (frame, track). All keys are documented in docs/dataset_format.md.

Every loader error names the offending file (and line, for jsonl) so a
broken export can be located without a debugger.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np

from .errors import DatasetError
from .geometry import CameraModel, RigidTransform

TRACKS_FORMAT = "lidartrack-tracks"
SEQUENCE_FORMAT = "lidartrack-sequence"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class PointCloud:
    """Immutable (N, 3) float64 point array tagged with its frame name."""

    points: np.ndarray
    frame: str = "ego"

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"expected (N, 3) points, got shape {pts.shape}")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class MaskRegion:
    """Image-space polygon tied to one camera."""

    camera_id: str
    polygon: np.ndarray  # (K, 2) pixel coordinates, K >= 3

    def __post_init__(self):
        poly = np.ascontiguousarray(self.polygon, dtype=np.float64)
        if poly.ndim != 2 or poly.shape[1] != 2 or len(poly) < 3:
            raise ValueError(f"polygon must be (K>=3, 2), got shape {poly.shape}")
        poly.flags.writeable = False
        object.__setattr__(self, "polygon", poly)


@dataclass(frozen=True)
class DrivableGrid:
    """Row-major boolean occupancy grid over city-frame x/y.

    Cell (ix, iy) covers [origin_x + ix*res, origin_x + (ix+1)*res) by
    [origin_y + iy*res, ...); bits[iy, ix] says whether it is drivable.
    """

    origin_xy: np.ndarray  # (2,)
    resolution: float
    bits: np.ndarray  # (height, width) bool

    def __post_init__(self):
        origin = np.asarray(self.origin_xy, dtype=np.float64).reshape(2)
        bits = np.asarray(self.bits, dtype=bool)
        if bits.ndim != 2:
            raise ValueError("bits must be a 2-d array")
        if self.resolution <= 0:
            raise ValueError("resolution must be positive")
        origin.flags.writeable = False
        bits.flags.writeable = False
        object.__setattr__(self, "origin_xy", origin)
        object.__setattr__(self, "bits", bits)

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
class GroundTruthBox:
    track_id: str
    center: np.ndarray  # (3,) city frame
    length: float
    width: float
    height: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=np.float64).reshape(3)
        c.flags.writeable = False
        object.__setattr__(self, "center", c)


@dataclass
class Frame:
    index: int
    timestamp: float
    cloud: PointCloud
    ego_pose: RigidTransform  # ego -> city
    masks: list[MaskRegion] = field(default_factory=list)


@dataclass
class Sequence:
    frames: list[Frame]
    cameras: dict[str, CameraModel]
    drivable: Optional[DrivableGrid]
    ground_truth: Optional[dict[int, list[GroundTruthBox]]]
    path: Optional[Path] = None

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


# Key -> type of every track-record field, in the order a tracks file lists them.
_TRACK_FIELDS = {
    f.name: get_type_hints(TrackRecord)[f.name] for f in dataclasses.fields(TrackRecord)
}


def _read_json(path: Path):
    if not path.is_file():
        raise DatasetError(path, "file is missing")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DatasetError(path, f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DatasetError(path, f"top level must be a JSON object, got {type(obj).__name__}")
    return obj


def _require(record: dict, key: str, path: Path, line=None, cast=None):
    """record[key], passed through cast if one is given. A missing key or a
    value cast rejects is a DatasetError naming path."""
    if not isinstance(record, dict) or key not in record:
        raise DatasetError(path, f"record is missing key {key!r}", line=line)
    if cast is None:
        return record[key]
    try:
        return cast(record[key])
    except (TypeError, ValueError) as exc:
        raise DatasetError(path, f"bad value for {key!r}: {exc}", line=line) from exc


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def _pose_from_json(obj: dict, path: Path, to_frame: str = "city") -> RigidTransform:
    rot = _require(obj, "rotation", path, cast=_floats)
    tr = _require(obj, "translation", path, cast=_floats)
    if rot.shape != (4,):
        raise DatasetError(path, f"rotation must be a 4-quaternion, got {rot.tolist()}")
    if tr.shape != (3,):
        raise DatasetError(path, f"translation must be a 3-vector, got {tr.tolist()}")
    try:
        return RigidTransform(rot, tr, "ego", to_frame)
    except ValueError as exc:
        raise DatasetError(path, f"bad pose: {exc}") from exc


def _load_cloud(path: Path, expected_points: int, frame_index: int) -> np.ndarray:
    if not path.is_file():
        raise DatasetError(path, "point cloud file is missing")
    raw = path.read_bytes()
    if len(raw) % 12 != 0:
        raise DatasetError(path, f"size {len(raw)} is not a multiple of 12 bytes per point")
    pts = np.frombuffer(raw, dtype="<f4").reshape(-1, 3)
    if len(pts) != expected_points:
        raise DatasetError(
            path, f"manifest promises {expected_points} points but file holds {len(pts)}"
        )
    bad = int(np.count_nonzero(~np.isfinite(pts).all(axis=1)))
    if bad:
        raise DatasetError(
            path, f"frame {frame_index}: {bad} point(s) have NaN or infinite coordinates"
        )
    return pts.astype(np.float64)


def _load_masks(path: Path, cameras: dict[str, CameraModel]) -> list[MaskRegion]:
    obj = _read_json(path)
    regions = []
    for i, rec in enumerate(_require(obj, "regions", path, cast=list)):
        cam_id = _require(rec, "camera_id", path, cast=str)
        if cam_id not in cameras:
            raise DatasetError(
                path, f"region {i} references camera {cam_id!r} not present in calibration"
            )
        poly = _require(rec, "polygon", path, cast=_floats)
        try:
            regions.append(MaskRegion(cam_id, poly))
        except ValueError as exc:
            raise DatasetError(path, f"region {i}: {exc}") from exc
    return regions


def load_calibration(path: Path) -> dict[str, CameraModel]:
    obj = _read_json(path)
    cameras = {}
    for cam_id, rec in sorted(_require(obj, "cameras", path, cast=dict).items()):
        intr = _require(rec, "intrinsics", path)
        pose = _pose_from_json(_require(rec, "ego_to_camera", path), path, f"cam:{cam_id}")
        try:
            cameras[cam_id] = CameraModel(
                camera_id=cam_id,
                fx=_require(intr, "fx", path, cast=float),
                fy=_require(intr, "fy", path, cast=float),
                cx=_require(intr, "cx", path, cast=float),
                cy=_require(intr, "cy", path, cast=float),
                width=_require(intr, "width", path, cast=int),
                height=_require(intr, "height", path, cast=int),
                extrinsics=pose,
            )
        except ValueError as exc:
            raise DatasetError(path, f"camera {cam_id!r}: {exc}") from exc
    return cameras


def load_drivable(header_path: Path) -> DrivableGrid:
    obj = _read_json(header_path)
    width = _require(obj, "width", header_path, cast=int)
    height = _require(obj, "height", header_path, cast=int)
    bits_file = header_path.parent / _require(obj, "file", header_path)
    if not bits_file.is_file():
        raise DatasetError(bits_file, "drivable bitmask file is missing")
    packed = np.frombuffer(bits_file.read_bytes(), dtype=np.uint8)
    expected = (width * height + 7) // 8
    if len(packed) != expected:
        raise DatasetError(
            bits_file, f"expected {expected} packed bytes for {width}x{height}, got {len(packed)}"
        )
    bits = np.unpackbits(packed)[: width * height].reshape(height, width).astype(bool)
    try:
        return DrivableGrid(
            origin_xy=_require(obj, "origin_xy", header_path, cast=_floats),
            resolution=_require(obj, "resolution", header_path, cast=float),
            bits=bits,
        )
    except ValueError as exc:
        raise DatasetError(header_path, f"bad drivable grid: {exc}") from exc


def load_ground_truth(path: Path) -> dict[int, list[GroundTruthBox]]:
    gt: dict[int, list[GroundTruthBox]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(path, f"invalid JSON: {exc}", line=lineno) from exc
            try:
                frame = int(_require(rec, "frame", path, lineno))
                box = GroundTruthBox(
                    track_id=str(_require(rec, "track_id", path, lineno)),
                    center=np.asarray(_require(rec, "center", path, lineno), dtype=np.float64),
                    length=float(_require(rec, "length", path, lineno)),
                    width=float(_require(rec, "width", path, lineno)),
                    height=float(_require(rec, "height", path, lineno)),
                )
            except (TypeError, ValueError) as exc:
                raise DatasetError(path, f"bad ground truth record: {exc}", line=lineno) from exc
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
    for rec in _require(poses_obj, "frames", poses_path, cast=list):
        poses[_require(rec, "index", poses_path, cast=int)] = _pose_from_json(rec, poses_path)

    drivable = None
    if (root / "drivable.json").is_file():
        drivable = load_drivable(root / "drivable.json")

    frames = []
    prev_ts = None
    for rec in _require(manifest, "frames", manifest_path, cast=list):
        index = _require(rec, "index", manifest_path, cast=int)
        ts = _require(rec, "timestamp", manifest_path, cast=float)
        if prev_ts is not None and ts <= prev_ts:
            raise DatasetError(
                manifest_path,
                f"timestamps must be strictly increasing, frame {index} has "
                f"{ts} after {prev_ts}",
            )
        prev_ts = ts
        n_points = _require(rec, "points", manifest_path, cast=int)
        cloud_file = root / _require(rec, "file", manifest_path, cast=str)
        pts = _load_cloud(cloud_file, n_points, index)
        if index not in poses:
            raise DatasetError(poses_path, f"no ego pose for frame {index}")
        masks: list[MaskRegion] = []
        mask_rel = rec.get("masks")
        if mask_rel:
            masks = _load_masks(root / mask_rel, cameras)
        frames.append(
            Frame(
                index=index,
                timestamp=ts,
                cloud=PointCloud(pts, frame="ego"),
                ego_pose=poses[index],
                masks=masks,
            )
        )

    ground_truth = None
    if (root / "gt.jsonl").is_file():
        ground_truth = load_ground_truth(root / "gt.jsonl")

    return Sequence(
        frames=frames,
        cameras=cameras,
        drivable=drivable,
        ground_truth=ground_truth,
        path=root,
    )


def _pose_to_json(pose: RigidTransform) -> dict:
    return {
        "rotation": [float(v) for v in pose.rotation],
        "translation": [float(v) for v in pose.translation],
    }


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
            regions = [
                {"camera_id": m.camera_id, "polygon": m.polygon.tolist()} for m in fr.masks
            ]
            with open(root / mask_rel, "w", encoding="utf-8") as fh:
                json.dump({"regions": regions}, fh)
            entry["masks"] = mask_rel
        manifest_frames.append(entry)
        pose_frames.append({"index": fr.index, **_pose_to_json(fr.ego_pose)})

    with open(root / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(
            {"format": SEQUENCE_FORMAT, "version": FORMAT_VERSION, "frames": manifest_frames},
            fh,
            indent=2,
        )
    with open(root / "poses.json", "w", encoding="utf-8") as fh:
        json.dump({"frames": pose_frames}, fh, indent=2)

    cams_obj = {}
    for cam_id, cam in sorted(cameras.items()):
        cams_obj[cam_id] = {
            "intrinsics": {
                "fx": cam.fx,
                "fy": cam.fy,
                "cx": cam.cx,
                "cy": cam.cy,
                "width": cam.width,
                "height": cam.height,
            },
            "ego_to_camera": _pose_to_json(cam.extrinsics),
        }
    with open(root / "calibration.json", "w", encoding="utf-8") as fh:
        json.dump({"cameras": cams_obj}, fh, indent=2)

    if drivable is not None:
        (root / "drivable.bin").write_bytes(np.packbits(drivable.bits.ravel()).tobytes())
        with open(root / "drivable.json", "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "origin_xy": [float(v) for v in drivable.origin_xy],
                    "resolution": drivable.resolution,
                    "width": drivable.width,
                    "height": drivable.height,
                    "file": "drivable.bin",
                },
                fh,
                indent=2,
            )

    if ground_truth is not None:
        with open(root / "gt.jsonl", "w", encoding="utf-8") as fh:
            for frame in sorted(ground_truth):
                for box in ground_truth[frame]:
                    fh.write(
                        json.dumps(
                            {
                                "frame": frame,
                                "track_id": box.track_id,
                                "center": [float(v) for v in box.center],
                                "length": box.length,
                                "width": box.width,
                                "height": box.height,
                            }
                        )
                        + "\n"
                    )
    return root


def write_tracks(path, records: list[TrackRecord]) -> Path:
    """Write track records as newline-delimited JSON with a header record."""
    out = Path(path)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format": TRACKS_FORMAT, "version": FORMAT_VERSION}) + "\n")
        for rec in records:
            fh.write(json.dumps({key: getattr(rec, key) for key in _TRACK_FIELDS}) + "\n")
    return out


def load_tracks(path) -> list[TrackRecord]:
    p = Path(path)
    if not p.is_file():
        raise DatasetError(p, "tracks file is missing")
    records = []
    saw_header = False
    with open(p, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(p, f"invalid JSON: {exc}", line=lineno) from exc
            if not saw_header:
                found = rec.get("format") if isinstance(rec, dict) else rec
                if found != TRACKS_FORMAT:
                    raise DatasetError(
                        p,
                        f"expected header with format {TRACKS_FORMAT!r}, got {found!r}",
                        line=lineno,
                    )
                saw_header = True
                continue
            values = {k: _require(rec, k, p, lineno, cast) for k, cast in _TRACK_FIELDS.items()}
            records.append(TrackRecord(**values))
    if not saw_header:
        raise DatasetError(p, f"no header record with format {TRACKS_FORMAT!r} found")
    return records
