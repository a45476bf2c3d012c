"""Bird's-eye-view multi-object tracking for LiDAR point cloud sequences.

The pipeline: stride downsampling and RANSAC ground removal, optional
drivable-area and camera-mask filters, DBSCAN over a sorted-cell radius
index, axis-aligned box fitting with car-size gating, and a constant-velocity
Kalman tracker associated frame to frame with the Hungarian algorithm.
Scores come out as CLEAR-MOT style MOTA.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
