"""Synthetic shape datasets, .xyz file I/O, training augmentations, and the rule that
turns clouds into patches."""

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from . import geometry
from .config import naming_file
from .geometry import PointCloud
from .rng import make_rng

FAMILIES = ("sphere", "cube", "torus", "cylinder")


@dataclass
class Dataset:
    items: list                # [(PointCloud, label), ...]
    class_names: list
    split: str = "train"

    def __len__(self):
        return len(self.items)

    def by_class(self):
        buckets = {i: [] for i in range(len(self.class_names))}
        for idx, (_, label) in enumerate(self.items):
            buckets[label].append(idx)
        return buckets


def _random_rotation(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _sample_sphere(n, rng):
    r = rng.uniform(0.6, 1.0)
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * r


def _sample_cube(n, rng):
    half = rng.uniform(0.5, 0.9)
    face = rng.integers(6, size=n)
    uv = rng.uniform(-half, half, size=(n, 2))
    pts = np.empty((n, 3))
    axis = face // 2
    rows = np.arange(n)
    pts[rows, axis] = np.where(face % 2 == 0, half, -half)
    # the two other axes, ascending, take the in-face coordinates
    pts[rows[:, None], np.array([[1, 2], [0, 2], [0, 1]])[axis]] = uv
    return pts


def _sample_torus(n, rng):
    big = rng.uniform(0.6, 0.9)
    small = rng.uniform(0.15, 0.3)
    out = np.empty((n, 3))
    filled = 0
    while filled < n:
        m = 2 * (n - filled)
        u = rng.uniform(0, 2 * np.pi, m)
        v = rng.uniform(0, 2 * np.pi, m)
        # area element scales with (R + r cos v): rejection keeps sampling uniform
        accept = rng.uniform(0, big + small, m) < (big + small * np.cos(v))
        u, v = u[accept], v[accept]
        take = min(len(u), n - filled)
        u, v = u[:take], v[:take]
        out[filled:filled + take, 0] = (big + small * np.cos(v)) * np.cos(u)
        out[filled:filled + take, 1] = (big + small * np.cos(v)) * np.sin(u)
        out[filled:filled + take, 2] = small * np.sin(v)
        filled += take
    return out


def _sample_cylinder(n, rng):
    r = rng.uniform(0.3, 0.6)
    h = rng.uniform(0.8, 1.6)
    side_area = 2 * np.pi * r * h
    cap_area = np.pi * r * r
    p_side = side_area / (side_area + 2 * cap_area)
    pts = np.empty((n, 3))
    on_side = rng.random(n) < p_side
    k = int(on_side.sum())
    theta = rng.uniform(0, 2 * np.pi, k)
    pts[on_side, 0] = r * np.cos(theta)
    pts[on_side, 1] = r * np.sin(theta)
    pts[on_side, 2] = rng.uniform(-h / 2, h / 2, k)
    m = n - k
    rad = r * np.sqrt(rng.random(m))
    theta = rng.uniform(0, 2 * np.pi, m)
    pts[~on_side, 0] = rad * np.cos(theta)
    pts[~on_side, 1] = rad * np.sin(theta)
    pts[~on_side, 2] = np.where(rng.random(m) < 0.5, h / 2, -h / 2)
    return pts


_SAMPLERS = {
    "sphere": _sample_sphere,
    "cube": _sample_cube,
    "torus": _sample_torus,
    "cylinder": _sample_cylinder,
}


def gen_shapes(families, per_class, points_per_cloud, rng, split="train", rotate=True):
    """Uniform surface samples per family with randomized size and orientation."""
    for fam in families:
        if fam not in _SAMPLERS:
            raise ValueError(f"unknown shape family '{fam}'")
    items = []
    for label, fam in enumerate(families):
        for _ in range(per_class):
            pts = _SAMPLERS[fam](points_per_cloud, rng)
            if rotate:
                pts = pts @ _random_rotation(rng).T
            items.append((PointCloud(points=pts), label))
    return Dataset(items=items, class_names=list(families), split=split)


def _subsample(points, n, rng):
    """n rows of points, drawn with replacement only when there are fewer than n."""
    return points[rng.choice(len(points), size=n, replace=len(points) < n)]


def augment(cloud, rng, out_points):
    """Random anisotropic scale, translation, and subsampling to out_points."""
    pts = cloud.points * rng.uniform(0.8, 1.2, size=3) + rng.uniform(-0.1, 0.1, size=3)
    return PointCloud(points=_subsample(pts, out_points, rng))


def _resample(cloud, n_points, i):
    """The cloud resampled to n_points by the draw keyed to chunk position i."""
    return PointCloud(points=_subsample(cloud.points, n_points, make_rng(7, i)))


def _cloud_batch(clouds, mcfg, rng):
    """The one clouds-to-patches rule: dense (B,G,S,3) groups and (B,G,3) centers.

    Given an rng (training), each cloud is augmented and FPS starts at a random point,
    so its fresh clouds are grouped once and freed. Given None (evaluation), a cloud is
    resampled to mcfg.n_points (keyed by its position) and FPS starts at 0; the resampled
    cloud and its patches are derived once and kept on the source cloud.
    """
    all_groups, all_centers = [], []
    for i, cloud in enumerate(clouds):
        if rng is not None:
            cloud = augment(cloud, rng, out_points=mcfg.n_points)
            start = int(rng.integers(cloud.n))
        else:
            if cloud.n != mcfg.n_points:
                cloud = cloud.derive(_resample, mcfg.n_points, i)
            start = 0
        # looked up on the module, so a wrapper put on geometry.group sees every call
        ps = geometry.group(cloud, mcfg.g, mcfg.s, start=start)
        all_groups.append(ps.groups)
        all_centers.append(ps.centers)
    return np.stack(all_groups), np.stack(all_centers)


def save_xyz(path, cloud):
    # repr of a Python float reads back as the same float64 (a numpy scalar's repr
    # would print np.float64(...), which load_xyz refuses)
    with open(path, "w") as fh:
        for p in cloud.points:
            fh.write(" ".join(repr(float(v)) for v in p) + "\n")


def load_xyz(path):
    pts = []
    with open(path) as fh, naming_file(path):
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 coordinates, got {len(parts)}")
            try:
                point = [float(x) for x in parts]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed coordinate in {line.strip()!r}")
            if not all(map(math.isfinite, point)):  # float() reads nan and inf
                raise ValueError(f"{path}:{lineno}: non-finite coordinate in {line.strip()!r}")
            pts.append(point)
    if not pts:
        raise ValueError(f"{path}: no points (a cloud needs at least one)")
    return PointCloud(points=np.asarray(pts))


def save_dataset(dirpath, dataset):
    """Write .xyz files plus a manifest.csv with header path,label."""
    os.makedirs(dirpath, exist_ok=True)
    with open(os.path.join(dirpath, "manifest.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "label"])
        for i, (cloud, label) in enumerate(dataset.items):
            name = f"{dataset.split}_{i:05d}.xyz"
            save_xyz(os.path.join(dirpath, name), cloud)
            writer.writerow([name, label])
    with open(os.path.join(dirpath, "classes.txt"), "w") as fh:
        fh.write("\n".join(dataset.class_names) + "\n")


def load_dataset(dirpath, split="train"):
    """Load any directory of .xyz files listed in manifest.csv (path,label).

    A label is a class id: an integer in [0, classes in classes.txt), else >= 0.
    """
    manifest = os.path.join(dirpath, "manifest.csv")
    if not os.path.exists(manifest):
        raise FileNotFoundError(f"no manifest.csv in {dirpath}")
    classes_file = os.path.join(dirpath, "classes.txt")
    class_names = None
    if os.path.exists(classes_file):
        with open(classes_file) as fh, naming_file(classes_file):
            class_names = [ln.strip() for ln in fh if ln.strip()]
    n_classes = float("inf") if class_names is None else len(class_names)
    items = []
    with open(manifest, newline="") as fh, naming_file(manifest):
        reader = csv.DictReader(fh)
        if reader.fieldnames != ["path", "label"]:
            raise ValueError(f"{manifest}: expected header path,label")
        for row in reader:
            if None in row:  # DictReader files a long row's extra fields under None
                raise ValueError(f"{manifest}:{reader.line_num}: expected 2 fields (path,label), "
                                 f"got {2 + len(row[None])}")
            label = (row["label"] or "").strip()  # None when the row is short
            if not label.isdecimal() or int(label) >= n_classes:
                raise ValueError(f"{manifest}:{reader.line_num}: label {label!r} is not an "
                                 f"integer in [0, {n_classes})")
            items.append((load_xyz(os.path.join(dirpath, row["path"])), int(label)))
    if class_names is None:
        class_names = [str(i) for i in range(max((l for _, l in items), default=-1) + 1)]
    return Dataset(items=items, class_names=class_names, split=split)
