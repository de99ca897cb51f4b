import re

import numpy as np
import pytest

from m3cs.autodiff import Tensor
from m3cs.data import (
    FAMILIES,
    _sample_cube,
    _subsample,
    augment,
    gen_shapes,
    load_dataset,
    load_xyz,
    save_dataset,
    save_xyz,
)
from m3cs.geometry import PointCloud, chamfer
from m3cs.rng import make_rng


# ------------------------------------------------------------------ sampling


def test_sphere_points_on_surface():
    ds = gen_shapes(["sphere"], 3, 200, make_rng(0), rotate=False)
    for cloud, _ in ds.items:
        norms = np.linalg.norm(cloud.points, axis=1)
        # all samples share the one radius drawn for that cloud
        assert norms.std() < 1e-9
        assert 0.6 <= norms[0] <= 1.0


def test_cube_points_on_faces():
    ds = gen_shapes(["cube"], 2, 200, make_rng(1), rotate=False)
    for cloud, _ in ds.items:
        half = np.abs(cloud.points).max()
        on_face = np.isclose(np.abs(cloud.points), half, atol=1e-9).any(axis=1)
        assert on_face.all()
        assert 0.5 <= half <= 0.9


def _sample_cube_loop(n, rng):
    # the per-point form of the cube sampler, kept as an oracle
    half = rng.uniform(0.5, 0.9)
    face = rng.integers(6, size=n)
    uv = rng.uniform(-half, half, size=(n, 2))
    pts = np.empty((n, 3))
    axis = face // 2
    sign = np.where(face % 2 == 0, half, -half)
    for i in range(n):
        keep = [j for j in range(3) if j != axis[i]]
        pts[i, axis[i]] = sign[i]
        pts[i, keep] = uv[i]
    return pts


@pytest.mark.parametrize("n", [1, 7, 200, 1024])
def test_cube_sampler_matches_per_point_oracle(n):
    for seed in range(5):
        rng, oracle_rng = make_rng(seed, n), make_rng(seed, n)
        np.testing.assert_array_equal(_sample_cube(n, rng), _sample_cube_loop(n, oracle_rng))
        # both consume the same draws
        assert rng.integers(1 << 30) == oracle_rng.integers(1 << 30)


def test_cylinder_points_on_surface():
    ds = gen_shapes(["cylinder"], 2, 300, make_rng(2), rotate=False)
    for cloud, _ in ds.items:
        rad = np.linalg.norm(cloud.points[:, :2], axis=1)
        z = cloud.points[:, 2]
        h2, r = z.max(), rad.max()
        on_side = np.isclose(rad, r, atol=1e-9)
        on_cap = np.isclose(np.abs(z), h2, atol=1e-9)
        assert (on_side | on_cap).all()


def test_torus_points_on_surface():
    ds = gen_shapes(["torus"], 2, 300, make_rng(3), rotate=False)
    for cloud, _ in ds.items:
        rho = np.linalg.norm(cloud.points[:, :2], axis=1)
        z = cloud.points[:, 2]
        # distance from the tube's center circle is the (constant) small radius
        big = (rho.max() + rho.min()) / 2
        tube = np.sqrt((rho - big) ** 2 + z ** 2)
        # the big radius is estimated from sample extremes, so allow slack
        assert tube.std() / tube.mean() < 1e-3


def test_counts_labels_and_names():
    ds = gen_shapes(FAMILIES, 5, 32, make_rng(4), split="test")
    assert len(ds) == 20
    assert ds.split == "test"
    assert ds.class_names == list(FAMILIES)
    for lbl in range(4):
        assert sum(1 for _, l in ds.items if l == lbl) == 5
    buckets = ds.by_class()
    assert all(len(v) == 5 for v in buckets.values())


def test_families_are_distinguishable():
    # intra-class chamfer should beat inter-class on average
    ds = gen_shapes(["sphere", "cube"], 6, 128, make_rng(5), rotate=False)
    spheres = [c.points for c, l in ds.items if l == 0]
    cubes = [c.points for c, l in ds.items if l == 1]

    def dist(a, b):
        return chamfer(Tensor(a), Tensor(b)).item()

    intra = np.mean([dist(spheres[i], spheres[j]) for i in range(6) for j in range(i + 1, 6)])
    inter = np.mean([dist(s, c) for s in spheres[:4] for c in cubes[:4]])
    assert inter > intra


def test_unknown_family():
    with pytest.raises(ValueError, match="unknown shape family"):
        gen_shapes(["pyramid"], 1, 16, make_rng(6))


def test_generation_is_deterministic():
    a = gen_shapes(FAMILIES, 2, 64, make_rng(7))
    b = gen_shapes(FAMILIES, 2, 64, make_rng(7))
    for (ca, la), (cb, lb) in zip(a.items, b.items):
        np.testing.assert_array_equal(ca.points, cb.points)
        assert la == lb


def test_rotation_preserves_distances():
    plain = gen_shapes(["sphere"], 1, 100, make_rng(8), rotate=False)
    rot = gen_shapes(["sphere"], 1, 100, make_rng(8), rotate=True)
    # same rng stream up to the rotation draw: radii match
    n0 = np.linalg.norm(plain.items[0][0].points, axis=1)
    n1 = np.linalg.norm(rot.items[0][0].points, axis=1)
    np.testing.assert_allclose(n0, n1, atol=1e-9)


# ------------------------------------------------------------------- augment


def test_subsample_draws_with_replacement_only_when_short():
    pts = np.arange(30.0).reshape(10, 3)
    # as many rows as the cloud has: a permutation of them
    assert sorted(map(tuple, _subsample(pts, 10, make_rng(3)))) == sorted(map(tuple, pts))
    assert _subsample(pts, 25, make_rng(3)).shape == (25, 3)


def test_augment_output_size():
    cloud = PointCloud(points=make_rng(11).normal(size=(100, 3)))
    assert augment(cloud, make_rng(12), out_points=64).n == 64
    # upsampling with replacement when the cloud is small
    small = PointCloud(points=make_rng(13).normal(size=(10, 3)))
    assert augment(small, make_rng(14), out_points=64).n == 64


def test_augment_scale_and_shift_bounds():
    # Monte-Carlo: recovered per-axis scale must stay inside [0.8, 1.2] and
    # the translation inside [-0.1, 0.1]
    base = make_rng(15).normal(size=(200, 3))
    cloud = PointCloud(points=base)
    rng = make_rng(16)
    for _ in range(50):
        out = augment(cloud, rng, out_points=200)
        # solve out = base*s + t per axis using two extreme points
        for ax in range(3):
            x = base[:, ax]
            # the subsample is a permutation of all 200 points here, so match by rank
            y = np.sort(out.points[:, ax])
            xs = np.sort(x)
            s = (y[-1] - y[0]) / (xs[-1] - xs[0])
            t = y[0] - xs[0] * s
            assert 0.8 - 1e-9 <= s <= 1.2 + 1e-9
            assert -0.1 - 1e-9 <= t <= 0.1 + 1e-9


# ----------------------------------------------------------------------- I/O


def test_xyz_roundtrip(tmp_path):
    cloud = PointCloud(points=make_rng(19).normal(size=(25, 3)))
    path = tmp_path / "a.xyz"
    save_xyz(path, cloud)
    loaded = load_xyz(path)
    np.testing.assert_array_equal(loaded.points, cloud.points)


def test_xyz_parses_plain_floats(tmp_path):
    path = tmp_path / "b.xyz"
    path.write_text("0.5 1.0 -2.25\n")
    cloud = load_xyz(path)
    np.testing.assert_array_equal(cloud.points, [[0.5, 1.0, -2.25]])


def test_xyz_skips_blank_lines(tmp_path):
    path = tmp_path / "c.xyz"
    path.write_text("1 2 3\n\n4 5 6\n")
    assert load_xyz(path).n == 2


def test_xyz_wrong_column_count(tmp_path):
    path = tmp_path / "d.xyz"
    path.write_text("1 2 3\n1 2\n")
    with pytest.raises(ValueError, match=r":2:"):
        load_xyz(path)


def test_xyz_malformed_number(tmp_path):
    path = tmp_path / "e.xyz"
    path.write_text("1 2 3\n4 five 6\n")
    with pytest.raises(ValueError, match=r":2:.*malformed"):
        load_xyz(path)


@pytest.mark.parametrize("word", ["nan", "inf", "-inf"])
def test_xyz_non_finite_number(tmp_path, word):
    path = tmp_path / "g.xyz"
    path.write_text(f"1 2 3\n4 {word} 6\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:2: non-finite coordinate in '4 {word} 6'")):
        load_xyz(path)


def test_xyz_empty_file(tmp_path):
    path = tmp_path / "f.xyz"
    path.write_text("")
    with pytest.raises(ValueError, match="no points"):
        load_xyz(path)


def test_dataset_roundtrip(tmp_path):
    ds = gen_shapes(["sphere", "cube"], 3, 16, make_rng(20), split="train")
    save_dataset(tmp_path / "out", ds)
    loaded = load_dataset(tmp_path / "out")
    assert len(loaded) == 6
    assert loaded.class_names == ["sphere", "cube"]
    for (ca, la), (cb, lb) in zip(ds.items, loaded.items):
        assert la == lb
        np.testing.assert_array_equal(ca.points, cb.points)


def test_dataset_missing_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path)


def test_dataset_bad_manifest_header(tmp_path):
    (tmp_path / "manifest.csv").write_text("file,cls\n")
    with pytest.raises(ValueError, match="header"):
        load_dataset(tmp_path)


def test_dataset_without_classes_file(tmp_path):
    ds = gen_shapes(["sphere", "cube"], 1, 8, make_rng(21))
    save_dataset(tmp_path, ds)
    (tmp_path / "classes.txt").unlink()
    loaded = load_dataset(tmp_path)
    assert loaded.class_names == ["0", "1"]


@pytest.mark.parametrize("rows, classes, error", [
    (["a.xyz,-1"], True, "2: label '-1' is not an integer in [0, 2)"),
    (["a.xyz,0", "a.xyz,2"], True, "3: label '2' is not an integer in [0, 2)"),
    (["a.xyz,x"], True, "2: label 'x' is not an integer in [0, 2)"),
    (["a.xyz"], True, "2: label '' is not an integer in [0, 2)"),
    (["a.xyz,0", "a.xyz,1,7"], True, "3: expected 2 fields (path,label), got 3"),
    (["a.xyz,1", "a.xyz,1.5"], False, "3: label '1.5' is not an integer in [0, inf)"),
    (["a.xyz,-1"], False, "2: label '-1' is not an integer in [0, inf)"),
    ([], False, None),
], ids=["negative", "past-classes", "word", "missing", "extra-field", "float",
        "negative-no-classes", "empty-no-classes"])
def test_dataset_manifest_labels(tmp_path, rows, classes, error):
    save_xyz(tmp_path / "a.xyz", PointCloud(points=np.zeros((1, 3))))
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(["path,label", *rows]) + "\n")
    if classes:
        (tmp_path / "classes.txt").write_text("sphere\ncube\n")
    if error is None:  # loads empty, for the caller to refuse by split name
        loaded = load_dataset(tmp_path)
        assert loaded.items == [] and loaded.class_names == []
        return
    with pytest.raises(ValueError, match=f"^{re.escape(f'{manifest}:{error}')}$"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("name", ["manifest.csv", "classes.txt", "train_00000.xyz"])
def test_dataset_file_not_utf8_names_the_file(tmp_path, name):
    save_dataset(tmp_path, gen_shapes(["sphere", "cube"], 1, 8, make_rng(21)))
    path = tmp_path / name
    path.write_bytes(path.read_bytes() + b"\xff\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: ')}'utf-8' codec can't "
                                         "decode byte 0xff in position [0-9]+: invalid start"):
        load_dataset(tmp_path)
