import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import m3cs.autodiff as ad
from m3cs.autodiff import ShapeError, Tensor, backward, gradcheck, precision
from m3cs.geometry import PatchSet, PointCloud, _sqdists, chamfer, chamfer_batch, fps, group, knn
from m3cs.rng import make_rng


def cloud_of(pts):
    return PointCloud(points=np.asarray(pts, dtype=float))


def brute_chamfer(p, q):
    # independent O(M*M') double loop
    fwd = np.mean([min(((pi - qj) ** 2).sum() for qj in q) for pi in p])
    bwd = np.mean([min(((pi - qj) ** 2).sum() for pi in p) for qj in q])
    return fwd + bwd


# ------------------------------------------------------------------- clouds


def test_cloud_invariants():
    with pytest.raises(ShapeError):
        PointCloud(points=np.zeros((0, 3)))
    with pytest.raises(FloatingPointError):
        PointCloud(points=np.array([[0.0, 0.0, np.nan]]))


# ---------------------------------------------------------------------- fps


def test_fps_single_point():
    assert list(fps(cloud_of([[0, 0, 0]]), 1, start=0)) == [0]


def test_fps_line_picks_farthest():
    c = cloud_of([[0, 0, 0], [0.1, 0, 0], [0.5, 0, 0], [1, 0, 0]])
    idx = fps(c, 2, start=0)
    # brute-force max-min: the second pick must maximize distance to point 0
    d0 = ((c.points - c.points[0]) ** 2).sum(-1)
    assert list(idx) == [0, int(np.argmax(d0))] == [0, 3]


def test_fps_full_selection_is_permutation():
    pts = make_rng(3).normal(size=(17, 3))
    idx = fps(PointCloud(points=pts), 17, start=5)
    assert sorted(idx) == list(range(17))


def test_fps_g2_contains_farthest_from_start():
    for seed in range(5):
        pts = make_rng(seed).normal(size=(30, 3))
        c = PointCloud(points=pts)
        idx = fps(c, 2, start=0)
        d = ((pts - pts[0]) ** 2).sum(-1)
        assert idx[1] == int(np.argmax(d))


def test_fps_errors():
    c = cloud_of([[0, 0, 0], [1, 1, 1]])
    with pytest.raises(ValueError):
        fps(c, 3, start=0)
    with pytest.raises(ValueError):
        fps(c, 1, start=9)


# ---------------------------------------------------------------------- knn


def test_knn_self_is_nearest():
    pts = make_rng(4).normal(size=(12, 3))
    c = PointCloud(points=pts)
    idx = knn(pts[7], c, 1)
    assert idx[0, 0] == 7


def test_knn_line_case():
    c = cloud_of([[0, 0, 0], [1, 0, 0], [3, 0, 0], [7, 0, 0]])
    idx = knn(np.array([1.0, 0, 0]), c, 2)
    # brute-force distance sort: 1 (d=0) then 0 (d=1)
    assert list(idx[0]) == [1, 0]


def test_knn_tie_breaks_to_lower_index():
    c = cloud_of([[-1, 0, 0], [1, 0, 0]])
    idx = knn(np.zeros(3), c, 1)
    assert idx[0, 0] == 0


def test_knn_sorted_and_matches_bruteforce():
    pts = make_rng(5).normal(size=(40, 3))
    c = PointCloud(points=pts)
    q = make_rng(6).normal(size=(7, 3))
    idx = knn(q, c, 9)
    for row, query in zip(idx, q):
        d = ((pts - query) ** 2).sum(-1)
        assert list(row) == sorted(range(40), key=lambda i: (d[i], i))[:9]
        assert np.all(np.diff(d[row]) >= 0)


def test_knn_k_too_large():
    with pytest.raises(ValueError):
        knn(np.zeros(3), cloud_of([[0, 0, 0]]), 2)


# -------------------------------------------------------------------- group


def test_group_paper_shapes():
    pts = make_rng(7).normal(size=(1024, 3))
    ps = group(PointCloud(points=pts), 64, 32, start=0)
    assert ps.centers.shape == (64, 3)
    assert ps.groups.shape == (64, 32, 3)
    assert ps.source_indices.shape == (64, 32)


def test_group_center_relative_zero():
    pts = make_rng(8).normal(size=(100, 3))
    ps = group(PointCloud(points=pts), 10, 8, start=0)
    np.testing.assert_allclose(ps.groups[:, 0, :], 0.0, atol=1e-12)


def test_group_roundtrip():
    pts = make_rng(9).normal(size=(100, 3))
    ps = group(PointCloud(points=pts), 10, 8, start=0)
    recon = ps.groups + ps.centers[:, None, :]
    np.testing.assert_allclose(recon, pts[ps.source_indices], atol=1e-12)


def test_group_first_index_is_center():
    pts = make_rng(10).normal(size=(64, 3))
    c = PointCloud(points=pts)
    ps = group(c, 6, 5, start=2)
    centers_idx = fps(c, 6, start=2)
    assert np.array_equal(ps.source_indices[:, 0], centers_idx)
    assert np.all(ps.source_indices >= 0) and np.all(ps.source_indices < 64)


def test_group_keeps_center_first_under_duplicates():
    pts = np.zeros((6, 3))
    pts[3:] = [[1, 0, 0], [2, 0, 0], [3, 0, 0]]
    ps = group(PointCloud(points=pts), 2, 3, start=2)  # duplicate origin points
    assert ps.source_indices[0, 0] == 2


# ------------------------------------------------------------------ chamfer


def test_chamfer_self_zero():
    p = make_rng(11).normal(size=(9, 3))
    assert chamfer(Tensor(p), Tensor(p)).item() == pytest.approx(0.0, abs=1e-12)


def test_chamfer_hand_case():
    loss = chamfer(Tensor([[0.0, 0, 0]]), Tensor([[1.0, 0, 0]]))
    assert loss.item() == pytest.approx(2.0)


@given(st.integers(min_value=0, max_value=5000))
@settings(max_examples=30, deadline=None)
def test_chamfer_matches_bruteforce(seed):
    rng = make_rng(seed)
    p = rng.normal(size=(rng.integers(1, 8), 3))
    q = rng.normal(size=(rng.integers(1, 8), 3))
    got = chamfer(Tensor(p), Tensor(q)).item()
    assert got == pytest.approx(brute_chamfer(p, q), abs=1e-5)


def test_chamfer_symmetric_and_order_invariant():
    rng = make_rng(12)
    p, q = rng.normal(size=(6, 3)), rng.normal(size=(9, 3))
    ab = chamfer(Tensor(p), Tensor(q)).item()
    ba = chamfer(Tensor(q), Tensor(p)).item()
    assert ab == pytest.approx(ba, rel=1e-6)
    perm = rng.permutation(6)
    assert chamfer(Tensor(p[perm]), Tensor(q)).item() == pytest.approx(ab, rel=1e-6)


def test_chamfer_empty_fails():
    with pytest.raises(ShapeError):
        chamfer(Tensor(np.zeros((0, 3))), Tensor(np.zeros((2, 3))))


def test_chamfer_gradient_finite_difference():
    with precision("float64"):
        p = Tensor(make_rng(13).normal(size=(5, 3)), requires_grad=True)
        q = Tensor(make_rng(14).normal(size=(7, 3)), requires_grad=True)
        gradcheck(lambda: chamfer(p, q), [p, q], rtol=1e-4)


def test_chamfer_batch_matches_pairwise():
    rng = make_rng(15)
    p = rng.normal(size=(4, 6, 3))
    q = rng.normal(size=(4, 5, 3))
    batched = chamfer_batch(Tensor(p), Tensor(q)).item()
    single = np.mean([chamfer(Tensor(p[i]), Tensor(q[i])).item() for i in range(4)])
    assert batched == pytest.approx(single, rel=1e-5)


def test_chamfer_batch_gradient():
    with precision("float64"):
        p = Tensor(make_rng(16).normal(size=(3, 4, 3)), requires_grad=True)
        q = Tensor(make_rng(17).normal(size=(3, 5, 3)), requires_grad=True)
        gradcheck(lambda: chamfer_batch(p, q), [p, q], rtol=1e-4)


# ---------------------------------------------- oracle: the per-point loops
#
# The bodies below are the straightforward loops fps/knn/group started from.
# The vectorised versions must return the same arrays bit for bit, ties
# (duplicate points, equidistant neighbours) included.


def ref_fps(cloud, g, start=0):
    pts = cloud.points
    chosen = [start]
    dmin = ((pts - pts[start]) ** 2).sum(-1)
    for _ in range(g - 1):
        nxt = int(np.argmax(dmin))
        chosen.append(nxt)
        dmin = np.minimum(dmin, ((pts - pts[nxt]) ** 2).sum(-1))
    return np.asarray(chosen, dtype=np.int64)


def ref_knn(query, cloud, k):
    query = np.atleast_2d(np.asarray(query, dtype=np.float64))
    d = ((query[:, None, :] - cloud.points[None, :, :]) ** 2).sum(-1)
    order = np.argsort(d, axis=1, kind="stable")
    return order[:, :k].astype(np.int64)


def ref_group(cloud, g, s, start=0):
    center_idx = ref_fps(cloud, g, start)
    centers = cloud.points[center_idx]
    idx = ref_knn(centers, cloud, s)
    for i, ci in enumerate(center_idx):
        if idx[i, 0] != ci:
            where = np.nonzero(idx[i] == ci)[0]
            j = int(where[0]) if len(where) else 0
            idx[i, j] = idx[i, 0]
            idx[i, 0] = ci
    groups = cloud.points[idx] - centers[:, None, :]
    return PatchSet(centers=centers, groups=groups, source_indices=idx)


def ref_chamfer_batch_grads(p, q, g=1.0):
    k, s, sp = p.shape[0], p.shape[1], q.shape[1]
    d = ((p[:, :, None, :] - q[:, None, :, :]) ** 2).sum(-1)
    jstar, istar = d.argmin(axis=2), d.argmin(axis=1)
    g = float(g) / k
    qj = np.take_along_axis(q, jstar[:, :, None], axis=1)
    pi = np.take_along_axis(p, istar[:, :, None], axis=1)
    gp = (2.0 * g / s) * (p - qj)
    gq = (2.0 * g / sp) * (q - pi)
    for b in range(k):
        np.add.at(gp[b], istar[b], (2.0 * g / sp) * (p[b][istar[b]] - q[b]))
        np.add.at(gq[b], jstar[b], (2.0 * g / s) * (q[b][jstar[b]] - p[b]))
    return gp, gq


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# lattice coordinates, rounded to 0.1, so equal distances are common
COORD = st.integers(-5, 5).map(lambda v: round(v * 0.1, 1))
POINT = st.tuples(COORD, COORD, COORD)


@st.composite
def tie_clouds(draw, max_n=48):
    """Clouds drawn from a few lattice points, most of them repeated."""
    base = draw(st.lists(POINT, min_size=1, max_size=12))
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=max_n))
    return PointCloud(points=np.array([base[i] for i in picks], dtype=np.float64))


@given(tie_clouds(), st.data())
@settings(max_examples=150, deadline=None)
def test_fps_matches_loop_oracle(cloud, data):
    start = data.draw(st.integers(0, cloud.n - 1), label="start")
    for g in range(1, cloud.n + 1):
        assert same_bits(fps(cloud, g, start), ref_fps(cloud, g, start))


@given(tie_clouds(), st.lists(POINT, min_size=1, max_size=6), st.data())
@settings(max_examples=150, deadline=None)
def test_knn_matches_loop_oracle(cloud, off_cloud, data):
    rows = data.draw(st.lists(st.integers(0, cloud.n - 1), min_size=1, max_size=6),
                     label="query rows")
    queries = [cloud.points[rows],                    # queries that are cloud points
               np.array(off_cloud) + 0.05,            # queries between lattice points
               np.array(off_cloud)]                   # lattice queries, maybe in the cloud
    for q in queries:
        for k in range(1, cloud.n + 1):
            assert same_bits(knn(q, cloud, k), ref_knn(q, cloud, k)), (q, k)


@given(tie_clouds(), st.data())
@settings(max_examples=150, deadline=None)
def test_group_matches_loop_oracle(cloud, data):
    g = data.draw(st.integers(1, cloud.n), label="g")
    s = data.draw(st.integers(1, cloud.n), label="s")
    start = data.draw(st.integers(0, cloud.n - 1), label="start")
    got, want = group(cloud, g, s, start), ref_group(cloud, g, s, start)
    assert same_bits(got.source_indices, want.source_indices)
    assert same_bits(got.centers, want.centers)
    assert same_bits(got.groups, want.groups)


@given(st.integers(0, 2**32 - 1), st.sampled_from([64, 300, 512]))
@settings(max_examples=20, deadline=None)
def test_group_matches_loop_oracle_at_desk_sizes(seed, n):
    rng = make_rng(seed)
    pts = rng.normal(size=(n, 3))
    # one cloud as sampled, one snapped to a coarse grid with repeated points
    for cloud in (PointCloud(points=pts),
                  PointCloud(points=np.round(pts[rng.integers(n, size=n)], 1))):
        start = int(rng.integers(n))
        got, want = group(cloud, 32, 16, start), ref_group(cloud, 32, 16, start)
        assert same_bits(got.source_indices, want.source_indices)
        assert same_bits(got.groups, want.groups)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@given(seed=st.integers(0, 2**32 - 1), lead=st.sampled_from([(), (1,), (4,), (2, 3)]),
       m=st.integers(1, 20), n=st.integers(1, 20), scale=st.sampled_from([1e-3, 1.0, 1e3]))
@settings(max_examples=60, deadline=None)
def test_sqdists_matches_summed_squares(dtype, seed, lead, m, n, scale):
    rng = make_rng(seed)
    a = (scale * rng.normal(size=(*lead, m, 3))).astype(dtype)
    b = (scale * rng.normal(size=(*lead, n, 3))).astype(dtype)
    want = ((a[..., :, None, :] - b[..., None, :, :]) ** 2).sum(-1)
    assert same_bits(_sqdists(a, b), want)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8),
       s=st.integers(1, 12), sp=st.integers(1, 12), snap=st.booleans())
@settings(max_examples=60, deadline=None)
def test_chamfer_batch_grads_match_per_pair_scatter(dtype, seed, k, s, sp, snap):
    rng = make_rng(seed)
    p, q = rng.normal(size=(k, s, 3)), rng.normal(size=(k, sp, 3))
    if snap:  # repeated nearest points, so the scatter adds to one row many times
        p, q = np.round(p, 0), np.round(q, 0)
    with precision(dtype):
        pt, qt = Tensor(p, requires_grad=True), Tensor(q, requires_grad=True)
        backward(chamfer_batch(pt, qt))
        gp, gq = ref_chamfer_batch_grads(pt.data, qt.data)
    assert same_bits(pt.grad, gp)
    assert same_bits(qt.grad, gq)
