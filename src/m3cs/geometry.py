"""Point-cloud structures, FPS + k-NN patch construction, and the Chamfer loss.

Clouds are immutable: a `PointCloud` holds a read-only float64 copy of the
points it was built from, and the arrays of a `PatchSet` are read-only. So
whatever is derived from a cloud stays valid while the cloud exists, and
`PointCloud.derive` keeps it that long: each `fn(cloud, *args)` is computed
once per cloud and freed with the cloud. `group` derives through it, so a
cloud that is grouped again with the same settings is not grouped twice.
Nothing bounds or evicts these entries: a cloud made afresh each step, such
as an augmented one, takes its entries with it when it is dropped.
"""

from dataclasses import dataclass, field

import numpy as np

from .autodiff import ShapeError, Tensor, _record, _wants, as_tensor, reshape


@dataclass(frozen=True, eq=False)
class PointCloud:
    points: np.ndarray  # (N, 3)
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        points = np.array(self.points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3 or len(points) < 1:
            raise ShapeError(f"point cloud must be (N>=1, 3), got {list(points.shape)}")
        if not np.all(np.isfinite(points)):
            raise FloatingPointError("point cloud contains non-finite coordinates")
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

    def __reduce__(self):
        # copies and pickles are rebuilt from the points: read-only, nothing derived
        return PointCloud, (self.points,)

    @property
    def n(self):
        return len(self.points)

    def derive(self, fn, *args):
        """fn(self, *args), computed on the first call and kept while this cloud exists."""
        key = (fn, *args)
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = fn(self, *args)
            return value


@dataclass(frozen=True, eq=False)
class PatchSet:
    centers: np.ndarray         # (G, 3)
    groups: np.ndarray          # (G, S, 3) center-relative
    source_indices: np.ndarray  # (G, S), row j starts with the center index

    def __post_init__(self):
        for a in (self.centers, self.groups, self.source_indices):
            a.flags.writeable = False


def _sqdists(a, b):
    """Squared euclidean distances between the rows of a (..., M, 3) and b (..., N, 3).

    Accumulates one coordinate at a time, which rounds exactly like
    ((a[..., :, None, :] - b[..., None, :, :]) ** 2).sum(-1) without building
    the (..., M, N, 3) difference.
    """
    d = a[..., :, None, 0] - b[..., None, :, 0]
    d *= d
    for c in (1, 2):
        t = a[..., :, None, c] - b[..., None, :, c]
        t *= t
        d += t
    return d


def fps(cloud, g, start=0):
    """Farthest point sampling: greedy max-min selection of g indices."""
    pts = cloud.points
    n = len(pts)
    if not 1 <= g <= n:
        raise ValueError(f"fps: need 1 <= G <= N, got G={g}, N={n}")
    if not 0 <= start < n:
        raise ValueError(f"fps: start index {start} out of range for N={n}")
    xyz = np.ascontiguousarray(pts.T)  # (3, N): each pick is one pass over it
    chosen = np.empty(g, dtype=np.int64)
    chosen[0] = nxt = start
    dmin = np.full(n, np.inf)
    for i in range(1, g):
        sq = xyz - xyz[:, nxt:nxt + 1]
        sq *= sq
        # the axis-0 sum adds the three rows in order: it rounds as ((pts - c) ** 2).sum(-1)
        np.minimum(dmin, sq.sum(axis=0), out=dmin)
        chosen[i] = nxt = int(dmin.argmax())
    return chosen


def knn(query, cloud, k):
    """Per query row, the k nearest cloud indices sorted by distance, ties to lower index."""
    query = np.atleast_2d(np.asarray(query, dtype=np.float64))
    n = cloud.n
    if k > n:
        raise ValueError(f"knn: k={k} exceeds cloud size {n}")
    d = _sqdists(query, cloud.points)
    if not 1 <= k < n:
        return np.argsort(d, axis=1, kind="stable")[:, :k].astype(np.int64)
    # the k smallest in index order, then stably by distance
    cand = np.sort(np.argpartition(d, k - 1, axis=1)[:, :k], axis=1)
    dc = np.take_along_axis(d, cand, axis=1)
    idx = np.take_along_axis(cand, np.argsort(dc, axis=1, kind="stable"), axis=1)
    # a row whose k-th distance is shared beyond the k candidates (or is NaN)
    # may have dropped a lower index: redo it with the full stable sort
    redo = np.count_nonzero(d <= dc.max(axis=1)[:, None], axis=1) != k
    if redo.any():
        idx[redo] = np.argsort(d[redo], axis=1, kind="stable")[:, :k]
    return idx.astype(np.int64, copy=False)


def group(cloud, g, s, start=0):
    """FPS centers + (s-1)-NN groups in center-relative coordinates, once per cloud."""
    return cloud.derive(_group, g, s, start)


def _group(cloud, g, s, start):
    if s > cloud.n:
        raise ValueError(f"group: S={s} exceeds cloud size {cloud.n}")
    center_idx = fps(cloud, g, start)
    centers = cloud.points[center_idx]
    idx = knn(centers, cloud, s)
    # a duplicate point can tie at distance 0; keep the center in slot 0
    for i in np.nonzero(idx[:, 0] != center_idx)[0]:
        ci = center_idx[i]
        where = np.nonzero(idx[i] == ci)[0]
        j = int(where[0]) if len(where) else 0
        idx[i, j] = idx[i, 0]
        idx[i, 0] = ci
    groups = cloud.points[idx] - centers[:, None, :]
    return PatchSet(centers=centers, groups=groups, source_indices=idx)


def chamfer(pred, target):
    """Symmetric Chamfer loss between two point sets (M,3) and (M',3).

    Mean over each set of the squared distance to its nearest point in the
    other set; differentiable w.r.t. both sides.
    """
    pred, target = as_tensor(pred), as_tensor(target)
    if pred.ndim != 2 or pred.shape[-1] != 3 or pred.shape[0] < 1:
        raise ShapeError(f"chamfer: pred must be (M>=1, 3), got {list(pred.shape)}")
    if target.ndim != 2 or target.shape[-1] != 3 or target.shape[0] < 1:
        raise ShapeError(f"chamfer: target must be (M'>=1, 3), got {list(target.shape)}")
    return chamfer_batch(reshape(pred, (1, *pred.shape)), reshape(target, (1, *target.shape)))


def chamfer_batch(pred, target):
    """Mean Chamfer loss over K aligned pairs: pred (K,S,3) vs target (K,S',3)."""
    pred, target = as_tensor(pred), as_tensor(target)
    if pred.ndim != 3 or target.ndim != 3 or pred.shape[0] != target.shape[0]:
        raise ShapeError(
            f"chamfer_batch: need (K,S,3) vs (K,S',3), got {list(pred.shape)} vs {list(target.shape)}")
    p, q = pred.data, target.data
    k, s, sp = p.shape[0], p.shape[1], q.shape[1]
    d = _sqdists(p, q)  # (K,S,S')
    jstar = d.argmin(axis=2)
    istar = d.argmin(axis=1)
    ar = np.arange(k)[:, None]
    fwd = d[ar, np.arange(s)[None, :], jstar].mean(axis=1)
    bwd = d[ar, istar, np.arange(sp)[None, :]].mean(axis=1)
    out = Tensor((fwd + bwd).mean())
    want_p, want_q = _wants(pred), _wants(target)

    def vjp(g):
        g = float(g) / k
        qj = np.take_along_axis(q, jstar[:, :, None], axis=1)
        pi = np.take_along_axis(p, istar[:, :, None], axis=1)
        gp = gq = None
        # pairs scatter into disjoint rows, pair by pair in index order, so
        # this adds in the same order as one np.add.at per pair
        if want_p:
            gp = (2.0 * g / s) * (p - qj)
            np.add.at(gp, (ar, istar), (2.0 * g / sp) * (pi - q))
        if want_q:
            gq = (2.0 * g / sp) * (q - pi)
            np.add.at(gq, (ar, jstar), (2.0 * g / s) * (qj - p))
        return gp, gq

    return _record(out, (pred, target), vjp)
