"""Core 3D geometry: point clouds, rigid transforms, resolution
estimation, and local reference frames.

All types are immutable after construction and all operations are pure
functions, so shared instances are safe to use from multiple threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree


class DegenerateSampleError(ValueError):
    """The point sample does not constrain a unique rigid transform."""


class InsufficientSupportError(ValueError):
    """Too few points inside a local-frame support region."""


class AmbiguousFrameError(ValueError):
    """Support covariance eigenvalues too close to define stable axes."""


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) point array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("point coordinates must be finite")
    return pts


def _as_vec3(v) -> np.ndarray:
    vec = np.asarray(v, dtype=np.float64).reshape(3)
    if not np.isfinite(vec).all():
        raise ValueError("vector components must be finite")
    return vec


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Ordered set of 3D points.

    ``resolution`` lazily caches the mean nearest-neighbor distance, the
    length unit ("pr") used by every distance threshold in this package.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = _as_points(self.points).copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def resolution(self) -> float:
        return compute_resolution(self)

    def centroid(self) -> np.ndarray:
        return self.points.mean(axis=0)


def compute_resolution(cloud) -> float:
    """Mean distance from each point to its nearest other point; a duplicate
    point counts at distance 0."""
    pts = cloud.points if isinstance(cloud, PointCloud) else _as_points(cloud)
    if len(pts) < 2:
        raise ValueError("insufficient points for resolution")
    dists, _ = cKDTree(pts).query(pts, k=2)
    return float(dists[:, 1].mean())


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """Proper rigid motion ``p_out = rotation @ p + translation``."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3).copy()
        tra = np.asarray(self.translation, dtype=np.float64).reshape(3).copy()
        _check_rigid_stack(rot[None], tra[None])
        rot.setflags(write=False)
        tra.setflags(write=False)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tra)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, points) -> np.ndarray:
        """Transform one (3,) point or an (n, 3) array of points."""
        return np.asarray(points, dtype=np.float64) @ self.rotation.T + self.translation


_RIGID_FAULTS = ("vector components must be finite", "rotation entries must be finite",
                 "rotation matrix is not orthonormal", "rotation matrix must have determinant +1")
_FRAME_FAULTS = ("frame axes must be finite", "frame rows are not orthonormal", "frame must be right-handed")


def _determinants(planes: np.ndarray) -> np.ndarray:
    """The (k,) determinants of a 3 x 3 stack given as (3, 3, k) planes,
    ``planes[i, j]`` holding entry (i, j) of every matrix: the cofactor
    expansion along the first row, elementwise over the stack. It differs
    from an LU determinant by a few ulps."""
    (a, b, c), (d, e, f), (g, h, i) = planes
    return a * (e * i - f * h) + b * (f * g - d * i) + c * (d * h - e * g)


def _rotation_faults(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The proper-rotation rule on a (k, 3, 3) stack: (3, k) masks of the rows that fail
    finite entries, M M^T = I and det +1 (1e-9), a non-finite row failing only the first;
    and the (k,) largest |entry| of M M^T - I, 0 on a non-finite row.

    The stack is copied once to contiguous (3, 3, k) planes, one (k,) row
    per entry, a non-finite matrix replaced by the identity, and only
    elementwise arithmetic runs on them: no BLAS, so a matrix gets the same
    verdicts and error bits alone as in any stack. Gram entry (i, j) is
    (m_i0 m_j0 + m_i1 m_j1) + m_i2 m_j2, three products and two additions,
    so within γ_3 Σ_l |m_il m_jl| of the exact one (u = EPS / 2,
    γ_k = k u / (1 - k u)): about 1.5 EPS near a rotation, which the 4 EPS
    the consensus screen adds to this error covers. The determinant is
    :func:`_determinants`, so the verdict differs from an LU determinant's
    only for a |det - 1| within about 1e-15 of 1e-9, and the Gram test from a
    BLAS product's only for an error within an ulp of 1e-9."""
    planes = m.transpose(1, 2, 0).copy()
    finite = np.isfinite(planes.reshape(9, -1)).all(axis=0)
    if not finite.all():
        planes[:, :, ~finite] = np.eye(3)[:, :, None]
    # Entries large enough to overflow here fail the Gram test; a NaN fails the determinant's.
    with np.errstate(over="ignore", invalid="ignore"):
        gram = planes[:, None, 0] * planes[None, :, 0]
        gram += planes[:, None, 1] * planes[None, :, 1]
        gram += planes[:, None, 2] * planes[None, :, 2]
        gram = gram.reshape(9, -1)
        gram[::4] -= 1.0  # the diagonal
        error = np.abs(gram, out=gram).max(axis=0)
        det = _determinants(planes)
    return np.array([~finite, error > 1e-9, ~(np.abs(det - 1.0) <= 1e-9)]), error


def _check_rigid_stack(rotations: np.ndarray, translations: np.ndarray) -> np.ndarray:
    """The :class:`RigidTransform` rule on a (k, 3, 3) / (k, 3) stack: raise
    its ``ValueError`` for the first pair that fails, naming the first check
    it fails: finite translation, then the rotation rule on R^T (Gram R^T R).
    Returns the (k,) largest |entry| of R^T R - I."""
    faults, error = _rotation_faults(rotations.transpose(0, 2, 1))
    faults = np.vstack([~np.isfinite(translations).all(axis=1)[None], faults])
    faulty = faults.any(axis=0)
    if faulty.any():
        raise ValueError(_RIGID_FAULTS[int(np.argmax(faults[:, np.argmax(faulty)]))])
    return error


TRIANGLE_CERTIFY = 2.0 ** -10


def _dot3(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(x0 y0 + x1 y1) + x2 y2 over the leading axis of two stacks."""
    total = x[0] * y[0]
    total += x[1] * y[1]
    total += x[2] * y[2]
    return total


def _cross3(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x × y over the leading axis of two stacks."""
    out = np.empty_like(x)
    for i, j, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(x[j], y[l], out=out[i])
        out[i] -= x[l] * y[j]
    return out


def _plane_turns(length: np.ndarray, along: np.ndarray, across: np.ndarray) -> tuple[np.ndarray, ...]:
    """The 2-D Procrustes fit of the plane triangles 0, u = (length, 0),
    v = (along, across), as (2, k) rows of source and target: (c, s, sign,
    gap), gap the rows whose eigen-gap passes the certificate.

    In complex numbers, turning the plane by c + is scores C c + S s, with
    C + iS = Z / 3 and Z = conj(u) (2U - V) + conj(v) (2V - U) the sum of
    conj(x) y over the centred points x and y. A reflection (sign -1)
    scores the same with conj(Z') / 3, Z' = u (2U - V) + v (2V - U). The best
    scores |Z| / 3 and |Z'| / 3 are sigma_1 ± sigma_2 of H, so the eigen-gap
    is 2 sigma_2 = ||Z| - |Z'|| / 3 and |H|_F^2 = (|Z|^2 + |Z'|^2) / 18.
    """
    (u_s, u_t), (v_s, v_t), (w_s, w_t) = length, along, across
    skew_t = 2.0 * v_t - u_t
    real = u_s * (2.0 * u_t - v_t) + v_s * skew_t
    twist = 2.0 * w_s * w_t
    imag = (2.0 * v_s - u_s) * w_t
    swing = w_s * skew_t
    z_sq = np.square(real + twist) + np.square(imag - swing)
    mirror_sq = np.square(real - twist) + np.square(imag + swing)
    z, mirror_z = np.sqrt(z_sq), np.sqrt(mirror_sq)
    gap = np.abs(z - mirror_z) >= TRIANGLE_CERTIFY * np.sqrt(0.5 * (z_sq + mirror_sq))
    sign = np.where(mirror_sq > z_sq, -1.0, 1.0)
    top = np.maximum(z, mirror_z)
    c = (real + sign * twist) / top
    s = (sign * imag - swing) / top
    return c, s, sign, gap


def _triangle_rotations(source: np.ndarray, target: np.ndarray, rot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotations R maximising tr(R H) for a (k, 3, 3) stack of three-point
    samples, H the cross-covariance of their centred points, written into
    the (k, 3, 3) ``rot``; returns the (k,) masks of the rows it certifies
    and of the source triangles it proves not collinear.

    A triangle p0 p1 p2 with edges e1 = p1 - p0, e2 = p2 - p0 has the frame
    a = e1 / |e1|, n = (e1 × e2) / |e1 × e2|, b = n × a, in which it is the
    plane triangle 0, (|e1|, 0), (e1.e2, |e1 × e2|) / |e1|. So R = F_t R2 F_s^T,
    F holding a, b, n as columns and R2 the best turn of the plane
    (:func:`_plane_turns`, after Arun, Huang & Blostein, PAMI 9:698, 1987),
    with b_t and n_t negated when a reflection of the plane fits better.

    Certificate: the four squared edge lengths lie in (1e-100, 1e100), which
    keeps every product finite and normal; each triangle has
    |e1 × e2| >= TRIANGLE_CERTIFY |e1| |e2|; and the eigen-gap 2 sigma_2 of H
    is at least TRIANGLE_CERTIFY |H|_F. A frame's rounding turns it by about
    eps / sin, sin the sine of the triangle's angle at p0; the 2-D fit's by
    about eps, as |Z| >= 3 |H|_F; the gap keeps the choice of turn or
    reflection out of their reach. On 150 000 certified samples built to be
    hard (targets near a line or a point, half turns, mirror images, 1e6
    offsets), R was within 1.3 eps (1 / sin_s + 1 / sin_t + |H|_F / sigma_2)
    of the SVD fit of the exactly centred points, entrywise, the last term
    that fit's sensitivity, and at most 3.7e-13 from it. Uncertified rows of
    ``rot`` hold no fit; the caller gives them the SVD rule.

    Proof: a source triangle passes the rule of :func:`_fit_rigid_stack` for
    certain when its squared edges lie in (1e-100, 1e100), A = |e1 × e2|^2 >=
    1.2e-9 M^2 with M = max(|e1|^2, |e2|^2), and M >= 1e-24 |p0|^2. Its centred
    points have s2 = 0, s0^2 s1^2 = A / 3 and s0^2 + s1^2 <= 2 M, so (s1 / s0)^2
    >= A / (12 M^2): s1 / s0 >= 1e-5, four decades above the rule's 1e-9.
    Rounding: the edges and the cancellation in e1 × e2 err by about eps M, and
    |e1 × e2| >= 3.4e-5 M, so the computed A is within about 1e-11 of the exact
    one, relatively. The SVD's input p - mean has a mean within |d| <= 2.4 eps
    (|p0| + sqrt M) <= 1.3e-3 s0 of the exact one. Where the subtraction is
    exact, the input is c_i - d, with Gram C^T C + 3 d d^T (the c_i sum to 0):
    s1 cannot fall and s0^2 grows by at most 3 |d|^2 <= 5e-6 s0^2; otherwise its
    entrywise rounding of eps / 2 moves each singular value by at most eps / 2
    of its Frobenius norm. The SVD's own error is a few eps s0. Without the last
    condition a triangle of 1e-30 at x = 1.9 can fail the rule, d an ulp of 1.9.
    """
    k = len(source)
    # Edges as (coordinate, side, row), side 0 the source and 1 the target.
    e1, e2 = np.empty((3, 2, k)), np.empty((3, 2, k))
    for side, points in enumerate((source, target)):
        np.subtract(points[:, 1], points[:, 0], out=e1[:, side].T)
        np.subtract(points[:, 2], points[:, 0], out=e2[:, side].T)
    # Rows out of range overflow or divide by zero; they are neither certified nor proven.
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        sq1, sq2, along = _dot3(e1, e1), _dot3(e2, e2), _dot3(e1, e2)
        normal = _cross3(e1, e2)
        del e2
        area_sq = _dot3(normal, normal)
        in_range = (np.minimum(sq1, sq2) > 1e-100) & (np.maximum(sq1, sq2) < 1e100)
        top, corner = np.maximum(sq1[0], sq2[0]), source[:, 0].T
        proven = in_range[0] & (area_sq[0] >= 1.2e-9 * top * top) & (top >= 1e-24 * _dot3(corner, corner))
        certified = in_range & (area_sq >= TRIANGLE_CERTIFY * TRIANGLE_CERTIFY * sq1 * sq2)
        length, area = np.sqrt(sq1), np.sqrt(area_sq)
        del sq1, sq2, area_sq, in_range, top
        a = np.divide(e1, length, out=e1)
        normal /= area
        c, s, sign, gap = _plane_turns(length, along / length, area / length)
        certified = certified.all(axis=0) & gap
        del length, along, area, gap
        b = _cross3(normal, a)
        # The source axes turned in the plane, with b and n negated for a
        # reflection; then R, row by row.
        a_s, b_s, n_s = a[:, 0], b[:, 0], normal[:, 0]
        turned_a = c * a_s - s * b_s
        turned_b = (b_s * c + s * a_s) * sign
        n_s *= sign
        for i, row in enumerate(rot.transpose(1, 2, 0)):
            np.multiply(a[i, 1], turned_a, out=row)
            row += b[i, 1] * turned_b
            row += normal[i, 1] * n_s
    return certified, proven


def _kabsch_rotations(src_c: np.ndarray, tgt_c: np.ndarray) -> np.ndarray:
    """Rotations R maximising tr(R H) for a (k, m, 3) stack of centred point
    pairs, H = P^T Q, by the SVD with the determinant correction."""
    u, _, vt = np.linalg.svd(src_c.transpose(0, 2, 1) @ tgt_c)
    v = vt.transpose(0, 2, 1)
    rot = v @ u.transpose(0, 2, 1)
    flip = _determinants(rot.transpose(1, 2, 0)) < 0
    if flip.any():
        v = v[flip]
        v[:, :, -1] *= -1.0
        rot[flip] = v @ u[flip].transpose(0, 2, 1)
    return rot


def _fit_rigid_stack(source: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares rigid fits of a (k, m, 3) stack of point pairs.

    Returns the rotations and translations of the non-degenerate fits, in
    stack order, and the (k,) mask of which fits those are. A fit is
    degenerate when its source points are (near-)collinear: the rotation
    about the line is unconstrained.

    The collinearity rule is on the singular values s0 >= s1 of the centered
    source points: degenerate when s0 <= 0 or s1 < 1e-9 * s0. For three-point
    samples, :func:`_triangle_rotations` proves most triangles pass it from
    their edges; every other sample gets the SVD rule, so the verdicts are
    the rule's.

    Each rotation maximises tr(R H) over the cross-covariance H of the
    centered coordinates: in closed form for the three-point samples
    :func:`_triangle_rotations` certifies, else by the SVD with the
    determinant correction (:func:`_kabsch_rotations`). Both are proper.
    """
    rot = np.empty((len(source), 3, 3))
    certified, fitted = np.zeros((2, len(source)), dtype=bool)
    if source.shape[1] == 3:
        # mean(axis=1)'s bits, at a quarter of its cost on a stack: numpy adds
        # a 3-long axis that is not the inner one in order, then divides by 3.
        src_mean, tgt_mean = ((x[:, 0] + x[:, 1] + x[:, 2]) / 3 for x in (source, target))
        certified, fitted = _triangle_rotations(source, target, rot)
    else:
        src_mean, tgt_mean = source.mean(axis=1), target.mean(axis=1)
    rest = ~fitted
    if rest.any():
        # The third singular value is ~0 for any planar sample (e.g. every
        # 3-point sample), which is fine.
        sv = np.linalg.svd(source[rest] - src_mean[rest, None, :], compute_uv=False)
        fitted[rest] = ~((sv[:, 0] <= 0.0) | (sv[:, 1] < 1e-9 * sv[:, 0]))
        rot, source, target, src_mean, tgt_mean, certified = (
            x[fitted] for x in (rot, source, target, src_mean, tgt_mean, certified))

    rest = ~certified
    if rest.any():
        rot[rest] = _kabsch_rotations(source[rest] - src_mean[rest, None, :],
                                      target[rest] - tgt_mean[rest, None, :])
    return rot, tgt_mean - (rot @ src_mean[..., None])[..., 0], fitted


def estimate_rigid_transform(source_points, target_points) -> RigidTransform:
    """Least-squares rigid fit mapping source points onto target points.

    :func:`_fit_rigid_stack` on a stack of one. Raises
    :class:`DegenerateSampleError` when the source points are
    (near-)collinear.
    """
    src = _as_points(source_points)
    tgt = _as_points(target_points)
    if src.shape != tgt.shape:
        raise ValueError("source and target point counts differ")
    if len(src) < 3:
        raise ValueError("need at least 3 point pairs")
    rot, tra, fitted = _fit_rigid_stack(src[None], tgt[None])
    if not fitted[0]:
        raise DegenerateSampleError("degenerate sample")
    return RigidTransform(rot[0], tra[0])


def frame_faults(axes: np.ndarray) -> list[tuple[np.ndarray, str]]:
    """The frame-validity rule on an (n, 3, 3) stack of axes, as (bad-row
    mask, reason) per check in order: finite, orthonormal rows, det +1 (1e-9)."""
    return list(zip(_rotation_faults(axes)[0], _FRAME_FAULTS))


@dataclass(frozen=True, eq=False)
class LocalReferenceFrame:
    """Orthonormal right-handed frame; rows are the x/y/z unit axes."""

    axes: np.ndarray

    def __post_init__(self):
        axes = np.asarray(self.axes, dtype=np.float64).reshape(3, 3).copy()
        for bad, reason in frame_faults(axes[None]):
            if bad[0]:
                raise ValueError(reason)
        axes.setflags(write=False)
        object.__setattr__(self, "axes", axes)

    def rotated(self, rotation: np.ndarray) -> "LocalReferenceFrame":
        """Frame after rotating the underlying geometry by ``rotation``."""
        return LocalReferenceFrame(self.axes @ np.asarray(rotation, dtype=np.float64).T)


# Verdicts of estimate_lrf_stack, one per centre.
LRF_OK, LRF_INSUFFICIENT, LRF_AMBIGUOUS, LRF_FAULT = range(4)

# Budget for the temporaries of one block of frame centres, and what each
# gathered (centre, support point) pair takes of it.
LRF_BLOCK_BYTES = 2**22
_LRF_PAIR_BYTES = 96


def estimate_lrf(cloud: PointCloud, center, support_radius: float) -> LocalReferenceFrame:
    """Repeatable local reference frame from a weighted support covariance.

    Support points within ``support_radius`` of ``center`` are weighted by
    ``support_radius - distance`` and their covariance about the center is
    eigen-decomposed. The x axis takes the largest-eigenvalue direction and
    the z axis the smallest (the local normal); both signs are chosen so
    that the majority of support offsets have a non-negative projection,
    and y = z x x completes a right-handed frame.

    :func:`estimate_lrf_stack` on a stack of one.
    """
    axes, verdict = estimate_lrf_stack(cloud, _as_vec3(center)[None], support_radius)
    if verdict[0] == LRF_INSUFFICIENT:
        raise InsufficientSupportError("insufficient support")
    if verdict[0] == LRF_AMBIGUOUS:
        raise AmbiguousFrameError("ambiguous frame")
    return LocalReferenceFrame(axes[0])  # raises the frame rule's ValueError for LRF_FAULT


def estimate_lrf_stack(cloud: PointCloud, centers, support_radius: float) -> tuple[np.ndarray, np.ndarray]:
    """The :func:`estimate_lrf` rule on a (k, 3) stack of centres.

    Returns the (k, 3, 3) axes and a (k,) verdict: ``LRF_OK``,
    ``LRF_INSUFFICIENT`` (fewer than 5 support points), ``LRF_AMBIGUOUS``
    or ``LRF_FAULT`` (the axes fail the :class:`LocalReferenceFrame` rule).
    Axes of insufficient and ambiguous rows are NaN. Every row has the bits
    the one-centre rule gives it: support is gathered from a k-d tree at a
    slightly larger radius and cut by the same ``distance <= radius`` test
    on the same distances, and rows are stacked only with rows of the same
    support size, so every sum runs over the same terms in the same order.
    The k-d tree's candidate count of each centre orders the centres, so
    that each support size falls into about one group, and cuts them into
    blocks whose gathered pairs fit ``LRF_BLOCK_BYTES``; the rows return to
    the caller's order at the end.
    """
    ctr = _as_points(centers)
    if not (0 < support_radius < np.inf):
        raise ValueError("support_radius must be positive and finite")
    tree = cKDTree(cloud.points)
    # The margin keeps every point the exact test admits inside the tree's search.
    reach = support_radius * (1.0 + 1e-9)
    pairs = tree.query_ball_point(ctr, reach, return_length=True)
    order = np.argsort(pairs, kind="stable")
    ctr, pairs = ctr[order], pairs[order]
    axes = np.full((len(ctr), 3, 3), np.nan)
    verdict = np.full(len(ctr), LRF_INSUFFICIENT, dtype=np.int8)
    block = (np.cumsum(pairs) - pairs) // (LRF_BLOCK_BYTES // _LRF_PAIR_BYTES)
    cuts = [0, *(np.flatnonzero(np.diff(block)) + 1), len(ctr)]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        _lrf_block(cloud.points, tree, ctr[lo:hi], support_radius, reach, axes[lo:hi], verdict[lo:hi])
    ok = verdict == LRF_OK
    axes[ok, 1] = np.cross(axes[ok, 2], axes[ok, 0])
    verdict[np.flatnonzero(ok)[_rotation_faults(axes[ok])[0].any(axis=0)]] = LRF_FAULT
    back = np.empty_like(order)
    back[order] = np.arange(len(order))
    return axes[back], verdict[back]


def _lrf_block(points, tree, ctr, radius, reach, axes, verdict) -> None:
    """Fill the x and z axes and the verdicts of one block of centres."""
    n = max(len(points), 1)
    near = cKDTree(ctr).sparse_distance_matrix(tree, reach, output_type="ndarray")
    owner, idx = np.divmod(np.sort(near["i"] * n + near["j"]), n)
    del near
    # np.take: a row gather, several times faster here than fancy indexing.
    offsets = np.take(points, idx, axis=0)
    offsets -= np.take(ctr, owner, axis=0)
    # (x² + y²) + z², the order in which np.linalg.norm(offsets, axis=1) sums.
    sq = offsets * offsets
    d = sq[:, 0] + sq[:, 1]
    d += sq[:, 2]
    np.sqrt(d, out=d)
    del sq, idx
    inside = np.flatnonzero(d <= radius)

    # Rows of one support size made adjacent, each row's points still in
    # index order: every group is then a (rows, size) view of the pairs.
    # One gather makes both the radius cut and that order.
    size = np.bincount(owner[inside], minlength=len(ctr))
    del owner
    by_size = np.argsort(size, kind="stable")
    lens = size[by_size]
    ends = np.cumsum(lens)
    take = np.repeat(np.cumsum(size)[by_size] - ends, lens)
    take += np.arange(len(take))
    take = inside[take]
    del inside
    offsets, d = np.take(offsets, take, axis=0), d[take]
    del take
    sizes, heads, counts = np.unique(lens, return_index=True, return_counts=True)
    groups = [(by_size[h:h + c], ends[h] - lens[h], s)
              for s, h, c in zip(sizes, heads, counts) if s >= 5]

    cov = np.empty((len(ctr), 3, 3))
    total = np.zeros(len(ctr))
    for rows, at, s in groups:
        weights = radius - d[at:at + len(rows) * s].reshape(-1, s)
        off = offsets[at:at + len(rows) * s].reshape(-1, s, 3)
        total[rows] = weights.sum(axis=1)
        cov[rows] = np.einsum("gn,gni,gnj->gij", weights, off, off)
    fitted = (size >= 5) & (total > 0.0)
    verdict[size >= 5] = LRF_AMBIGUOUS
    evals, evecs = np.linalg.eigh(cov[fitted] / total[fitted, None, None])
    evals = np.clip(evals, 0.0, None)
    decisive = np.zeros(len(ctr), dtype=bool)
    decisive[fitted] = ~((_ratio(evals[:, 0], evals[:, 1]) > 0.99) | (_ratio(evals[:, 1], evals[:, 2]) > 0.99))
    # Rows that are not decisive vote too, unfitted ones on zero axes; their
    # axes are reset below.
    eigvecs = np.zeros((len(ctr), 3, 3))
    eigvecs[fitted] = evecs
    verdict[decisive] = LRF_OK

    for rows, at, s in groups:
        off = offsets[at:at + len(rows) * s].reshape(-1, s, 3)
        # matmul, as the one-centre rule's offsets @ axis: einsum rounds differently.
        for row, col in ((0, 2), (2, 0)):
            axis = eigvecs[rows, :, col:col + 1]
            # Flip when fewer projections are >= 0 than < 0; none is NaN.
            flip = 2 * np.count_nonzero(np.matmul(off, axis) < 0, axis=(1, 2)) > s
            axes[rows, row] = np.where(flip[:, None], -axis[:, :, 0], axis[:, :, 0])
    axes[~decisive] = np.nan


def _ratio(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a / b where b > 0, else 1."""
    return np.divide(a, b, out=np.ones_like(a), where=b > 0.0)
