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
    """Mean distance from each point to its nearest distinct neighbor."""
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

    def inverse(self) -> "RigidTransform":
        return RigidTransform(self.rotation.T, -(self.rotation.T @ self.translation))

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Return the transform equivalent to applying ``other`` then self."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )


_RIGID_FAULTS = ("vector components must be finite", "rotation entries must be finite",
                 "rotation matrix is not orthonormal", "rotation matrix must have determinant +1")
_FRAME_FAULTS = ("frame axes must be finite", "frame rows are not orthonormal", "frame must be right-handed")


def _rotation_faults(m: np.ndarray) -> np.ndarray:
    """The proper-rotation rule on a (k, 3, 3) stack: (3, k) masks of the rows that fail
    finite entries, M M^T = I and det +1 (1e-9); a non-finite row fails only the first."""
    finite = np.isfinite(m).all(axis=(1, 2))
    m = np.where(finite[:, None, None], m, np.eye(3))
    return np.array([
        ~finite,
        np.abs(m @ m.transpose(0, 2, 1) - np.eye(3)).max(axis=(1, 2)) > 1e-9,
        np.abs(np.linalg.det(m) - 1.0) > 1e-9,
    ])


def _check_rigid_stack(rotations: np.ndarray, translations: np.ndarray) -> None:
    """The :class:`RigidTransform` rule on a (k, 3, 3) / (k, 3) stack: raise
    its ``ValueError`` for the first pair that fails, naming the first check
    it fails: finite translation, then the rotation rule on R^T (Gram R^T R)."""
    faults = np.vstack([~np.isfinite(translations).all(axis=1)[None],
                        _rotation_faults(rotations.transpose(0, 2, 1))])
    faulty = faults.any(axis=0)
    if faulty.any():
        raise ValueError(_RIGID_FAULTS[int(np.argmax(faults[:, np.argmax(faulty)]))])


def apply_transform(transform: RigidTransform, cloud: PointCloud) -> PointCloud:
    """Apply a rigid transform to every point of a cloud."""
    return PointCloud(transform.apply(cloud.points))


def _surely_not_collinear(centered: np.ndarray) -> np.ndarray:
    """(k,) mask of the (k, m, 3) centered samples that pass the collinearity
    rule of :func:`_fit_rigid_stack` for certain, read off G = C^T C.

    G has eigenvalues s0^2 >= s1^2 >= s2^2, trace F = s0^2 + s1^2 + s2^2 and
    principal 2 x 2 minors summing to S2 = s0^2 s1^2 + s0^2 s2^2 + s1^2 s2^2,
    so S2 / F^2 <= 3 (s1 / s0)^2. A row passes when S2 > tol * F^2 with
    tol = 1e-10 + 8 (m + 3) eps: the m-term sums in G and the few operations
    after them move S2 by at most about (m + 2) eps F^2 and F^2 by about
    (m + 4) eps F^2, so the exact S2 / F^2 exceeds 1e-10 and s1 / s0 > 5.7e-6,
    far above the 1e-9 of the rule and the SVD's own error of a small multiple
    of eps. The trace range keeps every product in G, F^2 and S2 normal and
    finite; rows outside it, and NaN rows, do not pass.
    """
    m = centered.shape[1]
    tol = 1e-10 + 8 * (m + 3) * np.finfo(np.float64).eps
    # Overflow only makes rows that fail the trace range inf or NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        gram = centered.transpose(0, 2, 1) @ centered
        diag = np.diagonal(gram, axis1=1, axis2=2)
        trace = diag.sum(axis=1)
        off = gram[:, [0, 1, 2], [1, 2, 0]]
        s2 = diag * diag[:, [1, 2, 0]]
        del gram, diag  # in place from here, to keep a stack's fit below RANSAC's memory peak
        s2 -= np.square(off, out=off)
        s2 = s2.sum(axis=1)
        return (trace > 1e-100) & (trace < 1e100) & (s2 > tol * trace * trace)


# Horn's closed form (_horn_rotations). A row is certified when the adjugate
# column it takes its quaternion from has a norm of at least
# HORN_CERTIFY * |H|_F^3.
HORN_CERTIFY = 2.0 ** -10
# A row whose Newton step is at most _HORN_STEP_TOL of its root takes one
# more step and stops; a row still stepping after _HORN_MAX_STEPS steps is
# not certified.
_HORN_STEP_TOL = 1e-10
_HORN_MAX_STEPS = 60


def _horn_matrix(cross: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[list[np.ndarray]]]:
    """Horn's symmetric 4 x 4 matrix N of each (3, 3) cross-covariance H of
    a (k, 3, 3) stack, with |H|_F^2 and det H, as (k,) rows.

    Each H is first scaled by the power of two 2^-e that puts its largest
    |entry| in [1/2, 1), so no sum or product below can overflow. N is
    returned as a 4 x 4 nested list whose symmetric entries are one array.
    """
    k = len(cross)
    h = cross.reshape(k, 9).T
    # NaN rows stay NaN; they are never certified.
    scale = np.frexp(np.abs(h).max(axis=0))[1]
    h = np.ldexp(h, -scale, out=np.empty((9, k)))
    sxx, sxy, sxz, syx, syy, syz, szx, szy, szz = h
    ss = sxx * sxx
    for entry in (sxy, sxz, syx, syy, syz, szx, szy, szz):
        ss += entry * entry
    det = sxx * (syy * szz - syz * szy) - sxy * (syx * szz - syz * szx) + sxz * (syx * szy - syy * szx)
    n01, n02, n03 = syz - szy, szx - sxz, sxy - syx
    n12, n13, n23 = sxy + syx, szx + sxz, syz + szy
    n00 = sxx + syy + szz
    n11 = sxx - syy - szz
    n22 = syy - sxx - szz
    n33 = szz - sxx - syy
    return ss, det, [[n00, n01, n02, n03], [n01, n11, n12, n13], [n02, n12, n22, n23], [n03, n13, n23, n33]]


def _minors(a: list[list[np.ndarray]], r0: int, r1: int) -> dict[tuple[int, int], np.ndarray]:
    """The 2 x 2 minors of rows r0, r1 of a 4 x 4 matrix, keyed by their columns."""
    return {(i, j): a[r0][i] * a[r1][j] - a[r0][j] * a[r1][i] for i in range(4) for j in range(i + 1, 4)}


def _det4(a: list[list[np.ndarray]]) -> np.ndarray:
    """det of a 4 x 4 matrix by the Laplace expansion on rows (0, 1)."""
    top, low = _minors(a, 0, 1), _minors(a, 2, 3)
    return (((((top[0, 1] * low[2, 3] - top[0, 2] * low[1, 3]) + top[0, 3] * low[1, 2])
              + top[1, 2] * low[0, 3]) - top[1, 3] * low[0, 2]) + top[2, 3] * low[0, 1])


def _top_roots(c2: np.ndarray, c1: np.ndarray, c0: np.ndarray, floor: np.ndarray,
               start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the largest root of f(x) = x^4 + c2 x^2 + c1 x + c0 by Newton
    from ``start``, an upper bound of it, and whether the row converged.

    A row steps until a step is at most ``_HORN_STEP_TOL`` times its new
    value, then takes one more step and has converged. It stops without
    converging when f'(x)^2 < ``floor`` before a step, or after
    ``_HORN_MAX_STEPS`` steps. A row's steps depend on its own values only:
    rows that stopped are dropped from the arrays once at most half of them
    still step.
    """
    lam = start.copy()
    converged = np.zeros(len(lam), dtype=bool)
    rows = np.arange(len(lam))
    x, p2, p1, p0, low = lam, c2, c1, c0, floor
    live = np.ones(len(lam), dtype=bool)
    final = np.zeros(len(lam), dtype=bool)
    done = np.zeros(len(lam), dtype=bool)
    # H = 0 gives 0 / 0: a NaN row, which never converges.
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_HORN_MAX_STEPS):
            t = x * x
            slope = (4.0 * t + 2.0 * p2) * x + p1
            step = ((t + p2) * x + p1) * x + p0
            step /= slope
            np.subtract(x, step, out=x, where=live)
            flat = live & (slope * slope < low)
            done |= live & final & ~flat
            live &= ~(flat | final)
            final = live & ~(np.abs(step) > _HORN_STEP_TOL * x)
            count = np.count_nonzero(live)
            if count <= len(x) // 2:
                lam[rows] = x
                converged[rows] = done
                if count == 0:
                    return lam, converged
                rows, x, p2, p1, p0, low = rows[live], x[live], p2[live], p1[live], p0[live], low[live]
                final, done, live = final[live], done[live], np.ones(count, dtype=bool)
    lam[rows] = x
    converged[rows] = done
    return lam, converged


def _quaternion_column(a: list[list[np.ndarray]]) -> tuple[list[np.ndarray], np.ndarray]:
    """The largest-norm column of adj(A) of a symmetric 4 x 4 A, up to its
    sign, and its squared norm; ties go to the first column.

    Columns 0 and 1 are cofactors expanded on row 1 and row 0 against the
    minors of rows (2, 3), columns 2 and 3 on row 3 and row 2 against those
    of rows (0, 1).
    """
    best = best_sq = None
    for pair, cols in (((2, 3), (0, 1)), ((0, 1), (2, 3))):
        minor = _minors(a, *pair)
        for row in cols[::-1]:
            column = []
            for i in range(4):
                c0, c1, c2 = (c for c in range(4) if c != i)
                entry = a[row][c0] * minor[c1, c2] - a[row][c1] * minor[c0, c2]
                entry += a[row][c2] * minor[c0, c1]
                column.append(np.negative(entry, out=entry) if i % 2 else entry)
            sq = column[0] * column[0]
            for entry in column[1:]:
                sq += entry * entry
            if best is None:
                best, best_sq = column, sq
                continue
            better = sq > best_sq
            for kept, entry in zip(best, column):
                np.copyto(kept, entry, where=better)
            np.copyto(best_sq, sq, where=better)
        del minor, column, sq  # freed before the next pair's minors
    return best, best_sq


def _quaternion_rotations(q: list[np.ndarray]) -> np.ndarray:
    """(k, 3, 3) rotations of the (k,) rows of a quaternion (w, x, y, z), not
    necessarily of unit length."""
    w, x, y, z = q
    ww, xx, yy, zz = w * w, x * x, y * y, z * z
    norm = ((ww + xx) + yy) + zz
    # A zero quaternion gives NaN rows; they are never certified.
    with np.errstate(divide="ignore", invalid="ignore"):
        two = 2.0 / norm
        rot = np.empty((len(w), 3, 3))
        rot[:, 0, 0] = ((ww + xx) - (yy + zz)) / norm
        rot[:, 1, 1] = ((ww + yy) - (xx + zz)) / norm
        rot[:, 2, 2] = ((ww + zz) - (xx + yy)) / norm
        rot[:, 0, 1] = (x * y - w * z) * two
        rot[:, 1, 0] = (x * y + w * z) * two
        rot[:, 0, 2] = (x * z + w * y) * two
        rot[:, 2, 0] = (x * z - w * y) * two
        rot[:, 1, 2] = (y * z - w * x) * two
        rot[:, 2, 1] = (y * z + w * x) * two
    return rot


def _horn_rotations(cross: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotations R maximising tr(R H) for a (k, 3, 3) stack of cross-covariances
    H = P^T Q, in closed form, and the (k,) mask of the rows it certifies.

    R is the rotation of the top eigenvector u1 of Horn's traceless symmetric
    4 x 4 matrix N (Horn, JOSA A 4:629, 1987), whose eigenvalues
    l1 >= l2 >= l3 >= l4 are the roots of f(x) = det(xI - N) =
    x^4 - 2 |H|_F^2 x^2 - 8 det H x + det N. H is first scaled by a power of
    two (:func:`_horn_matrix`), so |H|_F lies in [1/2, 3) below.

    Root (:func:`_top_roots`). Newton from an upper bound of l1: the top root
    of the biquadratic x^4 - 2 |H|_F^2 x^2 + det N, raised by 2^-20 of itself,
    where f, f' and f'' are all positive there. With f''' = 24 x > 0 that puts
    it above every root, since below l1 one of the four is negative.
    Otherwise the bound is sqrt(3) |H|_F >= s1 + s2 + s3 >= l1. For a
    three-point sample det H is 0 up to rounding, so the first bound lies
    about 1e-6 above l1 (it held for all 1024 samples of a generated
    n = 1000 stack), and most rows stop after three steps. Above l1, f is
    convex and increasing, so Newton falls monotonically to it.

    Eigenvector (:func:`_quaternion_column`). The largest-norm column v of
    adj(N - x I) (Liu, Agrafiotis & Theobald, J. Comput. Chem. 31:1561,
    2010). adj(N - x I) = sum_i prod_(j != i) (lj - x) ui ui^T: at x = l1 only
    the u1 term is left, with weight P = prod_(j > 1) (l1 - lj) >= |v|.

    Certificate. A row is certified when it converged, v is finite and
    |v| >= HORN_CERTIFY |H|_F^3 (2^-10). As each l1 - lj <= 2 sqrt(3) |H|_F,
    that proves P >= 2^-10 |H|_F^3 and a gap g = l1 - l2 >= 2^-10 |H|_F / 12.
    The root is then within the rounding of f, about c eps |H|_F^4 / P, of
    l1, far inside the gap, and v within an angle of about
    c eps |H|_F^4 / (P g) <= 12 c eps 2^20 of u1. On 60 000 samples built to
    be hard (targets near a line, half turns, mirror images), certified
    rotations were within 64 eps + 17 eps |H|_F^4 / (P g) of the SVD's,
    entrywise, and at most 1.7e-9 from them. A row stops early, uncertified,
    once f'(x)^2 is below the square of that threshold: above l1,
    f'(x) = tr adj(xI - N) >= |v|, and f' only falls toward l1. The rows left
    uncertified (H = 0, targets on a line or at one point, a near-double top
    eigenvalue, non-finite values) take the SVD rule in the caller. Each
    rotation is built from a quaternion, so it is proper up to rounding.
    """
    ss, det, n = _horn_matrix(cross)
    c2 = -2.0 * ss
    c1 = -8.0 * det
    c0 = _det4(n)
    floor = HORN_CERTIFY * HORN_CERTIFY * (ss * ss * ss)
    with np.errstate(invalid="ignore"):
        guess = np.sqrt(0.5 * (np.sqrt(c2 * c2 - 4.0 * c0) - c2)) * (1.0 + 2.0 ** -20)
        t = guess * guess
        above = ((((t + c2) * guess + c1) * guess + c0 > 0.0) & ((4.0 * t + 2.0 * c2) * guess + c1 > 0.0)
                 & (12.0 * t + 2.0 * c2 > 0.0))
    lam, converged = _top_roots(c2, c1, c0, floor, np.where(above, guess, np.sqrt(3.0 * ss)))
    del det, c2, c1, c0, guess, t  # freed before the adjugate's minors
    for i in range(4):
        n[i][i] -= lam
    q, q_sq = _quaternion_column(n)
    del n
    certified = converged & (q_sq >= floor) & (q_sq < np.inf)
    return _quaternion_rotations(q), certified


def _kabsch_rotations(cross: np.ndarray) -> np.ndarray:
    """Rotations R maximising tr(R H) for a (k, 3, 3) stack of H, by the SVD
    with the determinant correction."""
    u, _, vt = np.linalg.svd(cross)
    v = vt.transpose(0, 2, 1)
    rot = v @ u.transpose(0, 2, 1)
    flip = np.linalg.det(rot) < 0
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
    source points: degenerate when s0 <= 0 or s1 < 1e-9 * s0. A screen on
    their Gram matrix G passes most samples without that SVD; every sample
    it does not pass gets the SVD rule, so the verdicts are the rule's.

    Each rotation maximises tr(R H) over the cross-covariance H of the
    centered coordinates. :func:`_horn_rotations` gives it in closed form
    for the rows it certifies; the other rows (H = 0, a near-double top
    eigenvalue of Horn's matrix, non-finite values) take the SVD solution
    with the determinant correction (:func:`_kabsch_rotations`). Both are
    proper.
    """
    src_mean = source.mean(axis=1)
    tgt_mean = target.mean(axis=1)
    src_c = source - src_mean[:, None, :]
    tgt_c = target - tgt_mean[:, None, :]

    fitted = _surely_not_collinear(src_c)
    rest = ~fitted
    if rest.any():
        # The third singular value is ~0 for any planar sample (e.g. every
        # 3-point sample), which is fine.
        sv = np.linalg.svd(src_c[rest], compute_uv=False)
        fitted[rest] = ~((sv[:, 0] <= 0.0) | (sv[:, 1] < 1e-9 * sv[:, 0]))
        src_c, tgt_c, src_mean, tgt_mean = src_c[fitted], tgt_c[fitted], src_mean[fitted], tgt_mean[fitted]

    cross = src_c.transpose(0, 2, 1) @ tgt_c
    del src_c, tgt_c  # freed before the closed form allocates its rows
    rot, certified = _horn_rotations(cross)
    rest = ~certified
    if rest.any():
        rot[rest] = _kabsch_rotations(cross[rest])
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
    return list(zip(_rotation_faults(axes), _FRAME_FAULTS))


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
    Centres are taken in blocks whose gathered pairs fit ``LRF_BLOCK_BYTES``.
    """
    ctr = _as_points(centers)
    if not (0 < support_radius < np.inf):
        raise ValueError("support_radius must be positive and finite")
    axes = np.full((len(ctr), 3, 3), np.nan)
    verdict = np.full(len(ctr), LRF_INSUFFICIENT, dtype=np.int8)
    tree = cKDTree(cloud.points)
    # The margin keeps every point the exact test admits inside the tree's search.
    reach = support_radius * (1.0 + 1e-9)
    pairs = tree.query_ball_point(ctr, reach, return_length=True)
    block = (np.cumsum(pairs) - pairs) // (LRF_BLOCK_BYTES // _LRF_PAIR_BYTES)
    cuts = [0, *(np.flatnonzero(np.diff(block)) + 1), len(ctr)]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        _lrf_block(cloud.points, tree, ctr[lo:hi], support_radius, reach, axes[lo:hi], verdict[lo:hi])
    ok = verdict == LRF_OK
    axes[ok, 1] = np.cross(axes[ok, 2], axes[ok, 0])
    verdict[np.flatnonzero(ok)[_rotation_faults(axes[ok]).any(axis=0)]] = LRF_FAULT
    return axes, verdict


def _lrf_block(points, tree, ctr, radius, reach, axes, verdict) -> None:
    """Fill the x and z axes and the verdicts of one block of centres."""
    n = max(len(points), 1)
    near = cKDTree(ctr).sparse_distance_matrix(tree, reach, output_type="ndarray")
    owner, idx = np.divmod(np.sort(near["i"] * n + near["j"]), n)
    del near
    offsets = points[idx]
    offsets -= ctr[owner]
    # (x² + y²) + z², the order in which np.linalg.norm(offsets, axis=1) sums.
    sq = offsets * offsets
    d = sq[:, 0] + sq[:, 1]
    d += sq[:, 2]
    np.sqrt(d, out=d)
    del sq, idx
    inside = d <= radius
    owner, offsets, d = owner[inside], offsets[inside], d[inside]

    # Rows of one support size made adjacent, each row's points still in
    # index order: every group is then a (rows, size) view of the pairs.
    size = np.bincount(owner, minlength=len(ctr))
    by_size = np.argsort(size, kind="stable")
    lens = size[by_size]
    ends = np.cumsum(lens)
    perm = np.repeat(np.cumsum(size)[by_size] - ends, lens) + np.arange(len(d))
    offsets, d = offsets[perm], d[perm]
    del owner, perm
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
    eigvecs = np.empty((len(ctr), 3, 3))
    eigvecs[fitted] = evecs
    verdict[decisive] = LRF_OK

    for rows, at, s in groups:
        keep = decisive[rows]
        rows = rows[keep]
        off = offsets[at:at + len(keep) * s].reshape(-1, s, 3)[keep]
        # matmul, as the one-centre rule's offsets @ axis: einsum rounds differently.
        for row, col in ((0, 2), (2, 0)):
            axis = eigvecs[rows, :, col:col + 1]
            proj = np.matmul(off, axis)
            flip = (proj >= 0).sum(axis=(1, 2)) < (proj < 0).sum(axis=(1, 2))
            axes[rows, row] = np.where(flip[:, None], -axis[:, :, 0], axis[:, :, 0])


def _ratio(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a / b where b > 0, else 1."""
    return np.divide(a, b, out=np.ones_like(a), where=b > 0.0)
