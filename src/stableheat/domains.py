"""Domain catalog: membership, distance to the complement and fat-ball
witness points.

Every variant is a frozen dataclass; all queries are pure.  Points are
accepted as scalars (d = 1) or sequences and normalized internally.
Boundary points count as outside (open-set convention).
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import Optional, Union

import numpy as np


def _pt(x, d: int) -> np.ndarray:
    a = np.atleast_1d(np.asarray(x, dtype=float))
    if a.size != d:
        raise ValueError(f"point has {a.size} coordinates, expected {d}")
    return a


def _pts(x, d: int) -> np.ndarray:
    """Normalize an (m, d) batch of points."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 1:
        a = a[:, None] if d == 1 else a[None, :]
    if a.shape[1] != d:
        raise ValueError(f"points have {a.shape[1]} coordinates, expected {d}")
    return a


def _normalized(v, what: str) -> tuple:
    """``v`` scaled to unit length.  A vector already unit to within a few
    ulp is kept as given, so that a domain rebuilt from its own document
    equals the original."""
    u = np.atleast_1d(np.asarray(v, dtype=float))
    ln = float(np.linalg.norm(u))
    if ln == 0:
        raise ValueError(f"{what} must be nonzero")
    return tuple(u if abs(ln - 1.0) <= 4 * np.finfo(float).eps else u / ln)


# ---------------------------------------------------------------------------
# variants


@dataclass(frozen=True)
class Ball:
    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "center", tuple(float(c) for c in np.atleast_1d(self.center)))


@dataclass(frozen=True)
class HalfSpace:
    """Open half-space {x : normal . x > offset}; |normal| = 1.

    Stored as an isometry of the canonical {x_d > 0}: ``normal`` is the
    inward unit normal and ``offset`` the signed boundary position.
    """

    normal: tuple
    offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "normal", _normalized(self.normal, "normal"))
        object.__setattr__(self, "offset", float(self.offset))

    def height(self, x) -> float:
        return float(np.dot(_pt(x, len(self.normal)), self.normal)) - self.offset


@dataclass(frozen=True)
class ExteriorBall:
    center: tuple
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "center", tuple(float(c) for c in np.atleast_1d(self.center)))


@dataclass(frozen=True)
class CircularCone:
    """Open cone with vertex at the origin: {x : angle(x, axis) < angle}.

    ``beta`` optionally records the exponent governing the long-time
    survival decay; it is analytic only for the half-space aperture
    (angle = pi/2, beta = alpha/2) and is otherwise estimated.
    """

    angle: float
    axis: tuple
    beta: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "angle", float(self.angle))
        if not (0.0 < self.angle < math.pi):
            raise ValueError("half-aperture must lie in (0, pi)")
        object.__setattr__(self, "axis", _normalized(self.axis, "axis"))


@dataclass(frozen=True)
class HyperplaneComplement:
    """The set {x : x_d != 0} (complement of a point when d = 1)."""

    dim: int = 1

    def __post_init__(self):
        if not float(self.dim).is_integer():
            raise ValueError(f"dim must be a whole number, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")


@dataclass(frozen=True)
class SpecialLipschitz:
    """Region above a piecewise-linear graph in the plane: {x_2 > g(x_1)}.

    ``breakpoints`` are (s, g(s)) pairs sorted by s; the graph continues
    beyond the first/last breakpoint with the end-segment slopes.  All
    segment slopes must respect the declared Lipschitz constant.
    """

    breakpoints: tuple
    lipschitz_constant: float

    def __post_init__(self):
        object.__setattr__(self, "lipschitz_constant", float(self.lipschitz_constant))
        bp = tuple(sorted((float(s), float(v)) for s, v in self.breakpoints))
        if len(bp) < 2:
            raise ValueError("need at least two breakpoints")
        ss = np.array([b[0] for b in bp])
        vs = np.array([b[1] for b in bp])
        if np.any(np.diff(ss) <= 0):
            raise ValueError("breakpoint abscissae must be strictly increasing")
        slopes = np.diff(vs) / np.diff(ss)
        if np.any(np.abs(slopes) > self.lipschitz_constant + 1e-12):
            raise ValueError("a segment violates the declared Lipschitz constant")
        object.__setattr__(self, "breakpoints", bp)

    def graph(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        ss = np.array([b[0] for b in self.breakpoints])
        vs = np.array([b[1] for b in self.breakpoints])
        out = np.interp(s, ss, vs)
        m0 = (vs[1] - vs[0]) / (ss[1] - ss[0])
        m1 = (vs[-1] - vs[-2]) / (ss[-1] - ss[-2])
        out = np.where(s < ss[0], vs[0] + m0 * (s - ss[0]), out)
        out = np.where(s > ss[-1], vs[-1] + m1 * (s - ss[-1]), out)
        return out


@dataclass(frozen=True)
class IntervalComplement:
    """R minus a finite union of disjoint closed intervals (d = 1)."""

    intervals: tuple

    def __post_init__(self):
        iv = tuple(sorted((float(a), float(b)) for a, b in self.intervals))
        if not iv:
            raise ValueError("need at least one interval")
        for a, b in iv:
            if not b > a:
                raise ValueError("intervals must have positive length")
        for (_, b0), (a1, _) in zip(iv[:-1], iv[1:]):
            if a1 <= b0:
                raise ValueError("intervals must be pairwise disjoint")
        object.__setattr__(self, "intervals", iv)


@dataclass(frozen=True)
class BallUnionExteriorBall:
    """B(c, r) together with the exterior of B(c, R), r < R."""

    center: tuple
    inner_radius: float
    outer_radius: float

    def __post_init__(self):
        object.__setattr__(self, "inner_radius", float(self.inner_radius))
        object.__setattr__(self, "outer_radius", float(self.outer_radius))
        if not (0 < self.inner_radius < self.outer_radius):
            raise ValueError("need 0 < inner radius < outer radius")
        object.__setattr__(self, "center", tuple(float(c) for c in np.atleast_1d(self.center)))


@dataclass(frozen=True)
class Intersection:
    """Intersection of domains (used for exit-law localization)."""

    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        dims = {dim(p) for p in self.parts}
        if len(dims) != 1:
            raise ValueError("all parts must share one dimension")


Domain = Union[
    Ball,
    HalfSpace,
    ExteriorBall,
    CircularCone,
    HyperplaneComplement,
    SpecialLipschitz,
    IntervalComplement,
    BallUnionExteriorBall,
    Intersection,
]


@dataclass(frozen=True)
class FatWitness:
    """A point whose kappa*r ball sits inside the domain and the query ball."""

    center: tuple
    kappa: float
    r: float

    def __post_init__(self):
        if not (0 < self.kappa <= 1):
            raise ValueError("kappa must lie in (0, 1]")
        object.__setattr__(self, "center", tuple(float(c) for c in np.atleast_1d(self.center)))


# ---------------------------------------------------------------------------
# basic queries


def dim(domain: Domain) -> int:
    if isinstance(domain, (Ball, ExteriorBall, BallUnionExteriorBall)):
        return len(domain.center)
    if isinstance(domain, HalfSpace):
        return len(domain.normal)
    if isinstance(domain, CircularCone):
        return len(domain.axis)
    if isinstance(domain, HyperplaneComplement):
        return domain.dim
    if isinstance(domain, SpecialLipschitz):
        return 2
    if isinstance(domain, IntervalComplement):
        return 1
    if isinstance(domain, Intersection):
        return dim(domain.parts[0])
    raise TypeError(f"not a domain: {domain!r}")


def _sq_dist(P: np.ndarray, c) -> np.ndarray:
    """Squared distances of the rows of P from the point c (or 0).

    Summed column by column from the left, in place: the same floats as
    ``np.sum((P - c) ** 2, axis=1)``, without its (m, d) temporaries.
    """
    if np.isscalar(c):
        c = (c,) * P.shape[1]
    q = np.zeros(P.shape[0])
    for j in range(P.shape[1]):
        t = P[:, j] - c[j]
        t *= t
        q += t
    return q


def _norm(P: np.ndarray, c) -> np.ndarray:
    """Distances of the rows of P from the point c (or 0): the square root
    of ``_sq_dist``, except at finite rows whose squared distance overflows,
    which are summed again scaled by their largest coordinate difference."""
    with np.errstate(over="ignore"):
        q = np.sqrt(_sq_dist(P, c))
    if q.size and not np.max(q) < math.inf:
        rows = np.flatnonzero(q == math.inf)
        D = P[rows] - c
        s = np.max(np.abs(D), axis=1)
        finite = s < math.inf
        rows, D, s = rows[finite], D[finite], s[finite, None]
        q[rows] = s[:, 0] * np.sqrt(_sq_dist(D / s, 0.0))
    return q


def contains_many(domain: Domain, pts) -> np.ndarray:
    """Vectorized open-set membership for an (m, d) batch."""
    return _contains(domain, _pts(pts, dim(domain)))


def _contains(domain: Domain, P: np.ndarray) -> np.ndarray:
    if isinstance(domain, Ball):
        return _sq_dist(P, domain.center) < domain.radius ** 2
    if isinstance(domain, HalfSpace):
        return P @ np.asarray(domain.normal) - domain.offset > 0
    if isinstance(domain, ExteriorBall):
        # a square that overflows is inf, which compares correctly
        with np.errstate(over="ignore"):
            return _sq_dist(P, domain.center) > domain.radius ** 2
    if isinstance(domain, CircularCone):
        u = np.asarray(domain.axis)
        nrm = _norm(P, 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            cosphi = (P @ u) / nrm
        ok = (nrm > 0) & (cosphi > math.cos(domain.angle))
        return ok
    if isinstance(domain, HyperplaneComplement):
        return P[:, -1] != 0.0
    if isinstance(domain, SpecialLipschitz):
        return P[:, 1] > domain.graph(P[:, 0])
    if isinstance(domain, IntervalComplement):
        x = P[:, 0]
        inside_some = np.zeros(len(x), dtype=bool)
        for a, b in domain.intervals:
            inside_some |= (x >= a) & (x <= b)
        return ~inside_some
    if isinstance(domain, BallUnionExteriorBall):
        with np.errstate(over="ignore"):
            q = _sq_dist(P, domain.center)
        return (q < domain.inner_radius ** 2) | (q > domain.outer_radius ** 2)
    if isinstance(domain, Intersection):
        out = np.ones(P.shape[0], dtype=bool)
        for part in domain.parts:
            out &= _contains(part, P)
        return out
    raise TypeError(f"not a domain: {domain!r}")


def contains(domain: Domain, x) -> bool:
    return bool(contains_many(domain, _pt(x, dim(domain))[None, :])[0])


def dist_many(domain: Domain, pts) -> np.ndarray:
    """Vectorized distance to the complement; 0 for points outside."""
    return _dist(domain, _pts(pts, dim(domain)))


def _dist(domain: Domain, P: np.ndarray) -> np.ndarray:
    if isinstance(domain, Ball):
        # |x - c|^2 overflows only far outside the ball, where this is 0
        return np.maximum(domain.radius - np.sqrt(_sq_dist(P, domain.center)), 0.0)
    if isinstance(domain, HalfSpace):
        return np.maximum(P @ np.asarray(domain.normal) - domain.offset, 0.0)
    if isinstance(domain, ExteriorBall):
        return np.maximum(_norm(P, domain.center) - domain.radius, 0.0)
    if isinstance(domain, CircularCone):
        u = np.asarray(domain.axis)
        nrm = _norm(P, 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            cosphi = np.clip((P @ u) / np.where(nrm > 0, nrm, 1.0), -1.0, 1.0)
        phi = np.arccos(cosphi)
        inside = (nrm > 0) & (phi < domain.angle)
        ang = np.minimum(domain.angle - phi, math.pi / 2)
        return np.where(inside, nrm * np.sin(np.maximum(ang, 0.0)), 0.0)
    if isinstance(domain, HyperplaneComplement):
        return np.abs(P[:, -1])
    if isinstance(domain, SpecialLipschitz):
        return _dist_above_polyline(domain, P)
    if isinstance(domain, IntervalComplement):
        x = P[:, 0]
        out = np.full(len(x), np.inf)
        for a, b in domain.intervals:
            out = np.minimum(out, np.maximum(np.maximum(a - x, x - b), 0.0))
        out[~_contains(domain, P)] = 0.0
        return out
    if isinstance(domain, BallUnionExteriorBall):
        q = _norm(P, domain.center)
        inner = np.maximum(domain.inner_radius - q, 0.0)
        outer = np.maximum(q - domain.outer_radius, 0.0)
        return np.maximum(inner, outer)
    if isinstance(domain, Intersection):
        out = _dist(domain.parts[0], P)
        for part in domain.parts[1:]:
            np.minimum(out, _dist(part, P), out=out)
        return out
    raise TypeError(f"not a domain: {domain!r}")


def dist_to_complement(domain: Domain, x) -> float:
    return float(dist_many(domain, _pt(x, dim(domain))[None, :])[0])


def _dist_above_polyline(domain: SpecialLipschitz, P: np.ndarray) -> np.ndarray:
    """Distance from points above the graph to the closed region below it.

    The nearest complement point lies on the (slope-extended) polyline, so
    this is a minimum of point-to-segment distances plus the two end rays.
    """
    bp = np.array(domain.breakpoints)
    s, v = bp[:, 0], bp[:, 1]
    m0 = (v[1] - v[0]) / (s[1] - s[0])
    m1 = (v[-1] - v[-2]) / (s[-1] - s[-2])
    # extend the end segments far enough to act as rays for any query point
    span = max(s[-1] - s[0], 1.0) + np.max(np.abs(P[:, 0])) + np.max(np.abs(P[:, 1])) + 1.0
    ext_lo = np.array([s[0] - 2 * span, v[0] - 2 * span * m0])
    ext_hi = np.array([s[-1] + 2 * span, v[-1] + 2 * span * m1])
    verts = np.vstack([ext_lo, bp, ext_hi])
    best = np.full(P.shape[0], np.inf)
    for a, b in zip(verts[:-1], verts[1:]):
        ab = b - a
        denom = float(ab @ ab)
        t = np.clip(((P - a) @ ab) / denom, 0.0, 1.0)
        proj = a + t[:, None] * ab
        best = np.minimum(best, np.sqrt(_sq_dist(P - proj, 0.0)))
    above = P[:, 1] > domain.graph(P[:, 0])
    return np.where(above, best, 0.0)


# ---------------------------------------------------------------------------
# fat witness points


#: per-variant fatness constants: the declared kappa and the constant in
#: delta(A) >= c (r v delta(x))
def declared_kappa(domain: Domain) -> float:
    if isinstance(domain, (Ball, HalfSpace, ExteriorBall, HyperplaneComplement)):
        return 0.5
    if isinstance(domain, CircularCone):
        th = min(domain.angle, math.pi / 2)
        return math.sin(th) / (1.0 + math.sin(th))
    if isinstance(domain, SpecialLipschitz):
        return 1.0 / (2.0 * math.sqrt(1.0 + domain.lipschitz_constant ** 2))
    if isinstance(domain, (IntervalComplement, BallUnionExteriorBall)):
        return 0.25
    raise TypeError(f"no declared fatness for {type(domain).__name__}")


def fat_witness(domain: Domain, x, r: float) -> Optional[FatWitness]:
    """Deterministic center A with B(A, kappa r) inside D and B(x, r).

    Returns the variant's closed-form construction, or None when the
    variant is not fat at its declared kappa for this (x, r).  Ties are
    broken toward the domain's axis/center so results are reproducible.
    """
    if r <= 0:
        raise ValueError("scale r must be positive")
    d = dim(domain)
    xa = _pt(x, d)
    dx = dist_to_complement(domain, xa)

    if isinstance(domain, Ball):
        c = np.asarray(domain.center)
        R = domain.radius
        if dx >= r:
            return FatWitness(tuple(xa), 1.0, r)
        gap = xa - c
        ln = float(np.linalg.norm(gap))
        inward = -gap / ln if ln > 0 else _unit(d)
        s = min(r / 2, ln)
        A = xa + s * inward
        rho = min(r - s, R - float(np.linalg.norm(A - c)))
        kappa = rho / r
        if kappa < 0.5 - 1e-12:
            return None
        return FatWitness(tuple(A), min(kappa, 1.0), r)

    if isinstance(domain, HalfSpace):
        n = np.asarray(domain.normal)
        h = domain.height(xa)
        target = max(h, r / 2)
        A = xa + (target - h) * n
        return FatWitness(tuple(A), 0.5, r)

    if isinstance(domain, ExteriorBall):
        c = np.asarray(domain.center)
        gap = xa - c
        ln = float(np.linalg.norm(gap))
        outward = gap / ln if ln > 0 else _unit(d)
        if dx >= r:
            return FatWitness(tuple(xa), 1.0, r)
        A = xa + (r / 2) * outward
        return FatWitness(tuple(A), 0.5, r)

    if isinstance(domain, HyperplaneComplement):
        A = xa.copy()
        side = 1.0 if xa[-1] >= 0 else -1.0
        A[-1] = side * max(abs(xa[-1]), r / 2)
        return FatWitness(tuple(A), 0.5, r)

    if isinstance(domain, SpecialLipschitz):
        kap = declared_kappa(domain)
        g = float(domain.graph(xa[0]))
        height = xa[1] - g
        target = max(height, r / 2)
        A = np.array([xa[0], g + target])
        return FatWitness(tuple(A), kap, r)

    if isinstance(domain, CircularCone):
        return _cone_witness(domain, xa, r, dx)

    if isinstance(domain, IntervalComplement):
        return _interval_complement_witness(domain, xa, r, dx)

    if isinstance(domain, BallUnionExteriorBall):
        return _annular_witness(domain, xa, r, dx)

    raise TypeError(f"no witness construction for {type(domain).__name__}")


def _unit(d: int) -> np.ndarray:
    e = np.zeros(d)
    e[-1] = 1.0
    return e


def _cone_witness(domain: CircularCone, xa, r, dx) -> Optional[FatWitness]:
    # candidates: the point itself, axis points, an inward-normal shift
    # and axis blends; the exact fit radius min(delta(A), r - |A-x|) is
    # evaluated per candidate and the best one kept
    u = np.asarray(domain.axis)
    cands = []
    if dx >= r:
        cands.append(xa)
    proj = float(xa @ u)
    for a in np.geomspace(r / 16, max(proj, 0.0) + r, 24):
        cands.append(a * u)
    perp = xa - proj * u
    np_perp = float(np.linalg.norm(perp))
    th = min(domain.angle, math.pi / 2)
    if np_perp > 1e-14:
        e = perp / np_perp
        normal = math.sin(th) * u - math.cos(th) * e
        shift = max(dx, r / 2) - dx
        cands.append(xa + shift * normal)
    nx = float(np.linalg.norm(xa))
    if nx > 0 and dx > 0:
        axis_pt = nx * u
        for w in (0.25, 0.5, 0.75):
            cands.append((1 - w) * xa + w * axis_pt)
    return _best_witness(domain, cands, xa, r, 1e-9)


def _best_witness(domain, cands, xa, r, slack) -> Optional[FatWitness]:
    """The candidate with the largest fit radius min(delta(A), r - |A-x|)
    (the first one on ties), or None when it misses the declared kappa by
    more than ``slack``."""
    best = None
    for A in cands:
        dA = dist_to_complement(domain, A)
        rho = min(dA, r - float(np.linalg.norm(A - xa)))
        if best is None or rho > best[1]:
            best = (A, rho)
    if best is None:
        return None
    kappa = best[1] / r
    if kappa < declared_kappa(domain) - slack:
        return None
    return FatWitness(tuple(best[0]), min(kappa, 1.0), r)


def _interval_complement_witness(domain, xa, r, dx) -> Optional[FatWitness]:
    x = float(xa[0])
    iv = domain.intervals
    # components of the domain: outer rays and the gaps between intervals
    comps = [(-math.inf, iv[0][0])]
    for (_, b0), (a1, _) in zip(iv[:-1], iv[1:]):
        comps.append((b0, a1))
    comps.append((iv[-1][1], math.inf))
    best = None
    for lo, hi in comps:
        flo, fhi = max(lo, x - r), min(hi, x + r)
        if fhi <= flo:
            continue
        if math.isinf(flo):
            flo = x - r
        A = 0.5 * (flo + fhi)
        rho = 0.5 * (fhi - flo)
        nearness = abs(A - x)
        if best is None or rho > best[1] + 1e-15 or (abs(rho - best[1]) <= 1e-15 and nearness < best[2]):
            best = (A, rho, nearness)
    if best is None:
        return None
    kappa = min(best[1] / r, 1.0)
    if kappa < declared_kappa(domain) - 1e-12:
        return None
    return FatWitness((best[0],), kappa, r)


def _annular_witness(domain, xa, r, dx) -> Optional[FatWitness]:
    c = np.asarray(domain.center)
    ri, ro = domain.inner_radius, domain.outer_radius
    gap = xa - c
    ln = float(np.linalg.norm(gap))
    outward = gap / ln if ln > 0 else _unit(len(c))
    cands = []
    if dx >= r:
        cands.append(xa)
    # inner-ball candidates: shift toward the center
    s = min(r / 2, ln)
    cands.append(xa - s * outward)
    cands.append(c.copy())
    # exterior candidates: shift away from the center
    cands.append(xa + (r / 2) * outward)
    s_opt = 0.5 * (r + ro - ln)
    if s_opt > 0:
        cands.append(xa + s_opt * outward)
    return _best_witness(domain, cands, xa, r, 1e-12)


# ---------------------------------------------------------------------------
# shape queries


def is_half_space(domain: Domain) -> bool:
    """True for a ``HalfSpace`` and for a cone of aperture pi/2."""
    if isinstance(domain, CircularCone):
        return abs(domain.angle - math.pi / 2) < 1e-12
    return isinstance(domain, HalfSpace)


def complement_diameter(domain: Domain) -> float:
    """diam(D^c); infinity when the complement is unbounded."""
    if isinstance(domain, ExteriorBall):
        return 2.0 * domain.radius
    if isinstance(domain, IntervalComplement):
        return domain.intervals[-1][1] - domain.intervals[0][0]
    if isinstance(domain, BallUnionExteriorBall):
        return 2.0 * domain.outer_radius
    if isinstance(domain, HyperplaneComplement):
        return 0.0 if domain.dim == 1 else math.inf
    return math.inf


# ---------------------------------------------------------------------------
# structured-document (de)serialization for the CLI surface


#: document type tag of each serializable variant
_DOC_TYPES = {
    "ball": Ball,
    "halfspace": HalfSpace,
    "exterior_ball": ExteriorBall,
    "cone": CircularCone,
    "hyperplane_complement": HyperplaneComplement,
    "special_lipschitz": SpecialLipschitz,
    "interval_complement": IntervalComplement,
    "ball_union_exterior_ball": BallUnionExteriorBall,
}
_DOC_TAGS = {cls: tag for tag, cls in _DOC_TYPES.items()}

#: document keys that differ from the dataclass field name
_DOC_KEYS = {"normal": "axis"}


def _doc_value(v):
    return [_doc_value(e) for e in v] if isinstance(v, tuple) else v


def domain_to_dict(domain: Domain) -> dict:
    """The document of a domain: its type tag and one key per dataclass
    field (an unset cone exponent is omitted)."""
    if type(domain) not in _DOC_TAGS:
        raise TypeError(f"cannot serialize {type(domain).__name__}")
    out = {"type": _DOC_TAGS[type(domain)]}
    for f in fields(domain):
        v = getattr(domain, f.name)
        if v is not None:
            out[_DOC_KEYS.get(f.name, f.name)] = _doc_value(v)
    return out


#: nesting depth of each dataclass field that is not one number: a point,
#: or a list of pairs
_DOC_DEPTHS = {"center": 1, "normal": 1, "axis": 1, "breakpoints": 2, "intervals": 2}

#: what a field of each depth must be, for the error message
_DOC_SHAPES = (
    "a finite number",
    "a finite number per coordinate, as in [0, 1]",
    "a finite number per coordinate of each pair, as in [[0, 1], [2, 3]]",
)


def _doc_shape(v, depth: int) -> bool:
    """True for a finite number at depth 0, a list of them at depth 1 and a
    list of pairs of them at depth 2; a boolean is not a number."""
    if depth == 0:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) < math.inf
    return isinstance(v, (list, tuple)) and all(
        _doc_shape(e, depth - 1) and (depth == 1 or len(e) == 2) for e in v
    )


def domain_from_dict(doc: dict, expect_dim: Optional[int] = None) -> Domain:
    """Parse a domain document; dimensions are inferred from point fields
    and validated against ``expect_dim`` when given (a hyperplane
    complement without a ``dim`` takes ``expect_dim``).  Every field must
    be a finite number, a point (a list of them) or a list of pairs of
    them, as its dataclass field is: text, booleans, null and lists nested
    deeper or shallower than the field are refused, naming the field."""
    if not isinstance(doc, dict) or "type" not in doc:
        raise ValueError("domain document must be an object with a 'type' field")
    t = doc["type"]
    if not isinstance(t, str) or t not in _DOC_TYPES:
        raise ValueError(f"unknown domain type {t!r}")
    cls = _DOC_TYPES[t]
    kwargs = {}
    for f in fields(cls):
        key = _DOC_KEYS.get(f.name, f.name)
        if key in doc:
            depth = _DOC_DEPTHS.get(f.name, 0)
            if not _doc_shape(doc[key], depth):
                raise ValueError(f"domain field {key!r} must be {_DOC_SHAPES[depth]}, "
                                 f"got {doc[key]!r}")
            kwargs[f.name] = doc[key]
        elif cls is HyperplaneComplement:
            kwargs[f.name] = expect_dim or 1
        elif f.default is MISSING:
            raise ValueError(f"domain document for {t!r} is missing field {key!r}")
    try:
        dom = cls(**kwargs)
    except TypeError as exc:
        raise ValueError(f"malformed domain document for {t!r}: {exc}") from exc
    if expect_dim is not None and dim(dom) != expect_dim:
        raise ValueError(f"domain has dimension {dim(dom)}, expected {expect_dim}")
    return dom
