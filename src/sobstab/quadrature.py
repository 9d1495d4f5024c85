"""Deterministic adaptive quadrature on the half-line, the real line, and
axisymmetric geometry about an axis through any number of centers.

One engine underlies everything: a 15-point Kronrod rule with its embedded
7-point Gauss estimate, applied to panels of a transformed integrand (in two
dimensions, to boxes on the 15 x 15 tensor grid) and refined adaptively in
bulk (as in Shampine's vectorized quadrature, 2008): each step bisects, worst
first, as many panels as it takes to leave the rest within half the
tolerance, and evaluates all the new panels in one vectorized call.  Semi-infinite
directions are compactified algebraically, r = t/(1-t), which maps the
algebraic decay of every integrand here (r^-(d+2s) or faster) to regular
endpoint behavior -- no cutoff parameter.  The axisymmetric integrator cuts
the axis midway between its centers and compactifies each half-cell the same
way from its own center, so each bubble is resolved however far the others.
Each axial segment is a cell of one map (_axial_map): a compactified tail
or, between the real line's knots, the identity.  For d >= 2 its integral is
one adaptive cubature over boxes, axial cell times radial panel or, in the
two unbounded half-cells, compactified radius times angle about their
centers, so that the far field decays along one side of a box instead of
into a corner (Genz and Malik, J. Comput. Appl. Math. 6, 1980, for the
tensor rule): a box carries one error estimate per direction and is
bisected along the worse one (Berntsen, Espelid and Genz, ACM TOMS 17, 1991).

Half-line and real-line integrands are numpy-vectorized: each call receives
a 1-D ndarray of nodes and must return an array of the same shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Sequence

import numpy as np

from .constants import Ambient, sphere_area
from .errors import ParameterError, QuadratureNonConvergence

__all__ = [
    "QuadratureConfig",
    "QuadratureResult",
    "DEFAULT_CONFIG",
    "integrate_half_line",
    "integrate_real_line",
    "integrate_axisymmetric",
]

# 15-point Kronrod abscissae/weights with the embedded 7-point Gauss rule
# (standard published values, 15 significant digits; ordered outermost first).
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.000000000000000,
)
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)

# Ascending node layout on [-1, 1]; Gauss points sit at odd indices.
_NODES = np.array([-x for x in _XGK[:7]] + [0.0] + list(reversed(_XGK[:7])))
_WK = np.array(list(_WGK[:7]) + [_WGK[7]] + list(reversed(_WGK[:7])))
_WGAUSS = np.zeros(15)
_WGAUSS[[1, 3, 5]] = _WG[:3]
_WGAUSS[7] = _WG[3]
_WGAUSS[[9, 11, 13]] = _WG[2::-1]

_MAX_PANELS = 20000  # panels (boxes) held by one call
_MAX_SUBDIVISIONS = 30  # bisections of one panel along one axis
# A panel whose estimate is within this fraction of its integral of |g| is
# not bisected: the estimate is roundoff, which bisection does not reduce
# (QUADPACK's dqk21 floors its estimates there, at 50 eps).
_ROUNDOFF = 50 * 2.0**-52
_NEG_ERR, _VAL = itemgetter(0), itemgetter(5)


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for one adaptive integration."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise ParameterError("rel_tol and abs_tol must be positive and finite")


DEFAULT_CONFIG = QuadratureConfig()


def check_config(cfg: object) -> None:
    """Raise ParameterError unless cfg is a QuadratureConfig."""
    if not isinstance(cfg, QuadratureConfig):
        raise ParameterError(
            f"cfg must be a QuadratureConfig, got {type(cfg).__name__}"
        )


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


def _lift(f: Callable) -> Callable:
    """Check a vectorized 1-D integrand's output against its nodes."""

    def g(xs: np.ndarray) -> np.ndarray:
        nodes = xs.ravel()
        out = np.asarray(f(nodes), dtype=float)
        if out.shape != nodes.shape:
            raise ParameterError(
                f"integrand returned shape {out.shape} for nodes of shape "
                f"{nodes.shape}; it must be vectorized over a 1-D array"
            )
        return out.reshape(xs.shape)

    return g


def _check_finite(ys: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    """Raise ParameterError naming the first box whose values ys (one row
    of nodes per box) are not all finite."""
    finite = np.isfinite(ys.reshape(len(ys), -1)).all(axis=1)
    if not finite.all():
        bad = int(finite.argmin())
        box = " x ".join(f"[{a}, {b}]" for a, b in zip(lo[bad], hi[bad]))
        raise ParameterError(f"integrand returned a non-finite value on panel {box}")


def _evaluate(
    g: Callable, ks: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Kronrod values, negated error estimates, whether each estimate is
    above roundoff, and the axis to bisect (0) of the panels [lo, hi]
    (shape (m, 1)) of initial segments ks, all from one call g(ks, xs) at
    the (m, 15) nodes xs."""
    a, b = lo[:, 0], hi[:, 0]
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    xs = c[:, None] + h[:, None] * _NODES
    ys = np.ascontiguousarray(g(ks, xs), dtype=float)
    _check_finite(ys, lo, hi)
    # vecdot sums each row as the 1-D dot product of a single panel does.
    k15 = h * np.vecdot(ys, _WK)
    err = np.abs(k15 - h * np.vecdot(ys, _WGAUSS))
    above = err > _ROUNDOFF * h * np.vecdot(np.abs(ys), _WK)
    return k15, -err, above, np.zeros(len(ks), dtype=int)


# The Kronrod and the Gauss weights as the columns of one matrix.
_W2 = np.column_stack((_WK, _WGAUSS))


def _evaluate_boxes(
    g: Callable, ks: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The same for boxes [lo, hi] (shape (m, 2)) on the 15 x 15 Kronrod
    tensor grid, from one call g(ks, xs, ys) at node coordinates xs and ys
    of shape (m, 15) that returns shape (m, 15, 15).  A box's estimate is
    the sum of its two directional ones, |K x K - G x K| and
    |K x K - K x G|, and its axis to bisect the one of the larger."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    xs = c[:, 0, None] + h[:, 0, None] * _NODES
    ys = c[:, 1, None] + h[:, 1, None] * _NODES
    vals = np.asarray(g(ks, xs, ys), dtype=float)
    _check_finite(vals, lo, hi)
    area = h[:, 0] * h[:, 1]
    # rules[:, i, j]: rule i (Kronrod, Gauss) along x, rule j along y.
    rules = area[:, None, None] * (_W2.T @ (vals @ _W2))
    kk = rules[:, 0, 0]
    ex = np.abs(kk - rules[:, 1, 0])
    ey = np.abs(kk - rules[:, 0, 1])
    err = ex + ey
    above = err > _ROUNDOFF * area * (np.abs(vals) @ _WK @ _WK)
    return kk, -err, above, (ey > ex).astype(int)


def _integrate_boxes(
    rule: Callable, g: Callable, ks: Sequence[int], lo: Sequence, hi: Sequence,
    cfg: QuadratureConfig,
) -> QuadratureResult:
    """Adaptive refinement of the integral of g over initial boxes
    [lo[k], hi[k]] (one row of coordinates each), box k in initial segment
    ks[k]; ``rule`` (_evaluate or _evaluate_boxes) evaluates boxes.

    Each step makes one call of g, for all the boxes it made.  The integral
    is done once the fsum of its boxes' error estimates meets its tolerance
    max(rel_tol*|value|, abs_tol).  Until then, each step ranks the boxes
    by estimate, largest first (ties in creation order), and bisects them,
    each along the axis its rule names, from the top until those it leaves
    hold at most half the tolerance, passing over boxes whose estimate is
    roundoff (_ROUNDOFF).  The call raises QuadratureNonConvergence with its
    best estimate once a box due for bisection has been bisected
    _MAX_SUBDIVISIONS times along its axis, once it holds _MAX_PANELS
    boxes, or once no box is due but roundoff.
    """
    ks = np.asarray(ks)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    depth = np.zeros(lo.shape, dtype=int)
    # The live boxes (-err, seq, lo, hi, depth, val, segment, above, axis),
    # seq numbering the call's boxes in order of creation.
    live: list[tuple] = []
    evals = made = 0
    while True:
        vals, errs, above, axis = rule(g, ks, lo, hi)
        evals += vals.size * len(_NODES) ** lo.shape[1]
        cols = (errs, lo, hi, depth, vals, ks, above, axis)
        neg_err, lo, hi, depth, vals, ks, above, axis = (x.tolist() for x in cols)
        seqs = range(made, made + len(vals))
        made += len(vals)
        live += zip(neg_err, seqs, lo, hi, depth, vals, ks, above, axis)
        val = math.fsum(map(_VAL, live))
        err = -math.fsum(map(_NEG_ERR, live))
        tol = max(cfg.rel_tol * abs(val), cfg.abs_tol)
        if err <= tol:
            return QuadratureResult(val, err, evals)
        live.sort()
        rest, half, due, kept = err, 0.5 * tol, [], []
        for p in live:
            if rest <= half:
                break
            if p[7]:  # roundoff is not bisected away
                due.append(p)
                rest += p[0]
            else:
                kept.append(p)
        limit = (
            "roundoff" if not due
            else "depth" if max(p[4][p[8]] for p in due) >= _MAX_SUBDIVISIONS
            else "panel" if len(live) >= _MAX_PANELS
            else None
        )
        if limit:
            raise QuadratureNonConvergence(
                f"tolerance not met: error estimate {err:.3e} with "
                f"{len(live)} panels at the call's {limit} limit",
                best=QuadratureResult(val, err, evals),
            )
        live[: len(due) + len(kept)] = kept
        _, _, lo, hi, depth, _, ks, _, axis = map(np.array, zip(*due))
        n = np.arange(len(due))
        mid = 0.5 * (lo[n, axis] + hi[n, axis])
        cols = (lo, hi, depth, ks, axis)
        lo, hi, depth, ks, axis = (np.repeat(x, 2, axis=0) for x in cols)
        hi[2 * n, axis[::2]] = mid
        lo[2 * n + 1, axis[::2]] = mid
        depth[np.arange(2 * len(due)), axis] += 1


def _tail_cells(tails: Iterable[tuple]) -> list[tuple]:
    """Cells (c, sign, h, kappa, a, b) of _axial_map for tails (c, sign,
    length, knots), h = min(1, length), kappa = 1 - h/length: an infinite
    length gives r = t/(1-t), a finite one ends at exactly the length, and
    one shorter than 1 maps linearly.  Each tail splits at t = 1/2 and at
    the image of every knot in (0, length)."""
    cells = []
    for c, sign, length, knots in tails:
        h = min(1.0, length)
        kappa = 1.0 - h / length
        images = {r / (h + kappa * r) for r in map(float, knots) if 0.0 < r < length}
        breaks = sorted({0.0, 0.5, 1.0} | images)
        cells += [(c, sign, h, kappa, a, b) for a, b in zip(breaks[:-1], breaks[1:])]
    return cells


def _axial_map(cells: Sequence[tuple]) -> Callable:
    """The map of cells (c, sign, h, kappa, a, b): (segs, ts) -> (c, offset,
    q, h), where t of cell segs maps to the offset sign * h t/q from c,
    q = 1 - kappa t, with Jacobian h/q^2 (c and h have one column, offset
    and q one per node); (0, 1, 1, 0, a, b) is the identity."""
    cs, signs, hs, kappas = (np.array(x)[:, None] for x in list(zip(*cells))[:4])

    def point(segs: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, ...]:
        q = 1.0 - kappas[segs] * ts
        return cs[segs], signs[segs] * (hs[segs] * ts / q), q, hs[segs]

    return point


def _integrate_cells(
    g: Callable, cells: Sequence[tuple], cfg: QuadratureConfig
) -> QuadratureResult:
    """Integrate over cells (c, sign, h, kappa, a, b) of _axial_map with one
    integrand g(c, offset, q) that applies the 1/q^2 of the Jacobian."""
    point = _axial_map(cells)

    def gt(segs: np.ndarray, ts: np.ndarray) -> np.ndarray:
        c, offset, q, h = point(segs, ts)
        return h * g(c, offset, q)

    lo, hi = [[a] for *_, a, _ in cells], [[b] for *_, b in cells]
    return _integrate_boxes(_evaluate, gt, range(len(cells)), lo, hi, cfg)


def integrate_half_line(
    f: Callable,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    *,
    knots: Iterable[float] | None = None,
) -> QuadratureResult:
    """Integrate f over (0, inf) under the substitution r = t/(1-t).

    f takes a 1-D ndarray of radii and returns an array of the same shape;
    any other shape raises ParameterError.  ``knots`` lists characteristic
    radii at which initial panels are split; pass the turnover scales of a
    multi-scale integrand to keep refinement shallow.  Raises
    QuadratureNonConvergence (carrying the best estimate) once a panel due
    for bisection is at depth _MAX_SUBDIVISIONS, _MAX_PANELS are held or only
    roundoff is left to bisect, unconverged.
    """
    g = _lift(f)
    cells = _tail_cells([(0.0, 1.0, math.inf, knots or ())])
    return _integrate_cells(lambda c, r, q: g(r) / (q * q), cells, cfg)


# integrate_real_line's first partition resolves a bubble, an O(1)-wide bump
# in log-radius, in one pass (16 panels between knots need two at d = 7).
_LINE_PANELS = 20
_TAIL_KNOTS = [k / (8 - k) for k in range(1, 8)]


def integrate_real_line(
    f: Callable,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    *,
    knots: Sequence[float],
) -> QuadratureResult:
    """Integrate f over the whole real line.

    f takes a 1-D ndarray of points and returns an array of the same shape;
    any other shape raises ParameterError.  ``knots`` (required, nonempty)
    are finite breakpoints -- typically the centers of the bubbles involved;
    the two tails beyond the extreme knots are compactified algebraically,
    x = knot -+ t/(1-t).  The first pass evaluates 20 equal panels between
    each two consecutive knots and 8 equal panels in t on each tail (through
    the knots r = k/(8 - k)), all through one integrand.
    """
    ks = sorted({float(k) for k in knots})
    if not ks or not all(math.isfinite(k) for k in ks):
        raise ParameterError("integrate_real_line requires finite, nonempty knots")
    g = _lift(f)
    inner = np.linspace(ks[:-1], ks[1:], _LINE_PANELS, endpoint=False, axis=1)
    breaks = sorted(set(inner.ravel().tolist() + ks[-1:]))  # knots 1 ulp apart
    cells = [(0.0, 1.0, 1.0, 0.0, a, b) for a, b in zip(breaks[:-1], breaks[1:])]
    tails = [(ks[0], -1.0, math.inf, _TAIL_KNOTS), (ks[-1], 1.0, math.inf, _TAIL_KNOTS)]
    cells += _tail_cells(tails)
    return _integrate_cells(lambda c, v, q: g(c + v) / (q * q), cells, cfg)


# A half-cell's initial breaks lie at most this ratio apart: on a panel from
# offset a to b >> a the outermost Kronrod node sits near a / 0.0043, so a
# wider gap would leave the panel's far end unseen.
_KNOT_RATIO = 64.0
# No break past this offset: its image lies so close to t = 1 that the nodes
# of a panel ending at 1 would round to 1.
_KNOT_MAX = 2.0**40


def _cells(centers: list[float], widths: list[float]) -> list[tuple]:
    """The axis cut midway between consecutive distinct centers, as tails
    (c, sign, length, knots) of _tail_cells from each half-cell's own
    center c.

    A feature at x of width w shows from c at the offset max(|x - c|, w); a
    half-cell breaks there, and a _ladder up to its end (a tail's: its last
    break)."""
    cs = sorted(set(centers))
    mids = [0.5 * a + 0.5 * b for a, b in zip(cs[:-1], cs[1:])]
    cells = []
    for c, lo, hi in zip(cs, [-math.inf] + mids, mids + [math.inf]):
        shows = {max(abs(x - c), w) for x, w in zip(centers, widths)}
        for sign, length in ((-1.0, c - lo), (1.0, hi - c)):
            if length == 0.0:
                continue  # the midpoint rounded onto c
            top = min(length, _KNOT_MAX)
            knots = sorted(r for r in shows if 0.0 < r < top)
            if length < math.inf:
                knots.append(top)
            cells.append((c, sign, length, _ladder(knots)))
    return cells


def _ladder(knots: list[float]) -> list[float]:
    """Sorted positive knots and, between each two, the fewest geometric
    breaks that leave consecutive breaks within _KNOT_RATIO."""
    ladder = list(knots)
    for a, b in zip(knots, knots[1:]):
        n = math.ceil((math.log(b) - math.log(a)) / math.log(_KNOT_RATIO))
        ladder += [a ** (1 - k / n) * b ** (k / n) for k in range(1, n)]
    return ladder


# The cubature refines until its estimate meets this fraction of the
# caller's tolerance: at the tolerance itself its true error moves a
# triple's norm by 6e-12 when the frame is dilated.  It stops at
# _BOX_FLOOR relative, though: each box's rule carries roundoff of tens to
# hundreds of ulp of its integral of |f|, which no bisection removes.
_BOX_FACTOR = 0.01
_BOX_FLOOR = 1e-13


def integrate_axisymmetric(
    f: Callable,
    amb: Ambient,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    *,
    centers: Sequence[float] = (0.0,),
    widths: Sequence[float] | None = None,
) -> QuadratureResult:
    """Integrate an axisymmetric integrand over R^d,

        |S^{d-2}| * int_R int_0^inf f(c, s, rho) rho^(d-2) drho dx,

    at axial position x = c + s and distance rho >= 0 from the axis (at d = 2
    the angular factor is |S^0| = 2; at d = 1 the result is int_R f(c, s, 0)).
    The axis is cut midway between consecutive ``centers`` (finite,
    nonempty) and each half-cell runs from its own center c, so f receives c
    and the offset s apart and can form the distance to a feature there
    exactly.  ``widths`` (one per center, > 0; 1 each by default) place the
    initial breaks (see _cells) and split the radial direction, r = t/(1-t),
    at a quarter, one and four widths and on a _ladder between them.

    At d = 1 the axis is one adaptive integral, and f must broadcast centers
    of shape (m, 1) and offsets and radii of shape (m, 15) to shape (m, 15).
    For d >= 2 the whole integral is one adaptive cubature over boxes on the
    15 x 15 Kronrod grid, and f must broadcast centers of shape (m, 1, 1),
    offsets of shape (m, 15, 1) and radii of shape (m, 1, 15) (axial panel
    times radial panel) to shape (m, 15, 15).  Beyond the outermost centers
    the boxes are polar about them instead (see _boxes), and f gets offsets
    and radii of shape (m, 15, 15); one call of f holds boxes of one kind.
    The cubature refines until its error estimate meets a hundredth of the
    tolerance max(rel_tol*|value|, abs_tol) on the value returned, or 1e-13
    relative if that is larger (_BOX_FLOOR), and raises
    QuadratureNonConvergence, with that estimate as its best, if it then
    misses the tolerance itself.
    """
    xs = [float(x) for x in centers]
    ws = [1.0] * len(xs) if widths is None else [float(r) for r in widths]
    if not xs or len(ws) != len(xs) or not all(
        math.isfinite(x) and 0.0 < r < math.inf for x, r in zip(xs, ws)
    ):
        raise ParameterError(
            "integrate_axisymmetric requires finite, nonempty centers and one "
            "finite width > 0 per center"
        )
    cells = _tail_cells(_cells(xs, ws))
    if amb.d == 1:
        return _integrate_cells(
            lambda c, s, q: f(c, s, np.zeros_like(s)) / (q * q), cells, cfg
        )
    box_cfg = QuadratureConfig(
        rel_tol=max(_BOX_FACTOR * cfg.rel_tol, _BOX_FLOOR),
        abs_tol=_BOX_FACTOR * cfg.abs_tol,
    )
    res = _integrate_boxes(_evaluate_boxes, *_boxes(f, amb.d, cells, ws), box_cfg)
    if res.error_estimate > max(cfg.rel_tol * abs(res.value), cfg.abs_tol):
        raise QuadratureNonConvergence(
            f"tolerance not met: error estimate {res.error_estimate:.3e} at "
            f"the cubature's floor of {_BOX_FLOOR:g} relative",
            best=res,
        )
    return res


# A polar tail box's angle theta = (pi/2) u starts from this many panels.
_ANGULAR_PANELS = 2


def _boxes(f: Callable, d: int, cells: list[tuple], ws: list[float]) -> tuple:
    """The integrand g(ks, ts, us) of integrate_axisymmetric in R^d on its
    boxes, angular factor included, and the boxes' segments and corners: a
    finite half-cell's box is axial cell times radial panel, an infinite
    one's (kappa = 1) radius r = h t/(1-t) times angle theta = (pi/2) u
    about its center, at offset r cos(theta) and distance r sin(theta).
    There the far field |x|^-2d is r^-2d times a smooth function of theta,
    and the center's own bubble a function of r alone."""
    point = _axial_map(cells)
    is_polar = np.array([cell[3] == 1.0 for cell in cells])
    area = sphere_area(d - 1)
    radial_knots = _ladder(sorted({k * r for r in ws for k in (0.25, 1.0, 4.0)}))
    radial = [(a, b) for *_, a, b in _tail_cells([(0.0, 1.0, math.inf, radial_knots)])]
    edges = np.linspace(0.0, 1.0, _ANGULAR_PANELS + 1).tolist()
    panels = [list(zip(edges, edges[1:])) if p else radial for p in is_polar]

    # Each chart is a function of t (rows c, s, jt) times one of u (us).
    def cartesian(c, s, jt, us):
        qr = 1.0 - us
        rho = us / qr
        vals = f(c[:, :, None], s[:, :, None], rho[:, None, :])
        return vals * (jt[:, :, None] * (rho ** (d - 2) / (qr * qr))[:, None, :])

    def polar(c, s, jt, us):
        theta = 0.5 * math.pi * us
        r, sin = np.abs(s), np.sin(theta)
        offset = s[:, :, None] * np.cos(theta)[:, None, :]
        vals = f(c[:, :, None], offset, r[:, :, None] * sin[:, None, :])
        jr = 0.5 * math.pi * jt * r ** (d - 1)
        return vals * (jr[:, :, None] * (sin ** (d - 2))[:, None, :])

    def g(ks: np.ndarray, ts: np.ndarray, us: np.ndarray) -> np.ndarray:
        c, s, q, h = point(ks, ts)
        jt = area * h / (q * q)
        out = np.empty((len(ks), len(_NODES), len(_NODES)))
        for chart, rows in ((cartesian, ~is_polar[ks]), (polar, is_polar[ks])):
            if rows.any():
                out[rows] = chart(c[rows], s[rows], jt[rows], us[rows])
        return out

    ks = [k for k, ps in enumerate(panels) for _ in ps]
    lo = [(cell[4], a) for cell, ps in zip(cells, panels) for a, _ in ps]
    hi = [(cell[5], b) for cell, ps in zip(cells, panels) for _, b in ps]
    return g, ks, lo, hi
