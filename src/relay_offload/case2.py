"""Solver for the case where the relay has its own task chain.

The shared uplink band admits three transmission orderings (schemes).  At
a fixed split each scheme is a convex program in six durations under at
most four timing rows.  All three share the split's deadline budgets,
built once per split as its room (:class:`_Room`): the device budget, the
relay-own budget, its window and S2's completion bound.  Each scheme's
rows are one literal coefficient table over that room, and the
feasibility test, the energy floors' caps and the cold starts read the
same room.  Every (scheme, split) pair is solved from its cold starts,
placed on :func:`_rows`, where S2 still carries an epigraph column t_c
for its completion time (five rows); the engine solves the equivalent
program of :func:`_engine_rows`, where t_c is eliminated and S2 has
three rows, with each unloaded duration that only uses up budget pinned
at zero.  The rows cap every column, so with the durations' lower bounds
they alone bound each program: there is no box.

:func:`solve_scheme` is the one fixed-split solver.
:func:`active_set_newton` solves each program exactly from the model's
analytic energy terms, slopes and curvatures, taken on the program's
loaded columns alone, and returns KKT multipliers that certify the
optimum.  Each solution keeps them as its row prices; for Scheme 1 they
are also the duals of its semi-closed KKT system (psi, lambda, eta1,
eta2).  Each Newton step is a Cholesky solve of a few moves on the
working face's echelon form, which is factored once per process, in a
bounded table every solve shares; a cyclic projector only places the
engine's starting point.

The upper level builds every split's totals once, at O(1) cost each
(:func:`model.relay_busy_split_sums`), and solves the (scheme, split) pairs
in ascending order of energy floors it refines lazily: a split's
scheme-free floor (:func:`_split_floors`, whose terms are taken once per
(n1, n2) or once per m1, so each split's costs four additions), then each
pair's (:func:`_pair_floors`), the larger of its scheme floor (each
duration at the largest value the scheme's own rows allow) and its
device-block bound (the one-price minimum of the device terms under the
device row, :func:`model.device_block_floor`, plus the relay-own terms at
their caps), both from one set of capped terms per scheme.  It stops at
the first floor above the lowest energy solved so far by more than a
skip margin.  The winner is then picked by replaying
the tie rule over the solved pairs in the canonical S1 -> S2 -> S3
lexicographic order; the margin is wide enough that the skipped pairs could
not have changed that pick, so the winner is the exhaustive traversal's.

Device/relay frequency-cap constraints are relaxed throughout (the BS
capacity constraints remain); violations of the relaxed caps are reported
in the solution metadata instead of being enforced.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

from . import model
from .model import Infeasible, Scenario, SplitSums


class SchemeId(Enum):
    """Transmission order on the shared band.

    S1: relay's own upload, then device upload, then device-task forward.
    S2: device upload, device-task forward, then relay's own upload.
    S3: device upload, relay's own upload, then device-task forward.
    """

    S1 = "S1"
    S2 = "S2"
    S3 = "S3"


@dataclass(frozen=True)
class Case2Indices:
    """Device split (n1, n2) plus the relay's own split m1."""

    n1: int
    n2: int
    m1: int


@dataclass(frozen=True)
class Case2LowerSolution:
    """Continuous optimum at a fixed (scheme, indices) combination.

    t1/t2/t3 are the compute-block durations (device local, relay for the
    device, relay for itself); tau_s is the BS slot reserved for device
    tasks.  ``prices``, out of the repr and equality, are the multipliers
    of :func:`_engine_rows`, in order.
    The duals are Scheme 1's prices by the paper's names (psi on the device
    deadline row, lam on the ordering row, eta1 and eta2 on the BS-capacity
    rows) and are NaN for Schemes 2 and 3.  cap_violations names relaxed
    frequency caps the solution exceeds.
    """

    tau1: float
    tau2: float
    tau3: float
    t1: float
    t2: float
    t3: float
    tau_s: float
    psi: float
    lam: float
    eta1: float
    eta2: float
    energy: float
    cap_violations: tuple[str, ...] = ()
    prices: tuple[float, ...] = field(default=(), repr=False, compare=False)


@dataclass(frozen=True)
class Case2Solution:
    scheme: SchemeId
    indices: Case2Indices
    lower: Case2LowerSolution
    energy_breakdown: dict[str, float]


def _infeasible(scheme: SchemeId, indices: Case2Indices) -> Infeasible:
    constraints = ("bs_capacity", "deadline")
    if scheme is not SchemeId.S1:
        constraints = ("scheme_ordering",) + constraints
    return Infeasible(
        f"scheme {scheme.value} infeasible for indices "
        f"({indices.n1}, {indices.n2}, {indices.m1})",
        constraints,
    )


def _deadline_triple(scenario: Scenario) -> tuple[float, float, float]:
    dl = scenario.deadlines
    if dl.t0 is None or dl.t_s_th is None or dl.t_r_th is None:
        raise model.ScenarioError("relay-busy case requires t0, t_s_th and t_r_th deadlines")
    return dl.t0, dl.t_s_th, dl.t_r_th


def _budgets(sums: SplitSums, scenario: Scenario) -> tuple[float, float]:
    """The device and relay-own budgets D and O of :class:`_Room`."""
    t0, ts, tr = _deadline_triple(scenario)
    f_bs = scenario.compute.f_bs_max
    return ts - sums.es / f_bs, tr - t0 - sums.er / f_bs


def _cap_violations(
    sums: SplitSums, t1: float, t2: float, t3: float, scenario: Scenario
) -> tuple[str, ...]:
    co = scenario.compute
    out = []
    if sums.ls > 0.0 and t1 > 0.0 and sums.ls / t1 > co.f_md_max * (1.0 + 1e-9):
        out.append("device_cpu_cap")
    if sums.rs > 0.0 and t2 > 0.0 and sums.rs / t2 > co.f_relay_max * (1.0 + 1e-9):
        out.append("relay_cpu_cap_device_block")
    if sums.lr > 0.0 and t3 > 0.0 and sums.lr / t3 > co.f_relay_max * (1.0 + 1e-9):
        out.append("relay_cpu_cap_own_block")
    return tuple(out)


# --- each scheme's program at one split ------------------------------------


class _Room:
    """One split's totals and the deadline budgets every scheme's rows share.

    With tau_s = es/f_bs, the BS slot of the device's offloaded tasks:

    - device: D = t_s_th - tau_s, the device block's budget;
    - own: O = t_r_th - t0 - er/f_bs, the relay-own block's budget, from
      the relay's arrival t0 until the BS must start on its tasks;
    - window: W = t_r_th - t0 - tau_s - er/f_bs, what is left of O once
      the device's BS slot also comes first (S1 and S3);
    - finish: t_r_th - er/f_bs, S2's bound on its completion time t_c;
    - horizon: max(t_s_th, t_r_th), the scale of the S2/S3 cold starts.

    ``sums`` takes the split's totals when the caller already has them;
    they must equal ``model.split_sums`` of the split.  The traversal
    builds one for every split that comes up, and hands it to the split's
    scheme floors and solves.
    """

    __slots__ = ("sums", "t0", "t_r", "horizon", "tau_s", "device", "own", "window", "finish")

    def __init__(
        self, indices: Case2Indices, scenario: Scenario, sums: SplitSums | None
    ) -> None:
        if sums is None:
            sums = model.split_sums(scenario, indices.n1, indices.n2, indices.m1)
        t0, ts, tr = _deadline_triple(scenario)
        f_bs = scenario.compute.f_bs_max
        tau_s = sums.es / f_bs
        relay_bs = sums.er / f_bs
        self.sums = sums
        self.t0 = t0
        self.t_r = tr
        self.horizon = max(ts, tr)
        self.tau_s = tau_s
        self.device, self.own = _budgets(sums, scenario)
        self.window = tr - t0 - tau_s - relay_bs
        self.finish = tr - relay_bs


def _rows(scheme: SchemeId, room: _Room) -> tuple[list[list[float]], list[float]]:
    """Rows A and bounds b of the scheme's timing constraints A x <= b, as
    the starting points are placed on them.

    Columns: tau1, tau2, tau3, T1, T2, T3, then S2's epigraph variable t_c
    of its completion-time max; S3's relay-own transmission gap tau0 is
    pinned at zero, its optimal value, and has none.  Every column has a
    row of nonnegative coefficients that caps it, but S2's tau3 and T3:
    its relay completion row plus its t_c row caps those,
    tau3 + T2 + T3 <= finish - t0.  The engine solves S2 without t_c, on
    :func:`_engine_rows`.
    """
    t0 = room.t0
    if scheme is SchemeId.S1:
        table = (
            # tau1 tau2 tau3 T1 T2 T3
            ((0, 0, 1, -1, 0, 1), -t0),  # ordering: T1 waits for the own block
            ((0, 0, 1, 0, 0, 1), room.window),  # the own block's window
            ((1, 1, 0, 1, 1, 0), room.device),  # the device block's budget
        )
    elif scheme is SchemeId.S2:
        table = (
            # tau1 tau2 tau3 T1 T2 T3 t_c
            ((1, 1, 0, 1, 1, -1, 0), t0),  # ordering: the device block ends by t0 + T3
            ((1, 1, 0, 1, 1, 0, -1), -room.tau_s),  # t_c covers it and its BS slot
            ((0, 0, 1, 0, 1, 1, -1), -t0),  # t_c covers the relay's work from t0
            ((0, 0, 0, 0, 0, 0, 1), room.finish),  # the BS then serves the relay in time
            ((1, 1, 0, 1, 1, 0, 0), room.device),  # the device block's budget
        )
    else:
        table = (
            # tau1 tau2 tau3 T1 T2 T3
            ((1, 0, 0, 1, 0, -1), t0),  # ordering: the device upload ends by t0 + T3
            ((-1, 0, 1, -1, -1, 1), -t0),  # the forward waits for the own upload
            ((0, 0, 1, 0, 0, 1), room.window),  # the own block's window
            ((1, 1, 0, 1, 1, 0), room.device),  # the device block's budget
        )
    return [[float(c) for c in a] for a, _ in table], [float(b) for _, b in table]


def _engine_rows(scheme: SchemeId, room: _Room) -> tuple[list[list[float]], list[float]]:
    """The rows the engine solves each scheme on: :func:`_rows`, but S2's
    without its epigraph column t_c.

    A t_c meets S2's five rows exactly when the device block plus tau_s
    and t0 + tau3 + T2 + T3 both fit ``finish``, since t_c = the larger of
    the two then does.  Eliminating t_c (Fourier-Motzkin) leaves three rows
    over the six durations, the second and third each the sum of a t_c row
    and its bound.
    """
    if scheme is not SchemeId.S2:
        return _rows(scheme, room)
    t0 = room.t0
    table = (
        # tau1 tau2 tau3 T1 T2 T3
        ((1, 1, 0, 1, 1, -1), t0),  # ordering: the device block ends by t0 + T3
        ((1, 1, 0, 1, 1, 0), min(room.device, t0 + room.window)),  # it and its BS slot in time
        ((0, 0, 1, 0, 1, 1), room.own),  # the relay's work from t0, then its BS slot
    )
    return [[float(c) for c in a] for a, _ in table], [float(b) for _, b in table]


def _feasible(scheme: SchemeId, room: _Room) -> bool:
    """Whether the scheme's rows hold to _FEAS_TOL at their corner point.

    The corner has every duration at zero but T1 = t0 in S1 and S3, and
    t_c = max(tau_s, t0) in S2.  The test is exact: dropping the
    nonnegative durations from the rows shows that no point meets them
    unless the corner does.  In S1 and S3 the ordering and device rows
    need t0 <= D, the window row W >= 0; in S2 the device row needs
    D >= 0, the completion rows max(tau_s, t0) <= finish.  Each condition
    is one row's excess at the corner; the other rows hold there.
    """
    if scheme is SchemeId.S2:
        return -room.device <= _FEAS_TOL and max(room.tau_s, room.t0) - room.finish <= _FEAS_TOL
    return room.t0 - room.device <= _FEAS_TOL and -room.window <= _FEAS_TOL


class _PolytopeProjector:
    """Cyclic projector onto x >= lo, A x <= b, for a few dimensions.

    It only places the numeric engine's starting points on the polytope.
    Each sweep clips x to its bounds and reflects it off every violated
    row.  Reflections are over-relaxed while far from the intersection,
    which breaks the slow zig-zag that plain alternating projections
    exhibit at acute constraint angles.  The sweeps run in the function
    :func:`_sweep_kernel` compiles once per :func:`_plane_table`, which is
    keyed by row shape, so a split only passes its bounds.  A projection
    leaves the :meth:`violation` of the point it returns in
    ``last_violation``, taken by the stopping test that ended the sweeps,
    or once after the last sweep.
    """

    def __init__(
        self,
        lo: Sequence[float],
        rows: Sequence[Sequence[float]],
        bounds: Sequence[float],
        tol: float,
        max_sweeps: int,
    ) -> None:
        lows = tuple(map(float, lo))
        self._sweep = _sweep_kernel(len(lows), _plane_table(tuple(map(tuple, rows))))
        self._args = (lows, tuple(map(float, bounds)), tol)
        self._max_sweeps = max_sweeps
        self.last_violation = math.nan

    def violation(self, x: list[float]) -> float:
        """Largest bound excess or row distance outside the polytope."""
        return self._sweep(x, *self._args, 0)[1]

    def __call__(self, point: list[float]) -> list[float]:
        x, self.last_violation = self._sweep(point, *self._args, self._max_sweeps)
        return x


@functools.lru_cache(maxsize=64)  # solve_scheme asks for at most 32 tables
def _plane_table(rows: tuple[tuple[float, ...], ...]) -> tuple[tuple, ...]:
    """Each row's nonzero coefficients as (column, value), its 1/|a|^2 and
    its |a|: no bound, so one table per row shape serves every split."""
    planes = []
    for a in rows:
        nonzero = tuple((j, float(c)) for j, c in enumerate(a) if c != 0.0)
        norm_sq = sum(c * c for _, c in nonzero)
        planes.append((nonzero, 1.0 / norm_sq, math.sqrt(norm_sq)))
    return tuple(planes)


def _times(target: str, op: str, c: float, name: str) -> str:
    # `target op= c * name`, where c * name is exact for c = +-1.0 and
    # a - b is a + -b
    if c == 1.0:
        return "{} {}= {}".format(target, op, name)
    if c == -1.0:
        return "{} {}= {}".format(target, "-" if op == "+" else "+", name)
    return "{} {}= {!r} * {}".format(target, op, c, name)


# the projector's sweep; _sweep_kernel writes out its blocks for one plane table
_SWEEP_SOURCE = """
def sweep(point, lows, bounds, tol, max_sweeps):
 [{x}] = map(float, point)
 [{lows}] = lows
 [{bounds}] = bounds
 settled, far, relax = 0.25 * tol, 100.0 * tol, 1.7
 for _ in range(max_sweeps):
  {clip}
  w = 0.0
  {reflect}
  if w <= settled:
   # the rows hold before relaxation: one exact bound pass
   {clip_}
   {measure_}
   if v <= tol: break
  relax = 1.7 if w > far else 1.0
 else:
  {measure}
 return [{x}], v
"""


@functools.lru_cache(maxsize=64)  # one function per _plane_table entry
def _sweep_kernel(width: int, planes: tuple[tuple, ...]) -> Callable:
    """The projector's sweeps over ``width`` columns and one plane table,
    compiled on first use as
    ``sweep(point, lows, bounds, tol, max_sweeps) -> (x, violation)``.

    The source has the table's columns, coefficients, 1/|a|^2 and |a| as
    literals (``repr`` round-trips a float) and x in locals, and takes
    every float operation of a plain loop over the table in the same
    order, so each result is that loop's bit for bit: a bound clip is
    ``if lo > x: x = lo``, which is ``max(x, lo)`` with NaN and signed
    zeros included.  The violation is the largest bound excess or row
    distance at the returned x; with ``max_sweeps`` = 0 it is x's.
    """
    clip = ["if l{0} > x{0}: x{0} = l{0}".format(j) for j in range(width)]
    measure = ["v = 0.0"]
    measure += ["if l{0} - x{0} > v: v = l{0} - x{0}".format(j) for j in range(width)]
    reflect = []
    for r, (nonzero, inv_norm_sq, norm) in enumerate(planes):
        excess = ["e = -b{}".format(r)]
        excess += [_times("e", "+", c, "x{}".format(j)) for j, c in nonzero]
        measure += excess + ["if e > v * {0!r}: v = e / {0!r}".format(norm)]
        reflect += excess + ["if e > 0.0:", " s = e * {!r} * relax".format(inv_norm_sq)]
        reflect += [" " + _times("x{}".format(j), "-", c, "s") for j, c in nonzero]
        reflect += [" if e > w * {0!r}: w = e / {0!r}".format(norm)]
    source = _SWEEP_SOURCE.format(
        x=", ".join("x{}".format(j) for j in range(width)),
        lows=", ".join("l{}".format(j) for j in range(width)),
        bounds=", ".join("b{}".format(r) for r in range(len(planes))),
        clip="\n  ".join(clip), clip_="\n   ".join(clip), reflect="\n  ".join(reflect),
        measure="\n  ".join(measure), measure_="\n   ".join(measure),
    )
    namespace = {"inf": math.inf, "nan": math.nan}  # how repr spells them
    exec(source, namespace)
    return namespace["sweep"]


@dataclass(frozen=True)
class NewtonResult:
    """Output of :func:`active_set_newton`.

    The multipliers are the optimality certificate: all are >= 0, only
    constraints that hold with equality carry a nonzero one, and
    ``slopes + rows.T @ row_multipliers - lower_multipliers`` vanishes at
    ``point`` when ``converged``.
    ``iterations`` counts the Newton steps and working-set drops taken.
    """

    point: list[float]
    row_multipliers: list[float]
    lower_multipliers: list[float]
    converged: bool
    iterations: int


# a face is solved once its Newton step moves no slope by more than this
# fraction of the largest stationarity term on the slope's coordinate
_FACE_REL = 1e-11
# a multiplier below -_DROP_REL times its coordinates' slopes is negative
_DROP_REL = 1e-12
# the energy rise that backtracking forgives as rounding, relative
_ROUNDING = 16.0 * 2.0**-52
# a move whose curvature, beyond what the moves before it explain, is below
# this fraction of its own depends on them and stays out of the step
_DEPENDENT = 1e-10
# a face is reused while no pivot in a move costs more than this many times
# the move's own coordinate, which then keeps at least
# 1 / (1 + _PIVOT_SLACK * sum_i M_if^2) of the move's curvature
_PIVOT_SLACK = 4.0
_MAX_ITER = 500


def _positive(v: float) -> float:
    """max(v, 0.0) that maps -0.0 to 0.0 and keeps a NaN."""
    return 0.0 if v <= 0.0 else v


def _dot(u: Sequence[float], v: Sequence[float]) -> float:
    """u @ v, its products added left to right from 0.0 as
    :func:`model.plain_sum` adds, so the answer is the same on every
    Python version."""
    total = 0.0
    for a, b in zip(u, v):
        total += a * b
    return total


def _finite(values: Sequence[float]) -> bool:
    """Whether every value is finite (not infinite, not NaN)."""
    for v in values:
        if not -math.inf < v < math.inf:
            return False
    return True


def _least_squares(columns: list[list[float]], target: list[float]) -> list[float]:
    """Coefficients y minimising |sum_i y_i columns[i] - target|.

    Modified Gram-Schmidt with column pivoting on unit-length columns, each
    one orthogonalised twice.  A column whose remainder is below 1e-10
    depends on the earlier ones and gets coefficient 0."""
    lengths = [math.sqrt(_dot(col, col)) or 1.0 for col in columns]
    rest = [[v / length for v in col] for col, length in zip(columns, lengths)]
    rest_target = list(target)
    left = list(range(len(columns)))  # the columns not yet taken, ascending
    order: list[int] = []
    coef: list[float] = []
    r: dict[tuple[int, int], float] = {}
    while left:
        # the first column of the largest remainder, as max() picks it
        i, largest = -1, 0.0
        for c in left:
            size_sq = _dot(rest[c], rest[c])
            if i < 0 or size_sq > largest:
                i, largest = c, size_sq
        size = math.sqrt(largest)
        if size <= 1e-10:
            break
        q = [v / size for v in rest[i]]
        r[i, i] = size
        left.remove(i)
        for j in left + [-1]:
            vec = rest[j] if j >= 0 else rest_target
            total = 0.0
            for _ in range(2):
                dot = _dot(q, vec)
                vec = [a - dot * b for a, b in zip(vec, q)]
                total += dot
            if j >= 0:
                rest[j], r[i, j] = vec, total
            else:
                rest_target = vec
                coef.append(total)
        order.append(i)
    y = [0.0] * len(columns)
    for a in range(len(order) - 1, -1, -1):
        i = order[a]
        known = 0.0
        for j in order[a + 1 :]:
            known += r[i, j] * y[j]
        y[i] = (coef[a] - known) / r[i, i]
    return [v / length for v, length in zip(y, lengths)]


def _pivoted_solve(a: list[list[float]], b: list[float]) -> list[float]:
    """Solve a @ u = b for a positive semidefinite matrix with a unit
    diagonal, by Cholesky elimination that pivots on the largest remaining
    diagonal (the first of equals); a and b are overwritten.  Once that
    diagonal falls to _DEPENDENT, the moves left depend on the ones
    eliminated and get coefficient 0."""
    left = list(range(len(b)))
    order: list[int] = []
    while left:
        k = left[0]
        for i in left:
            if a[i][i] > a[k][k]:
                k = i
        pivot = a[k][k]
        if pivot <= _DEPENDENT:
            break
        left.remove(k)
        order.append(k)
        row_k = a[k]
        for i in left:
            row_i = a[i]
            factor = row_i[k] / pivot
            if factor:
                for j in left:
                    row_i[j] -= factor * row_k[j]
                b[i] -= factor * b[k]
    u = [0.0] * len(b)
    for pos in range(len(order) - 1, -1, -1):
        k = order[pos]
        row_k = a[k]
        known = 0.0
        for j in order[pos + 1 :]:
            known += row_k[j] * u[j]
        u[k] = (b[k] - known) / row_k[k]
    return u


class _Face:
    """The working rows on the free coordinates, in reduced echelon form.

    The echelon form E @ rows = R has a unit column at each pivot column
    p_i; M_if = R[i][f] at every other column f.  The moves
    z_f = e_f - sum_i M_if e_{p_i} span the face {v : rows @ v = 0}, and
    keep the rows' +-1 structure, so a move of zero-cost coordinates alone
    (such as an unloaded duration the engine keeps) has no curvature
    and no slope.  When the rows are independent, E is the inverse of their
    pivot block.

    The columns are taken as pivots in ``order``, ascending curvature, so
    no pivot in a move costs more than the move's own coordinate.  That
    coordinate then carries at least 1 / (1 + sum_i M_if^2) of the move's
    curvature, and the scaled reduced Hessian stays well conditioned however
    far the curvatures spread; pivoting on a costly coordinate would make
    the moves through it nearly parallel.  The engine keeps one face per
    free set and working set, and takes another only when the curvatures
    have moved so far that it no longer :meth:`fits` them.  A face depends
    on its rows and pivot order alone and is never changed once built, so
    :func:`_shared_face` factors each once per process for every run.
    """

    def __init__(self, rows: Sequence[Sequence[float]], order: Sequence[int]) -> None:
        n, k = len(order), len(rows)
        m = [list(row) + [float(i == j) for j in range(k)] for i, row in enumerate(rows)]
        pivots: list[int] = []
        for c in order:
            r = len(pivots)
            if r == k:
                break
            p = max(range(r, k), key=lambda i: abs(m[i][c]))
            if abs(m[p][c]) <= 1e-12:
                continue
            m[r], m[p] = m[p], m[r]
            m[r] = [v / m[r][c] for v in m[r]]
            for i in range(k):
                if i != r and m[i][c]:
                    factor = m[i][c]
                    m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
        self.rows = rows
        # each move's nonzeros, and the pivots that couple two moves a < b
        self.moves = [
            [(f, 1.0)] + [(p, -m[i][f]) for i, p in enumerate(pivots) if m[i][f]]
            for f in range(n)
            if f not in pivots
        ]
        self.couplings = []
        for b, zb in enumerate(self.moves):
            for a, za in enumerate(self.moves[:b]):
                common = [(j, v * w) for j, v in za[1:] for i, w in zb[1:] if i == j]
                if common:
                    self.couplings.append((a, b, common))
        # (pivot, own coordinate) of every move
        self.spans = [(j, z[0][0]) for z in self.moves for j, _ in z[1:]]
        # lam_i = sum_r E[r][i] pull[p_r], one nonzero list per row
        self.inverse = None
        if len(pivots) == k:
            self.inverse = [
                [(pivots[r], m[r][n + i]) for r in range(k) if m[r][n + i]] for i in range(k)
            ]

    def fits(self, curvatures: list[float]) -> bool:
        """Whether no pivot in a move costs more than _PIVOT_SLACK times the
        move's own coordinate, so the reduced Hessian is still well
        conditioned at these curvatures."""
        for p, f in self.spans:
            if not curvatures[p] <= _PIVOT_SLACK * curvatures[f]:
                return False
        return True

    def newton_step(
        self, slopes: list[float], curvatures: list[float]
    ) -> tuple[list[float], list[float]]:
        """Newton step p on the face, and the pull -(g + H p) it leaves.

        Solves the KKT system [[H, A^T], [A, 0]] [p; lam] = [-g; 0] of the
        diagonal Hessian H = diag(curvatures) by the null-space method:
        p = sum_f u_f z_f, where (Z^T H Z) u = -Z^T g and
        Z^T H Z = H_N + M^T H_P M.  Each move is scaled to unit curvature,
        and the reduced system is solved by :func:`_pivoted_solve`; a move
        with no curvature, or one that depends on the others, gets
        coefficient 0.  When no two moves share a pivot, the reduced system
        is the identity, and its solution is the right-hand side itself, as
        :func:`_pivoted_solve` returns it while every entry is finite.
        """
        kept, scales, rhs = [], [], []
        for a, z in enumerate(self.moves):
            curvature = 0.0
            for j, v in z:
                curvature += curvatures[j] * v * v
            if 0.0 < curvature < math.inf:
                scale = 1.0 / math.sqrt(curvature)
                slope = 0.0
                for j, v in z:
                    slope += slopes[j] * v
                kept.append(a)
                scales.append(scale)
                rhs.append(-scale * slope)
        solution = rhs
        if self.couplings or not _finite(rhs):
            slot = [-1] * len(self.moves)  # each move's row in the reduced system
            for row, a in enumerate(kept):
                slot[a] = row
            reduced = [[float(a == b) for b in range(len(kept))] for a in range(len(kept))]
            for a, b, common in self.couplings:
                a, b = slot[a], slot[b]
                if a >= 0 and b >= 0:
                    coupling = 0.0
                    for j, w in common:
                        coupling += curvatures[j] * w
                    reduced[a][b] = reduced[b][a] = scales[a] * scales[b] * coupling
            solution = _pivoted_solve(reduced, rhs)
        step = [0.0] * len(slopes)
        for a, scale, u in zip(kept, scales, solution):
            if u:
                for j, v in self.moves[a]:
                    step[j] += scale * u * v
        pull = [-(g + h * p) for g, h, p in zip(slopes, curvatures, step)]
        return step, pull

    def multipliers(self, pull: list[float]) -> list[float]:
        """The rows' multipliers, from rows.T @ lam = pull on the pivot
        coordinates: E.T @ pull[pivots].  Dependent rows take the
        certificate solve."""
        if self.inverse is None:
            return self.certificate(pull)
        lam = []
        for column in self.inverse:
            total = 0.0
            for p, c in column:
                total += c * pull[p]
            lam.append(total)
        return lam

    def certificate(self, pull: list[float]) -> list[float]:
        """Least-squares multipliers of rows.T @ lam = pull, weighted by each
        coordinate's own size, so every coordinate's stationarity holds to
        its own rounding (the system is consistent on a solved face, so the
        weights leave its solution alone)."""
        sizes = [abs(v) for v in pull if v]
        if not self.rows or not sizes:
            return [0.0] * len(self.rows)
        smallest = min(sizes)
        weight = [1.0 / (abs(v) if v else smallest) for v in pull]
        columns = [[c * w for c, w in zip(row, weight)] for row in self.rows]
        return _least_squares(columns, [v * w for v, w in zip(pull, weight)])


# the most faces :func:`_shared_face` keeps; at about 2.7 kB each with its
# key, the table holds at most about 1.4 MB
_FACE_TABLE_SIZE = 512


@functools.lru_cache(maxsize=_FACE_TABLE_SIZE)
def _shared_face(rows: tuple[tuple[float, ...], ...], order: tuple[int, ...]) -> _Face:
    """``_Face(rows, order)``, built once per process while it stays among
    the _FACE_TABLE_SIZE most recently used.  Every program's rows are one
    of three literal tables, so the same faces recur across splits,
    deadlines and scenarios; a face is never changed once built."""
    return _Face(rows, order)


def active_set_newton(
    energy: Callable[[list[float]], float],
    slopes: Callable[[list[float]], Sequence[float]],
    curvatures: Callable[[list[float]], Sequence[float]],
    rows: Sequence[Sequence[float]],
    bounds: Sequence[float],
    lo: Sequence[float],
    start: Sequence[float],
) -> NewtonResult:
    """Minimise a separable convex energy over x >= lo, rows @ x <= bounds.

    A primal active-set method (Nocedal & Wright, *Numerical
    Optimization*, ch. 16) with Newton steps: ``start`` must be feasible,
    and every iterate stays so.  Each iteration solves the KKT system of
    the working set (the rows and bounds held at equality) with the
    diagonal Hessian ``curvatures`` on the face's echelon form (see
    :class:`_Face`), cuts the step at the first blocking row or bound (which
    then joins the working set), and backtracks on ``energy``.  The faces
    are factored once per process, in a table of at most _FACE_TABLE_SIZE
    keyed by the working rows on the free coordinates and the pivot order
    (:func:`_shared_face`); which face an iteration uses is decided per
    run, so the table changes no iterate.  Once the step on the current
    face is negligible, the multipliers are solved for again to each
    coordinate's own accuracy, and the most negative one leaves the
    working set; when none is negative, the point is optimal.  ``rows``,
    ``bounds`` and ``lo`` may be any float sequences.  The rows must bound
    the polytope; the engine has no upper bounds.
    """
    n = len(start)
    x = [float(v) for v in start]
    lo = [float(v) for v in lo]
    row_list = [[float(c) for c in row] for row in rows]
    bound_list = [float(b) for b in bounds]
    nonzeros = [[(j, c) for j, c in enumerate(row) if c] for row in row_list]
    # whether each coordinate is held at its lower bound
    fixed = [False] * n
    for j in range(n):
        if x[j] <= lo[j]:
            x[j], fixed[j] = lo[j], True
    working: list[int] = []
    faces: dict[tuple[tuple[int, ...], tuple[int, ...]], _Face] = {}
    # the free coordinates and their face are looked up again only after
    # the free set or the working set has changed
    changed = True
    value = energy(x)
    converged = False

    def pulled() -> list[float]:
        """What the working rows leave of each slope; a bound takes the rest."""
        pull = list(g)
        for i, mult in zip(working, lam):
            for j, c in nonzeros[i]:
                pull[j] += c * mult
        return pull

    def point_at(t: float) -> list[float]:
        trial = [v + t * p for v, p in zip(x, step)]
        if t == reach and block[1]:
            trial[block[0]] = lo[block[0]]
        return trial

    for iterations in range(1, _MAX_ITER + 1):
        g = slopes(x)
        h = [1e300 if v > 1e300 else v for v in curvatures(x)]  # min(v, 1e300), call-free
        if changed:
            free = [j for j in range(n) if not fixed[j]]
            whole = len(free) == n  # then the face's coordinates are x's own
            key = (tuple(free), tuple(working))
            face = faces.get(key)
            changed = False
        lam = [0.0] * len(working)
        solved = True
        if not free:
            step = [0.0] * n
        else:
            if whole:
                g_free, h_free = g, h
            else:
                g_free, h_free = [g[j] for j in free], [h[j] for j in free]
            if face is None or not face.fits(h_free):
                rows_on_face = tuple([tuple([row_list[i][j] for j in free]) for i in working])
                order = tuple(sorted(range(len(free)), key=h_free.__getitem__))
                face = faces[key] = _shared_face(rows_on_face, order)
            p_free, pull_free = face.newton_step(g_free, h_free)
            lam = face.multipliers(pull_free)
            if whole:
                step = p_free
            else:
                step = [0.0] * n
                for j, p in zip(free, p_free):
                    step[j] = p
            for k, p in enumerate(p_free):
                # the largest stationarity term, kept as max() keeps it
                largest = abs(g_free[k])
                for r, y in zip(face.rows, lam):
                    term = abs(r[k] * y)
                    if term > largest:
                        largest = term
                if not abs(h_free[k] * p) <= _FACE_REL * largest:
                    solved = False
                    break
            if solved and face.inverse is not None:
                lam = face.certificate(pull_free)

        if solved:
            pull = pulled()
            offers = [
                (mult / max(max(abs(g[j]) for j, _ in nonzeros[i]), 1e-300), i)
                for i, mult in zip(working, lam)
            ]
            offers += [
                (pull[j] / max(abs(g[j]) + abs(pull[j] - g[j]), 1e-300), n + j)
                for j in range(n)
                if fixed[j]
            ]
            worst, drop = min(offers, default=(0.0, None))
            if worst >= -_DROP_REL:
                converged = True
                break
            if drop < n:
                working.remove(drop)
            else:
                fixed[drop - n] = False
            changed = True
            continue

        # ratio test: how far along the step every constraint outside the
        # working set still holds, and the first one to block it
        reach, block = math.inf, None
        for i, row in enumerate(nonzeros):
            if i in working:
                continue
            rate = 0.0
            for j, c in row:
                rate += c * step[j]
            if rate > 0.0:
                used = 0.0
                for j, c in row:
                    used += c * x[j]
                room = max(bound_list[i] - used, 0.0)
                if room < reach * rate:
                    reach, block = room / rate, (i, False)
        for j in free:
            if step[j] < 0.0 and x[j] + reach * step[j] < lo[j]:
                reach, block = max((lo[j] - x[j]) / step[j], 0.0), (j, True)

        decrease = _dot(g, step)
        t = min(1.0, reach)
        trial = point_at(t)
        trial_value = energy(trial)
        while not trial_value <= value + 1e-4 * t * decrease + _ROUNDING * abs(value):
            t *= 0.5
            if t < 1e-16:
                break
            trial = point_at(t)
            trial_value = energy(trial)
        else:
            if t == 1.0 and value - trial_value > -0.6 * decrease > 1e-6 * abs(value):
                # far from the optimum, where the quadratic model badly
                # underestimates the gain (an exponent of hundreds), the
                # full step is doubled while the energy keeps falling
                while t < reach:
                    longer = min(2.0 * t, reach)
                    longer_point = point_at(longer)
                    longer_value = energy(longer_point)
                    if not longer_value < trial_value:
                        break
                    t, trial, trial_value = longer, longer_point, longer_value
            x, value = trial, trial_value
            if t == reach:
                if block[1]:
                    fixed[block[0]] = True
                else:
                    working.append(block[0])
                changed = True
            continue
        break  # no decrease left along a step that is not negligible

    if not solved:
        # the working set has at most gained a row since lam was solved
        pull = pulled()
    row_multipliers = [0.0] * len(row_list)
    for i, mult in zip(working, lam):
        row_multipliers[i] = _positive(mult)
    return NewtonResult(
        point=x,
        row_multipliers=row_multipliers,
        lower_multipliers=[_positive(p) if f else 0.0 for p, f in zip(pull, fixed)],
        converged=converged,
        iterations=iterations,
    )


def _cold_starts(scheme: SchemeId, room: _Room) -> list[list[float]]:
    """The engine's cold starts, in :func:`_rows`' columns.

    Scheme 1's fills the device budget D.  The relay-own block takes half
    the time its rows leave it, min(W, D - t0), shared evenly by tau3 and
    T3 where each carries load.  T1 waits for that block from t0 and then
    takes an equal share of what is left of D with the other loaded device
    durations.  Every duration is a fraction of a deadline budget, so the
    start stays usable at any time scale.  Schemes 2 and 3 start with every
    duration at 5%, then 20%, of the horizon, and S2's t_c at half of
    t_r_th; the projector places them.
    """
    sums, t0 = room.sums, room.t0
    if scheme is SchemeId.S1:
        own = (sums.d3 > 0.0, sums.lr > 0.0)
        block = 0.5 * min(room.window, room.device - t0) if any(own) else 0.0
        tau3, t3 = (block / sum(own) if loaded else 0.0 for loaded in own)
        device = (sums.d1 > 0.0, sums.d2 > 0.0, sums.rs > 0.0)
        share = (room.device - t0 - block) / (1 + sum(device))
        tau1, tau2, t2 = (share if loaded else 0.0 for loaded in device)
        return [[tau1, tau2, tau3, t0 + block + share, t2, t3]]
    extra = [0.5 * room.t_r] if scheme is SchemeId.S2 else []
    return [[frac * room.horizon] * 6 + extra for frac in (0.05, 0.2)]


def solve_scheme(
    scheme: SchemeId,
    indices: Case2Indices,
    scenario: Scenario,
    *,
    room: _Room | None = None,
) -> Case2LowerSolution:
    """Minimize one scheme at a fixed split with :func:`active_set_newton`.

    The engine runs from the first usable cold start of
    :func:`_cold_starts`.  A start is usable when
    :class:`_PolytopeProjector` places it within _FEAS_TOL of the scheme's
    lower bounds and :func:`_rows` at finite energy; the projector's planes
    are built once per row shape (:func:`_plane_table`), so a split only
    supplies its bounds.  The engine then solves the same program on
    :func:`_engine_rows`, which drops S2's epigraph column t_c, with every
    unloaded duration that only uses up budget pinned at zero: a
    zero-data transmission, and an unloaded compute duration with no
    negative coefficient (S1's T2 and T3, S2's T1 and T2).  The start,
    restricted to the engine's columns, still meets its rows and keeps
    its energy; the program is convex, so one run from it reaches the
    optimum.  The engine's energy, slopes and curvatures loop over the
    program's loaded columns alone, calling the model's per-term kernels
    and adding the energy terms in :func:`model.energy`'s order, so each
    value equals the six-term model's; an unloaded column the engine keeps
    reads 0.  The engine's row multipliers are the solution's prices, and
    Scheme 1's duals are read from them.  Scheme 3's relay-own
    transmission gap tau0 is pinned at zero, its optimal value.

    ``room`` gives the split's :class:`_Room` when the caller has it, so
    the solve builds none.
    """
    if room is None:
        room = _Room(indices, scenario, None)
    sums = room.sums
    if not _feasible(scheme, room):
        raise _infeasible(scheme, indices)

    n_vars = 7 if scheme is SchemeId.S2 else 6
    loads = (sums.d1, sums.d2, sums.d3, sums.ls, sums.rs, sums.lr)
    eps = 1e-12 * room.horizon
    lo = [eps if 3 <= i < 6 and loads[i] > 0.0 else 0.0 for i in range(n_vars)]

    # the starts are placed on _rows' program, where only zero-data
    # transmissions leave the search space
    rows, bounds = _rows(scheme, room)
    placed = [i for i in range(n_vars) if i >= 3 or loads[i] > 0.0]
    rows = [[row[i] for i in placed] for row in rows]
    project = _PolytopeProjector([lo[i] for i in placed], rows, bounds, tol=1e-13, max_sweeps=400)
    for start in _cold_starts(scheme, room):
        point = project([start[i] for i in placed])
        accepted = [0.0] * n_vars
        for k, i in enumerate(placed):
            accepted[i] = point[k]
        if project.last_violation <= _FEAS_TOL and math.isfinite(
            model.energy(sums, scenario, *accepted[:6])
        ):
            break
    else:
        raise _infeasible(scheme, indices)

    # The engine solves the equivalent program of _engine_rows.  An
    # unloaded duration is pinned at zero and leaves the search space when
    # it is a transmission, or a compute duration whose coefficients are
    # all >= 0: it costs nothing and only uses up budget, so zero is
    # optimal, and the start stays feasible with it at zero.
    rows, bounds = _engine_rows(scheme, room)
    active = [
        i for i in range(6) if loads[i] > 0.0 or (i >= 3 and any(row[i] < 0.0 for row in rows))
    ]
    rows = [[row[i] for i in active] for row in rows]

    # The loaded columns, in model._term_values order: (reduced index, data,
    # gain) of each transmission, (reduced index, cycles, kappa) of each
    # compute duration.  An unloaded column carries no energy, and the
    # terms are nonnegative, so leaving its zeros out of the sum changes no
    # bit of model.energy.
    ch, co = scenario.channel, scenario.compute
    coefficients = (
        ch.gain_md_relay, ch.gain_relay_bs, ch.gain_relay_bs, co.kappa_md, co.kappa_relay,
        co.kappa_relay,
    )
    loaded = [(k, i) for k, i in enumerate(active) if loads[i] > 0.0]
    sends = [(k, loads[i], coefficients[i]) for k, i in loaded if i < 3]
    works = [(k, loads[i], coefficients[i]) for k, i in loaded if i >= 3]
    transmit_term, compute_term = model._transmit_term, model._compute_term

    def objective(reduced: list[float]) -> float:
        total = 0.0
        for k, d, gain in sends:
            total += transmit_term(d, reduced[k], gain, ch)
        for k, cycles, kappa in works:
            total += compute_term(cycles, reduced[k], kappa)
        return total

    def per_column(transmit: Callable, compute: Callable) -> Callable[[list[float]], list[float]]:
        # each reduced column's slope or curvature, 0.0 where it carries no load
        def values(reduced: list[float]) -> list[float]:
            out = [0.0] * len(active)
            for k, d, gain in sends:
                out[k] = transmit(d, reduced[k], gain, ch)
            for k, cycles, kappa in works:
                out[k] = compute(cycles, reduced[k], kappa)
            return out

        return values

    slopes = per_column(model._transmit_slope, model._compute_slope)
    curvatures = per_column(model._transmit_curvature, model._compute_curvature)

    lo, start = [lo[i] for i in active], [accepted[i] for i in active]
    result = active_set_newton(objective, slopes, curvatures, rows, bounds, lo, start)

    # a step's rounding can leave a duration an ulp below its zero bound
    x = [0.0] * 6
    for k, i in enumerate(active):
        x[i] = max(result.point[k], 0.0)
    prices = tuple(map(float, result.row_multipliers))
    psi = lam = eta1 = eta2 = math.nan
    if scheme is SchemeId.S1:
        # the rows in _engine_rows order: ordering, window, device
        f_bs = scenario.compute.f_bs_max
        lam, window, psi = prices
        eta2 = window / f_bs
        eta1 = eta2 + psi / f_bs
    return Case2LowerSolution(
        tau1=x[0],
        tau2=x[1],
        tau3=x[2],
        t1=x[3],
        t2=x[4],
        t3=x[5],
        tau_s=room.tau_s,
        psi=psi,
        lam=lam,
        eta1=eta1,
        eta2=eta2,
        energy=model.energy(sums, scenario, *x),
        cap_violations=_cap_violations(sums, x[3], x[4], x[5], scenario),
        prices=prices,
    )


def _caps(scheme: SchemeId, room: _Room, slack: float) -> tuple[float, ...]:
    """The largest (tau1, tau2, tau3, T1, T2, T3) the scheme's rows allow,
    each widened by ``slack``.

    - at most D, D, O, D, D, O in every scheme: the device row bounds the
      device durations; S1 and S3 bound tau3 + T3 by their window row, S2
      by its completion-time rows.
    - S1: D-t0, D-t0, min(W, D-t0), D, D-t0, min(W, D-t0).  The ordering
      row T1 >= t0 + tau3 + T3 leaves the other device durations at most
      D - T1 <= D - t0, and tau3 + T3 at most T1 - t0 <= D - t0.
    - S2: D, D, O, D, min(D, O), O.  T2 also sits in the relay-own
      completion row T2 + T3 + tau3 <= O.
    - S3: D, D-t0, min(W, D-t0), D, D, min(W, D-t0).  The ordering row
      T1 + tau1 + T2 >= t0 + T3 + tau3 leaves tau2 at most D - t0, and
      tau3 + T3 likewise.
    """
    device, own = room.device + slack, room.own + slack
    if scheme is SchemeId.S2:
        return (device, device, own, device, min(device, own), own)
    after = device - room.t0
    window = min(room.window + slack, after)
    if scheme is SchemeId.S1:
        return (after, after, window, device, after, window)
    return (device, after, window, device, device, window)


# How far, in seconds, a scheme's rows may be violated: at their corner
# point for the pair to count as feasible, and at a start the projector
# places for the start to be used.
_FEAS_TOL = 1e-9

# Every cap's slack in _FEAS_TOL units.  A solver accepts a start that
# violates its rows and lower bounds by at most _FEAS_TOL in distance; the
# engine clips that start onto its lower bounds and never raises a row's
# excess.  So at the returned point no duration is negative, and a row of
# k <= 5 unit coefficients exceeds its bound by at most (sqrt(k) + k)
# _FEAS_TOL.  A duration then exceeds its cap by at most the excesses of
# the rows the cap combines: 6 + 7.3 _FEAS_TOL for the device row with
# S3's ordering row, less for every other cap.
_CAP_SLACK = 14.0


def _pair_floors(room: _Room, scenario: Scenario, slack: float, device: float) -> list[float]:
    """Each scheme's floor at the split of ``room``, in S1, S2, S3 order:
    the larger of two bounds on the energy of any point its solver returns.

    The scheme floor is ``model.energy(room.sums, scenario,
    *_caps(scheme, room, slack))``, bit for bit, since every energy term
    is non-increasing in its own duration; a cap <= 0 under nonzero load
    gives inf.  The device-block bound is ``device``
    (:func:`model.device_block_floor` at D plus ``slack``, which
    :func:`solve_case2` takes once per device split) plus the relay-own
    terms at the scheme's caps.  The six capped terms serve both bounds.
    """
    floors = []
    for scheme in (SchemeId.S1, SchemeId.S2, SchemeId.S3):
        a, b, c, d, e, f = model._term_values(room.sums, scenario, *_caps(scheme, room, slack))
        floors.append(max(a + b + c + d + e + f, device + c + f))
    return floors


def _split_floors(
    splits: Sequence[tuple[int, int, int, SplitSums]], scenario: Scenario
) -> list[float]:
    """Each split's floor over every scheme, for ``splits`` in the order of
    :func:`model.relay_busy_split_sums`.

    Every duration is at its block's whole budget, widened by the caps'
    slack of _CAP_SLACK _FEAS_TOL: D for the device durations, O for the
    relay-own ones, whose rows every scheme keeps, so the floor bounds
    each scheme's floor in :func:`_pair_floors`.  D depends on n2 and O on
    m1 alone, and the splits come in one block of m1 = 1..m+1 per (n1,
    n2); so the device terms are taken once per (n1, n2), the relay-own
    terms once per m1, from the first block, and each floor adds them in
    :func:`model._term_values` order.  With d = D + slack and o = O +
    slack it is ``model.energy(sums, scenario, d, d, o, d, d, o)``, bit
    for bit.  A budget <= 0 under nonzero load gives inf.
    """
    channel, compute = scenario.channel, scenario.compute
    slack = _CAP_SLACK * _FEAS_TOL
    block = scenario.relay_chain.n + 1
    own_terms: list[tuple[float, float]] = []
    for _, _, _, sums in splits[:block]:
        own = _budgets(sums, scenario)[1] + slack
        upload = model._transmit_term(sums.d3, own, channel.gain_relay_bs, channel)
        own_terms.append((upload, model._compute_term(sums.lr, own, compute.kappa_relay)))
    floors: list[float] = []
    for start in range(0, len(splits), block):
        sums = splits[start][3]
        device = _budgets(sums, scenario)[0] + slack
        transmit = (
            model._transmit_term(sums.d1, device, channel.gain_md_relay, channel)
            + model._transmit_term(sums.d2, device, channel.gain_relay_bs, channel)
        )
        local = model._compute_term(sums.ls, device, compute.kappa_md)
        relay = model._compute_term(sums.rs, device, compute.kappa_relay)
        floors += [transmit + upload + local + relay + kept for upload, kept in own_terms]
    return floors


def solve_case2(scenario: Scenario) -> Case2Solution:
    """Traversal over schemes and split indices in ascending floor order.

    The winner is defined by the exhaustive traversal: schemes in the
    order S1, S2, S3, splits lexicographically within each, and a pair
    replaces the incumbent only when its energy is below the incumbent's
    by more than a relative ``model.TIE_REL``, so near-ties break toward
    the lexicographically smallest (scheme, n1, n2, m1).

    Each split's totals come once from :func:`model.relay_busy_split_sums`
    and serve its floors, its solves and the winner's breakdown; its
    indices and room (:class:`_Room`) are built once, when the split comes
    up, and serve its scheme floors and solves.  A heap orders the pairs
    by floors it refines lazily.  Each split enters at its scheme-free
    floor (:func:`_split_floors`: every duration at its block's budget,
    from device terms taken once per (n1, n2) and relay-own terms taken
    once per m1), which bounds every scheme there.  When it comes up,
    its three pairs go back in, each at the larger of its scheme floor,
    :func:`model.energy` at the scheme's :func:`_caps`, and its
    device-block bound (:func:`_pair_floors`), both with the caps' slack
    of _CAP_SLACK _FEAS_TOL.  The device-block floor is computed once per
    device split that comes up, within the call; nothing is kept across
    calls.  A pair is solved when it comes up.  Each key is raised to the
    split's where rounding leaves it below, so popped keys never fall, and
    every key is a floor of its pair's energy.  So only the splits that
    reach the front pay for the pair floors.  The traversal stops at the
    first entry whose floor f satisfies f * (1 - FLOOR_MARGIN - (s + 1) *
    TIE_REL) > E, where E is the lowest energy solved so far and s the
    number of feasible pairs solved.  Every later pair has a floor at
    least f, and each pair's energy is at least its own floor
    (FLOOR_MARGIN absorbs rounding).  The tie rule is then replayed over
    the solved pairs in canonical order.

    Why the replay picks the exhaustive winner: run the tie rule over all
    pairs and over the solved ones side by side.  A skipped pair costs at
    least f * (1 - FLOOR_MARGIN), and only a skipped pair can make the
    runs' incumbents differ.  While they differ, a skipped pair can only
    set the full run's incumbent to its own energy, and a solved pair that
    replaces in one run only lowers the smaller incumbent by at most one
    tie band, so both stay at or above
    f * (1 - FLOOR_MARGIN) * (1 - TIE_REL)**s.  The stopping rule
    puts that level above E / (1 - TIE_REL), and both runs end at or below
    E / (1 - TIE_REL), so they end on the same pair.  One tie band of
    margin would not do: a skipped pair a little over one band above E
    can, as the incumbent, keep a later near-tie pair from taking over.
    """
    if scenario.relay_chain is None:
        raise model.ScenarioError("solve_case2 requires a relay task chain")
    t0, ts, tr = _deadline_triple(scenario)
    if ts > tr:
        raise model.ScenarioError("deadline ordering violated: device chain must finish first")
    if t0 < 0.0:
        raise model.ScenarioError("relay task arrival must be nonnegative")

    splits = list(model.relay_busy_split_sums(scenario))
    slack = _CAP_SLACK * _FEAS_TOL
    # the indices and room of each split that has come up, by split position
    rooms: dict[int, tuple[Case2Indices, _Room]] = {}
    # the device-block floor of each device split (n1, n2) that has come up
    device_floors: dict[tuple[int, int], float] = {}
    # (floor, scheme position or -1 for the whole split, split position)
    heap = [(floor, -1, i) for i, floor in enumerate(_split_floors(splits, scenario))]
    heapq.heapify(heap)
    schemes = (SchemeId.S1, SchemeId.S2, SchemeId.S3)
    solved: list[tuple[int, int, Case2LowerSolution]] = []
    lowest = math.inf
    while heap:
        floor, k, i = heapq.heappop(heap)
        margin = model.FLOOR_MARGIN + (len(solved) + 1) * model.TIE_REL
        if floor * (1.0 - margin) > lowest:
            break
        if k < 0:
            n1, n2, m1, sums = splits[i]
            indices = Case2Indices(n1, n2, m1)
            room = _Room(indices, scenario, sums)
            rooms[i] = indices, room
            device = device_floors.get((n1, n2))
            if device is None:
                device = model.device_block_floor(sums, scenario, room.device + slack)
                device_floors[n1, n2] = device
            for k, pair_floor in enumerate(_pair_floors(room, scenario, slack, device)):
                heapq.heappush(heap, (max(pair_floor, floor), k, i))
            continue
        scheme = schemes[k]
        indices, room = rooms[i]
        try:
            lower = solve_scheme(scheme, indices, scenario, room=room)
        except Infeasible:
            continue
        if not math.isfinite(lower.energy):
            continue
        solved.append((k, i, lower))
        lowest = min(lowest, lower.energy)

    best: tuple[int, int, Case2LowerSolution] | None = None
    for k, i, lower in sorted(solved, key=lambda entry: entry[:2]):
        if best is None or lower.energy < best[2].energy * (1.0 - model.TIE_REL):
            best = (k, i, lower)
    if best is None:
        raise Infeasible(
            "globally infeasible: no scheme and split meets both deadlines",
            ("deadline",),
        )
    k, i, lower = best
    indices, room = rooms[i]
    durations = (lower.tau1, lower.tau2, lower.tau3, lower.t1, lower.t2, lower.t3)
    return Case2Solution(
        scheme=schemes[k],
        indices=indices,
        lower=lower,
        energy_breakdown=model.energy_terms(room.sums, scenario, *durations),
    )
