"""Independent brute-force optimizer used as ground truth in tests.

Everything here is deliberately redundant with the MILP path: schedules
are enumerated outright, job timing is solved exactly by a dynamic
program over candidate completions, and costs come from the evaluator.
Agreement between this module and the branch-and-bound solver on small
instances is the central correctness check of the whole package.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .evaluate import Evaluation, Placement, Schedule, evaluate
from .geometry import feasible_orientations, volume_mm3
from .instance import MachineSpec, ProblemInstance

# brute_force refuses instances with more parts than this
_MAX_PARTS = 6
# a point fits an area cap it exceeds by at most this much
_CAP_TOL = 1e-9


@dataclass(frozen=True)
class TimingPart:
    due_h: float
    earliness_weight: float
    tardiness_weight: float


@dataclass(frozen=True)
class TimingJob:
    processing_h: float
    parts: tuple[TimingPart, ...]


def _chain_timing(jobs: tuple[TimingJob, ...]) -> tuple[tuple[float, ...], float]:
    """Optimal completions for one machine's job chain, by an exact DP.

    With ``ends_k = P_1 + ... + P_k`` the chain rows ``C_1 >= P_1`` and
    ``C_k >= C_{k-1} + P_k`` say that ``S_k = C_k - ends_k`` is
    nonnegative and nondecreasing, and each job's cost is convex
    piecewise linear in it.  So some optimum puts every ``S_k`` at 0 or
    at a breakpoint ``d_i - ends_j`` of a part i in any job j.  A forward
    pass over those candidate completions, each priced with its cheapest
    feasible predecessor, is therefore exact.  Cost ties (within 1e-15)
    go to the lowest completion.
    """
    if not jobs:
        return (), 0.0
    ends = list(itertools.accumulate(job.processing_h for job in jobs))
    breaks = [(part.due_h, j) for j, job in enumerate(jobs) for part in job.parts]
    layers = []  # per job, ascending: (completion, cost through it, predecessor)
    prev = [(-math.inf, 0.0, -1)]
    for k, job in enumerate(jobs):
        candidates = sorted({ends[k], *(max(ends[k], d + (ends[k] - ends[j])) for d, j in breaks)})
        layer = []
        best, best_at, pos = math.inf, -1, 0
        for c in candidates:
            # cheapest predecessor ending by c - P_k, the lowest on ties; the
            # slack absorbs rounding, as both ends are rounded sums
            limit = c - job.processing_h + 1e-9 * max(1.0, abs(c))
            while pos < len(prev) and prev[pos][0] <= limit:
                if prev[pos][1] < best - 1e-15:
                    best, best_at = prev[pos][1], pos
                pos += 1
            own = sum(
                p.earliness_weight * max(0.0, p.due_h - c) + p.tardiness_weight * max(0.0, c - p.due_h)
                for p in job.parts
            )
            layer.append((c, best + own, best_at))
        layers.append(layer)
        prev = layer
    at = 0
    for i, (_, cost, _) in enumerate(prev):
        if cost < prev[at][1] - 1e-15:
            at = i
    total = prev[at][1]
    completions = []
    for layer in reversed(layers):
        completions.append(layer[at][0])
        at = layer[at][2]
    return tuple(reversed(completions)), total


# ------------------------------------------------------------ brute force


@dataclass(frozen=True)
class OraclePoint:
    """One nondominated (z, zz) outcome with a witness schedule."""

    z: float
    zz: float
    evaluation: Evaluation
    schedule: Schedule


@dataclass(frozen=True)
class BruteForceResult:
    """Full nondominated set of a small instance, zz ascending."""

    points: tuple[OraclePoint, ...]

    @property
    def min_zz(self) -> OraclePoint:
        return self.points[0]

    @property
    def min_z(self) -> OraclePoint:
        return self.points[-1]

    def constrained(self, epsilon: float) -> OraclePoint | None:
        """Cheapest point with zz at most epsilon, or None if none fits."""
        best = None
        for point in self.points:
            if point.zz <= epsilon + _CAP_TOL:
                best = point
        return best


def _machine_key(machine: MachineSpec) -> tuple:
    return (
        machine.width_mm,
        machine.length_mm,
        machine.height_mm,
        machine.layer_time_h_per_mm,
        machine.volumetric_time_h_per_mm3,
    )


def _pose_frontier(machine: MachineSpec, instance: ProblemInstance, block: tuple[int, ...]):
    """Nondominated (P, occupied, poses) choices for one job's part set.

    Lower processing time never hurts the cost objective and higher
    occupied area never hurts the unused-area objective, so only the
    Pareto frontier over those two numbers needs to survive.  A pose's
    base area times its height is the part's volume, so each part's
    widest pose is also its lowest: when the widest poses fit the plate
    together, they are the whole frontier.
    """
    pose_sets = []
    volume = 0.0
    for i in block:
        part = instance.parts[i]
        feas = feasible_orientations(part, machine)
        if not feas:
            return []
        pose_sets.append(feas)
        volume += volume_mm3(part)
    widest = tuple(max(feas, key=lambda o: (o.base_area_mm2, -o.height_mm)) for feas in pose_sets)
    if sum(o.base_area_mm2 for o in widest) <= machine.base_area_mm2 + 1e-9:
        candidates = [widest]
    elif 3 ** len(block) > 2_000_000:
        raise ValueError(
            "single batch enumeration too large once the greedy "
            f"packing overflows ({len(block)} parts)"
        )
    else:
        candidates = itertools.product(*pose_sets)
    combos = []
    for poses in candidates:
        occupied = sum(o.base_area_mm2 for o in poses)
        if occupied > machine.base_area_mm2 + 1e-9:
            continue
        height = max(o.height_mm for o in poses)
        processing = machine.layer_time_h_per_mm * height
        processing += machine.volumetric_time_h_per_mm3 * volume
        combos.append((processing, occupied, poses))
    combos.sort(key=lambda t: (t[0], -t[1]))
    frontier = []
    best_occ = -math.inf
    for processing, occupied, poses in combos:
        if occupied > best_occ + 1e-12:
            frontier.append((processing, occupied, poses))
            best_occ = occupied
    return frontier


def _ordered_partitions(items: tuple[int, ...], max_jobs: int):
    """All ways to split items into an ordered sequence of nonempty jobs."""
    n = len(items)
    for k in range(1, min(max_jobs, n) + 1):
        for labels in itertools.product(range(k), repeat=n):
            blocks = [[] for _ in range(k)]
            for item, label in zip(items, labels):
                blocks[label].append(item)
            if all(blocks):
                yield tuple(tuple(b) for b in blocks)


def _pareto_min2(points):
    """Filter (u, v, payload) triples to the nondominated minima."""
    points.sort(key=lambda t: (t[0], t[1]))
    out = []
    best_v = math.inf
    for u, v, payload in points:
        if v < best_v - 1e-12:
            out.append((u, v, payload))
            best_v = v
    return out


def brute_force(instance: ProblemInstance) -> BruteForceResult:
    """Exhaustively enumerate schedules and keep the nondominated set.

    Covers every distribution of parts over machines, every ordered
    partition of a machine's parts into jobs, and every orientation
    combination, with the completion times of each candidate solved
    exactly.  The result answers min z, min zz, and any area-capped
    query.  Instances above ``_MAX_PARTS`` parts are rejected outright.
    """
    n = len(instance.parts)
    n_m = len(instance.machines)
    jobs = instance.jobs_per_machine
    if n > _MAX_PARTS:
        estimate = (3 * n_m * jobs) ** n
        raise ValueError(
            f"instance has {n} parts, brute-force limit is {_MAX_PARTS} "
            f"(roughly {estimate:.1e} candidate schedules)"
        )
    if n == 0:
        empty = Schedule((), {}, frozenset())
        ev = evaluate(empty, instance)
        return BruteForceResult((OraclePoint(0.0, 0.0, ev, empty),))

    ce = instance.penalties.earliness
    ct = instance.penalties.tardiness

    @functools.cache
    def pose_frontier(m, block):
        return _pose_frontier(instance.machines[m], instance, block)

    @functools.cache
    def machine_cell(m, subset):
        """Nondominated (zz_m, cost, jobs-witness) for one machine's parts."""
        if not subset:
            return [(0.0, 0.0, ())]
        plate = instance.machines[m].base_area_mm2
        raw = []
        for blocks in _ordered_partitions(subset, jobs):
            frontiers = [pose_frontier(m, block) for block in blocks]
            if not all(frontiers):
                continue
            part_groups = tuple(
                tuple(TimingPart(d, ce, ct) for d in sorted(instance.parts[i].due_h for i in block))
                for block in blocks
            )
            for choice in itertools.product(*frontiers):
                occupied = sum(c[1] for c in choice)
                completions, cost = _chain_timing(
                    tuple(TimingJob(c[0], parts) for c, parts in zip(choice, part_groups))
                )
                witness = tuple(
                    (block, poses, c)
                    for block, (_, _, poses), c in zip(blocks, choice, completions)
                )
                raw.append((len(blocks) * plate - occupied, cost, witness))
        return _pareto_min2(raw)

    # identical machines are interchangeable: demand that the earlier
    # twin either holds the earlier-indexed parts or that the later twin
    # stays empty, so each symmetric orbit is visited once
    twins = []
    by_key: dict = {}
    for m, machine in enumerate(instance.machines):
        group = by_key.setdefault(_machine_key(machine), [])
        if group:
            twins.append((group[-1], m))
        group.append(m)

    def canonical(assignment):
        for a, b in twins:
            first_a = next((i for i, mm in enumerate(assignment) if mm == a), None)
            first_b = next((i for i, mm in enumerate(assignment) if mm == b), None)
            if first_b is not None and (first_a is None or first_b < first_a):
                return False
        return True

    global_points = []
    for assignment in itertools.product(range(n_m), repeat=n):
        if not canonical(assignment):
            continue
        subsets = tuple(
            tuple(i for i in range(n) if assignment[i] == m) for m in range(n_m)
        )
        combined = [(0.0, 0.0, {})]
        dead = False
        for m in range(n_m):
            cell = machine_cell(m, subsets[m])
            if not cell:
                dead = True
                break
            merged = []
            for zz_a, cost_a, wit_a in combined:
                for zz_b, cost_b, wit_b in cell:
                    wit = dict(wit_a)
                    if wit_b:
                        wit[m] = wit_b
                    merged.append((zz_a + zz_b, cost_a + cost_b, wit))
            combined = _pareto_min2(merged)
        if not dead:
            global_points.extend(combined)

    front = _pareto_min2(global_points)
    if not front:
        raise ValueError("no feasible schedule for instance")

    points = []
    for zz, cost, witness in front:
        placements: list[Placement | None] = [None] * n
        completions = {}
        activated = set()
        for m, jobs_witness in witness.items():
            mid = instance.machines[m].id
            for j, (block, poses, c) in enumerate(jobs_witness):
                completions[(mid, j + 1)] = c
                activated.add((mid, j + 1))
                for i, pose in zip(block, poses):
                    placements[i] = Placement(instance.parts[i].id, mid, j + 1, pose)
        schedule = Schedule(
            tuple(p for p in placements if p is not None),
            completions,
            frozenset(activated),
        )
        ev = evaluate(schedule, instance)
        if (abs(ev.z - cost) > 1e-6 * max(1.0, abs(cost))
                or abs(ev.zz - zz) > 1e-6 * max(1.0, abs(zz))):
            raise RuntimeError(
                f"oracle bookkeeping drifted from evaluation: "
                f"z {cost:g} vs {ev.z:g}, zz {zz:g} vs {ev.zz:g}"
            )
        points.append(OraclePoint(ev.z, ev.zz, ev, schedule))
    points.sort(key=lambda p: p.zz)
    return BruteForceResult(tuple(points))


# ------------------------------------------------------- single batch


def single_batch_oracle(
    instance: ProblemInstance, mode: str = "min_zz"
) -> tuple[Evaluation, Schedule]:
    """Exact optimum when all parts must share one job on one machine.

    With a single job every part completes at the same time, so the
    timing collapses to a one-dimensional convex minimization and only
    the orientation choice is left.  Both modes rank the job's pose
    frontier: ``min_zz`` by unused area then cost, ``min_z`` the reverse.
    """
    if mode not in ("min_zz", "min_z"):
        raise ValueError(f"unknown mode {mode!r}, expected 'min_zz' or 'min_z'")
    if not instance.parts:
        raise ValueError("single batch oracle needs at least one part")

    ce = instance.penalties.earliness
    ct = instance.penalties.tardiness
    parts = tuple(TimingPart(p.due_h, ce, ct) for p in instance.parts)
    best = None
    shortfalls = []
    everything = tuple(range(len(instance.parts)))
    for m, machine in enumerate(instance.machines):
        pose_sets = [feasible_orientations(part, machine) for part in instance.parts]
        if not all(pose_sets):
            shortfalls.append(f"{machine.id}: a part fits in no orientation")
            continue
        min_total = sum(min(o.base_area_mm2 for o in feas) for feas in pose_sets)
        if min_total > machine.base_area_mm2 + 1e-9:
            shortfalls.append(
                f"{machine.id}: minimum footprints {min_total:g} mm2 exceed "
                f"plate {machine.base_area_mm2:g} mm2"
            )
            continue
        for processing, occupied, poses in _pose_frontier(machine, instance, everything):
            (completion,), cost = _chain_timing((TimingJob(processing, parts),))
            zz = machine.base_area_mm2 - occupied
            rank = (zz, cost) if mode == "min_zz" else (cost, zz)
            if best is None or rank < best[0]:
                best = (rank, m, poses, completion)

    if best is None:
        raise ValueError("single batch infeasible: " + "; ".join(shortfalls))

    _, m, poses, completion = best
    mid = instance.machines[m].id
    schedule = Schedule(
        tuple(
            Placement(part.id, mid, 1, pose)
            for part, pose in zip(instance.parts, poses)
        ),
        {(mid, 1): completion},
        frozenset({(mid, 1)}),
    )
    ev = evaluate(schedule, instance)
    return ev, schedule
