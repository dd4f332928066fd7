"""Discrete-event simulation of switch/controller feedback, the model's oracle.

The simulator reproduces the real forwarding semantics rather than any queueing
abstraction: packets arrive at their entry node as a Poisson stream, each is
independently marked "new flow" with that node's q_nf on arrival, every switch
visit is one FIFO exponential service, a new-flow packet goes from its first
switch service to the controller's FIFO queue, receives one exponential service
there, re-enters its entry node's queue for a second, freshly drawn service and
only then proceeds downstream, so a packet visits the controller once if it
is a new flow and never otherwise.

Engine design, fixed for reproducibility:

* future-event list: binary heap keyed by (event_time, sequence number); the
  monotonically increasing sequence number breaks time ties deterministically;
* one named random stream per stochastic source (per-node arrivals, per-node
  switch services, per-node flow marking, controller services), all spawned
  from the master seed, so a parameter change in one source never shifts the
  draws of another;
* per replication, arrivals stop once ``packets_per_replication`` packets have
  been admitted and the system drains; the first ``warmup_fraction`` of
  departures is discarded from statistics;
* retained sojourn samples are capped per run at 10**6 by uniform reservoir
  sampling with its own streams;
* the switches and the controller are stations of one event loop; a packet's
  state (arrival time, entry node, new-flow mark, controller visited) lives in
  the station queues only while the packet is in the system;
* a single node without ``audit`` runs Lindley's recursion instead (Lindley
  1952): one loop with no event list.  Each switch visit is
  ``free = max(join, free) + service``, the same float operation the event
  loop performs at a service start, over the time-ordered merge of arrivals
  and controller returns.  The controller serves only first passes, which
  leave the FIFO switch in order, so each return is computed when its first
  pass ends and is known before any later arrival is reached.  It draws the
  same streams in the same blocks and order (marks per arrival, switch
  services per join, controller services per first pass) and emits
  departures in time order, so it gives the event loop's bits.  The one
  exception: an exact float tie between a return and an arrival is served
  arrival-first, where the event loop orders by sequence number.

Invariant checks raise :class:`SimulationInvariantError` explicitly, so they
still run under ``python -O``.  In the event loop every departure is checked
to have visited the controller exactly when it is a new flow; ``audit=True``
adds per-station FIFO order and packet conservation checks on every event
and always runs the event loop, so it is also the oracle for the Lindley
loop.  In the Lindley loop routing is control flow, not packet state, so
there is no per-departure check; tests hold it to the event loop's bits.

Identical (seed, config, parameters) give bit-identical results.  Replications
run sequentially and are merged by replication index, so output never depends
on scheduling.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass

import numpy as np

from .analytic import ChainModel, ControllerParams, NodeParams

_BLOCK = 1 << 14
SAMPLE_CAP = 1_000_000
_Z95 = 1.96


@dataclass(frozen=True)
class SimConfig:
    """Replication plan for one experiment."""

    seed: int = 12345
    packets_per_replication: int = 200_000
    replications: int = 5
    warmup_fraction: float = 0.1

    def __post_init__(self):
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be a 64-bit unsigned int, got {self.seed}")
        if self.packets_per_replication < 10_000:
            raise ValueError("packets_per_replication must be >= 10000, got "
                             f"{self.packets_per_replication}")
        if self.replications < 2:
            raise ValueError("need >= 2 replications for a confidence interval, "
                             f"got {self.replications}")
        if not 0.0 <= self.warmup_fraction < 0.5:
            raise ValueError("warmup_fraction must be in [0, 0.5), got "
                             f"{self.warmup_fraction}")


@dataclass(eq=False)
class SimResult:
    """Replication statistics for one traffic class (or the aggregate).

    mean_sojourn               mean of the per-replication means (seconds)
    ci_halfwidth               1.96 * s / sqrt(R) over replication means
                               (normal 95% interval)
    per_replication_means      one mean per replication, in replication order
    empirical_ccdf             sorted retained sojourn samples (reservoir-
                               capped at SAMPLE_CAP across the whole run)
    controller_visit_fraction  measured fraction of packets that visited the
                               controller
    """

    mean_sojourn: float
    ci_halfwidth: float
    per_replication_means: tuple[float, ...]
    empirical_ccdf: np.ndarray
    controller_visit_fraction: float


@dataclass(eq=False)
class ChainSimResult:
    """Per-class results (class i enters at node i) plus the aggregate."""

    per_class: tuple[SimResult, ...]
    aggregate: SimResult


class SimulationInvariantError(AssertionError):
    """A simulator invariant failed: the engine, not the input, is at fault.

    Raised by the event loop's departure check and by the ``audit=True`` checks.
    It is raised explicitly, so ``python -O`` keeps every check; as an
    AssertionError it is also caught by ``except AssertionError`` handlers.
    """


class _Reservoir:
    """Uniform reservoir of at most ``cap`` samples, fed in a fixed order."""

    __slots__ = ("cap", "rng", "seen", "items")

    def __init__(self, cap: int, rng: np.random.Generator):
        self.cap = cap
        self.rng = rng
        self.seen = 0
        self.items = np.empty(0, dtype=np.float64)

    def extend(self, values: list[float] | np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        cap = self.cap
        take = min(cap - len(self.items), len(values))
        if take > 0:
            self.items = np.concatenate((self.items, values[:take]))
            self.seen += take
        m = len(values) - take
        if m <= 0:
            return
        # Algorithm R, vectorized: sample i (0-based global index `seen`)
        # replaces a random slot with probability cap / (seen + 1).
        idx = self.seen + np.arange(1, m + 1, dtype=np.float64)
        slots = (self.rng.random(m) * idx).astype(np.int64)
        mask = slots < cap
        self.items[slots[mask]] = values[take:][mask]
        self.seen += m

    def sorted_array(self) -> np.ndarray:
        return np.sort(self.items)


def run_single_node(node: NodeParams, ctrl: ControllerParams, cfg: SimConfig,
                    audit: bool = False) -> SimResult:
    """Simulate one node with its controller; returns the aggregate statistics.

    Equivalent to a 1-node :func:`run_chain` (same seed gives the identical
    sample path).  Runs the Lindley loop, or the checked event loop when
    ``audit`` is set; both give the same bits.  No stability requirement:
    saturated runs are allowed and simply show growing delays.
    """
    chain = ChainModel(nodes=(node,), controller=ctrl)
    return _run_experiment(chain, cfg, audit).aggregate


def run_chain(chain: ChainModel, cfg: SimConfig, audit: bool = False) -> ChainSimResult:
    """Simulate a tandem chain sharing one controller.

    External class-i packets enter node i; new-flow marking applies only at a
    packet's entry node; controller returns rejoin the entry node's queue and
    then transit every downstream node with one FIFO exponential service each.
    """
    return _run_experiment(chain, cfg, audit)


def _run_experiment(chain: ChainModel, cfg: SimConfig, audit: bool) -> ChainSimResult:
    n = len(chain.nodes)
    reps = cfg.replications
    root = np.random.SeedSequence(cfg.seed)
    children = root.spawn(reps + n + 1)
    rep_seeds = children[:reps]
    class_reservoirs = [_Reservoir(SAMPLE_CAP, np.random.default_rng(children[reps + i]))
                        for i in range(n)]
    agg_reservoir = _Reservoir(SAMPLE_CAP, np.random.default_rng(children[reps + n]))

    cutoff = int(cfg.warmup_fraction * cfg.packets_per_replication)
    class_rep_means: list[list[float]] = [[] for _ in range(n)]
    agg_rep_means: list[float] = []
    class_counts = [0] * n
    class_visits = [0] * n
    agg_count = 0
    agg_visits = 0

    for r in range(reps):
        (c_sums, c_counts, c_visits, c_samples, all_samples
         ) = _run_replication(chain, cfg.packets_per_replication, cutoff,
                              rep_seeds[r], audit)
        for i in range(n):
            class_rep_means[i].append(c_sums[i] / c_counts[i] if c_counts[i] else float("nan"))
            class_counts[i] += c_counts[i]
            class_visits[i] += c_visits[i]
            class_reservoirs[i].extend(c_samples[i])
        measured = sum(c_counts)
        agg_rep_means.append(sum(c_sums) / measured if measured else float("nan"))
        agg_count += measured
        agg_visits += sum(c_visits)
        agg_reservoir.extend(all_samples)

    def _result(means: list[float], reservoir: _Reservoir, visits: int,
                count: int) -> SimResult:
        arr = np.asarray(means, dtype=np.float64)
        mean = float(np.mean(arr))
        ci = float(_Z95 * np.std(arr, ddof=1) / np.sqrt(len(arr)))
        return SimResult(
            mean_sojourn=mean,
            ci_halfwidth=ci,
            per_replication_means=tuple(means),
            empirical_ccdf=reservoir.sorted_array(),
            controller_visit_fraction=visits / count if count else float("nan"),
        )

    per_class = tuple(_result(class_rep_means[i], class_reservoirs[i],
                              class_visits[i], class_counts[i]) for i in range(n))
    aggregate = _result(agg_rep_means, agg_reservoir, agg_visits, agg_count)
    return ChainSimResult(per_class=per_class, aggregate=aggregate)


def _run_replication(chain: ChainModel, n_packets: int, cutoff: int,
                     seed_seq: np.random.SeedSequence, audit: bool):
    """One replication; returns per-class sums/counts/visits/samples and the
    departure-ordered measured sojourns.  A single node without ``audit``
    goes to :func:`_run_lindley`.

    Switch k is station k and the controller is station n.  A packet is the
    tuple (arrival time, entry node, new-flow mark, visited controller), held
    only by the queues and ``busy``: per-packet state is dropped at departure.
    """
    n = len(chain.nodes)
    if n == 1 and not audit:
        return _run_lindley(chain.nodes[0], chain.controller, n_packets, cutoff, seed_seq)
    qs = [nd.q_nf for nd in chain.nodes]
    arr_scales = [1.0 / nd.lam for nd in chain.nodes]
    svc_scales = [1.0 / nd.mu_switch for nd in chain.nodes]
    svc_scales.append(1.0 / chain.controller.mu_controller)

    # node i owns streams 3i (arrivals), 3i+1 (services), 3i+2 (marks); the
    # controller's services use stream 3n
    streams = seed_seq.spawn(3 * n + 1)
    arr_rngs = [np.random.default_rng(streams[3 * i]) for i in range(n)]
    mark_rngs = [np.random.default_rng(streams[3 * i + 2]) for i in range(n)]
    svc_rngs = [np.random.default_rng(s) for s in streams[1:3 * n:3] + [streams[3 * n]]]

    arr_bufs = [arr_rngs[i].exponential(arr_scales[i], _BLOCK).tolist() for i in range(n)]
    arr_idx = [0] * n
    mark_bufs = [mark_rngs[i].random(_BLOCK).tolist() for i in range(n)]
    mark_idx = [0] * n
    svc_bufs = [svc_rngs[s].exponential(svc_scales[s], _BLOCK).tolist() for s in range(n + 1)]
    svc_idx = [0] * (n + 1)

    heap: list[tuple[float, int, int]] = []
    push = heapq.heappush
    pop = heapq.heappop
    seq = 0

    queues: list[deque[tuple]] = [deque() for _ in range(n + 1)]
    busy: list[tuple | None] = [None] * (n + 1)

    admitted = 0
    departed = 0

    c_sums = [0.0] * n
    c_counts = [0] * n
    c_visits = [0] * n
    c_samples: list[list[float]] = [[] for _ in range(n)]
    all_samples: list[float] = []

    if audit:
        # FIFO audit: every join of a station's queue gets a per-station stamp;
        # service starts must consume stamps in increasing order.
        stamp_q: list[deque[int]] = [deque() for _ in range(n + 1)]
        enq_counter = [0] * (n + 1)
        last_started = [-1] * (n + 1)

    # kick off one pending arrival per class
    for i in range(n):
        push(heap, (arr_bufs[i][0], seq, i))
        arr_idx[i] = 1
        seq += 1

    # Event codes: i < n is an external arrival at node i; n + s is a service
    # completion at station s.  Each event moves one packet to station `dest`
    # (-1: it departs) and, for a completion, frees station `done`.
    while departed < n_packets:
        t, _, code = pop(heap)
        if code < n:
            if admitted == n_packets:
                continue
            admitted += 1
            dest = code
            j = mark_idx[dest]
            if j == _BLOCK:
                mark_bufs[dest] = mark_rngs[dest].random(_BLOCK).tolist()
                j = 0
            pkt = (t, dest, mark_bufs[dest][j] < qs[dest], False)
            mark_idx[dest] = j + 1
        else:
            done = code - n
            pkt = busy[done]
            if done == n:
                # back from the controller for a second service at the entry node
                dest = pkt[1]
                pkt = (pkt[0], dest, pkt[2], True)
            elif pkt[2] and not pkt[3]:
                dest = n  # a new flow's first pass, which is at its entry node
            elif done + 1 < n:
                dest = done + 1
            else:
                dest = -1
                if pkt[3] != pkt[2]:
                    raise SimulationInvariantError(
                        f"packet entering at node {pkt[1]} departs with new-flow mark "
                        f"{pkt[2]} but controller visit {pkt[3]}")
                departed += 1
                if departed > cutoff:
                    soj = t - pkt[0]
                    cls = pkt[1]
                    c_sums[cls] += soj
                    c_counts[cls] += 1
                    c_visits[cls] += pkt[3]
                    c_samples[cls].append(soj)
                    all_samples.append(soj)
        if dest >= 0:
            # join `dest`: start its service at once if it is idle
            if audit:
                enq_counter[dest] += 1
                stamp_q[dest].append(enq_counter[dest])
            if busy[dest] is None:
                busy[dest] = pkt
                j = svc_idx[dest]
                if j == _BLOCK:
                    svc_bufs[dest] = svc_rngs[dest].exponential(svc_scales[dest], _BLOCK).tolist()
                    j = 0
                push(heap, (t + svc_bufs[dest][j], seq, n + dest))
                svc_idx[dest] = j + 1
                seq += 1
                if audit:
                    _check_fifo(stamp_q[dest].popleft(), last_started, dest, n)
            else:
                queues[dest].append(pkt)
        if code < n:
            if admitted < n_packets:
                j = arr_idx[dest]
                if j == _BLOCK:
                    arr_bufs[dest] = arr_rngs[dest].exponential(arr_scales[dest], _BLOCK).tolist()
                    j = 0
                push(heap, (t + arr_bufs[dest][j], seq, dest))
                arr_idx[dest] = j + 1
                seq += 1
        elif queues[done]:
            # restart `done` with the head of its queue
            busy[done] = queues[done].popleft()
            j = svc_idx[done]
            if j == _BLOCK:
                svc_bufs[done] = svc_rngs[done].exponential(svc_scales[done], _BLOCK).tolist()
                j = 0
            push(heap, (t + svc_bufs[done][j], seq, code))
            svc_idx[done] = j + 1
            seq += 1
            if audit:
                _check_fifo(stamp_q[done].popleft(), last_started, done, n)
        else:
            busy[done] = None
        if audit:
            in_system = (sum(len(qd) for qd in queues)
                         + sum(1 for b in busy if b is not None))
            if admitted != departed + in_system:
                raise SimulationInvariantError(
                    f"packet conservation violated: {admitted} admitted, {departed} "
                    f"departed, {in_system} in the system")

    return c_sums, c_counts, c_visits, c_samples, all_samples


def _check_fifo(stamp: int, last_started: list[int], station: int, n: int) -> None:
    """Audit: a station starts its queue's joins in the order they joined."""
    if stamp <= last_started[station]:
        where = "controller" if station == n else f"switch {station}"
        raise SimulationInvariantError(f"FIFO order violated at the {where}")
    last_started[station] = stamp


def _run_lindley(node: NodeParams, ctrl: ControllerParams, n_packets: int, cutoff: int,
                 seed_seq: np.random.SeedSequence):
    """One single-node replication by Lindley's recursion, with the event
    loop's bits (see the module docstring); returns what
    :func:`_run_replication` returns.

    A first pass that starts at or after arrival ``a`` returns after ``a``, so
    when ``a`` is reached every earlier return is already in ``returns``; an
    exact tie is served arrival-first.
    """
    # the event loop's streams and blocks for n = 1; switch services are drawn
    # in join order, controller services in first-pass order
    arr_rng, svc_rng, mark_rng, ctl_rng = (np.random.default_rng(s) for s in seed_seq.spawn(4))
    svc_scale = 1.0 / node.mu_switch
    ctl_scale = 1.0 / ctrl.mu_controller
    q = node.q_nf
    arrivals = itertools.islice(
        itertools.chain.from_iterable(_arrival_blocks(arr_rng, 1.0 / node.lam)), n_packets)
    marks = _values(lambda: (mark_rng.random(_BLOCK) < q).tolist())
    next_svc = _values(lambda: svc_rng.exponential(svc_scale, _BLOCK).tolist()).__next__
    next_ctl = _values(lambda: ctl_rng.exponential(ctl_scale, _BLOCK).tolist()).__next__

    returns: deque[tuple[float, float]] = deque()  # (back from the controller, arrival)
    sojourns: list[float] = []  # in departure order
    new_at: list[int] = []  # positions of the new flows in `sojourns`
    free = cfree = 0.0
    for a, new in zip(arrivals, marks):
        while returns and returns[0][0] < a:
            r, a0 = returns.popleft()
            free = (r if r > free else free) + next_svc()
            new_at.append(len(sojourns))
            sojourns.append(free - a0)
        free = (a if a > free else free) + next_svc()
        if new:
            cfree = (free if free > cfree else cfree) + next_ctl()
            returns.append((cfree, a))
        else:
            sojourns.append(free - a)
    for r, a0 in returns:  # arrivals have stopped: the returns drain in order
        free = (r if r > free else free) + next_svc()
        new_at.append(len(sojourns))
        sojourns.append(free - a0)

    measured = np.array(sojourns[cutoff:])
    visits = len(new_at) - bisect_left(new_at, cutoff)
    total = float(np.cumsum(measured)[-1])  # sequential, as the event loop adds
    return [total], [len(measured)], [visits], [measured], measured


def _values(draw_block):
    """The values of ``draw_block()`` in order; a block is drawn when the last
    one runs out."""
    return itertools.chain.from_iterable(iter(draw_block, None))


def _arrival_blocks(rng: np.random.Generator, scale: float):
    """Arrival times block by block: cumsum adds the gaps one at a time, as the
    event loop's ``t + gap`` does."""
    t = 0.0
    while True:
        gaps = rng.exponential(scale, _BLOCK)
        gaps[0] += t
        times = np.cumsum(gaps)
        t = times[-1]
        yield times.tolist()
