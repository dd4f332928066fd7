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

* one named random stream per stochastic source (per-node arrivals, per-node
  switch services, per-node flow marking, controller services), all spawned
  from the master seed, so a parameter change in one source never shifts the
  draws of another.  One stream layer, :func:`_streams`, spawns a
  replication's 3n + 1 streams and every engine takes its generators from
  it; every stream is drawn ``_BLOCK`` values at a time, and one helper,
  :func:`_draws`, makes it an iterator, read with ``next(stream)``, that
  draws the next block when one runs out.  The loops call ``next(stream)``
  and queue methods in the form ``sojourns.append(x)``, not through a bound
  ``__next__`` or method kept in a local: CPython 3.11 specialises those
  calls (PEP 659) but not these, nor a compare too far from its jump, which
  costs a single node's loop about 10%.  The loops read every block of
  draws, arrival times, marks and merged classes straight from its numpy
  buffer through a ``memoryview``, which makes each value a Python float,
  int or bool as it is read (the values ``tolist()`` gives, without a list
  per block), and a block of departures goes back to numpy by
  ``np.fromiter``;
* per replication, arrivals stop once ``packets_per_replication`` packets have
  been admitted and the system drains; the first ``warmup_fraction`` of
  departures is discarded from statistics;
* retained sojourn samples are capped per run at 10**6 by uniform reservoir
  sampling with its own streams;
* each replication hands its departures to the statistics in blocks, which
  drop the warm-up, count the controller visits by sojourns' sign bits (see
  :class:`_Tally`), carry the running sums and feed the reservoirs: one
  block per chunk of at most ``_BLOCK`` = 2**12 arrivals, whose Python
  floats (~0.7 MB) then fit a 2 MB L2 cache, and from the chain loop one
  every ``_BLOCK`` departures too.  A chunk's block holds a few departures
  more or fewer than its arrivals, and the single-node loop hands over its
  drain as one block, bounded by the controller returns still queued when
  arrivals stop, which its deques already hold (see
  :func:`_run_replication`); a cut replication hands over a block at each
  cut too.  So the caller's memory is bounded by ``SAMPLE_CAP`` samples per
  reservoir plus about one block (and the packets in the system), whatever
  its packet budget; a forked process's grows with one replication's
  measured samples, which it holds until sent;
* a packet's state (arrival time, entry node, new-flow mark, progress along
  its route) is held only while the packet is in the system.

Three engines run a replication, and all give the same bits:

* the event loop, which runs whenever ``audit`` is set: the switches and the
  controller are stations of one future-event list, a binary heap keyed by
  (event time, sequence number), so time ties go in event order;
* a single node without ``audit`` runs Lindley's recursion (Lindley 1952):
  one loop with no event list.  Each switch visit is
  ``free = max(join, free) + service``, the same float operation the event
  loop performs at a service start, over the time-ordered merge of arrivals
  and controller returns.  The controller serves only first passes, which
  leave the FIFO switch in order, so each return is computed when its first
  pass ends and is known before any later arrival is reached;
* a chain without ``audit`` runs the join-ordered loop, Lindley's recursion
  at every station.  Each station is a FIFO single server, so its
  completions leave in join order and each is known at its join,
  ``max(join, free) + service``.  The loop keeps every unrouted completion
  in one binary heap keyed by (completion time, station, push order),
  routes the earliest before the next external arrival (to the controller,
  back to its entry node, downstream, or out) and computes the completion
  of the station it joins; a final pass at the last node departs at its
  join, in departure order (see :class:`_Joins`).

The two Lindley loops share one interface: each holds its service streams as
``draw`` and runs every chunk of one feed, :func:`_merged_arrivals`, by
``run(times, classes, marks)``.  They drain at its closing sentinel, draw the
event loop's streams in the same blocks and order (marks per arrival, services
per join, which is each station's service-start order) and emit departures in
time order.  They differ from it only at exact float ties, which have
probability zero and which they order by fixed rules where the event loop
orders by sequence number: a controller return or other completion tied with
an arrival goes after the arrival, two classes' tied arrivals go lower class
first, two tied completions lower station first, and tied completions at one
station in FIFO order, which is why the heap's key has the push order.

Invariant checks raise :class:`SimulationInvariantError` explicitly, so they
still run under ``python -O``.  The event loop checks that every departure
visited the controller exactly when it is a new flow, per-station FIFO
order by the join stamp each queue entry carries, and packet conservation on
every event; it is the oracle for both Lindley loops.  In those loops routing
is control flow, not packet state, so there is nothing per packet to check;
tests hold them to the event loop's bits.

Identical (seed, config, parameters) give bit-identical results.  A run's
replications run on P = min(replications, usable CPUs) processes:
replication k runs on process k mod P, where process 0 is the caller and the
others are forked for the call (P is 1 where ``os.fork`` is missing).  Usable
CPUs are the process's affinity set where the platform has one, so
``taskset`` limits P, else every CPU.  A forked process records its
replications' measured blocks and sends them down a pipe that holds a whole
replication where the platform lets it be set (see :func:`_pipe`); the
caller feeds them, in replication order, through the code a serial run
uses, and so makes every statistic and every reservoir draw itself: the
bits never depend on P.  Where the replications leave one over for the
caller (R mod P = 1), the last one, a single node's or a chain's, is cut at
a regeneration point, an arrival that finds the system empty, and its tail
runs in process 1; where no such point comes soon enough after the cut, the
caller runs it whole.  An audited replication is never cut.  :func:`run_chain`
decides the cut, and :func:`_run_replication` runs a cut replication's head
and splice in the loop that runs a whole one.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import numbers
import os
import pickle
import signal
import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

from .analytic import ChainModel, ControllerParams, NodeParams

_BLOCK = 1 << 12
SAMPLE_CAP = 1_000_000
_Z95 = 1.96
# the largest float spacing at a run's time bound, as a share of its
# shortest mean switch service time (see _check_time_range)
_RESOLUTION = 2.0 ** -20
# A cut replication's tail starts at arrival int(_CUT * N) and may be spliced
# on at every _CHECK-th of its first _WINDOW arrivals (see _run_replication;
# run_chain decides which replication is cut)
_CUT = 0.55
_WINDOW = 1 << 10
_CHECK = 1 << 4
# the bytes a forked process's pipe holds where the platform lets it be set:
# a replication of up to ~120k measured samples, pickled (see _pipe)
_PIPE = 1 << 20


@dataclass(frozen=True)
class SimConfig:
    """Replication plan for one experiment."""

    seed: int = 12345
    packets_per_replication: int = 200_000
    replications: int = 5
    warmup_fraction: float = 0.1

    def __post_init__(self):
        for name in ("seed", "packets_per_replication", "replications"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
    ci_halfwidth               1.96 * s / sqrt(R) over replication means: a
                               normal 95% factor on R - 1 dof, which covers
                               the true mean only ~88% of the time at R = 5
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
    """Per-class results (class i enters at node i) plus the aggregate.

    A single node has one class, which is the aggregate: ``per_class[0]`` is
    ``aggregate``.
    """

    per_class: tuple[SimResult, ...]
    aggregate: SimResult


class SimulationInvariantError(AssertionError):
    """A simulator invariant failed: the engine, not the input, is at fault.

    Raised by the checks of the event loop, which runs when ``audit=True``.
    It is raised explicitly, so ``python -O`` keeps every check; as an
    AssertionError it is also caught by ``except AssertionError`` handlers.
    """


class _Reservoir:
    """Uniform reservoir of at most ``cap`` samples, fed in a fixed order.

    ``items`` is allocated once, at ``cap``; its first ``min(seen, cap)``
    entries are the samples.
    """

    __slots__ = ("cap", "rng", "seen", "items")

    def __init__(self, cap: int, rng: np.random.Generator):
        self.cap = cap
        self.rng = rng
        self.seen = 0
        self.items = np.empty(cap, dtype=np.float64)

    def extend(self, values: list[float] | np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        cap = self.cap
        take = min(max(cap - self.seen, 0), len(values))
        if take > 0:
            self.items[self.seen:self.seen + take] = values[:take]
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
        """The samples in ascending order, as an array of their own.  A full
        reservoir is sorted in place and returned, so call this once, after
        the last :meth:`extend`."""
        if self.seen < self.cap:
            return np.sort(self.items[:self.seen])
        self.items.sort()
        return self.items


class _Tally:
    """One replication's measured statistics, fed its departures in blocks.

    An engine appends each departure to the block being filled: its sojourn
    to ``sojourns``, negated (``-(f - a)``, so a zero is -0.0) if it visited
    the controller, and for a chain its class to ``cls``; then it calls
    :meth:`flush`, which counts them in ``departed``.  The first ``skip``
    departures are warm-up and dropped.  The rest are measured:
    :meth:`measure` hands them to :meth:`feed` as magnitudes, with the sign
    bits counted as visits.  It extends the run's reservoirs and carries each
    class's sum from block to block: the running total is added to the
    block's first sojourn before ``np.cumsum``, so the sum makes the same
    sequential additions as ``total += sojourn`` would.
    """

    __slots__ = ("skip", "sums", "counts", "visits", "agg", "classes",
                 "shift", "departed", "sojourns", "cls")

    def __init__(self, n: int, skip: int, agg: _Reservoir | None,
                 classes: list[_Reservoir], shift: int = 0):
        self.skip = skip
        self.sums = [0.0] * n
        self.counts = [0] * n
        self.visits = [0] * n
        self.agg = agg
        self.classes = classes  # empty for a single node, whose class is `agg`
        self.shift = shift  # the sums are of the sojourns times 2**-shift
        self.departed = 0  # the departures flushed, the warm-up's too
        self.sojourns: list[float] = []
        self.cls: list[int] = []

    def flush(self) -> None:
        """Drop the warm-up from the block being filled and :meth:`measure`
        the rest, with their classes (None for a single node, else in the
        smallest integer dtype that holds n).  Then empty the block for the
        next."""
        sojourns, cls = self.sojourns, self.cls
        self.departed += len(sojourns)
        skip = self.skip
        if skip >= len(sojourns):
            self.skip = skip - len(sojourns)
        else:
            self.skip = 0
            x = np.fromiter(sojourns, np.float64, len(sojourns))[skip:]
            n = len(self.sums)
            self.measure(x, None if n == 1 else
                         np.fromiter(cls, np.min_scalar_type(n), len(cls))[skip:])
        sojourns.clear()
        cls.clear()

    def measure(self, x: np.ndarray, c: np.ndarray | None) -> None:
        """:meth:`feed` measured sojourns ``x``, negated where they visited
        the controller, of classes ``c``: their magnitudes, with each class's
        count of set sign bits."""
        new = np.signbit(x)
        np.abs(x, out=x)
        if c is None:
            self.feed(x, None, [int(np.count_nonzero(new))])
        else:
            self.feed(x, c, np.bincount(c[new], minlength=len(self.sums)).tolist())

    def feed(self, x: np.ndarray, c: np.ndarray | None, visits: list[int]) -> None:
        """Feed measured sojourns ``x`` of classes ``c`` to the reservoirs and
        add them, with ``visits[i]`` controller visits in class i, to the
        statistics."""
        self.agg.extend(x)
        if c is None:
            self._add(0, x, visits[0])
            return
        for i, reservoir in enumerate(self.classes):
            xi = x[c == i]
            reservoir.extend(xi)
            self._add(i, xi, visits[i])

    def _add(self, i: int, x: np.ndarray, visits: int) -> None:
        # x has been fed to the reservoirs, so the scaling and the carry go
        # in in place
        if len(x):
            if self.shift:
                np.ldexp(x, -self.shift, out=x)
            x[0] += self.sums[i]
            self.sums[i] = float(np.cumsum(x)[-1])
            self.counts[i] += len(x)
            self.visits[i] += visits


class _Record(_Tally):
    """A forked process's measured blocks, kept as :meth:`_Tally.measure` is
    given them, for the caller to measure in replication order: every
    reservoir's draws depend on the earlier replications' samples, so only
    the caller draws.  The sojourns keep their signs, so the caller can
    take a block from any departure on."""

    __slots__ = ("blocks",)

    def __init__(self, n: int, skip: int):
        super().__init__(n, skip, None, [])
        self.blocks: list[tuple] = []

    def measure(self, x: np.ndarray, c: np.ndarray | None) -> None:
        self.blocks.append((x, c))


def run_single_node(node: NodeParams, ctrl: ControllerParams, cfg: SimConfig,
                    audit: bool = False) -> SimResult:
    """Simulate one node with its controller; returns the aggregate statistics.

    Equivalent to a 1-node :func:`run_chain` (same seed gives the identical
    sample path).  Runs the Lindley loop, or the checked event loop when
    ``audit`` is set; both give the same bits.  No stability requirement:
    saturated runs are allowed and simply show growing delays.
    """
    return run_chain(ChainModel(nodes=(node,), controller=ctrl), cfg, audit).aggregate


def run_chain(chain: ChainModel, cfg: SimConfig, audit: bool = False) -> ChainSimResult:
    """Simulate a tandem chain sharing one controller.

    External class-i packets enter node i; new-flow marking applies only at a
    packet's entry node; controller returns rejoin the entry node's queue and
    then transit every downstream node with one FIFO exponential service each.
    A chain of two or more nodes runs the join-ordered loop, a single node the
    Lindley loop, or either the checked event loop when ``audit`` is set; all
    give the same bits.

    The replications run on min(replications, usable CPUs) processes (see
    :func:`_run_forked`): forked ones record their measured blocks and the
    caller feeds them, with the same bits at every count.

    Raises ValueError, naming the parameter, when a rate is so small that a
    replication's simulated time may not be representable or may not
    resolve a switch's service times (see :func:`_check_time_range`).
    """
    bound = _check_time_range(chain, cfg.packets_per_replication)
    # N * T bounds a replication's sum of sojourns: where it is past the
    # float range, the sums are kept scaled down by 2**shift, which moves no
    # bit of a sum that would not overflow
    shift = max(0, math.frexp(bound)[1] + math.frexp(cfg.packets_per_replication)[1] - 1023)
    n = len(chain.nodes)
    reps = cfg.replications
    children = np.random.SeedSequence(cfg.seed).spawn(reps + n + 1)
    cutoff = int(cfg.warmup_fraction * cfg.packets_per_replication)
    # every admitted packet departs, so each replication measures this many
    measured = cfg.packets_per_replication - cutoff
    cap = min(SAMPLE_CAP, reps * measured)
    # a single node's one class is the aggregate, so only a chain keeps
    # per-class statistics; the aggregate keeps stream reps + n either way, so
    # its bits do not depend on that
    class_reservoirs = [_Reservoir(cap, np.random.default_rng(children[reps + i]))
                        for i in range(n if n > 1 else 0)]
    agg_reservoir = _Reservoir(cap, np.random.default_rng(children[reps + n]))
    engine = _run_events if audit else _run_replication
    tallies = [_Tally(n, cutoff, agg_reservoir, class_reservoirs, shift) for _ in range(reps)]
    procs = min(reps, _cpus()) if hasattr(os, "fork") else 1
    # the one place the cut is decided: where the replications leave one
    # over for the caller, that one is cut, unless it is audited
    tail = (functools.partial(_run_tail, chain, cfg.packets_per_replication)
            if not audit and procs > 1 and reps % procs == 1 else None)

    def results() -> ChainSimResult:
        aggregate = _result(tallies, slice(None), agg_reservoir)
        per_class = (tuple(_result(tallies, slice(i, i + 1), reservoir)
                           for i, reservoir in enumerate(class_reservoirs))
                     if n > 1 else (aggregate,))
        return ChainSimResult(per_class=per_class, aggregate=aggregate)

    return _run_forked(procs, functools.partial(engine, chain, cfg.packets_per_replication),
                       tallies, children[:reps], measured, tail, results)


def _check_time_range(chain: ChainModel, n_packets: int) -> float:
    """Return

        T = 2 ((N + _BLOCK) sum_i 1/lam_i + N (sum_i 2/mu_i + 1/mu_c))

    for N = ``n_packets``; raise ValueError, naming the parameter with the
    largest term, unless T is finite and its float spacing, ulp(T), is at
    most ``_RESOLUTION`` of the shortest mean switch service time.  An
    infinite switch rate, whose mean time 0 no spacing resolves, is refused
    under its own name.

    T bounds a replication's simulated time with a margin of 2.  The last
    departure comes at most the total service work after the last arrival,
    since a station with packets is never idle.  Class i draws at most N +
    _BLOCK arrival gaps (whole blocks of them), switch i serves at most 2N
    visits and the controller at most N, and each of these sums of n >=
    10**4 exponential draws exceeds twice its mean with probability below
    e^(-n (1 - ln 2)) < e^(-3000).  Every sojourn holds at least one switch
    service, and is the difference of two times below T, so the spacing
    check keeps its rounding below ~2**-20 of the mean sojourn; at lam =
    1e-300 and mu_switch = 1e5 every sojourn would round to 0.0.
    """
    n = len(chain.nodes)
    terms = {}
    for i, node in enumerate(chain.nodes):
        where = f"nodes[{i}]." if n > 1 else ""
        if node.mu_switch == math.inf:
            raise ValueError(f"{where}mu_switch = inf: zero switch service times cannot be resolved")
        terms[where + "lam"] = (n_packets + _BLOCK) / node.lam, node.lam
        terms[where + "mu_switch"] = 2 * n_packets / node.mu_switch, node.mu_switch
    mu_c = chain.controller.mu_controller
    terms["mu_controller"] = n_packets / mu_c, mu_c
    bound = 2.0 * sum(time for time, _ in terms.values())
    fastest = max(node.mu_switch for node in chain.nodes)
    if not math.isfinite(bound):
        problem = "may exceed the float range"
    elif math.ulp(bound) * fastest > _RESOLUTION:
        problem = (f"may reach {bound:.3g} s, whose float spacing is over 2**-20 of "
                   f"the shortest mean switch service time, {1.0 / fastest:.3g} s")
    else:
        return bound
    name = max(terms, key=terms.get)
    raise ValueError(f"{name} = {terms[name][1]!r} is too small for {n_packets} "
                     f"packets per replication: the run's simulated time {problem}")


def _cpus() -> int:
    """The number of CPUs this process may run on: its affinity set where the
    platform has one (so ``taskset`` limits it), else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_forked(procs: int, run, tallies: list[_Tally], seeds: list,
                measured: int, tail, results):
    """A run's replications, replication k on process k mod ``procs``: the
    caller is process 0, the others are forked for this call.  With
    ``procs`` 1 this is the serial run, the caller running every replication
    straight into the reservoirs.

    ``run(tally, seed_seq)`` runs one replication, which measures
    ``measured`` samples.  A child runs each of its replications into a
    :class:`_Record` and sends the recorded blocks down a pipe of its own
    (see :func:`_pipe`), and goes on to its next without waiting for the
    caller to read them where they fit the pipe.  The caller takes the
    replications in order: it runs its own straight into the reservoirs and
    feeds a child's recorded blocks through the same :meth:`_Tally.measure`,
    so it makes every reservoir draw in the serial run's order and the
    results are those of the serial run, bit for bit.

    Where ``tail`` is given, the last replication, the caller's, is cut
    (:func:`run_chain` decides that; :func:`_run_replication` runs it):
    process 1, after its own replications, runs ``tail(out, seed_seq)``,
    and the caller runs ``run(tally, seed_seq, tail=reader)``, which
    splices the tail on.

    Then it returns ``results()``, made before the children are reaped, so
    that a child's exit, which can come last, runs while it is made.  A
    child ends with ``os._exit`` and sends an exception it raises on to the
    caller, which raises it; a child that dies shows up as the end of its
    pipe.  If the caller raises, it kills its children; it reaps them always,
    and then, if nothing was raised, raises ChildProcessError if a child
    ended with a non-zero status, as one that fails to write does.
    """
    reservoir = tallies[0].agg
    classes = tallies[0].classes
    counts = [0] * len(classes)  # each class's samples so far
    readers: list = []
    pids: list[int] = []
    done = False
    try:
        for p in range(1, procs):
            r, w = _pipe()
            readers.append(open(r, "rb"))
            try:
                pid = _fork()
                if pid == 0:
                    _serve(w, readers, range(p, len(tallies), procs), run, tallies, seeds,
                           tail if p == 1 else None)
            finally:  # the caller's; a child never returns from _serve
                os.close(w)
            pids.append(pid)
        for k, (tally, seed_seq) in enumerate(zip(tallies, seeds)):
            if k % procs:
                _receive(readers[k % procs - 1], tally)
            elif tail is not None and k == len(tallies) - 1:
                run(tally, seed_seq, tail=readers[0])
            else:
                run(tally, seed_seq)
            if reservoir.seen != (k + 1) * measured:
                raise SimulationInvariantError(
                    f"replication {k} ends at sample {reservoir.seen}, not at "
                    f"{(k + 1) * measured}")
            for i, class_reservoir in enumerate(classes):
                counts[i] += tally.counts[i]
                if class_reservoir.seen != counts[i]:
                    raise SimulationInvariantError(
                        f"replication {k} ends class {i} at sample "
                        f"{class_reservoir.seen}, not at {counts[i]}")
        out = results()
        done = True
        return out
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for reader in readers:
            reader.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
        if done and any(codes):
            raise ChildProcessError(f"a replication process ended with exit codes {codes}")


def _pipe() -> tuple[int, int]:
    """``os.pipe()``, with the write end set to hold ``_PIPE`` bytes where
    the platform allows (Linux's ``F_SETPIPE_SZ``): a forked process then
    writes a whole replication of up to ~120k measured samples, pickled,
    without waiting on the caller's reads.  Where it cannot be set, the pipe
    keeps its default size (64 KiB on Linux).  This sets the call's own
    pipe only, no system setting."""
    import fcntl  # POSIX only, as os.fork is

    r, w = os.pipe()
    setsize = getattr(fcntl, "F_SETPIPE_SZ", None)
    if setsize is not None:
        try:
            fcntl.fcntl(w, setsize, _PIPE)
        except OSError:
            pass
    return r, w


def _fork() -> int:
    """``os.fork()``, without the warning CPython 3.12+ gives for forking a
    process that runs more than one OS thread, as numpy's BLAS thread pool
    makes this one.  A child calls no BLAS: it draws numpy random numbers,
    runs elementwise code, writes to its pipe and ends with ``os._exit``."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r".*is multi-threaded, use of fork\(\)",
                                DeprecationWarning)
        return os.fork()


def _serve(w: int, readers: list, ks: range, run, tallies: list[_Tally],
           seeds: list, tail=None) -> None:
    """A forked child: run replications ``ks``, sending each one's recorded
    blocks, then ``tail(out, seed)`` of the last replication if given; or
    send the exception one raises to the pipe ``w``.  Never returns."""
    code = 1
    try:
        for reader in readers:  # the caller's ends of the pipes
            reader.close()
        with open(w, "wb") as out:
            try:
                for k in ks:
                    record = _Record(len(tallies[k].sums), tallies[k].skip)
                    run(record, seeds[k])
                    _send(out, record)
                if tail is not None:
                    tail(out, seeds[-1])
            except Exception as exc:
                _send_error(out, exc)
        code = 0
    finally:
        os._exit(code)


def _send(out, record: _Record) -> None:
    """Send a replication's recorded blocks, one pickle each, then ``None``."""
    for block in record.blocks:
        pickle.dump(block, out)
    pickle.dump(None, out)
    out.flush()


def _send_error(out, exc: Exception) -> None:
    """Send ``exc`` pickled, as a 1-tuple, or a RuntimeError naming it if it
    does not survive pickling."""
    try:
        data = pickle.dumps(exc)
        pickle.loads(data)
    except Exception:
        data = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
    pickle.dump((data,), out)
    out.flush()


def _load(reader):
    """The next object a child sent; or raise the exception it sent, or
    ChildProcessError if it ended first."""
    try:
        message = pickle.load(reader)
    except (EOFError, pickle.UnpicklingError):
        raise ChildProcessError("a replication process ended without its results") from None
    if isinstance(message, tuple) and len(message) == 1:
        raise pickle.loads(message[0])
    return message


def _receive(reader, tally: _Tally, drop: float = 0) -> None:
    """Measure a child's replication, sent by :func:`_send`, into ``tally``
    one block at a time, less its first ``drop`` departures (all of them at
    ``math.inf``); or raise the exception it sent."""
    while (block := _load(reader)) is not None:
        x, c = block
        if drop < len(x):
            tally.measure(x[drop:], None if c is None else c[drop:])
        drop = max(drop - len(x), 0)


def _result(tallies: list[_Tally], classes: slice, reservoir: _Reservoir) -> SimResult:
    """The statistics of the classes ``classes`` selects, summed in class order
    within each replication: one class, or all of them for the aggregate."""
    sums = [sum(t.sums[classes]) for t in tallies]
    counts = [sum(t.counts[classes]) for t in tallies]
    shift = tallies[0].shift
    means = [math.ldexp(s / c, shift) if c else float("nan") for s, c in zip(sums, counts)]
    count = sum(counts)
    visits = sum(sum(t.visits[classes]) for t in tallies)
    arr = np.asarray(means, dtype=np.float64)
    # np.mean sums the means and np.std squares deviations, so both run on
    # the means scaled below 1 by a power of two: exact, so they keep every
    # bit and cannot overflow
    e = math.frexp(float(np.max(np.abs(arr))))[1]
    scaled = np.ldexp(arr, -e)
    return SimResult(
        mean_sojourn=math.ldexp(float(np.mean(scaled)), e),
        ci_halfwidth=math.ldexp(
            float(_Z95 * float(np.std(scaled, ddof=1)) / np.sqrt(len(arr))), e),
        per_replication_means=tuple(means),
        empirical_ccdf=reservoir.sorted_array(),
        controller_visit_fraction=visits / count if count else float("nan"),
    )


def _run_events(chain: ChainModel, n_packets: int, tally: _Tally,
                seed_seq: np.random.SeedSequence) -> None:
    """One replication by the checked event loop (see the module docstring).

    Switch k is station k and the controller is station n.  A packet is the
    tuple (arrival time, entry node, new-flow mark, visited controller), held
    only by the queues and ``busy``: per-packet state is dropped at departure.
    Each arrival time is the previous one plus a gap, one addition per event,
    so the Lindley loops' ``cumsum`` of the same gaps is checked against it.
    """
    n = len(chain.nodes)
    arr_rngs, mark_rngs, services = _streams(chain, seed_seq)
    gaps = [_exponentials(rng, 1.0 / nd.lam) for rng, nd in zip(arr_rngs, chain.nodes)]
    marks = [_draws(rng.random) for rng in mark_rngs]
    qs = [nd.q_nf for nd in chain.nodes]

    heap: list[tuple[float, int, int]] = []
    push = heapq.heappush
    pop = heapq.heappop
    seq = itertools.count()

    # a queue entry is (join stamp, packet): services start in stamp order
    queues: list[deque[tuple]] = [deque() for _ in range(n + 1)]
    busy: list[tuple | None] = [None] * (n + 1)
    joins = [0] * (n + 1)
    started = [0] * (n + 1)

    admitted = 0
    departed = 0

    sojourns, classes = tally.sojourns, tally.cls

    def start(s: int, t: float) -> None:
        # station s starts serving the head of its queue at time t
        stamp, busy[s] = queues[s].popleft()
        if stamp != started[s] + 1:
            where = "controller" if s == n else f"switch {s}"
            raise SimulationInvariantError(f"FIFO order violated at the {where}")
        started[s] = stamp
        push(heap, (t + next(services[s]), next(seq), n + s))

    # kick off one pending arrival per class
    for i in range(n):
        push(heap, (next(gaps[i]), next(seq), i))

    # Event codes: i < n is an external arrival at node i; n + s is a service
    # completion at station s.  Each event moves one packet to station `dest`
    # (-1: it departs) and, for a completion, frees station `done`.  A join
    # starts its station before the next arrival or the restart is pushed.
    while departed < n_packets:
        t, _, code = pop(heap)
        if code < n:
            if admitted == n_packets:
                continue
            admitted += 1
            dest = code
            pkt = (t, dest, next(marks[dest]) < qs[dest], False)
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
                sojourns.append(-(t - pkt[0]) if pkt[3] else t - pkt[0])
                classes.append(pkt[1])
                if len(sojourns) == _BLOCK:
                    tally.flush()
        if dest >= 0:
            # join `dest`, served at once if it is idle
            joins[dest] += 1
            queues[dest].append((joins[dest], pkt))
            if busy[dest] is None:
                start(dest, t)
        if code < n:
            if admitted < n_packets:
                push(heap, (t + next(gaps[dest]), next(seq), dest))
        elif queues[done]:
            start(done, t)
        else:
            busy[done] = None
        in_system = (sum(len(qd) for qd in queues)
                     + sum(1 for b in busy if b is not None))
        if admitted != departed + in_system:
            raise SimulationInvariantError(
                f"packet conservation violated: {admitted} admitted, {departed} "
                f"departed, {in_system} in the system")
    tally.flush()


def _run_replication(chain: ChainModel, n_packets: int, tally: _Tally,
                     seed_seq: np.random.SeedSequence, tail=None) -> None:
    """One replication by a Lindley loop, with the event loop's bits: a
    single node's by :class:`_Lindley`, a chain's by :class:`_Joins` (see
    the module docstring).

    ``tally`` gets one block per chunk of :func:`_merged_arrivals` (or per
    piece of one around a cut, whose window is one), and from
    :class:`_Joins` one every ``_BLOCK`` departures too.  :class:`_Lindley`
    does not count them, as that would slow its loop: a block of ``_BLOCK``
    arrivals holds a few departures more or fewer, as controller returns
    leave after later arrivals (at ``_BLOCK`` = 1000 and controller load
    0.9, blocks of 975 to 1019), and the sentinel's holds the drain.

    With ``tail``, the pipe from a process that runs :func:`_run_tail`, the
    replication is cut at a regeneration point, an arrival that finds the
    system empty (Crane & Iglehart 1975): from there on its path does not
    depend on what came before.  The caller runs the head, arrivals 0 to m,
    then reads the check points (see :func:`_cut_pieces`) at which the tail,
    run from an empty system at m, is empty.  It runs on, piece by piece, to
    the first of them, j, at which :meth:`empty` finds its own path empty
    too: both paths have then made every station's joins of the arrivals
    before j, and so drawn every service stream to the same draw, and they
    make the same float operations on the same draws from j on.  It
    measures its departures before j and the tail's from its (j - m)th on.
    With no such j in the window it runs the replication to its end alone
    and reads past the tail's departures.
    """
    engine, feed = _engine(chain, n_packets, tally, seed_seq)
    # a whole replication's m and window end are indices no arrival has
    m, end, pieces = (-1, -1, _pieces(feed, ())) if tail is None else _cut_pieces(feed, n_packets)
    stop = {}  # the tail's empty check points: its departures before each
    for first, cols in pieces:
        if first == m:
            stop = dict(_load(tail))
        if first in stop and engine.empty(cols[0][0]):
            tally.flush()
            if tally.departed != first or stop[first] != first - m:
                raise SimulationInvariantError(
                    f"the cut replication splices at arrival {first} after {tally.departed} "
                    f"departures and its tail's {stop[first]}, not {first} and {first - m}")
            _receive(tail, tally, first - m)
            return
        engine.run(*cols)
        if first < m or first + len(cols[0]) >= end:  # the window's pieces make one block
            tally.flush()
    if tail is not None:
        _receive(tail, tally, math.inf)


def _engine(chain: ChainModel, n_packets: int, tally: _Tally,
            seed_seq: np.random.SeedSequence):
    """A replication's Lindley loop (:class:`_Lindley` for one node, else
    :class:`_Joins`) running into ``tally``, and its arrival feed; the loop
    holds the service streams as ``draw``."""
    arr_rngs, mark_rngs, services = _streams(chain, seed_seq)
    engine = (_Lindley if len(chain.nodes) == 1 else _Joins)(services, tally)
    return engine, _merged_arrivals(chain.nodes, arr_rngs, mark_rngs, n_packets)


def _run_tail(chain: ChainModel, n_packets: int, out,
              seed_seq: np.random.SeedSequence) -> None:
    """The tail of a cut replication (see :func:`_run_replication`):
    arrivals m on, from an empty system, with each station's service stream
    passed over its joins of the first m arrivals, had the system been empty
    at m.  Switch i joins once per arrival of a class c <= i, each of which
    passes it once, and once more per new flow of class i, back from the
    controller; the controller joins once per new flow.

    Sends the list of (index, its departures before it) of every check
    point in the window at which :meth:`empty` finds the tail empty, which
    starts with (m, 0), as it starts empty; then its departures as
    :func:`_send` does."""
    n = len(chain.nodes)
    record = _Record(n, 0)
    engine, feed = _engine(chain, n_packets, record, seed_seq)
    m, end, pieces = _cut_pieces(feed, n_packets)
    joins = np.zeros(n + 1, dtype=np.int64)  # each station's, before arrival m
    for first, (times, cls, marks) in pieces:
        new = np.bincount(np.asarray(cls)[np.asarray(marks)], minlength=n)
        joins[:n] += np.cumsum(np.bincount(cls, minlength=n)) + new
        joins[n] += new.sum()
        if first + len(times) == m:
            break
    for stream, count in zip(engine.draw, joins.tolist()):
        _skip(stream, count)
    empties: list[tuple[int, int]] = []
    for first, cols in pieces:
        if engine.empty(cols[0][0]):
            empties.append((first, record.departed + len(record.sojourns)))
        engine.run(*cols)
        if first + len(cols[0]) == end:
            break
    pickle.dump(empties, out)
    out.flush()
    record.flush()
    for _, cols in pieces:
        engine.run(*cols)
        record.flush()
    _send(out, record)


def _cut_pieces(feed, n_packets: int):
    """Where a cut replication's tail starts, m, where the window in which it
    may be spliced on ends, and ``feed``'s pieces (see :func:`_pieces`) split
    at m, at every ``_CHECK``-th arrival after it and at the window's end:
    the start of each piece in the window is a check point.  The warm-up is
    under N/2 departures, so a splice comes after it and the tail's
    departures are measured."""
    m = int(_CUT * n_packets)
    end = min(m + _WINDOW, n_packets)
    return m, end, _pieces(feed, (*range(m, end, _CHECK), end))


class _Lindley:
    """A single node's state between two arrivals, for Lindley's recursion.

    A first pass that starts at or after arrival ``a`` returns after ``a``, so
    when ``a`` is reached every earlier return is already queued: ``head``,
    the next one's time (inf if none), ``backs``, the later ones' times, and
    ``firsts``, their arrival times.  ``free`` and ``cfree`` are the times
    the switch and the controller finish their last service.  An exact tie
    is served arrival-first.  ``draw`` holds the two service streams.
    Departures are appended to the tally's ``sojourns``, which the caller
    flushes.  The closing sentinel of :func:`_merged_arrivals`, a new flow at
    inf, drains every queued return and is queued for the controller, never
    to depart.
    """

    __slots__ = ("draw", "sojourns", "head", "free", "cfree", "backs", "firsts")

    def __init__(self, services, tally: _Tally):
        self.draw, self.sojourns = services, tally.sojourns
        self.head, self.free, self.cfree = math.inf, 0.0, 0.0
        self.backs, self.firsts = deque(), deque()

    def run(self, times, cls, marks) -> None:
        """Run arrivals at ``times`` with new-flow ``marks``; ``cls`` is unread."""
        backs, firsts, sojourns = self.backs, self.firsts, self.sojourns
        svc, ctl = self.draw
        head, free, cfree = self.head, self.free, self.cfree
        for a, new in zip(times, marks):
            while head < a:
                free = (head if head > free else free) + next(svc)
                sojourns.append(-(free - firsts.popleft()))
                head = backs.popleft() if backs else math.inf
            free = (a if a > free else free) + next(svc)
            if new:
                cfree = (free if free > cfree else cfree) + next(ctl)
                if firsts:
                    backs.append(cfree)
                else:
                    head = cfree
                firsts.append(a)
            else:
                sojourns.append(free - a)
        self.head, self.free, self.cfree = head, free, cfree

    def empty(self, a: float) -> bool:
        """Serve every return queued before ``a``, as :meth:`run` does on
        reaching an arrival at ``a``; then whether that arrival finds the
        system empty: no return queued and the switch free, so the
        controller is too."""
        head, free = self.head, self.free
        while head < a:
            free = (head if head > free else free) + next(self.draw[0])
            self.sojourns.append(-(free - self.firsts.popleft()))
            head = self.backs.popleft() if self.backs else math.inf
        self.head, self.free = head, free
        return head == math.inf and free <= a


class _Joins:
    """A chain's state between two arrivals, for the join-ordered loop.

    ``heap`` holds each unrouted completion as (time, station, push order
    ``i``, arrival time, code) above a sentinel at inf, and ``t`` is its
    earliest time.  The controller's (station n) rejoin their code's node; a
    switch's join the controller if the code is ~class, else go downstream.
    A new flow's arrival time is negated (-0.0 at 0.0).  A routed completion
    is replaced by the one its join makes.  ``free[s]`` is the time station
    s finishes its last service.  Departures go to ``tally``, which
    :meth:`run` flushes every ``_BLOCK``.  The closing sentinel of
    :func:`_merged_arrivals`, of class n at inf, routes every completion.
    """

    __slots__ = ("draw", "tally", "heap", "free", "i", "t")

    def __init__(self, services, tally: _Tally):
        self.draw, self.tally = services, tally
        self.heap = [(math.inf, len(services), 0, 0.0, 0)]
        self.free = [0.0] * len(services)
        self.i, self.t = 0, math.inf

    def run(self, times, cls, marks) -> None:
        """Run arrivals at ``times`` of classes ``cls`` with new-flow ``marks``."""
        heap, free, draw, tally = self.heap, self.free, self.draw, self.tally
        n = len(free) - 1
        last = n - 1
        push, replace, pop = heapq.heappush, heapq.heapreplace, heapq.heappop
        sojourns, classes = tally.sojourns, tally.cls
        i, t = self.i, self.t
        for a, c, new in zip(times, cls, marks):
            # the test is an `if` inside the loop, not `while t < a`, and the
            # new-flow test below is a branch, not an assigned expression:
            # CPython 3.11 specialises a compare only when a short
            # conditional jump follows it, which a `while` this long lacks
            while True:
                if not t < a:
                    break
                _, k, _, a0, code = heap[0]
                if k == n:
                    s = code
                elif code < 0:
                    s, code = n, ~code
                else:
                    s = k + 1
                f = free[s]
                free[s] = f = (t if t > f else f) + next(draw[s])
                if s == last:  # a second pass or a transit: the final pass
                    pop(heap)
                    if a0 < 0.0 or a0 == 0.0 and math.copysign(1.0, a0) < 0.0:
                        sojourns.append(-(f + a0))  # visited the controller
                    else:
                        sojourns.append(f - a0)
                    classes.append(code)
                    if len(sojourns) == _BLOCK:
                        tally.flush()
                else:
                    replace(heap, (f, s, (i := i + 1), a0, code))
                t = heap[0][0]
            if c == n:  # the sentinel after the last admitted arrival: drained
                break
            f = free[c]
            free[c] = f = (a if a > f else f) + next(draw[c])
            if new:
                push(heap, (f, c, (i := i + 1), -a, ~c))
            elif c < last:
                push(heap, (f, c, (i := i + 1), a, c))
            else:  # a local packet at the last node: its only pass
                sojourns.append(f - a)
                classes.append(c)
                if len(sojourns) == _BLOCK:
                    tally.flush()
                continue
            if f < t:
                t = f
        self.i, self.t = i, t

    def empty(self, a: float) -> bool:
        """Route every completion before ``a``, by running a class-n sentinel
        at ``a``, at which :meth:`run` stops; then whether an arrival at
        ``a`` finds the chain empty: the heap holds only its sentinel, and
        the last switch is free too, as its final passes depart at their
        join."""
        n = len(self.free) - 1
        self.run((a,), (n,), (False,))
        return len(self.heap) == 1 and self.free[n - 1] <= a


def _merged_arrivals(nodes, arr_rngs, mark_rngs, n_packets: int):
    """The first ``n_packets`` external arrivals of every class in time order,
    chunk by chunk, as memoryviews of their times, classes (for one class, a
    slice of one view of ``_BLOCK`` zeros) and new-flow marks; then one
    sentinel chunk, a new flow, (inf, len(nodes), True).

    Each class draws its arrival times and marks one ``_BLOCK`` at a time, as
    the event loop does.  One class's block is a chunk; for more, a chunk is
    every drawn arrival up to the earliest last time of a class's block,
    sorted stably, so an exact tie between two classes goes to the lower
    class first.
    """
    n = len(nodes)
    blocks = [_arrival_blocks(rng, 1.0 / nd.lam) for rng, nd in zip(arr_rngs, nodes)]
    times = [np.empty(0)] * n
    marks = [np.empty(0, dtype=bool)] * n
    zeros = memoryview(np.zeros(_BLOCK, dtype=np.intp))
    left = n_packets
    while left:
        for i in range(n):
            if not len(times[i]):
                times[i] = next(blocks[i])
                marks[i] = mark_rngs[i].random(_BLOCK) < nodes[i].q_nf
        if n == 1:  # one class is in time order: no merge
            cut = [len(times[0])]
            chunk, cls, new = times[0][:left], zeros[:left], marks[0][:left]
        else:
            end = min(t[-1] for t in times)
            cut = [int(np.searchsorted(t, end, side="right")) for t in times]
            merged = np.concatenate([t[:k] for t, k in zip(times, cut)])
            order = np.argsort(merged, kind="stable")[:left]
            chunk, cls = merged[order], memoryview(np.repeat(np.arange(n), cut)[order])
            new = np.concatenate([m[:k] for m, k in zip(marks, cut)])[order]
        left -= len(chunk)
        yield memoryview(chunk), cls, memoryview(new)
        times = [t[k:] for t, k in zip(times, cut)]
        marks = [m[k:] for m, k in zip(marks, cut)]
    yield [math.inf], [n], [True]


def _pieces(feed, cuts):
    """The arrival chunks from :func:`_merged_arrivals`, split at the arrival
    indices ``cuts``: each piece as (index of its first arrival, its times,
    classes and marks)."""
    first = 0
    for cols in feed:
        last = first + len(cols[0])
        lo = first
        for cut in cuts:
            if lo < cut < last:
                yield lo, tuple(col[lo - first:cut - first] for col in cols)
                lo = cut
        yield lo, tuple(col[lo - first:] for col in cols)
        first = last


def _streams(chain: ChainModel, seed_seq: np.random.SeedSequence):
    """A replication's random streams, one per stochastic source, spawned
    once: node i's arrival generators, its mark generators, and per station
    (the switches, then the controller) an iterator over its service times.

    Node i owns streams 3i (arrivals), 3i + 1 (services) and 3i + 2 (marks);
    the controller's services use stream 3n.
    """
    rngs = [np.random.default_rng(s) for s in seed_seq.spawn(3 * len(chain.nodes) + 1)]
    rates = [nd.mu_switch for nd in chain.nodes] + [chain.controller.mu_controller]
    services = [_exponentials(rng, 1.0 / mu) for rng, mu in zip(rngs[1::3] + rngs[-1:], rates)]
    return rngs[0:-1:3], rngs[2::3], services


def _draws(block):
    """An iterator over the values ``block(_BLOCK)`` returns, each read from
    its buffer as a Python scalar; a new block is drawn when the last one
    runs out.  The engines read it with ``next(stream)``: CPython 3.11+
    specialises that call, but not a call of its bound ``__next__``."""
    return itertools.chain.from_iterable(iter(lambda: memoryview(block(_BLOCK)), None))


def _skip(stream, count: int) -> None:
    """Pass over the next ``count`` values of a :func:`_draws` stream."""
    next(itertools.islice(stream, count, count), None)


def _exponentials(rng: np.random.Generator, scale: float):
    """An iterator over ``rng``'s exponential draws of mean ``scale``."""
    return _draws(functools.partial(rng.exponential, scale))


def _arrival_blocks(rng: np.random.Generator, scale: float):
    """Arrival times block by block: cumsum adds the gaps one at a time, as the
    event loop's ``t + gap`` does."""
    t = 0.0
    while True:
        gaps = rng.exponential(scale, _BLOCK)
        gaps[0] += t
        times = np.cumsum(gaps)
        t = times[-1]
        yield times
