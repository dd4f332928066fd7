"""Command-line front end: analysis reports, tables, simulations, figure data.

One subcommand per task: ``analyze`` (balance solution + stability verdict),
``distribution`` (pdf/ccdf/quantile tables), ``simulate`` (single-node DES),
``chain`` (tandem chain, analytic and simulated), ``dimension`` (admissible
throughput), ``sweep`` (generic one-variable sweep), ``figure`` (fig2..fig6
data files, each built from sweeps) and ``validate`` (the acceptance suite).

One resolver, ``resolve``, gives every command its parameters under one rule:
flag > config file > ``SDNQUEUE_SEED`` (the seed only) > default.  Every
command except ``figure`` and ``validate`` takes a JSON config file
(``--config``, read once) with sections {node|chain, controller, sim, sweep,
output}; ``runconfig_from_json`` runs the same resolver with no flags.
Each flag sets one config key (``_PARAMS``) and its string is read like
that key's value in a file, so a bad flag's error names the key.  The
``chain`` command's list flags give one value per node and layer over the
config's nodes key by key.  Service rates may be given per second
(``mu_switch``) or as mean service times in microseconds (``mu_switch_us``);
giving both forms of the same parameter in one source is an error.

Exit codes: 0 success, 1 usage/config error, 2 model unstable, 3 validation
failure.  CSV output is RFC-4180 style (header row, '.' decimal separator,
CRLF line ends); identical inputs and seed give byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import numbers
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace

from .analytic import (
    ChainModel,
    ControllerParams,
    NodeParams,
    UnstableSystemError,
    chain_sojourn,
    mean_sojourn_jackson,
    mean_sojourn_openflow,
    rate_from_us,
    solve_chain,
    solve_rates,
)
from .distribution import _pdf_ccdf, build_distribution, prob_within_deadline, quantile
from .dimensioning import (
    SWEEP_OUTPUTS,
    SWEEP_VARIABLES,
    SweepSpec,
    _log_grid,
    default_delay_bound_grid,
    max_throughput,
    sweep,
    zero_load_sojourn,
)
from .simulate import SimConfig, run_chain, run_single_node
from . import validation

SEED_ENV_VAR = "SDNQUEUE_SEED"
_FIGURES = ("fig2", "fig3", "fig4", "fig5", "fig6")

# Every config key a flag can set: key -> (section, flag, help).  The flag
# stores its string under the key, and the resolver reads it as it reads the
# key's value from a config file.
_PARAMS = {
    "lambda": ("node", "--lam", "external arrival rate (packets/s)"),
    "q_nf": ("node", "--q-nf", "new-flow probability"),
    "mu_switch": ("node", "--mu-switch", "switch service rate (packets/s)"),
    "mu_switch_us": ("node", "--mu-switch-us", "mean switch service time (microseconds)"),
    "mu_controller": ("controller", "--mu-controller", "controller service rate (responses/s)"),
    "mu_controller_us": ("controller", "--mu-controller-us",
                         "mean controller service time (microseconds)"),
    "seed": ("sim", "--seed", f"RNG seed (default ${SEED_ENV_VAR} or {SimConfig.seed})"),
    "packets_per_replication": ("sim", "--packets", "packets per replication"),
    "replications": ("sim", "--replications", "independent replications"),
    "warmup_fraction": ("sim", "--warmup-fraction",
                        "fraction of departures discarded as warm-up"),
    "variable": ("sweep", "--variable", f"one of {SWEEP_VARIABLES}"),
    "grid": ("sweep", "--grid", "comma list or start:stop:count[:log]"),
    "outputs": ("sweep", "--outputs", f"comma list from {SWEEP_OUTPUTS}"),
    "deadline": ("sweep", "--deadline", "deadline for deadline_prob (seconds)"),
    "path": ("output", "--output", "output file (default: the config's output.path, "
                                   "else stdout for tables; figure: <name>.csv)"),
    "format": ("output", "--format", "table format: csv (default) or json"),
}


def _keys(*sections: str) -> list[str]:
    """The config keys of ``sections``, in table order."""
    return [key for key, (section, _, _) in _PARAMS.items() if section in sections]


# Config sections and their keys
_SECTION_KEYS = {"chain": {"nodes"}} | {section: set(_keys(section))
                                        for section, _, _ in _PARAMS.values()}


class CliError(Exception):
    """Usage or configuration error; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # an argument that starts with "-" or "-." and then a digit, or with
        # -inf, -infinity or -nan in any case, such as the lists "-0.1,0.2"
        # and "-inf,0.2", is a value: no flag looks like that
        self._negative_number_matcher = re.compile(r"-\.?\d|-(inf(inity)?|nan)\b", re.I)

    def error(self, message):
        raise CliError(message)


@contextmanager
def _usage_errors():
    """Report the library's parameter checks (ValueError) as usage errors."""
    try:
        yield
    except ValueError as exc:
        raise CliError(str(exc)) from exc


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description: what every command runs on, and what
    the JSON config round-trips through.  Parts a command does not use are None."""

    node: NodeParams | None
    chain: ChainModel | None
    controller: ControllerParams | None
    sim: SimConfig | None
    sweep: SweepSpec | None
    output_path: str | None
    output_format: str = "csv"


def runconfig_to_dict(cfg: RunConfig) -> dict:
    def node(n: NodeParams) -> dict:
        return {"lambda": n.lam, "q_nf": n.q_nf, "mu_switch": n.mu_switch}

    doc: dict = {}
    if cfg.node is not None:
        doc["node"] = node(cfg.node)
    if cfg.chain is not None:
        doc["chain"] = {"nodes": [node(n) for n in cfg.chain.nodes]}
    if cfg.controller is not None:
        doc["controller"] = asdict(cfg.controller)
    if cfg.sim is not None:
        doc["sim"] = asdict(cfg.sim)
    if (spec := cfg.sweep) is not None:
        doc["sweep"] = {"variable": spec.variable, "grid": list(spec.grid),
                        "outputs": list(spec.outputs), "deadline": spec.deadline}
    doc["output"] = {"path": cfg.output_path, "format": cfg.output_format}
    return doc


def runconfig_to_json(cfg: RunConfig) -> str:
    return json.dumps(runconfig_to_dict(cfg), indent=2, sort_keys=True)


def runconfig_from_json(text: str) -> RunConfig:
    return resolve(json.loads(text))


# ---------------------------------------------------------------------------
# the resolver

def resolve(doc: dict, flags: dict | None = None, want=None,
            defaults: dict | None = None) -> RunConfig:
    """Build the parts named in ``want`` ("node", "chain", "controller",
    "sim", "sweep") plus the output path and format, taking each value from
    ``flags`` (keyed by config key and read like the document's values; None
    = not given), else the config document, else the command's
    ``defaults``; a seed given by neither flag nor file comes from
    ``SDNQUEUE_SEED``.  Without ``want``, the controller, the
    simulation plan and every section ``doc`` has are built: that is how a
    config document is read on its own.
    """
    _check_keys("config", doc, _SECTION_KEYS)
    for name, section in doc.items():
        _check_keys(name, section, _SECTION_KEYS[name])
    nodes = doc.get("chain", {}).get("nodes", [])
    if not isinstance(nodes, list):
        raise CliError("config section 'chain' must give 'nodes' as a list of node objects")
    for node_sec in nodes:
        _check_keys("node", node_sec, _SECTION_KEYS["node"])
    if "node" in doc and "chain" in doc:
        raise CliError("config must give either 'node' or 'chain', not both")
    if want is None:
        want = {"controller", "sim"} | (doc.keys() & {"node", "chain", "sweep"})
    flags = flags or {}
    defaults = defaults or {}

    def layers(name: str) -> list[dict]:
        return [flags, doc.get(name, {}), defaults.get(name, {})]

    with _usage_errors():
        # a sweep varies one field of the node, so it needs the node too
        node = _node(layers("node")) if "node" in want or "sweep" in want else None
        ctrl = (ControllerParams(_rate(layers("controller"), "mu_controller",
                                       "mu_controller_us", "controller service rate"))
                if "controller" in want else None)
        chain = _chain(flags, doc, ctrl) if "chain" in want else None
        sim = _sim(layers("sim")) if "sim" in want else None
        spec = _sweep(layers("sweep"), node, ctrl, sim) if "sweep" in want else None
        fmt = _pick(layers("output"), "format", "csv")
        if fmt not in ("csv", "json"):
            raise CliError(f"output format must be 'csv' or 'json', got {fmt!r}")
        path = _pick(layers("output"), "path")
        if not isinstance(path, (str, type(None))):
            raise CliError(f"output path must be a string, got {path!r}")
        return RunConfig(node=node, chain=chain, controller=ctrl, sim=sim, sweep=spec,
                         output_path=path, output_format=fmt)


runconfig_from_dict = resolve  # a config document read on its own


def _check_keys(section: str, d: dict, allowed) -> None:
    if not isinstance(d, dict):
        raise CliError(f"config section {section!r} must be an object")
    for key in d:
        if key not in allowed:
            raise CliError(f"unknown key {key!r} in config section {section!r}; "
                           f"allowed: {sorted(allowed)}")


def _pick(layers: list[dict], key: str, default=None, required: str = "", kind=None):
    """The first value given for ``key``, read as a ``kind`` (float or int)
    when one is named."""
    for section in layers:
        if section.get(key) is not None:
            return section[key] if kind is None else _number(section[key], key, kind)
    if required:
        raise CliError(f"missing {key!r} ({required})")
    return default


def _number(value, key: str, kind=float):
    """``value`` as a ``kind``, or a usage error naming ``key``.  A number
    or a numeric string is read; an int must be whole, so 2e5 reads as 200000
    and 20000.5 is refused."""
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    allowed = numbers.Integral if kind is int else numbers.Real
    try:
        if isinstance(value, bool) or not isinstance(value, (allowed, str)):
            raise TypeError
        return kind(value)
    except (TypeError, ValueError):
        what = "an integer" if kind is int else "a number"
        raise CliError(f"{key!r} must be {what}, got {value!r}") from None


def _rate(layers: list[dict], rate_key: str, us_key: str, what: str) -> float:
    for section in layers:
        rate, us = section.get(rate_key), section.get(us_key)
        if rate is not None and us is not None:
            raise CliError(f"give either {rate_key!r} or {us_key!r}, not both")
        if rate is not None:
            return _number(rate, rate_key)
        if us is not None:
            return _rate_from_us(_number(us, us_key), repr(us_key))
    raise CliError(f"missing {what}: set {rate_key!r} (per second) or "
                   f"{us_key!r} (microseconds)")


def _deadline_s(deadline_us: float) -> float:
    """``--deadline-us`` in seconds, or a usage error naming the flag and the
    value given unless it is >= 0 (NaN is refused too)."""
    if not deadline_us >= 0.0:
        raise CliError(f"--deadline-us must be >= 0, got {deadline_us:g}")
    return deadline_us * 1e-6


def _delay_bound_s(bound_us: float) -> float:
    """``--delay-bound-us`` in seconds, or a usage error naming the flag and
    the value given unless it is > 0 (NaN is refused too)."""
    if not bound_us > 0.0:
        raise CliError(f"--delay-bound-us must be > 0, got {bound_us:g}")
    return bound_us * 1e-6


def _rate_from_us(us: float, key: str) -> float:
    """The rate for a mean service time of ``us`` microseconds, or a usage
    error naming ``key`` and the time given."""
    try:
        return rate_from_us(us)
    except ValueError as exc:
        raise CliError(f"{key}: {exc}") from None


def _node(layers: list[dict]) -> NodeParams:
    lam = _pick(layers, "lambda", required="external arrival rate, per second", kind=float)
    q_nf = _pick(layers, "q_nf", required="new-flow probability", kind=float)
    mu = _rate(layers, "mu_switch", "mu_switch_us", "switch service rate")
    return NodeParams(lam=lam, mu_switch=mu, q_nf=q_nf)


def _chain(flags: dict, doc: dict, ctrl: ControllerParams) -> ChainModel:
    """Chain nodes layered key by key: node i reads each key from the i-th
    value of its comma-list flag, else from the config's node i.  The config's
    nodes, else --lam, give the node count; one switch rate may serve every
    node."""
    lists = {key: flags[key].split(",") for key in _keys("node") if flags.get(key) is not None}
    if "chain" in doc:
        nodes = doc["chain"].get("nodes", [])
    elif "lambda" in lists:
        nodes = [{}] * len(lists["lambda"])
    else:
        raise CliError("give chain nodes via --lam/--q-nf/--mu-switch-us lists "
                       "or a config file with a 'chain' section")
    for key, values in lists.items():
        if key.startswith("mu_switch") and len(values) == 1:
            values *= len(nodes)
        if len(values) != len(nodes):
            raise CliError(f"{_PARAMS[key][1]} must list one value per node")
    return ChainModel(nodes=tuple(_node([{key: values[i] for key, values in lists.items()},
                                         node]) for i, node in enumerate(nodes)),
                      controller=ctrl)


def _env_seed() -> int | None:
    raw = os.environ.get(SEED_ENV_VAR)
    try:
        return None if raw is None else int(raw)
    except ValueError as exc:
        raise CliError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc


def _given(**values) -> dict:
    """The values that were given, so the rest take the library's defaults."""
    return {key: value for key, value in values.items() if value is not None}


def _sim(layers: list[dict]) -> SimConfig:
    # the environment is read only when no flag or file gives a seed, so a
    # malformed value there cannot fail a run that does not use it
    seed = _pick(layers, "seed", kind=int)
    return SimConfig(**_given(
        seed=_env_seed() if seed is None else seed,
        packets_per_replication=_pick(layers, "packets_per_replication", kind=int),
        replications=_pick(layers, "replications", kind=int),
        warmup_fraction=_pick(layers, "warmup_fraction", kind=float)))


def _sweep(layers: list[dict], node: NodeParams, ctrl: ControllerParams,
           sim: SimConfig) -> SweepSpec:
    variable = _pick(layers, "variable", required=f"one of {SWEEP_VARIABLES}")
    raw_grid = _pick(layers, "grid", required="the swept values")
    outputs = _pick(layers, "outputs")
    if isinstance(outputs, str):
        outputs = [s.strip() for s in outputs.split(",")]
    if not (outputs is None or (isinstance(outputs, (list, tuple))
                                and all(isinstance(o, str) for o in outputs))):
        raise CliError(f"sweep 'outputs' must be a list of names, got {outputs!r}")
    return SweepSpec(variable=str(variable), grid=_parse_grid(raw_grid, "grid"), node=node,
                     controller=ctrl, sim=sim,
                     **_given(outputs=outputs, deadline=_pick(layers, "deadline", kind=float)))


def _parse_grid(raw, name: str) -> tuple[float, ...]:
    """The grid ``raw`` gives, with errors naming it ``name``: the config key
    or the flag it was given under."""
    if isinstance(raw, str) and ":" in raw:
        parts = raw.split(":")
        if len(parts) not in (3, 4):
            raise CliError(f"{name} spec must be start:stop:count[:log]")
        raw = dict(zip(("start", "stop", "count", "spacing"), parts))
    if isinstance(raw, dict):
        _check_keys("sweep.grid", raw, {"start", "stop", "count", "spacing"})
        try:
            start = _number(raw["start"], f"{name} start")
            stop = _number(raw["stop"], f"{name} stop")
        except KeyError as exc:
            raise CliError(f"sweep.grid needs {exc.args[0]!r}") from exc
        count = _number(raw.get("count", 10), f"{name} count", int)
        return _make_grid(start, stop, count, raw.get("spacing", "linear"), name, f"{name} count")
    if isinstance(raw, str):
        raw = raw.split(",")
    if not isinstance(raw, (list, tuple)):
        raise CliError(f"sweep {name!r} must be a list of numbers, a start:stop:count[:log] "
                       f"string or an object, got {raw!r}")
    return tuple(_number(x, name) for x in raw)


def _make_grid(start: float, stop: float, count: int, spacing: str, name: str,
               count_name: str) -> tuple[float, ...]:
    """``count`` values from ``start`` to ``stop``, with errors naming the
    grid ``name`` and its count ``count_name``: the flags or keys given."""
    if count < 1:
        raise CliError(f"{count_name} must be >= 1, got {count}")
    if count == 1:
        return (start,)
    if spacing == "log":
        if start <= 0:
            raise CliError(f"{name} start must be > 0 for a log grid, got {start}")
        return _log_grid(start, stop, count)
    if spacing != "linear":
        raise CliError(f"{name} spacing must be 'linear' or 'log', got {spacing!r}")
    return tuple(start + _grid_offset(stop - start, k, count - 1) for k in range(count))


def _grid_offset(width: float, k: int, n: int) -> float:
    """width * k / n for 0 <= k <= n, as written where width * k is finite.
    Where only that product overflows, it is formed at width 2^-e and scaled
    back by 2^e, exactly: it rounds as with an unbounded exponent range, but
    is held at width, which those roundings can pass by an ulp."""
    point = width * k
    if math.isinf(point) and math.isfinite(width):
        e = k.bit_length()
        scaled = math.ldexp(width, -e)
        point = scaled * k / n
        return math.ldexp(max(point, scaled) if width < 0.0 else min(point, scaled), e)
    return point / n


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise CliError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"config file {path} is not valid JSON: {exc}") from exc


def _resolve_args(args, *want: str, defaults: dict | None = None,
                  report: bool = False) -> RunConfig:
    """Resolve a parsed command line, reading its config file once.  A
    ``report`` command prints text and writes its table only to a file, so a
    table format without an output path is refused rather than ignored."""
    doc = _load_config(getattr(args, "config", None))
    cfg = resolve(doc, vars(args), want, defaults)
    if (report and cfg.output_path is None
            and _pick([vars(args), doc.get("output", {})], "format") is not None):
        raise CliError("a table format needs an output path (--output or output.path); "
                       "without one this command prints a text report")
    return cfg


# ---------------------------------------------------------------------------
# table output

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(value)
    return str(value)


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_table(cfg: RunConfig, columns: list[str], rows: list[dict]) -> None:
    out = (sys.stdout if cfg.output_path is None
           else open(cfg.output_path, "w", newline="", encoding="utf-8"))
    try:
        if cfg.output_format == "json":
            payload = {"columns": columns,
                       "rows": [{c: _jsonable(r.get(c)) for c in columns} for r in rows]}
            out.write(json.dumps(payload, indent=2) + "\n")
            return
        writer = csv.writer(out)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row.get(c)) for c in columns])
    finally:
        if out is not sys.stdout:
            out.close()


# ---------------------------------------------------------------------------
# subcommands

def _cmd_analyze(args) -> int:
    cfg = _resolve_args(args, "node", "controller", report=True)
    node, ctrl = cfg.node, cfg.controller
    rates = solve_rates(node, ctrl)
    print("parameters:")
    print(f"  lambda            {node.lam:.6f} /s")
    print(f"  mu_switch         {node.mu_switch:.6f} /s  ({1e6 / node.mu_switch:.3f} us)")
    print(f"  mu_controller     {ctrl.mu_controller:.6f} /s  ({1e6 / ctrl.mu_controller:.3f} us)")
    print(f"  q_nf              {node.q_nf}")
    print("balance solution:")
    print(f"  gamma_switch      {rates.gamma_switch:.6f} /s")
    print(f"  gamma_controller  {rates.gamma_controller:.6f} /s")
    print(f"  q_jack            {rates.q_jack:.12f}")
    print(f"  rho_switch        {rates.rho_switch:.6f}")
    print(f"  rho_controller    {rates.rho_controller:.6f}")
    row = {"lambda": node.lam, "mu_switch": node.mu_switch,
           "mu_controller": ctrl.mu_controller, "q_nf": node.q_nf, **asdict(rates)}
    w_net = w_path = None
    if rates.stable:
        w_net = mean_sojourn_jackson(rates, node)
        w_path = mean_sojourn_openflow(node, ctrl, rates)
        print("mean sojourn:")
        print(f"  network form      {w_net * 1e6:.6f} us")
        print(f"  path form         {w_path * 1e6:.6f} us")
        print(f"  difference        {abs(w_net - w_path):.3e} s (consistency check)")
        verdict = "stable"
    else:
        verdict = "unstable: " + ", ".join(rates.saturated_stations())
        print("mean sojourn:       n/a (saturated)")
    row.update(mean_sojourn_network=w_net, mean_sojourn_path=w_path, verdict=verdict)
    print(f"verdict: {verdict}")
    if cfg.output_path:
        _write_table(cfg, list(row.keys()), [row])
    return 0 if rates.stable else 2


def _cmd_distribution(args) -> int:
    cfg = _resolve_args(args, "node", "controller")
    # an infinite rate, or a deadline, probability or time outside the law's domain
    with _usage_errors():
        dist = build_distribution(cfg.node, cfg.controller, solve_rates(cfg.node, cfg.controller))
        if args.deadline_us is not None:
            p = prob_within_deadline(dist, _deadline_s(args.deadline_us))
            print(f"P(sojourn <= {args.deadline_us:g} us) = {p:.6f}")
        if args.quantiles:
            ps = [_number(x, "--quantiles") for x in args.quantiles.split(",")]
            rows = [{"p": p, "quantile": quantile(dist, p)} for p in ps]
            _write_table(cfg, ["p", "quantile"], rows)
            return 0
        points = args.points
        if points < 2:
            raise CliError(f"--points must be >= 2, got {points}")
        t_max = args.t_max if args.t_max is not None else quantile(dist, 0.9999)
        if not 0.0 < t_max < math.inf:
            raise CliError(f"--t-max must be positive and finite, got {t_max}")
        ts = [_grid_offset(t_max, k, points - 1) for k in range(points)]
        density, tail = _pdf_ccdf(dist, ts)
        rows = [{"t": t, "pdf": pdf, "ccdf": ccdf}
                for t, pdf, ccdf in zip(ts, density.tolist(), tail.tolist())]
    _write_table(cfg, ["t", "pdf", "ccdf"], rows)
    return 0


def _cmd_simulate(args) -> int:
    cfg = _resolve_args(args, "node", "controller", "sim", report=True)
    sim = cfg.sim
    with _usage_errors():  # a rate too small for the packet budget
        res = run_single_node(cfg.node, cfg.controller, sim)
    print(f"replications        {sim.replications} x {sim.packets_per_replication} packets "
          f"(seed {sim.seed}, warmup {sim.warmup_fraction})")
    print(f"mean sojourn        {res.mean_sojourn * 1e6:.6f} us")
    print(f"95% CI halfwidth    {res.ci_halfwidth * 1e6:.6f} us")
    print(f"controller visits   {res.controller_visit_fraction:.6f} of packets")
    for i, m in enumerate(res.per_replication_means):
        print(f"  replication {i}     {m * 1e6:.6f} us")
    if cfg.output_path:
        columns = ["replication", "mean_sojourn", "ci_halfwidth", "controller_visit_fraction"]
        rows = [{"replication": i, "mean_sojourn": m}
                for i, m in enumerate(res.per_replication_means)]
        rows.append({"replication": "all", "mean_sojourn": res.mean_sojourn,
                     "ci_halfwidth": res.ci_halfwidth,
                     "controller_visit_fraction": res.controller_visit_fraction})
        _write_table(cfg, columns, rows)
    return 0


def _cmd_chain(args) -> int:
    cfg = _resolve_args(args, "chain", "controller", *(("sim",) if args.simulate else ()),
                        report=True)
    chain = cfg.chain
    solution = solve_chain(chain)
    print(f"controller: gamma {solution.gamma_controller:.6f} /s, "
          f"rho {solution.rho_controller:.6f}")
    for i, (node, r) in enumerate(zip(chain.nodes, solution.nodes)):
        print(f"node {i}: lambda {node.lam:g} /s, gamma {r.gamma_switch:.6f} /s, "
              f"q_jack {r.q_jack:.9f}, rho {r.rho_switch:.6f}")
    sojourns = chain_sojourn(chain, solution)  # raises if saturated -> exit 2
    columns = ["class", "lambda", "gamma_switch", "q_jack", "rho_switch", "analytic_mean"]
    rows = [{"class": i, "lambda": node.lam, "gamma_switch": r.gamma_switch,
             "q_jack": r.q_jack, "rho_switch": r.rho_switch, "analytic_mean": mean}
            for i, (node, r, mean) in enumerate(zip(chain.nodes, solution.nodes,
                                                    sojourns.per_class))]
    rows.append({"class": "aggregate", "analytic_mean": sojourns.aggregate})
    if args.simulate:
        with _usage_errors():  # a rate too small for the packet budget
            sim_res = run_chain(chain, cfg.sim)
        columns += ["sim_mean", "sim_ci"]
        for row, res in zip(rows, sim_res.per_class + (sim_res.aggregate,)):
            row["sim_mean"], row["sim_ci"] = res.mean_sojourn, res.ci_halfwidth
    for row in rows:
        label = "aggregate" if row["class"] == "aggregate" else f"class {row['class']}"
        simulated = (f", simulated {row['sim_mean'] * 1e6:.3f} us "
                     f"(ci {row['sim_ci'] * 1e6:.3f})" if args.simulate else "")
        print(f"{label}: analytic mean {row['analytic_mean'] * 1e6:.3f} us{simulated}")
    if cfg.output_path:
        _write_table(cfg, columns, rows)
    return 0


def _cmd_dimension(args) -> int:
    # dimensioning solves for the arrival rate: lambda only completes the node
    cfg = _resolve_args(args, "node", "controller", defaults={"node": {"lambda": 1.0}},
                        report=args.delay_bound_us is not None)
    node, ctrl = cfg.node, cfg.controller
    if args.delay_bound_us is not None:
        bound = _delay_bound_s(args.delay_bound_us)
        with _usage_errors():
            res = max_throughput(bound, q_nf=node.q_nf, mu_switch=node.mu_switch,
                                 mu_controller=ctrl.mu_controller)
        note = "" if res.feasible else f" ({res.note})"
        print(f"max throughput for {args.delay_bound_us:g} us bound: "
              f"{res.rate:.3f} packets/s{note}")
        if cfg.output_path:
            _write_table(cfg, ["delay_bound", "throughput", "feasible"],
                         [{"delay_bound": bound, "throughput": res.rate,
                           "feasible": res.feasible}])
        return 0
    if args.curve_points < 2:
        raise CliError(f"--curve-points must be >= 2, got {args.curve_points}")
    with _usage_errors():
        grid = default_delay_bound_grid(node.q_nf, node.mu_switch, ctrl.mu_controller,
                                        points=args.curve_points)
    rows = sweep(SweepSpec("delay_bound", grid, node, ctrl, outputs=("throughput",)))
    _write_table(cfg, ["delay_bound", "throughput"], rows)
    return 0


def _cmd_sweep(args) -> int:
    cfg = _resolve_args(args, "node", "controller", "sim", "sweep")
    with _usage_errors():
        rows = sweep(cfg.sweep)
    _write_table(cfg, list(rows[0]), rows)
    return 0


# sweep column -> figure column (fig2, fig3)
_FIGURE_COLUMNS = {"rho_controller": "rho_c", "naive_mean": "naive_jackson_mean",
                   "analytic_mean": "modified_jackson_mean", "simulated_mean": "sim_mean",
                   "sim_ci_halfwidth": "sim_ci"}


def _side_by_side(key: str, series: list[tuple[str, str, SweepSpec]]) -> list[dict]:
    """One row per grid point from (column, label, one-output sweep) series
    over a shared grid; a sweep status such as "analytic unstable: controller"
    is reported as "<label> unstable: controller", joined with ';' per row."""
    rows = [{key: value, "status": []} for value in series[0][2].grid]
    for column, label, spec in series:
        for row, point in zip(rows, sweep(spec)):
            row[column] = point[spec.outputs[0]]
            if point["status"] != "ok":
                row["status"].append(f"{label} {point['status'].split(' ', 1)[1]}")
    for row in rows:
        row["status"] = ";".join(row["status"]) or "ok"
    return rows


@_usage_errors()
def _figure_table(args, cfg: RunConfig) -> tuple[list[str], list[dict]]:
    """Columns and rows of one canned figure; every series is one ``sweep``."""
    node, ctrl = cfg.node, cfg.controller
    rho_grid = _parse_grid(args.rho_grid, "--rho-grid")
    q_set = [_number(x, "--q-set") for x in args.q_set.split(",")]

    def rho_sweep(outputs, node=node, controller=ctrl, **kw) -> SweepSpec:
        return SweepSpec("rho_controller", rho_grid, node, controller, outputs, sim=cfg.sim, **kw)

    if args.name == "fig2":
        spec = rho_sweep(("naive_mean", "analytic_mean", "simulated_mean"))
        rows = [{_FIGURE_COLUMNS.get(k, k): v for k, v in r.items()} for r in sweep(spec)]
        return (["rho_c", "naive_jackson_mean", "modified_jackson_mean", "sim_mean",
                 "sim_ci", "status"], rows)
    if args.name == "fig3":
        rows = [{"q_nf": q, **{_FIGURE_COLUMNS.get(k, k): v for k, v in r.items()}}
                for q in (0.2, 1.0)
                for r in sweep(rho_sweep(("analytic_mean", "simulated_mean"),
                                         replace(node, q_nf=q)))]
        return (["q_nf", "rho_c", "modified_jackson_mean", "sim_mean", "sim_ci",
                 "status"], rows)
    key, status = "rho_c", ["status"]
    if args.name == "fig4":
        nodes = [replace(node, q_nf=q) for q in q_set]  # each q checked before the grid
        # common log grid spanning every q's knee through deep saturation
        w0s = [zero_load_sojourn(q, node.mu_switch, ctrl.mu_controller) for q in q_set]
        grid = _make_grid(1.05 * min(w0s), 100.0 * max(w0s), args.points, "log",
                          "fig4 delay_bound grid", "--points")
        series = [(f"throughput_qnf_{q:g}", f"q_nf={q:g}",
                   SweepSpec("delay_bound", grid, nd, ctrl, ("throughput",)))
                  for q, nd in zip(q_set, nodes)]
        key, status = "delay_bound", []
    elif args.name == "fig5":
        mu_c_us = [_number(x, "--mu-c-us-set") for x in args.mu_c_us_set.split(",")]
        series = [(f"sojourn_mu_c_us_{v:g}", f"mu_c_us={v:g}",
                   rho_sweep(("analytic_mean",),
                             controller=ControllerParams(_rate_from_us(v, "--mu-c-us-set"))))
                  for v in mu_c_us]
    else:  # fig6
        label = f"{args.deadline_us / 1000.0:g}ms"
        series = [(f"p_within_{label}_qnf_{q:g}", f"q_nf={q:g}",
                   rho_sweep(("deadline_prob",), replace(node, q_nf=q),
                             deadline=_deadline_s(args.deadline_us)))
                  for q in q_set]
    columns = [column for column, _, _ in series]
    for i, column in enumerate(columns):
        if column in columns[:i]:
            flag = "--mu-c-us-set" if args.name == "fig5" else "--q-set"
            raise CliError(f"{flag} gives two series the column {column}")
    return [key] + columns + status, _side_by_side(key, series)


def _cmd_figure(args) -> int:
    # figure defaults are the resolver's lowest layer, so --mu-switch with
    # --mu-switch-us still conflicts and --packets overrides --quick; rho
    # sweeps back-solve the node's lambda
    cfg = resolve({}, vars(args), ("node", "controller", "sim"), defaults={
        "node": {"lambda": 1.0, "q_nf": 0.5, "mu_switch": validation.MU_SWITCH},
        "controller": {"mu_controller": validation.MU_CONTROLLER},
        "sim": {"packets_per_replication": 20_000} if args.quick else {},
        "output": {"path": f"{args.name}.csv"}})
    columns, rows = _figure_table(args, cfg)
    _write_table(cfg, columns, rows)
    print(f"wrote {cfg.output_path}")
    return 0


def _cmd_validate(args) -> int:
    numbers = ([_number(x, "--criteria", int) for x in args.criteria.split(",")]
               if args.criteria else None)
    seed = _resolve_args(args, "sim").sim.seed
    with _usage_errors():
        results = validation.run_criteria(numbers, quick=args.quick, seed=seed)
    for res in results:
        print(res.line())
    failed = [r.number for r in results if not r.passed]
    if failed:
        print(f"FAILED criteria: {failed}")
        return 3
    print(f"all {len(results)} criteria passed")
    return 0


# ---------------------------------------------------------------------------
# parser assembly

def _add_flags(p: _Parser, *keys: str, config: bool = False) -> None:
    """Declare the flags of config ``keys`` (and ``--config``).  A flag keeps
    its string under the key: the resolver reads and checks it."""
    for key in keys:
        _, flag, help_ = _PARAMS[key]
        p.add_argument(flag, dest=key, metavar=flag[2:].replace("-", "_").upper(), help=help_)
    if config:
        p.add_argument("--config", help="JSON config file; flags override it")


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built on first use and shared by every later call."""
    parser = _Parser(prog="sdnqueue", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="balance solution, mean sojourn, stability verdict")
    _add_flags(p, *_keys("node", "controller", "output"), config=True)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("distribution", help="pdf/ccdf or quantile tables")
    _add_flags(p, *_keys("node", "controller", "output"), config=True)
    p.add_argument("--t-max", type=float, help="table horizon (seconds)")
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--quantiles", help="comma list of probabilities; emit quantile table")
    p.add_argument("--deadline-us", type=float, help="also print P(sojourn <= deadline)")
    p.set_defaults(fn=_cmd_distribution)

    p = sub.add_parser("simulate", help="discrete-event simulation of one node")
    _add_flags(p, *_keys("node", "controller", "sim", "output"), config=True)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("chain", help="tandem chain sharing one controller",
                       description="--lam, --q-nf, --mu-switch and --mu-switch-us take comma "
                                   "lists, one value per node (one switch rate may serve "
                                   "every node), and override the config's nodes key by key.")
    _add_flags(p, *_keys("node", "controller"))
    p.add_argument("--simulate", action="store_true", help="add DES columns")
    _add_flags(p, *_keys("sim", "output"), config=True)
    p.set_defaults(fn=_cmd_chain)

    p = sub.add_parser("dimension", help="max admissible throughput for a delay bound")
    _add_flags(p, "q_nf", "mu_switch", "mu_switch_us", *_keys("controller"))
    p.add_argument("--delay-bound-us", type=float, help="single delay bound (microseconds)")
    p.add_argument("--curve-points", type=int, default=40,
                   help="points of the default bound grid when no single bound given")
    _add_flags(p, *_keys("output"), config=True)
    p.set_defaults(fn=_cmd_dimension)

    p = sub.add_parser("sweep", help="one-variable sweep from config/flags")
    _add_flags(p, *_keys("node", "controller", "sim", "sweep", "output"), config=True)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("figure", help="emit the data file behind one canned figure")
    p.add_argument("name", choices=_FIGURES)
    _add_flags(p, "mu_switch", "mu_switch_us", *_keys("controller"), "q_nf")
    p.add_argument("--q-set", default="0.2,0.5,1",
                   help="comma list of q_nf values (fig4, fig6)")
    p.add_argument("--mu-c-us-set", default="120,240,480",
                   help="comma list of controller service times in us (fig5)")
    p.add_argument("--rho-grid", default="0.1:0.9:9",
                   help="controller-load grid (fig2, fig3, fig5, fig6)")
    p.add_argument("--deadline-us", type=float, default=500.0)
    p.add_argument("--points", type=int, default=40, help="delay-bound grid size (fig4)")
    _add_flags(p, "seed", "packets_per_replication", "replications")
    p.add_argument("--quick", action="store_true", help="small simulations (20k packets)")
    _add_flags(p, *_keys("output"))
    p.set_defaults(fn=_cmd_figure)

    p = sub.add_parser("validate", help="run the acceptance criteria")
    p.add_argument("--quick", action="store_true",
                   help="reduced packet counts, rescaled tolerances, < 30 s")
    p.add_argument("--criteria", help="comma list of criterion numbers (default all)")
    _add_flags(p, "seed")
    p.set_defaults(fn=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnstableSystemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())
