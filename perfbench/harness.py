"""One benchmark run: set-up, warm-up, timed passes, checks and metrics.

Every operation goes through the layers' public calls —
``MatchSession.plan_for``, ``PlanEntry.context``, ``select_backend`` and
``ExecutionBackend.count``, or ``MatchSession.enumerate`` /
``count_many`` — each wrapped in a span of this file's own.  With
tracing off those spans are the shared no-op; a traced run reads them,
plus the ``depth`` spans the frontier engines already emit, to split a
pass by layer.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.core.backend import select_backend
from repro.core.session import MatchSession, clear_sessions
from repro.graph.datasets import clear_memo
from repro.obs import trace as obs_trace
from repro.obs.trace import span
from workloads import WORKLOADS, make_inputs

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
#: set-ups per run: at least SETUPS, and more until SETUP_SECONDS are
#: spent, so a set-up of milliseconds still gets a steady median.
SETUPS = 5
SETUP_SECONDS = 2.0
#: timed passes a run makes even when they overrun --seconds.
MIN_PASSES = 3
#: the executor family of each backend: a reference must come from a
#: family other than the one that produced the checked result.
FAMILY = {
    "vectorised": "frontier",
    "reduction": "frontier",
    "compiled": "kernel",
    "interpreter": "interpreter",
}
REFERENCE_BACKENDS = ("compiled", "vectorised", "interpreter")


def _family(backend: str) -> str:
    """A backend's executor family; an unlisted backend is its own."""
    return FAMILY.get(backend, backend)


END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "query_p50_s": "s",
    "peak_rss_mb": "MB",
}
MAX_DEPTH = 6
PER_LAYER_UNITS = {
    "graph.load_s": "s",
    "graph.stats_s": "s",
    "plan.s": "s",
    "plan.restrictions_s": "s",
    "plan.schedules_s": "s",
    "plan.model_s": "s",
    "plan.codegen_s": "s",
    "plan.restriction_sets": "count",
    "plan.schedules": "count",
    "plan.configs": "count",
    "plan.cache_hit_ratio": "ratio",
    "model.rank_corr": "rho",
    "exec.vectorised_s": "s",
    "exec.compiled_s": "s",
    "exec.interpreter_s": "s",
    **{
        f"exec.d{k}.{what}": unit
        for k in range(1, MAX_DEPTH + 1)
        for what, unit in (("rows", "count"), ("kept", "count"), ("s", "s"))
    },
    "exec.kept_ratio": "ratio",
    "exec.frontier_mb_max": "MB",
    "exec.fallbacks": "count",
    "exec.labeled_s": "s",
    "exec.induced_s": "s",
    "exec.directed_s": "s",
    "enum.s": "s",
    "reduce.s": "s",
    "obs.overhead_ratio": "ratio",
}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


# ---------------------------------------------------------------------------
# operations through the layers' public calls
# ---------------------------------------------------------------------------
def _plan(session, query):
    """``MatchSession.plan_for`` inside a ``plan`` span (miss or hit)."""
    with span("plan") as sp:
        misses = session.cache_info().misses
        entry = session.plan_for(query)
    if obs_trace.enabled():
        miss = session.cache_info().misses > misses
        sp.set(miss=miss, **(_plan_report_attrs(entry.report) if miss else {}))
    return entry


def _plan_report_attrs(report) -> dict:
    """Work counts and sub-phase seconds a cold plan's report carries,
    keyed by the per-layer metric they add to."""
    sets = getattr(report, "restriction_sets", None)
    attrs = {
        "plan.schedules": report.n_schedules,
        "plan.restriction_sets": len(sets) if sets is not None else report.n_restriction_sets,
    }
    if hasattr(report, "ranking"):  # plain PlanReport: configurations and sub-phases
        attrs.update({
            "plan.configs": len(report.ranking),
            "plan.restrictions_s": report.seconds_restrictions,
            "plan.schedules_s": report.seconds_schedules,
            "plan.model_s": report.seconds_model,
            "plan.codegen_s": report.seconds_codegen,
        })
    return attrs


def plan_op(session, op) -> None:
    for query in op.queries:
        _plan(session, query.for_enumeration() if op.kind == "enumerate" else query)


def execute(op, session):
    """Serve one operation; returns its raw result."""
    if op.kind == "count":
        (query,) = op.queries
        entry = _plan(session, query)
        ctx = entry.context(session.graph)
        backend = select_backend(ctx, query.backend)
        with span(
            "exec",
            qid=op.qid,
            backend=backend.name,
            requested=query.backend or "compiled",  # the default is compiled-first
            mode=ctx.mode,
            predicted_cost=entry.predicted_cost,
        ):
            return backend.count(ctx)
    if op.kind == "enumerate":
        (query,) = op.queries
        _plan(session, query.for_enumeration())
        with span("enum"):
            return list(session.enumerate(query, limit=op.limit))
    with span("reduce"):
        return [r.count for r in session.count_many(list(op.queries), reduce=True)]


def open_sessions(inputs) -> dict:
    """One fresh session per input graph, its statistics computed."""
    sessions = {}
    for key, graph in inputs.graphs.items():
        session = MatchSession(graph)
        with span("graph.stats"):
            session.stats
        sessions[key] = session
    return sessions


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------
def _ref_ids(op) -> list[str]:
    if op.kind == "count_many":
        return [f"{op.qid}#{i}" for i in range(len(op.queries))]
    return [op.qid]


def check(op, result, refs, graph) -> str | None:
    """Why ``result`` is wrong, or ``None`` when it matches the reference."""
    expected = [refs[qid] for qid in _ref_ids(op)]
    if op.kind == "count":
        return None if result == expected[0] else f"count {result} != reference {expected[0]}"
    if op.kind == "count_many":
        return None if result == expected else f"counts {result} != references {expected}"
    want = min(op.limit, expected[0])
    if len(result) != want:
        return f"{len(result)} embeddings, expected {want}"
    return _invalid_embeddings(op.queries[0].pattern, result, graph)


def _invalid_embeddings(pattern, rows, graph) -> str | None:
    """Each row must be an embedding, and no two the same subgraph."""
    if not rows:
        return None
    rows = np.asarray(rows, dtype=np.int64)
    n = graph.n_vertices
    keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr)) * n + graph.indices
    if not (np.diff(np.sort(rows, axis=1), axis=1) > 0).all():
        return "an embedding repeats a vertex"
    edge_keys = []
    for a, b in pattern.edges:
        k = rows[:, a] * n + rows[:, b]
        pos = np.minimum(np.searchsorted(keys, k), len(keys) - 1)
        if not (keys[pos] == k).all():
            return f"an embedding misses pattern edge {(a, b)}"
        lo, hi = np.minimum(rows[:, a], rows[:, b]), np.maximum(rows[:, a], rows[:, b])
        edge_keys.append(lo * n + hi)
    subgraphs = np.sort(np.stack(edge_keys, axis=1), axis=1)
    if len(np.unique(subgraphs, axis=0)) != len(rows):
        return "two embeddings map to the same subgraph"
    return None


def ref_path(workload, tiny: bool) -> Path:
    return OUT / "refs" / f"{workload.name}{'-tiny' if tiny else ''}.json"


def compute_references(workload, tiny: bool) -> None:
    """Count every query of the base inputs with a second executor family.

    Runs in its own process (``--references``), so the timed process's
    peak memory never includes it.  Each reference is a fresh session's
    plan for the reference backend, so planner errors show too.
    """
    t0 = perf_counter()
    inputs = make_inputs(workload, None, tiny=tiny)
    counts, backends = {}, {}
    for op in workload.ops():
        graph = inputs.graphs[op.session]
        if op.kind == "count_many":
            avoid = _family("reduction")
        else:
            query = op.queries[0]
            planned = query.for_enumeration() if op.kind == "enumerate" else query
            ctx = MatchSession(graph).plan_for(planned).context(graph)
            chosen = select_backend(ctx, query.backend, for_enumeration=op.kind == "enumerate")
            avoid = _family(chosen.name)
        for qid, query in zip(_ref_ids(op), op.queries):
            for name in REFERENCE_BACKENDS:
                if _family(name) == avoid:
                    continue
                result = MatchSession(graph).count(query.with_backend(name))
                if _family(result.backend) != avoid:
                    counts[qid], backends[qid] = int(result.count), result.backend
                    break
            else:
                raise RuntimeError(f"no second executor family can count {qid}")
    record = {
        "digest": inputs.digest,
        "counts": counts,
        "backends": backends,
        "seconds": perf_counter() - t0,
    }
    _write_json(ref_path(workload, tiny), record)


def load_references(workload, ops, inputs, tiny: bool) -> dict:
    """The cached reference counts, computed in a child process if stale."""
    path = ref_path(workload, tiny)
    qids = [qid for op in ops for qid in _ref_ids(op)]

    def cached() -> dict | None:
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        counts = record.get("counts", {})
        fresh = record.get("digest") == inputs.digest and all(q in counts for q in qids)
        return counts if fresh else None

    counts = cached()
    if counts is None:
        cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
               "--workload", workload.name, "--references"] + (["--tiny"] if tiny else [])
        subprocess.run(cmd, check=True, timeout=600)
        counts = cached()
    if counts is None:
        raise RuntimeError(f"reference counts at {path} do not match the inputs")
    return counts


# ---------------------------------------------------------------------------
# set-up and passes
# ---------------------------------------------------------------------------
def setup(workload, ops, seed: int, tiny: bool):
    """Generate inputs and open sessions (and plan, for warm workloads)."""
    clear_memo()
    clear_sessions()
    gc.collect()
    t0 = perf_counter()
    with span("graph.load"):
        inputs = make_inputs(workload, seed, tiny=tiny)
    sessions = open_sessions(inputs)
    if workload.plan_in_setup:
        for op in ops:
            plan_op(sessions[op.session], op)
    return inputs, sessions, perf_counter() - t0


def run_pass(workload, ops, inputs, warm_sessions, refs, failures: list):
    """One pass: (wall seconds, per-op latencies); failures are appended."""
    t0 = perf_counter()
    sessions = warm_sessions if workload.plan_in_setup else open_sessions(inputs)
    outcomes = []
    for op in ops:
        t = perf_counter()
        try:
            result, error = execute(op, sessions[op.session]), None
        except Exception:  # the client keeps going; the failure is reported
            result, error = None, traceback.format_exc(limit=3)
        outcomes.append((op, result, error, perf_counter() - t))
    wall = perf_counter() - t0
    for op, result, error, _ in outcomes:
        if error is None:
            error = check(op, result, refs, inputs.graphs[op.session])
        if error is not None:
            failures.append({"qid": op.qid, "error": error})
    return wall, [latency for *_, latency in outcomes]


# ---------------------------------------------------------------------------
# per-layer metrics from the traced set-ups and passes
# ---------------------------------------------------------------------------
def _layer_sums(trace) -> dict:
    """Additive per-layer quantities of one traced set-up or pass."""
    sums: dict = {}

    def add(key, value):
        sums[key] = sums.get(key, 0) + value

    for sp in trace.spans():
        a = sp.attrs
        if sp.name in ("graph.load", "graph.stats"):
            add(f"{sp.name}_s", sp.seconds)
        elif sp.name == "plan" and a.get("miss"):
            add("plan.s", sp.seconds)
            for key, value in a.items():
                if key.startswith("plan."):
                    add(key, value)
        elif sp.name == "exec":
            add(f"exec.{a['backend']}_s", sp.seconds)
            add(f"exec.{a['mode']}_s", sp.seconds)
            add("exec.fallbacks", int(a["backend"] != a["requested"]))
        elif sp.name in ("enum", "reduce"):
            add(f"{sp.name}.s", sp.seconds)
        elif sp.name == "depth":
            k = a["depth"]
            add(f"exec.d{k}.rows", a["rows"])
            add(f"exec.d{k}.kept", a.get("kept", 0))
            add(f"exec.d{k}.s", sp.seconds)
    return sums


def _spearman(xs, ys) -> float:
    def ranks(v):
        v = np.asarray(v, dtype=float)
        r = np.empty(len(v))
        r[np.argsort(v, kind="stable")] = np.arange(len(v), dtype=float)
        for value in np.unique(v):  # ties share their mean rank
            tie = v == value
            r[tie] = r[tie].mean()
        return r

    rx, ry = ranks(xs), ranks(ys)
    if len(rx) < 3 or rx.std() == 0 or ry.std() == 0:
        return 0.0
    return float(np.corrcoef(rx, ry)[0, 1])


def layer_metrics(setup_traces, pass_traces, untraced_s, traced_s) -> dict:
    """Each additive layer metric is its median per set-up plus its median
    per pass, so set-up work (fig8-twitter plans there) and pass work
    (census-cold plans in every pass) land in the same metric."""
    setups = [_layer_sums(t) for t in setup_traces]
    passes = [_layer_sums(t) for t in pass_traces]
    metrics = {
        name: _median([s.get(name, 0) for s in setups]) + _median([p.get(name, 0) for p in passes])
        for name in PER_LAYER_UNITS
    }
    spans = [sp for t in setup_traces + pass_traces for sp in t.spans()]
    lookups = [sp.attrs for t in pass_traces for sp in t.find("plan")]
    metrics["plan.cache_hit_ratio"] = sum(not a["miss"] for a in lookups) / max(len(lookups), 1)
    depths = [sp.attrs for sp in spans if sp.name == "depth"]
    with_kept = [a for a in depths if "kept" in a]
    metrics["exec.kept_ratio"] = sum(a["kept"] for a in with_kept) / max(
        sum(a["rows"] for a in with_kept), 1
    )
    # computed, not measured: rows x (depth + 1) int64 columns
    metrics["exec.frontier_mb_max"] = max(
        (a["rows"] * (a["depth"] + 1) * 8 / 1e6 for a in depths), default=0.0
    )
    seconds, predicted = {}, {}
    for sp in spans:
        if sp.name == "exec":
            seconds.setdefault(sp.attrs["qid"], []).append(sp.seconds)
            predicted[sp.attrs["qid"]] = sp.attrs["predicted_cost"]
    qids = sorted(seconds)
    metrics["model.rank_corr"] = _spearman(
        [predicted[q] for q in qids], [_median(seconds[q]) for q in qids]
    )
    metrics["obs.overhead_ratio"] = _median(traced_s) / _median(untraced_s)
    return metrics


# ---------------------------------------------------------------------------
# provenance and output
# ---------------------------------------------------------------------------
def _git(*args) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(workload, args, inputs) -> dict:
    """Commit and whether ``src`` differs from it (outside git: a digest of
    ``src``), versions, core count, seed and inputs."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    top = _git("rev-parse", "--show-toplevel")
    commit = _git("rev-parse", "HEAD") if top and Path(top).resolve() == ROOT else None
    status = _git("status", "--porcelain", "--", "src") if commit else None
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "graphs": inputs.provenance,
    }


def _write_json(path: Path, payload) -> None:
    """Write via a temporary file, so a concurrent reader never sees half."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True, default=str))
    os.replace(tmp, path)


def _chrome_trace(traces) -> dict:
    """Every traced set-up and pass on one timeline (Perfetto-loadable)."""
    events = []
    base = traces[0].root.t0
    for t in traces:
        shift = (t.root.t0 - base) * 1e6
        for event in t.to_chrome()["traceEvents"]:
            event["ts"] += shift
            events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------
def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    if args.references:
        compute_references(workload, args.tiny)
        return 0
    ops = workload.ops()
    traced = bool(args.trace)
    setup_traces, pass_traces = [], []
    setup_s = []
    if traced:
        obs_trace.enable()
    while len(setup_s) < SETUPS or sum(setup_s) < SETUP_SECONDS:
        with obs_trace.collect("setup") as tr:
            inputs, sessions, seconds = setup(workload, ops, args.seed, args.tiny)
        setup_s.append(seconds)
        if tr is not None:
            setup_traces.append(tr)
    obs_trace.disable()
    refs = load_references(workload, ops, inputs, args.tiny)

    failures: list = []
    run_pass(workload, ops, inputs, sessions, refs, failures)  # warm-up, not timed
    attempted = len(ops)
    untraced_s, traced_s, latencies = [], [], []
    deadline = perf_counter() + args.seconds
    while perf_counter() < deadline or len(untraced_s) < MIN_PASSES:
        if obs_trace.enabled():
            raise RuntimeError("tracing must be off during untraced passes")
        wall, lat = run_pass(workload, ops, inputs, sessions, refs, failures)
        untraced_s.append(wall)
        latencies.append(lat)
        attempted += len(ops)
        if traced:
            obs_trace.enable()
            with obs_trace.collect("pass") as tr:
                wall, _ = run_pass(workload, ops, inputs, sessions, refs, failures)
            obs_trace.disable()
            traced_s.append(wall)
            pass_traces.append(tr)
            attempted += len(ops)

    if traced:
        metrics = layer_metrics(setup_traces, pass_traces, untraced_s, traced_s)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": _median(setup_s),
            "pass_s": _median(untraced_s),
            # each operation's median over the passes, then the median over
            # operations: pooling every repeat would put the slowest repeat
            # of one operation and the fastest of the next at the median
            "query_p50_s": _median([_median(op) for op in zip(*latencies)]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    error_rate = len(failures) / attempted
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    tag = f"{workload.name}{'-tiny' if args.tiny else ''}-seed{args.seed}"
    _write_json(
        OUT / "records" / f"{tag}-trace{args.trace}.json",
        {
            "provenance": provenance(workload, args, inputs),
            "result": result,
            "error_rate": error_rate,
            "setup_s": setup_s,
            "pass_s": untraced_s,
            "traced_pass_s": traced_s,
            "failures": failures[:20],
        },
    )
    if traced:
        _write_json(OUT / "traces" / f"{tag}.json", _chrome_trace(setup_traces + pass_traces))
    for failure in failures[:5]:
        print(f"FAILED {failure['qid']}: {failure['error']}", file=sys.stderr)
    print(f"{workload.name}: {attempted} operations, error_rate {error_rate:.4g}")
    for name, entry in result["metrics"].items():
        print(f"  {name:<24} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0 if not failures else 1
