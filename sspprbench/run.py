"""SSPPR query benchmark.

    python3 sspprbench/run.py --workload highprec --seed 1 --seconds 20 --trace 0

Run from the repository root: the program is imported from ``src/``. One
run builds the workload's set-up three times (``setup_s`` is the median),
runs the workload's untimed warm-up queries, then runs rounds as a closed
loop from one driver thread until ``--seconds`` would be exceeded (at least
one round). A round is every operation of the workload once, on one query
source; ``round_s`` is the median wall time of a round. Every operation is
checked against ground truth outside its timing.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps each
layer's public functions in spans (see ``tracing.py``) and reports the
per-layer split instead. The human-readable report goes to standard output,
the last line of which is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Each run also appends a full record (samples,
checks, counters, environment) to ``.sspprbench/results.jsonl``, which
``diff.py`` compares.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".sspprbench")
RESULTS = os.path.join(OUT_DIR, "results.jsonl")

#: local[k] task slots; capped by the cores present
SPARK_CORES = 4
DRIVER_MEMORY = "2g"
#: Spark settings, fixed and recorded; the first six change plans or results
SPARK_CONF = {
    "spark.sql.shuffle.partitions": "1",
    "spark.sql.adaptive.enabled": "false",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    # the walk kernel seeds one stream per Arrow batch, so this size
    # changes MonteCarlo estimates
    "spark.sql.execution.arrow.maxRecordsPerBatch": "10000",
    # as jobs/_common.py: caps the size estimate of checkpointed relations
    "spark.sql.defaultSizeInBytes": str(1 << 30),
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
    "spark.driver.host": "127.0.0.1",
}
SETUP_REPEATS = 3
#: distinct query sources drawn per run, besides the warm-up source
NUM_SOURCES = 64


def _per_layer_spec() -> list[tuple[str, str]]:
    """``(metric name, unit)`` of every per-layer metric, in report order.

    ``<op>.<x>`` is the median over the run's samples of operation ``op``;
    ``<op>.<layer>.<x>`` first sums the spans of ``layer`` inside each
    sample. ``setup`` is the set-up, ``run`` the run itself. A traced run
    reports 0 for the operations its workload does not run.
    """
    units = {"s": "s", "self_s": "s", "session_s": "s", "warmup_s": "s", "bytes": "B",
             "edge_pushes_per_m": "1", "jobs_per_superstep": "1", "l1": "1"}

    def add(op, *names):
        return [(f"{op}.{n}", units.get(n.rsplit(".", 1)[-1], "count")) for n in names]

    push = ("s", "self_s", "jobs", "supersteps", "jobs_per_superstep", "edge_pushes_per_m", "persist_delta",
            "query_view.s", "materialize.calls", "materialize.s", "materialize.jobs", "pi_vector.s")
    frontier = ("frontier_stats.calls", "frontier_stats.s", "frontier_stats.jobs",
                "finish_on_driver.calls", "finish_on_driver.s", "finish_on_driver.edge_pushes")
    approx = ("s", "self_s", "jobs", "supersteps", "edge_pushes_per_m", "walks_used", "persist_delta",
              "query_view.calls", "query_view.s", "frontier_stats.s", "frontier_stats.jobs",
              "materialize.calls", "materialize.s", "finish_on_driver.s", "finish_on_driver.jobs",
              "refine_with_walks.s", "refine_with_walks.jobs", "refine_with_walks.walks",
              "simulate_walks_df.calls", "pi_vector.s")
    build = ("s", "jobs", "walks_used", "bytes", "simulate_walks_df.calls", "persist_delta")
    return [
        *add("setup", "s", "to_csr.s", "build_bepi_index.s", "build_bepi_index.bytes", "build_walk_index.s",
             "build_walk_index.walks_stored"),
        *add("powitr", *push),
        *add("fifo_fwdpush", *push, *frontier),
        *add("powerpush", *push, *frontier),
        *add("bepi_query", "s", "supersteps", "l1"),
        *add("fora", *approx, "fifo_fwdpush.s"),
        *add("speedppr_index", *approx, "powerpush.s"),
        *add("montecarlo", "s", "self_s", "jobs", "walks_used", "persist_delta", "simulate_walks_df.calls",
             "pi_vector.s"),
        *add("fora_index_build", *build),
        *add("speedppr_index_build", *build),
        *add("run", "session_s", "warmup_s", "rounds"),
    ]


PER_LAYER = _per_layer_spec()
#: (name, unit) of every end-to-end metric
END_TO_END = [("round_s", "s"), ("setup_s", "s")]


def _parse(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", default=RESULTS, help="JSON-lines file each run appends its record to")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Spark session
# ---------------------------------------------------------------------------
def _start_session(workdir: str, cores: int):
    """Launch the driver JVM with every scratch path inside ``workdir``.

    Driver memory and JVM options are read at JVM launch, so they go into
    ``PYSPARK_SUBMIT_ARGS`` before pyspark is imported. Executors import
    ``repro`` (the walk UDFs), so ``src`` goes on their ``PYTHONPATH``.
    """
    tmp = os.path.join(workdir, "tmp")
    local = os.path.join(workdir, "spark-local")
    os.makedirs(tmp)
    os.makedirs(local)
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = local
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{cores}]",
            f"--driver-memory {DRIVER_MEMORY}",
            "--conf " + shlex.quote(f"spark.driver.extraJavaOptions={java_opts}"),
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("sspprbench")
    for key, val in {**SPARK_CONF, "spark.local.dir": local,
                     "spark.sql.warehouse.dir": os.path.join(workdir, "warehouse")}.items():
        builder = builder.config(key, val)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _stop_session(spark) -> None:
    """Stop Spark, then end the gateway JVM and wait for it: the JVM exits
    when its standard input closes."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:  # a JVM that ignores EOF is killed
            proc.kill()
            proc.wait()


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------
def _run_op(sc, op, op_no: int, tracer) -> dict:
    """Time one operation (its Spark jobs under their own job group), then
    check it outside the timing. An exception counts as a failure."""
    group = f"op{op_no}"
    sc.setJobGroup(group, op.name)
    rdds0 = sc._jsc.getPersistentRDDs().size()
    rec = {"op": op.name, "no": op_no, "ok": False, "error": None, "details": {}, "counters": {}}
    t0 = time.perf_counter()
    try:
        with tracer.operation(op_no, op.name, group) if tracer else nullcontext():
            out = op.run()
    except Exception:  # noqa: BLE001 — a failed operation is counted, not fatal
        out = None
        rec["error"] = traceback.format_exc(limit=4)
    rec["wall_s"] = time.perf_counter() - t0
    rec["jobs"] = len(sc.statusTracker().getJobIdsForGroup(group))
    rec["persist_delta"] = sc._jsc.getPersistentRDDs().size() - rdds0
    if rec["error"] is None:
        sc.setJobGroup("check", "check")
        try:
            rec["ok"], rec["details"], rec["counters"] = op.check(out)
        except Exception:  # noqa: BLE001
            rec["error"] = traceback.format_exc(limit=4)
    return rec


def _median(xs: list[float]) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _setup(spark, w, ctx, tracer, log) -> list[float]:
    """Build the workload's set-up ``SETUP_REPEATS`` times (fresh graph,
    CSR and indexes each time); the last one is kept."""
    times = []
    for i in range(SETUP_REPEATS):
        if ctx.g is not None:
            ctx.g.unpersist()
        spark.sparkContext.setJobGroup(f"setup{i}", "setup")
        t0 = time.perf_counter()
        with tracer.operation(-1 - i, "setup", f"setup{i}") if tracer else nullcontext():
            w.setup(ctx)
        times.append(time.perf_counter() - t0)
        log(f"  set-up {i + 1}/{SETUP_REPEATS}: {times[-1]:.3f} s")
    return times


def measure(spark, w, ctx, seconds: float, tracer, log) -> dict:
    from repro.experiments.datasets import query_sources
    from repro.linalg.exact import exact_ppr

    import workloads

    sc = spark.sparkContext
    setup_times = _setup(spark, w, ctx, tracer, log)
    warm, *sources = query_sources(ctx.g, NUM_SOURCES + 1, ctx.seed)
    ctx.bepi_sources = sources[-(workloads.BEPI_BATCH - 1):]
    t0 = time.perf_counter()
    w.warmup(ctx, warm)
    warmup_s = time.perf_counter() - t0
    log(f"  warm-up (source {warm}): {warmup_s:.3f} s")

    recs: list[dict] = []
    rounds: list[float] = []
    start = time.perf_counter()
    while not rounds or (time.perf_counter() - start) + rounds[-1] <= seconds:
        s = sources[len(rounds) % len(sources)]
        truth = exact_ppr(ctx.csr, s, workloads.ALPHA)
        t_round = 0.0
        for op in w.round(ctx, s, truth):
            rec = _run_op(sc, op, len(recs), tracer)
            rec["round"], rec["source"] = len(rounds), s
            t_round += rec["wall_s"]
            recs.append(rec)
        rounds.append(t_round)
        log(f"  round {len(rounds)} (source {s}): {t_round:.3f} s")
    return {"setup_s": setup_times, "warmup_s": warmup_s, "rounds": rounds, "ops": recs}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------
def _per_layer(res: dict, tracer, session_s: float) -> dict[str, float]:
    """Medians over each operation's samples of its traced breakdown."""
    from tracing import op_breakdown

    samples: dict[str, list[dict]] = {}
    for no in sorted({sp.op for sp in tracer.spans}):
        b = op_breakdown(tracer.spans, no)
        flat = {"s": b["s"], "self_s": b["self_s"], "jobs": b["jobs"]}
        for layer, agg in b["layers"].items():
            for key, val in agg.items():
                flat[f"{layer}.{key}"] = val
        if no >= 0:
            rec = res["ops"][no]
            flat.update({k: v for k, v in rec["counters"].items() if v is not None})
            flat["persist_delta"] = rec["persist_delta"]
            if "l1" in rec["details"]:
                flat["l1"] = rec["details"]["l1"]
            steps = rec["counters"].get("supersteps")
            if steps:
                flat["jobs_per_superstep"] = b["jobs"] / steps
        samples.setdefault(b["name"], []).append(flat)
    out = {}
    for metric, _ in PER_LAYER:
        op, key = metric.split(".", 1)
        if op == "run":
            continue
        # a layer a sample did not call counts 0 there
        vals = [smp.get(key, 0) if "." in key else smp[key] for smp in samples.get(op, []) if "." in key or key in smp]
        out[metric] = _median(vals)
    out["run.session_s"] = session_s
    out["run.warmup_s"] = res["warmup_s"]
    out["run.rounds"] = len(res["rounds"])
    return out


def _git_sha() -> str | None:
    """HEAD's commit, read from ``.git`` (None outside a git checkout)."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _environment(spark, cores: int) -> dict:
    import numpy
    import pyspark

    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(base, f), "rb") as fh:
                    digest.update(fh.read())
    conf = spark.sparkContext.getConf()
    return {
        "nproc": os.cpu_count(),
        "local_k": cores,
        "driver_memory": DRIVER_MEMORY,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "spark": spark.version,
        "pyspark": pyspark.__version__,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "conf": {k: conf.get(k) or spark.conf.get(k) for k in SPARK_CONF},
    }


def _trace_overhead(path: str, workload: str, seed: int, round_s: float) -> float | None:
    """Traced ``round_s`` over the untraced one of the same workload and
    seed, from the latest matching record in the results file."""
    if not os.path.exists(path):
        return None
    base = None
    with open(path) as fh:
        for line in fh:
            r = json.loads(line)
            if r["workload"] == workload and r["seed"] == seed and r["trace"] == 0:
                base = r["metrics"]["round_s"]["value"]
    return round_s / base if base else None


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    log = lambda msg: print(msg, flush=True)  # noqa: E731
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("sspprbench: src/repro not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"sspprbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    cores = min(SPARK_CORES, os.cpu_count() or 1)
    log(f"sspprbench: workload {w.name} ({w.why}); seed {args.seed}; trace {args.trace}")
    t0 = time.perf_counter()
    spark = _start_session(workdir, cores)
    session_s = time.perf_counter() - t0
    try:
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer(spark.sparkContext)
            tracer.install()
        ctx = workloads.Context(spark=spark, workdir=workdir, seed=args.seed)
        res = measure(spark, w, ctx, args.seconds, tracer, log)
        env = _environment(spark, cores)
    finally:
        _stop_session(spark)
        shutil.rmtree(workdir, ignore_errors=True)

    ops = res["ops"]
    attempted = len(ops)
    failed = sum(1 for r in ops if not r["ok"])
    e2e = {"round_s": _median(res["rounds"]), "setup_s": _median(res["setup_s"])}
    log(f"sspprbench: {w.name}: {len(res['rounds'])} rounds; failed_frac {failed}/{attempted} = {failed / attempted:.4f}")
    log(f"  {'round_s':<24} {e2e['round_s']:10.4f} s   median of {len(res['rounds'])} rounds")
    log(f"  {'setup_s':<24} {e2e['setup_s']:10.4f} s   median of {len(res['setup_s'])} set-ups")
    for name in w.ops:
        walls = [r["wall_s"] for r in ops if r["op"] == name and r["ok"]]
        jobs = [r["jobs"] for r in ops if r["op"] == name and r["ok"]]
        log(f"  {name + '_s':<24} {_median(walls):10.4f} s   median of {len(walls)} ops; {_median(jobs):.0f} Spark jobs each")
    for r in ops:
        if not r["ok"]:
            log(f"  FAILED {r['op']} source {r['source']}: {r['details']} {r['error'] or ''}")

    if args.trace:
        values = _per_layer(res, tracer, session_s)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        env["trace_overhead"] = _trace_overhead(args.results, w.name, args.seed, e2e["round_s"])
        log(f"  tracing overhead (traced / untraced round_s): {env['trace_overhead']}")
        for name, m in metrics.items():
            if name.split(".", 1)[0] in w.ops + ("setup", "run"):
                log(f"  {name:<40} {m['value']:12.4f} {m['unit']}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    os.makedirs(os.path.dirname(os.path.abspath(args.results)), exist_ok=True)
    record = {
        "workload": w.name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "env": env, "metrics": metrics, "attempted": attempted, "failed": failed,
        "setup_s": res["setup_s"], "rounds": res["rounds"], "session_s": session_s,
        "ops": ops,
    }
    with open(args.results, "a") as fh:
        fh.write(json.dumps(record, default=float) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
