"""The one Spark-session bootstrap, shared by the test suite and the jobs.

Driver memory and the master are read when the driver JVM launches, not
from ``SparkConf``, so :func:`session` puts them into
``PYSPARK_SUBMIT_ARGS`` before it builds the first session. The settings
that shape plans are the ones every caller runs with: the stand-in vectors
are tiny, so a single shuffle partition and no adaptive re-planning keep
each superstep one small task.

Environment: ``SPARK_MASTER`` (default ``local[*]``), ``SPARK_DRIVER_MEM``
(see :func:`driver_memory`) and ``REPRO_SCALE`` (see :func:`scale`).
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession

_CGROUP_LIMITS = (
    "/sys/fs/cgroup/memory.max",  # cgroup v2
    "/sys/fs/cgroup/memory/memory.limit_in_bytes",  # cgroup v1
)


def _cgroup_limit_gib() -> float | None:
    """The container's memory limit, or None when there is none to read.

    An unbounded value (cgroup v2's ``max``, cgroup v1's ~9.2e18
    "unlimited" sentinel) counts as no limit, so the JVM is never handed an
    impossible heap.
    """
    for path in _CGROUP_LIMITS:
        try:
            with open(path) as f:
                raw = f.read().strip()
            gib = int(raw) / (1 << 30)
        except (OSError, ValueError):
            continue
        if 1 <= gib <= 1024:
            return gib
    return None


def driver_memory() -> str:
    """Driver JVM heap: ``SPARK_DRIVER_MEM`` if set, else 75% of the cgroup
    memory limit, else half of the machine's memory clamped to 2–8 GiB."""
    if mem := os.environ.get("SPARK_DRIVER_MEM"):
        return mem
    if (gib := _cgroup_limit_gib()) is not None:
        return f"{max(1, int(gib * 0.75))}g"
    with open("/proc/meminfo") as f:
        kib = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    return f"{min(8, max(2, kib // (2 << 20)))}g"


def session(app: str) -> SparkSession:
    """The local Spark session: one shuffle partition, adaptive execution
    and join broadcasts off, Arrow on."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {driver_memory()} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "pyspark-shell",
    )
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "1")
        .config("spark.sql.adaptive.enabled", "false")
        # algorithms rely on shuffle joins; the walk simulator's CSR is an
        # application broadcast, not a join broadcast
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        # unknown-size checkpointed relations default to Long.MaxValue,
        # whose per-join products explode into huge BigInts in the stats
        # visitor; broadcast planning is disabled anyway, so cap it
        .config("spark.sql.defaultSizeInBytes", str(1 << 30))
        .getOrCreate()
    )


def scale() -> float:
    """Dataset scale multiplier (``REPRO_SCALE``; 1.0 = DESIGN.md sizes)."""
    return float(os.environ.get("REPRO_SCALE", "1.0"))
