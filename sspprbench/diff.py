"""Compare benchmark result files.

    python3 sspprbench/diff.py BASE.jsonl [NEW.jsonl]

Each file holds run records as ``run.py`` appends them. For every workload
and end-to-end metric (untraced runs only) it prints the median and
quartiles over the file's runs and their spread (quartile distance over
median). Given two files it adds a verdict under the bounds in
``BENCHMARK.json``:

* ``worse``: the new median is worse than the base median by more than the
  metric's bound;
* ``improved``: the new median is better by more than the base's quartile
  distance, and the new upper quartile is better than the base's lower one;
* ``unresolved``: anything else.
"""
from __future__ import annotations

import json
import os
import statistics
import sys

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json")


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(base: list[float], new: list[float], bound: float, better: str = "lower") -> str:
    sign = 1.0 if better == "lower" else -1.0  # compare as lower-is-better
    b1, b2, b3 = quartiles([sign * v for v in base])
    _, n2, n3 = quartiles([sign * v for v in new])
    if n2 - b2 > bound * abs(b2):
        return "worse"
    if b2 - n2 > b3 - b1 and n3 < b1:
        return "improved"
    return "unresolved"


def _series(records: list[dict]) -> dict[tuple[str, str], list[float]]:
    out: dict[tuple[str, str], list[float]] = {}
    for r in records:
        if r["trace"]:
            continue
        for name, m in r["metrics"].items():
            out.setdefault((r["workload"], name), []).append(m["value"])
    return out


def _failed(records: list[dict], workload: str) -> str:
    rs = [r for r in records if r["workload"] == workload and not r["trace"]]
    return f"{sum(r['failed'] for r in rs)}/{sum(r['attempted'] for r in rs)}"


def report(base: list[dict], new: list[dict] | None, spec: dict) -> list[str]:
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    a = _series(base)
    b = _series(new) if new is not None else {}
    lines = []
    for wl, name in sorted(a.keys() | b.keys()):
        m = metrics[name]
        row = f"{wl:<10} {name:<10}"
        sides = (a.get((wl, name)), b.get((wl, name))) if new is not None else (a.get((wl, name)),)
        for vals in sides:
            if not vals:
                row += f"  {'(no runs)':<44}"
                continue
            q1, med, q3 = quartiles(vals)
            row += f"  median {med:9.4f} {m['unit']:<3} [{q1:.4f}, {q3:.4f}] n={len(vals):<2} spread {(q3 - q1) / med:.3f}"
        if new is not None and a.get((wl, name)) and b.get((wl, name)):
            row += "  " + verdict(a[(wl, name)], b[(wl, name)], m["bound"], m["better"])
        lines.append(row)
    for wl in sorted({r["workload"] for r in base + (new or [])}):
        fails = _failed(base, wl) + (f" -> {_failed(new, wl)}" if new is not None else "")
        lines.append(f"{wl:<10} failed     {fails}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    base = load(argv[0])
    new = load(argv[1]) if len(argv) == 2 else None
    print("\n".join(report(base, new, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
