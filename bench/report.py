"""Running every workload, sets of runs, and comparing two sets.

A *set* is what ``python -m bench``, ``python -m bench set`` and
``python -m bench aa`` write: machine meta plus, per workload, the
untraced runs (one per seed) and at most one traced run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

from bench.run import OUT, ROOT, machine_meta, result_path
from bench.spec import AA_RUNS, END_TO_END, PER_LAYER, WORKLOADS

__all__ = ["aa", "compare_files", "compare_sets", "run_all", "run_set", "spread"]

#: Hard stop for one child run (the driver allows 180 s).
RUN_TIMEOUT_S = 170

#: Meta that must match before two sets may be compared; the commit is
#: what a comparison is usually about, so it may differ.
SAME_MACHINE = ("nproc", "python", "numpy", "numba", "engine")

#: Counts that must repeat exactly between same-seed traced runs.
EXACT_LAYER_COUNTS = (
    "maintenance.shortcuts_changed_per_change",
    "maintenance.labels_changed_per_change",
    "maintenance.entries_processed_per_change",
)


def _child(workload: str, seed: int, seconds: float, trace: bool, profile: str):
    """Run one workload in a fresh subprocess; returns its record or None."""
    path = result_path(workload, seed, trace)
    path.unlink(missing_ok=True)
    cmd = [
        sys.executable, "-m", "bench",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--profile", profile,
    ]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"bench: {workload} seed {seed} timed out", file=sys.stderr)
        return None
    if not path.exists():
        print(f"bench: {workload} seed {seed} exited {done.returncode} "
              "without a result", file=sys.stderr)
        return None
    return json.loads(path.read_text())


def _collect(label, workload, seeds, seconds, profile, trace_seed) -> dict:
    """One set: each seed untraced plus one traced run, for *workload* or all."""
    workloads = [workload] if workload else list(WORKLOADS)
    out = {
        "label": label,
        "meta": {**machine_meta(), "profile": profile, "seconds": seconds},
        "workloads": {},
    }
    for name in workloads:
        entry = out["workloads"][name] = {"runs": [], "traced": None, "lost": 0}
        for seed in seeds:
            record = _child(name, seed, seconds, False, profile)
            if record is None:
                entry["lost"] += 1
                continue
            entry["graph"] = record["meta"]["graph"]
            entry["runs"].append(_slim(record))
            print(f"  {label} {name} seed {seed}: "
                  + "  ".join(f"{k}={v:.5g}" for k, v in entry["runs"][-1]["metrics"].items()),
                  flush=True)
        if trace_seed is not None:
            record = _child(name, trace_seed, seconds, True, profile)
            if record is None:
                entry["lost"] += 1
            else:
                entry["traced"] = _slim(record)
    return out


def _slim(record: dict) -> dict:
    return {
        "seed": record["meta"]["seed"],
        "stream": record["meta"]["stream"],
        "checksum": record["checksum"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: m["value"] for k, m in record["metrics"].items()},
    }


def _failures(result_set: dict) -> list[str]:
    """Failed operations, lost runs, and transports that disagree."""
    problems = []
    for name, entry in result_set["workloads"].items():
        if entry["lost"]:
            problems.append(f"{name}: {entry['lost']} run(s) produced no result")
        for run in [*entry["runs"], entry["traced"]]:
            if run is not None and run["failed"]:
                problems.append(
                    f"{name} seed {run['seed']}: {run['failed']} of "
                    f"{run['attempted']} operations failed"
                )
    workloads = result_set["workloads"]
    if "workers-road" in workloads and "sockets-road" in workloads:
        pipes = {r["seed"]: r for r in workloads["workers-road"]["runs"]}
        for run in workloads["sockets-road"]["runs"]:
            twin = pipes.get(run["seed"])
            if twin is None:
                continue
            if (twin["stream"], twin["checksum"]) != (run["stream"], run["checksum"]):
                problems.append(
                    f"seed {run['seed']}: workers-road and sockets-road "
                    "answered the same stream differently "
                    f"({twin['checksum']} vs {run['checksum']})"
                )
    return problems


def _print_set(result_set: dict) -> None:
    for name, entry in result_set["workloads"].items():
        print(f"\n{name}  ({len(entry['runs'])} run(s); graph {entry.get('graph')})")
        for metric in END_TO_END:
            values = [r["metrics"][metric.name] for r in entry["runs"]]
            if values:
                print(f"  {metric.name:<44} {median(values):>14.6g} {metric.unit}")
        if entry["traced"] is not None:
            for metric in PER_LAYER:  # a layer off the workload's path has no entry
                value = entry["traced"]["metrics"].get(metric.name)
                shown = "n/a" if value is None else f"{value:.6g} {metric.unit}"
                print(f"  {metric.name:<44} {shown:>20}")


def run_all(seed: int, seconds: float, trace: bool, profile: str) -> int:
    """Every workload once, each in a fresh subprocess; prints every metric."""
    result_set = _collect("run", None, [seed], seconds, profile, seed if trace else None)
    return _finish_set(result_set, OUT / f"set-seed{seed}.json")


def run_set(path: Path, seconds: float, profile: str, workload: str | None) -> int:
    """One comparable set of this commit, written to *path*.

    Every workload AA_RUNS times, run *i* with seed *i*, plus one traced
    run each: what ``compare`` needs from each of two commits.
    """
    seeds = list(range(1, AA_RUNS + 1))
    result_set = _collect(path.stem, workload, seeds, seconds, profile, seeds[0])
    return _finish_set(result_set, path)


def _finish_set(result_set: dict, path: Path) -> int:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result_set, indent=1))
    _print_set(result_set)
    problems = _failures(result_set)
    for line in problems:
        print(f"FAILED: {line}")
    print(f"\nset written to {path}; claim: none")
    return 1 if problems else 0


# ---------------------------------------------------------------------------
# comparing two sets
# ---------------------------------------------------------------------------

def spread(values: list[float]) -> float | None:
    """Interquartile range over the median; None below four values."""
    if len(values) < 4:
        return None
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / abs(median(values))


def _refusals(a: dict, b: dict) -> list[str]:
    """Reasons the two sets do not measure the same thing."""
    out = []
    for key in (*SAME_MACHINE, "profile", "seconds"):
        if a["meta"].get(key) != b["meta"].get(key):
            out.append(f"meta {key}: {a['meta'].get(key)!r} vs {b['meta'].get(key)!r}")
    for name in sorted(set(a["workloads"]) | set(b["workloads"])):
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            out.append(f"{name}: present in one set only")
            continue
        if wa.get("graph") != wb.get("graph"):
            out.append(f"{name}: graph fingerprints differ")
        sa = [(r["seed"], r["stream"]) for r in wa["runs"]]
        sb = [(r["seed"], r["stream"]) for r in wb["runs"]]
        if sa != sb:
            out.append(f"{name}: seeds or stream fingerprints differ")
    return out


def compare_sets(a: dict, b: dict) -> tuple[list[dict], list[str]]:
    """Each workload x end-to-end metric of *b* against *a*.

    Returns the rows and the reasons to refuse (rows are empty then). A
    row's verdict is ``regressed`` when *b*'s median is worse than *a*'s
    by more than the metric's bound, ``unresolved`` (not unchanged) when
    either set's own spread exceeds the bound or cannot be told, else
    ``ok``.
    """
    refusals = _refusals(a, b)
    if refusals:
        return [], refusals
    rows = []
    for name in a["workloads"]:
        runs_a, runs_b = a["workloads"][name]["runs"], b["workloads"][name]["runs"]
        for metric in END_TO_END:
            va = [r["metrics"][metric.name] for r in runs_a]
            vb = [r["metrics"][metric.name] for r in runs_b]
            ma, mb = median(va), median(vb)
            worse = (mb - ma) / ma if metric.better == "lower" else (ma - mb) / ma
            spreads = [spread(va), spread(vb)]
            if None in spreads or max(spreads) > metric.bound:
                verdict = "unresolved"
            elif worse > metric.bound:
                verdict = "regressed"
            else:
                verdict = "ok"
            rows.append({
                "workload": name, "metric": metric.name, "unit": metric.unit,
                "a": ma, "b": mb, "worse": worse, "bound": metric.bound,
                "spread_a": spreads[0], "spread_b": spreads[1], "verdict": verdict,
            })
    return rows, []


def _print_rows(rows: list[dict]) -> None:
    def pct(x):
        return "   n/a" if x is None else f"{x:6.1%}"

    print(f"{'workload':<13} {'metric':<22} {'A median':>12} {'B median':>12} "
          f"{'worse':>7} {'bound':>6} {'IQR A':>6} {'IQR B':>6}  verdict")
    for r in rows:
        print(f"{r['workload']:<13} {r['metric']:<22} {r['a']:>12.6g} {r['b']:>12.6g} "
              f"{pct(r['worse'])} {pct(r['bound'])} {pct(r['spread_a'])} "
              f"{pct(r['spread_b'])}  {r['verdict']}")


def compare_files(path_a: Path, path_b: Path) -> int:
    a, b = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    rows, refusals = compare_sets(a, b)
    if refusals:
        for line in refusals:
            print(f"refusing to compare: {line}")
        return 2
    _print_rows(rows)
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


def _inexact(a: dict, b: dict) -> list[str]:
    """Same-seed quantities that must repeat exactly and did not."""
    out = []
    for name, wa in a["workloads"].items():
        wb = b["workloads"][name]
        for ra, rb in zip(wa["runs"], wb["runs"]):
            for what, xa, xb in (
                ("checksum", ra["checksum"], rb["checksum"]),
                ("index_mb", ra["metrics"]["index_mb"], rb["metrics"]["index_mb"]),
            ):
                if xa != xb:
                    out.append(f"{name} seed {ra['seed']}: {what} {xa} vs {xb}")
        if wa["traced"] and wb["traced"]:
            for key in EXACT_LAYER_COUNTS:
                xa, xb = wa["traced"]["metrics"][key], wb["traced"]["metrics"][key]
                if xa != xb:
                    out.append(f"{name} traced: {key} {xa} vs {xb}")
    return out


def aa(seconds: float, profile: str, workload: str | None) -> int:
    """Two back-to-back sets of the same code, held to the same bounds.

    Each set runs every workload AA_RUNS times, run *i* with seed *i*,
    so a metric's spread covers the streams as well as the machine — the
    acceptance protocol for the benchmark itself.
    """
    seeds = list(range(1, AA_RUNS + 1))
    sets = []
    OUT.mkdir(parents=True, exist_ok=True)
    for label in ("A", "B"):
        result_set = _collect(label, workload, seeds, seconds, profile, seeds[0])
        (OUT / f"aa-{label}.json").write_text(json.dumps(result_set, indent=1))
        sets.append(result_set)
    a, b = sets
    rows, refusals = compare_sets(a, b)
    problems = [*refusals, *_failures(a), *_failures(b), *_inexact(a, b)]
    _print_rows(rows)
    problems += [
        f"{r['workload']} {r['metric']}: {r['verdict']}"
        for r in rows
        if r["verdict"] != "ok"
    ]
    for line in problems:
        print(f"FAILED: {line}")
    print("A/A " + ("disagrees" if problems else "agrees within every bound"))
    return 1 if problems else 0
