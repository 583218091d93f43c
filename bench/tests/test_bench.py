"""Self-tests of the benchmark on the ``smoke`` profile (tiny graphs)."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bench import report, run, workloads
from bench.__main__ import main as bench_main
from bench.spec import END_TO_END, PER_LAYER, WORKLOADS, timed_rounds
from bench.streams import make_stream
from bench.trace import Span, self_times
from bench.workloads import make_graph

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ---------------------------------------------------------------------------
# names
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_the_spec():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert CONTRACT["paths"] == ["bench"]
    assert timed_rounds(CONTRACT["run_seconds"]) == 12
    assert [(w["name"], w["why"]) for w in CONTRACT["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in CONTRACT["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in CONTRACT["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]


def test_names_and_units_follow_the_contract_rules():
    names = [w.name for w in WORKLOADS.values()]
    names += [m.name for m in END_TO_END] + [m.name for m in PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in [*END_TO_END, *PER_LAYER]:
        assert UNIT.match(metric.unit), metric
        assert metric.better in ("lower", "higher")
    for w in WORKLOADS.values():
        assert len(w.why) <= 200 and "\n" not in w.why
    setup = next(m for m in END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert all(0 < m.bound <= setup.bound <= 0.25 for m in END_TO_END)
    assert 1 <= len(PER_LAYER) <= 128


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------

def _stream(name: str, seed: int):
    workload = WORKLOADS[name]
    graph = make_graph(workload.graph, "smoke")
    n = graph.num_vertices
    region_of = (np.arange(n) >= n // 2).astype(np.int64)
    edges = sorted(graph.edges())
    cut = [e for e in edges if region_of[e[0]] != region_of[e[1]]]
    stream = make_stream(
        workload, workload.smoke, n, edges, seed, 2, region_of=region_of, cut_edges=cut
    )
    return stream, edges


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_streams_are_a_pure_function_of_the_seed(name):
    a, edges = _stream(name, 11)
    b, _ = _stream(name, 11)
    c, _ = _stream(name, 12)
    assert a.fingerprint == b.fingerprint != c.fingerprint

    def calls(stream):
        return [p.calls() for rnd in stream.rounds for p in rnd.positions]

    def bursts(stream):
        return [[p.burst for p in rnd.positions] for rnd in stream.rounds]

    assert calls(a) == calls(b) != calls(c)
    assert bursts(a) == bursts(b)
    # every round repeats the same bursts over fresh queries
    assert len(a.rounds) == a.warmup + 2
    opening, *later = bursts(a)
    assert all(rnd == later[0] for rnd in later) and opening[1:] == later[0][1:]
    slots = len(opening)
    assert calls(a)[-slots:] != calls(a)[-2 * slots : -slots]
    # every stream ends with all weights restored
    weights = {(u, v): w for u, v, w in edges}
    base = dict(weights)
    for rnd in a.rounds:
        for position in rnd.positions:
            changes = position.burst
            assert len({(u, v) for u, v, _ in changes}) == len(changes)
            for u, v, w in changes:
                weights[(u, v)] = w
            assert weights != base  # never at base mid-stream
    for u, v, w in a.epilogue:
        weights[(u, v)] = w
    assert weights == base


def test_both_transports_replay_one_stream():
    assert _stream("workers-road", 5)[0].fingerprint == _stream("sockets-road", 5)[0].fingerprint


def test_the_benchmark_owns_its_traffic():
    banned = re.compile(r"repro\.(service\.workload|experiments|datasets)\b")
    for path in (ROOT / "bench").glob("*.py"):
        for line in path.read_text().splitlines():
            if line.lstrip().startswith(("import ", "from ")):
                assert not banned.search(line), f"{path.name}: {line}"


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

def test_self_time_is_a_span_minus_what_its_children_cover():
    rnd = Span("round", 0.0, 10.0, None, 1)
    query = Span("op.query", 1.0, 4.0, rnd, 0)
    inner = Span("service.distances", 1.5, 3.5, query, None)
    probe = Span("probe", 4.0, 5.0, rnd, None)
    check = Span("check", 5.0, 7.0, rnd, None)
    hidden = Span("service.distances", 5.5, 6.5, check, None)
    overlapping = Span("async.request", 0.0, 9.0, rnd, 3)
    own = self_times([inner, query, probe, hidden, check, overlapping, rnd])
    assert own == {"service.distances": 2.0, "op.query": 1.0, "round": 4.0}
    assert sum(own.values()) == rnd.seconds - check.seconds - probe.seconds


# ---------------------------------------------------------------------------
# timing at the reference speed
# ---------------------------------------------------------------------------

def test_a_slow_machine_and_a_stalled_round_leave_a_position_time_alone():
    base = np.array([0.10, 0.20, 0.30])  # seconds per position
    rows = np.tile(base, (8, 1))
    slowness = np.ones((8, 3))
    rows[2:6] *= 1.7  # the machine ran 1.7x slower for four rounds
    slowness[2:6] = 1.7
    rows[7, 1] += 0.5  # and one position stalled with the probes none the wiser
    assert np.allclose(run._clean(rows, slowness), base)
    # a slower program is not a slower machine: it shows in full
    assert np.allclose(run._clean(rows * 1.2, slowness), base * 1.2)


# ---------------------------------------------------------------------------
# whole runs
# ---------------------------------------------------------------------------

def _helpers() -> set[str]:
    """Live multiprocessing helper processes and shared-memory segments."""
    found = set()
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            cmdline = Path("/proc", pid, "cmdline").read_bytes()
        except OSError:
            continue
        if b"multiprocessing" in cmdline:
            found.add(f"pid {pid}")
    if os.path.isdir("/dev/shm"):
        found.update(f"shm {name}" for name in os.listdir("/dev/shm"))
    return found


# Runs a command as its children's subreaper, so a process the command
# leaves behind -- even one that ends a millisecond later, such as
# multiprocessing's resource tracker -- is handed to this wrapper, which
# then exits 97 instead of with the command's own code.
_REAPER = """
import ctypes, os, subprocess, sys
ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
code = subprocess.call(sys.argv[1:])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(code)
sys.exit(97)
"""


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", _REAPER, sys.executable, "-m", "bench",
         "--profile", "smoke", "--seconds", "2", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


def test_the_wrapper_sees_a_process_left_behind():
    left = "import subprocess, sys; subprocess.Popen([sys.executable, '-c', 'pass'])"
    done = subprocess.run([sys.executable, "-c", _REAPER, sys.executable, "-c", left])
    assert done.returncode == 97


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_meets_the_contract_and_leaves_nothing_behind(name):
    before = _helpers()
    done = _bench("--workload", name, "--seed", "3", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m.name: m.unit for m in END_TO_END
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert _helpers() <= before
    record = json.loads(run.result_path(name, 3, False).read_text())
    assert record["meta"]["profile"] == "smoke" and record["claim"] is None


@pytest.mark.parametrize("name", ["core-grid", "serve-road", "sockets-road"])
def test_traced_run_names_every_layer_and_its_spans_add_up(name):
    before = _helpers()
    done = _bench("--workload", name, "--seed", "3", "--trace", "1")
    # the run itself fails unless self times sum to the replay wall time
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert list(result["metrics"]) == [m.name for m in PER_LAYER]
    # the record leaves out what the driver's line has to fill with 0
    record = json.loads(run.result_path(name, 3, True).read_text())
    absent = set(result["metrics"]) - set(record["metrics"])
    assert all(result["metrics"][key]["value"] == 0 for key in absent)
    assert ("cache.hit_rate" in absent) == (name == "core-grid")
    assert ("async.merge_ratio" in absent) == (name != "serve-road")
    spans = [
        json.loads(line)
        for line in (run.OUT / f"trace-{name}.jsonl").read_text().splitlines()
    ]
    names = {span[1] for span in spans}
    assert {"round", "check", "probe", "warmup"} <= names
    if name != "core-grid":
        assert {"service.distances", "runtime.distances", "service.flush"} <= names
    assert _helpers() <= before


def test_same_seed_runs_answer_identically_across_transports():
    records = {}
    for name in ("workers-road", "sockets-road"):
        assert _bench("--workload", name, "--seed", "9", "--trace", "0").returncode == 0
        records[name] = json.loads(run.result_path(name, 9, False).read_text())
    a, b = records.values()
    assert (a["checksum"], a["meta"]["stream"]) == (b["checksum"], b["meta"]["stream"])
    assert a["metrics"]["index_mb"] == b["metrics"]["index_mb"]


def test_a_failed_spot_check_fails_the_run_and_still_cleans_up(monkeypatch):
    def wrong(graph, source, targets=None):
        return np.full(graph.num_vertices, -1.0)

    monkeypatch.setattr(workloads, "dijkstra", wrong)
    before = _helpers()
    result = run.run_workload("workers-road", 4, 2.0, False, "smoke")
    assert result["correct"] is False and result["failed"] > 0
    # the resource tracker serves this (pytest) process until it exits
    leftovers = {
        item
        for item in _helpers() - before
        if not item.startswith("pid")
        or b"resource_tracker" not in Path("/proc", item[4:], "cmdline").read_bytes()
    }
    assert not leftovers


# ---------------------------------------------------------------------------
# sets and compare
# ---------------------------------------------------------------------------

def test_aa_and_set_take_only_the_flags_they_honour(capsys):
    for argv in (["aa", "--seed", "3"], ["aa", "--trace", "1"], ["set", "x.json", "--seed", "3"]):
        with pytest.raises(SystemExit):
            bench_main(argv)
    assert "unrecognized arguments" in capsys.readouterr().err


def _set(profile="full", scale=1.0, jitter=0.01, seeds=(1, 2, 3, 4, 5)) -> dict:
    runs = []
    for i, seed in enumerate(seeds):
        wobble = 1.0 + jitter * (i - len(seeds) // 2)
        metrics = {m.name: 10.0 * wobble for m in END_TO_END}
        metrics["replay_s"] *= scale
        metrics["index_mb"] = 7.0
        runs.append({"seed": seed, "stream": "s", "checksum": "c", "attempted": 1,
                     "failed": 0, "metrics": metrics})
    meta = {key: 1 for key in report.SAME_MACHINE}
    meta.update(profile=profile, seconds=6.0)
    entry = {"runs": runs, "traced": None, "lost": 0, "graph": {"n": 1}}
    return {"label": "x", "meta": meta, "workloads": {"core-grid": entry}}


def test_compare_applies_each_bound():
    rows, refusals = report.compare_sets(_set(), _set(scale=1.5))
    assert not refusals
    verdicts = {r["metric"]: r["verdict"] for r in rows}
    assert verdicts["replay_s"] == "regressed"
    assert all(v == "ok" for k, v in verdicts.items() if k != "replay_s")


def test_compare_reports_noisy_metrics_as_unresolved_not_unchanged():
    rows, _ = report.compare_sets(_set(jitter=0.2), _set(jitter=0.2))
    verdicts = {r["metric"]: r["verdict"] for r in rows}
    assert verdicts["replay_s"] == "unresolved"
    assert verdicts["index_mb"] == "ok"
    rows, _ = report.compare_sets(_set(seeds=(1, 2)), _set(seeds=(1, 2)))
    assert {r["verdict"] for r in rows} == {"unresolved"}


def test_compare_refuses_sets_that_measured_different_things():
    assert report.compare_sets(_set(), _set(profile="smoke"))[1]
    assert report.compare_sets(_set(), _set(seeds=(1, 2, 3, 4, 6)))[1]
    other = _set()
    other["meta"]["nproc"] = 64
    assert report.compare_sets(_set(), other)[1]
    other = _set()
    other["workloads"]["core-grid"]["graph"] = {"n": 2}
    assert report.compare_sets(_set(), other)[1]
