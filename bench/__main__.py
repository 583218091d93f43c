"""Command line of the benchmark (``python -m bench``).

    python -m bench --workload W --seed N --seconds S --trace 0|1
        one run in this process; the last line is the driver's JSON
    python -m bench [--seed N] [--seconds S] [--trace 0|1]
        every workload once, each in a fresh subprocess
    python -m bench set FILE
        one comparable set of this commit: every workload under ten seeds
    python -m bench aa
        two back-to-back sets on the same code, compared
    python -m bench compare A.json B.json
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import signal
import sys
from multiprocessing import resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parser(prog: str, **kwargs) -> argparse.ArgumentParser:
    """The flags every running sub-command honours."""
    from bench.spec import PROFILES, WORKLOADS

    parser = argparse.ArgumentParser(prog=prog, **kwargs)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measurement budget; picks the timed round count")
    parser.add_argument("--profile", choices=sorted(PROFILES), default="full")
    return parser


def _children() -> list[int]:
    """Pids of this process's direct children, zombies included."""
    me, found = str(os.getpid()), []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path("/proc", pid, "stat").read_text()
        except OSError:
            continue
        if stat.rsplit(")", 1)[1].split()[1] == me:
            found.append(int(pid))
    return found


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    The spawn-context runtimes start multiprocessing's resource tracker.
    Left alone it ends only once it notices this process is gone, so it
    outlives the run by a moment -- and the driver counts it as left
    running. Stopping it here also has it unlink any segment a skipped
    ``close()`` leaked. The sweep after it finds nothing on a clean run.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()  # no-op when it never ran
    for pid in _children():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except OSError:  # ended and reaped in the meantime
            pass


def main(argv: list[str]) -> int:
    if not (SRC / "repro").is_dir():
        print(f"bench: the program's source is missing ({SRC}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from bench import report

    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="python -m bench compare")
        parser.add_argument("a", type=Path)
        parser.add_argument("b", type=Path)
        args = parser.parse_args(argv[1:])
        return report.compare_files(args.a, args.b)
    if argv[:1] == ["set"]:
        parser = _parser("python -m bench set")
        parser.add_argument("file", type=Path, help="where the set is written")
        args = parser.parse_args(argv[1:])
        return report.run_set(args.file, args.seconds, args.profile, args.workload)
    if argv[:1] == ["aa"]:
        args = _parser("python -m bench aa").parse_args(argv[1:])
        return report.aa(args.seconds, args.profile, args.workload)

    parser = _parser("python -m bench", description=__doc__,
                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return report.run_all(args.seed, args.seconds, bool(args.trace), args.profile)
    from bench import run

    return run.main(args.workload, args.seed, args.seconds, bool(args.trace), args.profile)


if __name__ == "__main__":
    try:  # on every way out, an error or argparse's exit included
        code = main(sys.argv[1:])
    finally:
        stop_children()
    sys.exit(code)
