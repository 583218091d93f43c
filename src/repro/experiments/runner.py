"""The ``repro-experiments`` command-line interface.

Runs any subset of the paper's tables/figures on the synthetic suite and
writes JSON payloads next to the printed text tables::

    repro-experiments table2 --datasets NY,BAY --out results/
    repro-experiments all --quick
    REPRO_SCALE=2 repro-experiments table3   # 2x the default suite scale

``--quick`` restricts to the four smallest datasets and shrinks query
counts, which is what the CI smoke steps use.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

from repro.core.config import DHLConfig
from repro.datasets.synthetic import dataset_names
from repro.experiments.context import ExperimentContext
from repro.experiments.figures import (
    figure5_weight_sweep,
    figure6_query_sets,
    figure7_scalability,
)
from repro.experiments.report import save_results
from repro.experiments.service import service_scenarios
from repro.experiments.service_chaos import service_chaos_scenarios
from repro.experiments.service_runtime import shard_runtime_scenarios
from repro.experiments.sharded import sharded_scenarios
from repro.experiments.structural import structural_scenarios
from repro.experiments.tables import (
    figure1_summary,
    table1_datasets,
    table2_updates,
    table3_index,
)
from repro.experiments.verification import verify_correctness
from repro.service import ShardWorkerRuntime, SocketShardRuntime

__all__ = ["main", "EXPERIMENTS"]

EXPERIMENTS = {
    "table1": table1_datasets,
    "table2": table2_updates,
    "table3": table3_index,
    "figure1": figure1_summary,
    "figure5": figure5_weight_sweep,
    "figure6": figure6_query_sets,
    "figure7": figure7_scalability,
    "service": service_scenarios,
    "service-chaos": service_chaos_scenarios,
    "service-sockets": partial(
        shard_runtime_scenarios, runtime_cls=SocketShardRuntime
    ),
    "service-workers": partial(
        shard_runtime_scenarios, runtime_cls=ShardWorkerRuntime
    ),
    "sharded": sharded_scenarios,
    "structural": structural_scenarios,
    "verify": verify_correctness,
}

QUICK_DATASETS = ["NY", "BAY", "COL", "FLA"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the DHL paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=[*EXPERIMENTS, "all"],
        help="which experiments to run",
    )
    parser.add_argument(
        "--datasets",
        default=None,
        help="comma-separated dataset names (default: the full Table 1 suite)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="suite scale as a fraction of the paper's sizes (default 1e-3)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--queries", type=int, default=20_000, help="random query pairs per dataset"
    )
    parser.add_argument(
        "--batches", type=int, default=10, help="update batches per dataset"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="processes for the sharded experiments' shard build",
    )
    parser.add_argument(
        "--out", default="results", help="directory for JSON payloads"
    )
    parser.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        help="dump the serving experiments' metrics registry (JSON lines) "
        "here; each metrics-capable experiment overwrites the file, so "
        "select one scenario when scraping",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small datasets and light workloads (CI profile)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    names = args.datasets.split(",") if args.datasets else None
    if args.quick and names is None:
        names = QUICK_DATASETS
    ctx = ExperimentContext(
        datasets=names or dataset_names(),
        scale=args.scale,
        seed=args.seed,
        num_batches=max(1, args.batches // (2 if args.quick else 1)),
        query_count=args.queries // (4 if args.quick else 1),
        workers=args.workers,
        metrics_out=args.metrics_out,
    )
    selected = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    out_dir = Path(args.out)
    print(f"[engine: {DHLConfig().resolve_engine()}]", file=sys.stderr)
    for key in selected:
        payload = EXPERIMENTS[key](ctx)
        print(payload["text"])
        print()
        save_results(payload, out_dir / f"{key}.json")
        print(f"[saved {out_dir / (key + '.json')}]", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
