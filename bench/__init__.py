"""The repo benchmark: five workloads, eight end-to-end metrics, a layer trace.

Run from the repo root with the tier-1 environment (no install step)::

    python -m bench                       # every workload, fresh subprocess each
    python -m bench --workload core-grid --seed 1 --seconds 10 --trace 0
    python -m bench set A.json            # one ten-seed set of this commit
    python -m bench aa                    # two sets of the same code, compared
    python -m bench compare A.json B.json

See ``bench/README.md`` for what each workload and metric is for.
"""
