"""Every ``repro`` package must be importable as the first import.

An import cycle only bites the module that enters it first, so a test
process that has already imported ``repro`` cannot see one: each
subpackage (and each ``repro.sharding`` module, where the cycle through
``repro.core.sharded`` used to live) is imported in its own fresh
interpreter.
"""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)


def first_import_targets() -> list[str]:
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.ispkg or info.name.startswith("repro.sharding."):
            names.append(info.name)
    return names


def test_every_subpackage_imports_first_in_a_fresh_interpreter():
    targets = first_import_targets()
    assert {"repro.sharding", "repro.sharding.engine", "repro.service"} <= set(targets)
    running = [
        (
            name,
            subprocess.Popen(
                [sys.executable, "-c", f"import {name}"],
                env={**os.environ, "PYTHONPATH": SRC},
                stderr=subprocess.PIPE,
                text=True,
            ),
        )
        for name in targets
    ]
    failures = {}
    for name, process in running:
        _, stderr = process.communicate(timeout=120)
        if process.returncode:
            failures[name] = stderr.strip().splitlines()[-1]
    assert not failures, failures
