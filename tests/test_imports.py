"""Every ``repro`` package must be importable as the first import.

An import cycle only bites the module that enters it first, so a test
process that has already imported ``repro`` cannot see one: each
subpackage (and each ``repro.sharding`` module, where the cycle through
``repro.core.sharded`` used to live, and each ``repro.service`` module,
which the package no longer imports eagerly) is imported in its own
fresh interpreter.
"""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.service

SRC = str(Path(repro.__file__).resolve().parent.parent)


def first_import_targets() -> list[str]:
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.ispkg or info.name.startswith(("repro.sharding.", "repro.service.")):
            names.append(info.name)
    return names


def test_every_subpackage_imports_first_in_a_fresh_interpreter():
    targets = first_import_targets()
    assert {
        "repro.sharding",
        "repro.sharding.engine",
        "repro.service",
        "repro.service.workers",
        "repro.service.async_frontend",
    } <= set(targets)
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


def test_every_service_export_is_its_defining_modules_object():
    """The lazy re-exports hand out the very objects their modules
    define, and an unknown name is an ``AttributeError``."""
    import importlib
    import inspect

    for name in repro.service.__all__:
        value = getattr(repro.service, name)
        module = importlib.import_module(repro.service._EXPORTS[name])
        assert value is getattr(module, name), name
        if inspect.isclass(value) or inspect.isfunction(value):
            defining = importlib.import_module(value.__module__)
            assert getattr(defining, name) is value, name
    assert sorted(dir(repro.service)) == sorted(repro.service.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.service.no_such_name  # noqa: B018
