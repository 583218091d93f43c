"""The C kernel library every algorithm runs in: one C file.

:mod:`dhl_kernels.c <repro.labelling.native>` (package data, plain C99,
no ``Python.h``) holds the pair and set-to-set queries, one shard's
share of a sharded batch, the parent's split of a batch by shard and
its min-plus combine, the two maintenance sweeps, the build's hot
loops (every combinatorial step of the multilevel partitioner and
Algorithm 1's top-down pass) and the service's result-cache table (its
batch probe and fill).
There is no other implementation in the package, so a C compiler is a
requirement. This module builds the file at first use and opens it
with :mod:`ctypes`:

* :func:`library` — the loaded library. The first call compiles
  ``cc -O3 -fPIC -shared -ffp-contract=off``
  into a per-user cache (``$XDG_CACHE_HOME`` or ``~/.cache``, then
  ``repro-dhl/``; ``<tmp>/repro-dhl-<uid>`` where neither is usable),
  under a name keyed by SHA-1 of the source, the compiler binary's
  identity (resolved path, size, mtime) and the compiler flags, so a
  changed kernel, compiler or flag never loads a stale file and every
  process after the first just ``dlopen``\\ s, spawning nothing. The
  build is written to a temporary name and ``os.replace``\\ d, so
  processes racing on a cold cache each end with a whole file; a file
  whose size is not the one its name records (a torn write) is never
  opened. A directory that is
  not the current user's, or that group/other may write, is never
  loaded from — the build goes to a fresh private directory — and
  neither is such a library. A cached file that does not open, or
  lacks a symbol, is rebuilt once. Where the library cannot be had (no
  compiler, a failed compile, an unloadable file) every call raises
  :class:`~repro.exceptions.NativeUnavailableError` naming the reason
  and the fix; the failure is remembered, so nothing is compiled twice.
* :func:`status` — ``(reason, library_path, compile_seconds)`` of that
  one resolution; ``compile_seconds`` is None when the cache was warm,
  ``library_path`` None when the library is unavailable.

The validating wrappers over the exported functions are in
:mod:`repro.labelling.native.engine` and, for the partitioner's, in
:mod:`repro.partition.kernels`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

from repro.exceptions import NativeUnavailableError
from repro.observability.phases import phase

__all__ = ["LibraryStatus", "library", "status"]

SOURCE = Path(__file__).with_name("dhl_kernels.c")
_CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
_COMPILERS = ("cc", "gcc", "clang")

_i64, _ptr = ctypes.c_int64, ctypes.c_void_p
#: ``name -> (restype, argtypes)`` of every exported function; pointers
#: travel as integer addresses. The query kernels' first pointers, and
#: the sweeps' and the label build's store and labels pointers, are
#: bound records (:class:`repro.labelling.native.engine.Bound`: a label
#: store, the LCA tables, a shard's boundary, the routing state, a
#: shortcut store) whose fields hold their owners' buffer addresses; the
#: other pointers are the call's own operands and output arena.
SIGNATURES = {
    "dhl_common_ancestors": (_i64, [_ptr, _i64, _ptr, _ptr, _i64, _ptr]),
    "dhl_gather_pairs": (_i64, [_ptr] * 3 + [_i64, _ptr, _ptr, _i64, _ptr, _ptr]),
    "dhl_distance_matrix": (_i64, [_ptr] * 3 + [_i64, _ptr, _i64, _ptr, _ptr]),
    "dhl_min_plus": (
        ctypes.c_int,
        [_i64, _i64, _ptr, _i64, _ptr, _ptr, _i64, _i64, _ptr, _ptr, _ptr],
    ),
    "dhl_shard_batch": (_i64, [_ptr] * 4 + [ctypes.c_int, _i64, _i64, _ptr, _ptr]),
    "dhl_batch_split": (_i64, [_ptr, _i64, _ptr, _ptr, _i64, _ptr]),
    "dhl_batch_answer": (_i64, [_ptr, _i64, _ptr, _ptr, _i64] + [_ptr] * 4),
    "dhl_shortcut_sweep": (ctypes.c_int, [_i64, _ptr, _i64, _ptr] + [_ptr] * 6),
    "dhl_label_sweep": (_i64, [_i64, _ptr, _ptr, _i64] + [_ptr] * 8),
    "dhl_fm_refine": (
        ctypes.c_int,
        [_i64, _i64] + [_ptr] * 4 + [_i64, _i64] + [_ptr] * 2,
    ),
    "dhl_step_rebalance": (ctypes.c_int, [_i64] + [_ptr] * 4 + [_i64, _ptr]),
    "dhl_step_grow": (ctypes.c_int, [_i64, _i64] + [_ptr] * 4 + [_i64, _ptr]),
    "dhl_step_bfs_halves": (ctypes.c_int, [_i64] + [_ptr] * 3 + [_i64, _ptr]),
    "dhl_step_components": (_i64, [_i64] + [_ptr] * 6),
    "dhl_step_coarsen": (_i64, [_i64] + [_ptr] * 5 + [_i64] + [_ptr] * 5),
    "dhl_step_cut_weight": (ctypes.c_double, [_i64] + [_ptr] * 4),
    "dhl_step_separator": (_i64, [_i64, _i64] + [_ptr] * 3),
    "dhl_part_new": (
        _ptr, [_i64, _i64] + [_ptr] * 4 + [ctypes.c_double] + [_ptr] * 4
    ),
    "dhl_part_free": (None, [_ptr]),
    "dhl_part_load": (_i64, [_ptr, _i64, _ptr]),
    "dhl_part_disconnected": (_i64, [_ptr]),
    "dhl_part_coarsen": (_i64, [_ptr, _ptr, _i64, ctypes.c_double]),
    "dhl_part_initial": (None, [_ptr, _ptr, _i64]),
    "dhl_part_coarsest": (None, [_ptr] * 5),
    "dhl_part_consider": (None, [_ptr, _ptr]),
    "dhl_part_project": (None, [_ptr]),
    "dhl_part_result": (None, [_ptr] * 4),
    "dhl_part_split": (_i64, [_ptr]),
    "dhl_label_build": (None, [_ptr, _i64, _ptr, _ptr]),
    "dhl_cache_probe": (
        ctypes.c_int, [_ptr, _i64, _ptr, ctypes.c_int] + [_ptr] * 5
    ),
    "dhl_cache_fill": (ctypes.c_int, [_ptr, _i64] + [_ptr] * 2 + [_i64]),
}


class LibraryStatus(NamedTuple):
    """What the one resolution of this process found."""

    reason: str
    library_path: str | None
    compile_seconds: float | None


class _Unavailable(Exception):
    """The library cannot be had; the message is the reason."""


class _State:
    """The process's single resolution, made under ``lock`` on first use."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.status: LibraryStatus | None = None
        self.library: ctypes.CDLL | None = None


_state = _State()


def _private(path: Path) -> bool:
    """Owned by this user and not writable by group or other."""
    info = path.stat()
    return info.st_uid == os.getuid() and not info.st_mode & (
        stat.S_IWGRP | stat.S_IWOTH
    )


def _cache_dir() -> Path:
    """A directory only this user can write: the per-user cache, else a
    fresh temporary one."""
    home = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    shared_tmp = Path(tempfile.gettempdir()) / f"repro-dhl-{os.getuid()}"
    for candidate in (Path(home) / "repro-dhl", shared_tmp):
        try:
            candidate.mkdir(mode=0o700, parents=True, exist_ok=True)
            if _private(candidate) and os.access(candidate, os.W_OK | os.X_OK):
                return candidate
        except OSError:
            continue
    return Path(tempfile.mkdtemp(prefix="repro-dhl-"))


def _compiler() -> tuple[str, str]:
    """``(path, identity)`` of the first C compiler on ``PATH``.

    The identity is the resolved binary's path, size and mtime rather
    than its ``--version`` banner: a warm start must not spawn a process
    (a child forked from a serving process is as large as its parent
    until it execs, and ``RUSAGE_CHILDREN`` remembers that).
    """
    for name in _COMPILERS:
        path = shutil.which(name)
        if path is not None:
            real = os.path.realpath(path)
            info = os.stat(real)
            return path, f"{real}:{info.st_size}:{info.st_mtime_ns}"
    raise _Unavailable("no C compiler (cc, gcc, clang) on PATH")


def _compile(cc: str, cache: Path, digest: str) -> tuple[Path, float]:
    """Build the library under a temporary name in *cache*, then move it
    into place under its final one; returns that and the seconds taken."""
    start = time.perf_counter()
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=cache, suffix=".tmp")
        os.close(fd)
        with phase("build.native_compile"):
            done = subprocess.run(
                [cc, *_CFLAGS, "-o", tmp, str(SOURCE)],
                capture_output=True, text=True, timeout=300,
            )
        if done.returncode != 0:
            tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
            raise _Unavailable(f"{cc} exited {done.returncode}: {tail[0]}")
        os.chmod(tmp, 0o700)
        target = cache / f"dhl_kernels-{digest}-{os.path.getsize(tmp)}.so"
        os.replace(tmp, target)
    except (OSError, subprocess.SubprocessError) as exc:
        raise _Unavailable(f"compiling {SOURCE.name} failed: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
    return target, time.perf_counter() - start


def _cached(cache: Path, digest: str) -> Path | None:
    """A whole, private build of this source in *cache*, if there is one.

    A library's byte count is part of its name and a file of any other
    size is not opened: the dynamic loader maps a torn file as its
    headers describe it and faults past the end instead of failing.
    """
    for path in sorted(cache.glob(f"dhl_kernels-{digest}-*.so")):
        size = path.stem.rpartition("-")[2]
        if size.isdigit() and path.stat().st_size == int(size) and _private(path):
            return path
    return None


def _open(path: Path) -> ctypes.CDLL:
    """``dlopen`` *path* and declare every exported function's types."""
    lib = ctypes.CDLL(str(path))
    try:
        for name, (restype, argtypes) in SIGNATURES.items():
            fn = getattr(lib, name)
            fn.restype = restype
            fn.argtypes = argtypes
    except AttributeError:
        # Unload it, or a rebuilt file of the same name would resolve to
        # this stale mapping.
        from _ctypes import dlclose

        dlclose(lib._handle)
        raise
    return lib


def _digest(identity: str, flags: tuple[str, ...]) -> str:
    """The cache key of a build: the source, the compiler's *identity*
    and the *flags* it compiles with, so no change to any of them loads
    a stale library."""
    key = SOURCE.read_bytes() + "\0".join((identity, *flags)).encode()
    return hashlib.sha1(key).hexdigest()[:16]


def _load() -> tuple[ctypes.CDLL, Path, float | None]:
    cc, identity = _compiler()
    digest = _digest(identity, _CFLAGS)
    cache = _cache_dir()
    cached = _cached(cache, digest)
    if cached is not None:
        try:
            return _open(cached), cached, None
        except (OSError, AttributeError):
            pass  # not a loadable build of this source: rebuild once
    built, seconds = _compile(cc, cache, digest)
    try:
        return _open(built), built, seconds
    except (OSError, AttributeError) as exc:
        raise _Unavailable(f"{built} does not load: {exc}") from exc


def _resolve() -> _State:
    state = _state
    if state.status is None:
        with state.lock:
            if state.status is None:
                try:
                    state.library, path, seconds = _load()
                    state.status = LibraryStatus(
                        "native library loaded", str(path), seconds
                    )
                except _Unavailable as exc:
                    state.status = LibraryStatus(str(exc), None, None)
    return state


def library() -> ctypes.CDLL:
    """The loaded kernel library.

    Raises :class:`~repro.exceptions.NativeUnavailableError` where this
    host cannot have it — on every call, without a second attempt.
    """
    state = _resolve()
    if state.library is None:
        raise NativeUnavailableError(
            f"the native DHL kernels are unavailable ({state.status.reason}); "
            f"install a C compiler ({', '.join(_COMPILERS)}) on PATH: every "
            f"algorithm runs in {SOURCE.name}, compiled at first use"
        )
    return state.library


def status() -> LibraryStatus:
    """``(reason, library_path, compile_seconds)`` of this process."""
    return _resolve().status
