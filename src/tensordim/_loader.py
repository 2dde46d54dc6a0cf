"""Finds the compiled search kernel `_bb`, building it in a source checkout.

An installed package (no `_bb.c` beside this module) imports
`tensordim._bb`.  A source checkout (`_bb.c` here and `setup.py` at the
checkout root) loads `build/kernel/_bb-<key><suffix>` under that root,
where the key is the CRC-32 of `_bb.c` and the suffix the interpreter's
first extension suffix.  So an edited `_bb.c` gets a new file, and no
stale build, cached or in place, stands in for it.  When the file is
missing, `load` builds it once: it runs `setup.py build_ext`, the one
build definition, in a child process, into a private directory under
`build/kernel`, and publishes the result with `os.replace`, so first
imports that build at the same time each leave a whole file.  A warm load
reads `_bb.c` for its CRC-32, stats two files and loads the extension;
the modules a build needs are imported only when it runs.

`load()` never raises and writes nothing to stdout or stderr: on any
failure (no C compiler, a compile error, a build running past
BUILD_TIMEOUT_S, a directory it cannot write) it returns None and records
why in `why_pure`.  A build that fails leaves `_bb-<key>.failed`, holding
its error, beside where the extension would go, and a later `load()` for
the same `_bb.c` falls back at once instead of building again.
`load(strict=True)` ignores that marker and builds, and raises
RuntimeError, with the compiler's output, for any failure but a missing
compiler.  The compiled module carries the five kernel entry points of
`_bb_py`.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import zlib
from importlib.machinery import EXTENSION_SUFFIXES

from . import _bb_py

_HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(_HERE, "_bb.c")
ROOT = os.path.dirname(os.path.dirname(_HERE))
CACHE_DIR = os.path.join(ROOT, "build", "kernel")
# A build takes a few seconds; one far past that is stuck.
BUILD_TIMEOUT_S = 30

# Why the compiled kernel is not in use: set by `solver_kernel` under
# TENSORDIM_PURE and by each `load` that finds none.
why_pure: str | None = None
_compiled = None


class _NoCompiler(Exception):
    pass


def solver_kernel():
    """The kernel module the solver starts with: `_bb_py` when
    TENSORDIM_PURE is set, without looking for a build, else the compiled
    kernel when `load` finds one."""
    global why_pure
    if os.environ.get("TENSORDIM_PURE"):
        why_pure = "TENSORDIM_PURE is set"
        return _bb_py
    return load() or _bb_py


def load(strict: bool = False):
    """The compiled kernel module, built first when a source checkout has
    none for the current `_bb.c`; None, with the reason in `why_pure`,
    when there is none.  With `strict`, a failure other than a missing C
    compiler raises RuntimeError instead."""
    global _compiled, why_pure
    if _compiled is not None:
        return _compiled
    try:
        module = _find(strict)
    except _NoCompiler:
        why_pure = "no C compiler"
        return None
    # Anything else, a broken or unloadable build included, falls back too:
    # the pure kernel gives the same results.
    except Exception as exc:
        if strict:
            raise RuntimeError(f"kernel build failed: {exc}") from exc
        why_pure = "the kernel build failed"
        return None
    _compiled = module
    return module


def _find(strict: bool):
    if not (os.path.exists(SOURCE) and os.path.exists(os.path.join(ROOT, "setup.py"))):
        from . import _bb  # an installed package

        return _bb
    with open(SOURCE, "rb") as fh:
        key = zlib.crc32(fh.read())
    stem = os.path.join(CACHE_DIR, f"_bb-{key:08x}")
    path = stem + EXTENSION_SUFFIXES[0]
    if not os.path.exists(path):
        if not strict and os.path.exists(stem + ".failed"):
            raise RuntimeError(f"an earlier build failed; see {stem}.failed")
        _build(path, stem + ".failed")
    spec = importlib.util.spec_from_file_location("tensordim._bb", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _build(path: str, failed: str) -> None:
    """Compile `_bb.c` with `setup.py build_ext` into a private directory
    under CACHE_DIR and move the extension to `path`; a build that fails
    writes its error to `failed`.  A build that runs past BUILD_TIMEOUT_S
    is killed with its whole process group, so no compiler outlives it."""
    import shutil
    import sysconfig

    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    if shutil.which(cc.split()[0]) is None:
        raise _NoCompiler(cc)
    import signal
    import subprocess
    import tempfile

    os.makedirs(CACHE_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="build-", dir=CACHE_DIR)
    try:
        cmd = [sys.executable, "setup.py", "build_ext",
               "--build-lib", tmp, "--build-temp", os.path.join(tmp, "t")]
        with subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              start_new_session=True) as child:
            try:
                output = child.communicate(timeout=BUILD_TIMEOUT_S)[0]
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)
                child.communicate()
                raise RuntimeError(f"the build ran past {BUILD_TIMEOUT_S} s") from None
        if child.returncode != 0:
            raise RuntimeError(f"setup.py exited with {child.returncode}:\n{output}")
        os.replace(os.path.join(tmp, "tensordim", "_bb" + sysconfig.get_config_var("EXT_SUFFIX")),
                   path)
    except Exception as exc:
        with open(failed, "w", encoding="utf-8") as fh:
            fh.write(f"{exc}\n")
        raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
