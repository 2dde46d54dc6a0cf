"""`tensordim._loader` in a source checkout.

Each case runs a fresh interpreter over a temporary copy of `src/` and
`setup.py`: the first import builds the compiled kernel into
`build/kernel`, a second one loads that file without building or
importing the build's modules, an edited `_bb.c` gets a new file, and a
missing compiler, an unwritable cache, TENSORDIM_PURE, a failed or a
stuck build leave the pure kernel, quietly.  A failed build leaves a
marker that spares later imports the build, until a strict load.  No
import loads `dataclasses` or `inspect`, and only one that falls back
loads the pure kernel.  The loader captures the build's output, where a
warning goes unseen, so one more case compiles `_bb.c` with warnings as
errors.  The cases need a C
compiler; the `compiled_kernel` fixture skips them without one.
"""

import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

import pytest

from conftest import ROOT

# Prints the kernel and which of these modules the import pulled in: the
# build's, `dataclasses` and `inspect` (which no value class needs), and the
# pure kernel (which only a process that runs it needs).
REPORT = """
import sys
import tensordim.cli
print(tensordim.solver.kernel_name(),
      *[m for m in ("subprocess", "hashlib", "sysconfig", "setuptools", "dataclasses",
                    "inspect", "tensordim._bb_py") if m in sys.modules])
"""

# Asserts that the solver holds the pure kernel, and solves on it.
PURE_SOLVE = """
from tensordim import CliqueFactors, _bb_py, dim_formula, exact_metric_dimension, solver
assert solver._default_kernel is _bb_py and solver.kernel_name() == "python"
assert exact_metric_dimension(CliqueFactors((3, 4))).dim == dim_formula(3, 4).dim
"""


def checkout(dest: Path) -> Path:
    shutil.copytree(ROOT / "src", dest / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.egg-info"))
    shutil.copy(ROOT / "setup.py", dest)
    return dest


def python(tree: Path, code: str, **env) -> subprocess.CompletedProcess:
    full = {k: v for k, v in os.environ.items() if k not in ("TENSORDIM_PURE", "CC")}
    full.update(PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1", **env)
    return subprocess.run([sys.executable, "-c", code], cwd=tree, env=full,
                          capture_output=True, text=True, timeout=120)


def cached(tree: Path) -> list[Path]:
    return sorted((tree / "build" / "kernel").iterdir())


@pytest.fixture(scope="module")
def built(tmp_path_factory, compiled_kernel):
    """A checkout after its first import, and that import's outcome."""
    tree = checkout(tmp_path_factory.mktemp("checkout"))
    return tree, python(tree, REPORT)


def test_first_import_builds_one_kernel_file(built):
    tree, first = built
    assert (first.returncode, first.stderr) == (0, "")
    assert first.stdout.split()[0] == "compiled"
    assert not {"dataclasses", "inspect", "tensordim._bb_py"} & set(first.stdout.split())
    [path] = cached(tree)
    assert path.name.startswith("_bb-")


def test_second_import_loads_the_build_without_building(built):
    tree, _ = built
    [path] = cached(tree)
    mtime = path.stat().st_mtime_ns
    again = python(tree, REPORT)
    assert (again.returncode, again.stdout, again.stderr) == (0, "compiled\n", "")
    assert cached(tree) == [path]
    assert path.stat().st_mtime_ns == mtime


def test_edited_source_gets_a_new_build(built, tmp_path):
    tree = tmp_path / "edited"
    shutil.copytree(built[0], tree)
    [old] = cached(tree)
    with open(tree / "src" / "tensordim" / "_bb.c", "a", encoding="utf-8") as fh:
        fh.write("/* edited */\n")
    edited = python(tree, REPORT)
    assert (edited.returncode, edited.stderr) == (0, "")
    assert edited.stdout.split()[0] == "compiled"
    assert len(cached(tree)) == 2 and old in cached(tree)


def test_missing_compiler_falls_back_quietly(tmp_path, compiled_kernel):
    tree = checkout(tmp_path)
    done = python(tree, REPORT + PURE_SOLVE + "from tensordim import _loader\n"
                  "assert _loader.why_pure == 'no C compiler', _loader.why_pure\n",
                  CC=str(tmp_path / "no-such-cc"))
    assert (done.returncode, done.stdout.split()[0], done.stderr) == (0, "python", "")
    assert "tensordim._bb_py" in done.stdout.split()
    assert not (tree / "build").exists()


def test_unwritable_cache_falls_back_quietly(tmp_path, compiled_kernel):
    # A file where the cache directory should be: nothing can be written
    # there, as in a read-only checkout (root writes past file modes).
    tree = checkout(tmp_path)
    (tree / "build").write_text("", encoding="utf-8")
    done = python(tree, REPORT + PURE_SOLVE + "from tensordim import _loader\n"
                  "assert _loader.why_pure == 'the kernel build failed', _loader.why_pure\n")
    assert (done.returncode, done.stdout.split()[0], done.stderr) == (0, "python", "")
    assert "tensordim._bb_py" in done.stdout.split()


def test_pure_switch_skips_the_loader(tmp_path, compiled_kernel):
    tree = checkout(tmp_path)
    done = python(tree, REPORT, TENSORDIM_PURE="1")
    assert (done.returncode, done.stdout, done.stderr) == (0, "python tensordim._bb_py\n", "")
    assert not (tree / "build").exists()


def fake_cc(path: Path, body: str) -> Path:
    path.write_text(f"#!/bin/sh\n{body}\n", encoding="utf-8")
    path.chmod(0o755)
    return path


def test_failed_build_raises_only_when_asked(tmp_path, compiled_kernel):
    # The import falls back quietly; an explicit strict load raises with
    # the compiler's output.
    tree = checkout(tmp_path / "tree")
    cc = fake_cc(tmp_path / "broken-cc", "echo 'broken-cc: cannot compile' >&2; exit 1")
    done = python(tree, "import tensordim.cli\n" + PURE_SOLVE +
                  "from tensordim import _loader\n"
                  "assert _loader.why_pure == 'the kernel build failed', _loader.why_pure\n"
                  "try:\n"
                  "    _loader.load(strict=True)\n"
                  "except RuntimeError as exc:\n"
                  "    assert 'broken-cc: cannot compile' in str(exc), exc\n"
                  "else:\n"
                  "    raise AssertionError('a failed strict build did not raise')\n",
                  CC=str(cc))
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    assert [path.suffix for path in cached(tree)] == [".failed"]


def test_stuck_build_is_killed_with_its_compiler(tmp_path, compiled_kernel):
    # A compiler that hangs: the build is given up after the timeout, the
    # whole process group is killed and the private build directory goes.
    # The compiler lets go of the build's output pipe, so killing only
    # setup.py would end the build but leave the compiler running.
    tree = checkout(tmp_path / "tree")
    cc = fake_cc(tmp_path / "stuck-cc", 'echo $$ > "$0.pid"\nexec sleep 600 >/dev/null 2>&1')
    done = python(tree, "from tensordim import _loader\n"
                  "_loader.BUILD_TIMEOUT_S = 3\n"
                  "assert _loader.load() is None\n"
                  "assert _loader.why_pure == 'the kernel build failed', _loader.why_pure\n",
                  CC=str(cc), TENSORDIM_PURE="1")
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    [marker] = cached(tree)
    assert "the build ran past 3 s" in marker.read_text(encoding="utf-8")
    pid = int((tmp_path / "stuck-cc.pid").read_text())
    stat = Path(f"/proc/{pid}/stat")
    deadline = time.monotonic() + 10
    # Killed means gone, or a zombie its new parent has not reaped yet.
    while stat.exists() and stat.read_text().rsplit(")", 1)[1].split()[0] != "Z":
        assert time.monotonic() < deadline, f"compiler {pid} outlived the build"
        time.sleep(0.1)


def test_failed_build_is_tried_again_only_when_asked(tmp_path, compiled_kernel):
    # The compiler logs each start.  The first import's build fails and
    # leaves a marker; the second import falls back without a build.  A
    # strict load builds again and raises with the compiler's output.
    tree = checkout(tmp_path / "tree")
    starts = tmp_path / "starts"
    cc = fake_cc(tmp_path / "logging-cc",
                 f"echo start >> '{starts}'; echo 'logging-cc: cannot compile' >&2; exit 1")
    fallback = ("import tensordim.cli\n" + PURE_SOLVE +
                "from tensordim import _loader\n"
                "assert _loader.why_pure == 'the kernel build failed', _loader.why_pure\n")
    for _ in range(2):
        done = python(tree, fallback, CC=str(cc))
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    assert starts.read_text(encoding="utf-8").splitlines() == ["start"]
    [marker] = cached(tree)
    assert marker.name.endswith(".failed")
    assert "logging-cc: cannot compile" in marker.read_text(encoding="utf-8")
    strict = python(tree, "from tensordim import _loader\n"
                    "try:\n"
                    "    _loader.load(strict=True)\n"
                    "except RuntimeError as exc:\n"
                    "    assert 'logging-cc: cannot compile' in str(exc), exc\n"
                    "else:\n"
                    "    raise AssertionError('a failed strict build did not raise')\n",
                    CC=str(cc))
    assert (strict.returncode, strict.stdout, strict.stderr) == (0, "", "")
    assert starts.read_text(encoding="utf-8").splitlines() == ["start", "start"]


def test_the_kernel_source_compiles_without_warnings(compiled_kernel):
    # The interpreter's C compiler, with the warnings that catch a static
    # function or variable left unused, each one an error.
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    include = sysconfig.get_paths()
    done = subprocess.run(
        [*cc, "-O2", "-Wall", "-Wextra", "-Werror", "-Wno-unused-parameter",
         "-Wno-missing-field-initializers", "-I", include["include"], "-I",
         include["platinclude"], "-c", str(ROOT / "src" / "tensordim" / "_bb.c"), "-o",
         os.devnull], capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
