"""How bruhatkit starts numpy: with one OpenBLAS thread unless told otherwise.

fflab imports numpy with OPENBLAS_NUM_THREADS=1 set for that import alone,
when numpy is not imported yet and no BLAS thread variable is set.  Each
test starts a fresh interpreter with a controlled environment and counts
the threads in /proc/self/task right after the imports.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# off Linux there is no /proc/self/task; on one CPU OpenBLAS starts no worker
counts_threads = pytest.mark.skipif(
    not sys.platform.startswith("linux") or (os.cpu_count() or 1) < 2,
    reason="needs Linux's /proc/self/task and at least 2 CPUs",
)


def _after(imports: str, **variables: str) -> tuple[int, dict]:
    """(thread count, BLAS thread variables) of a fresh interpreter after
    running `imports`, started with only the given BLAS thread variables."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env.update(variables, PYTHONPATH=str(SRC))
    probe = (f"{imports}\nimport json, os\n"
             f"print(json.dumps([len(os.listdir('/proc/self/task')), "
             f"{{k: os.environ.get(k) for k in {BLAS_THREAD_VARIABLES!r}}}]))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    threads, seen = json.loads(proc.stdout)
    return threads, seen


@counts_threads
def test_import_starts_no_blas_worker_and_restores_the_environment():
    threads, seen = _after("import bruhatkit")
    assert threads == 1
    assert seen == dict.fromkeys(BLAS_THREAD_VARIABLES)


@counts_threads
@pytest.mark.parametrize("variable", ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"])
def test_a_callers_thread_count_is_kept(variable):
    threads, seen = _after("import bruhatkit", **{variable: "2"})
    assert threads == _after("import numpy", **{variable: "2"})[0]
    assert seen == {**dict.fromkeys(BLAS_THREAD_VARIABLES), variable: "2"}


@counts_threads
def test_numpy_imported_first_keeps_its_threads():
    threads, seen = _after("import numpy\nimport bruhatkit")
    assert threads == _after("import numpy")[0]
    assert seen == dict.fromkeys(BLAS_THREAD_VARIABLES)


# one BLAS thread costs nothing only while the package does no float work
_FLOAT_WORK = re.compile(r"\blinalg\b|\bfloat(?:16|32|64|128)\b|\bnp\.float|\bnp\.double\b"
                         r"|dtype\s*=\s*float\b|astype\(\s*float\b")


def test_the_package_does_no_float_or_blas_work():
    hits = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted((SRC / "bruhatkit").glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if _FLOAT_WORK.search(line)
    ]
    assert not hits, "float or BLAS work in bruhatkit:\n" + "\n".join(hits)


def _field_leaks(name):
    # how each field's entries become integers and come back, and how they
    # are eliminated, lives behind the field classes of exact: a module that
    # leaves the field to exact names no field type and no private name of it
    text = (SRC / "bruhatkit" / name).read_text()
    types = re.findall(r"\b(?:PrimeField|RationalField)\b", text)
    nodes = list(ast.walk(ast.parse(text)))
    private = [
        alias.name for node in nodes
        if isinstance(node, ast.ImportFrom) and node.module in ("exact", "bruhatkit.exact")
        for alias in node.names if alias.name.startswith("_")
    ] + [
        node.attr for node in nodes
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "exact" and node.attr.startswith("_")
    ]
    return types + private


def test_cells_leaves_the_field_to_exact():
    leaks = _field_leaks("cells.py")
    assert not leaks, f"cells.py uses field types or private names of exact: {leaks}"


def test_the_exact_path_imports_no_numpy():
    # cells and exact are the lab's independent oracle: no numpy, and no
    # import of the lab's kernels in fflab
    for name in ("cells.py", "exact.py"):
        modules = []
        for node in ast.walk(ast.parse((SRC / "bruhatkit" / name).read_text())):
            if isinstance(node, ast.Import):
                modules += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules += [f"{node.module or ''}.{alias.name}" for alias in node.names]
        hits = [m for m in modules if {"numpy", "fflab"} & set(m.split("."))]
        assert not hits, f"{name} imports {hits}"


def test_fflab_and_weyl_leave_the_field_to_exact():
    # the commutant nullspace and the elliptic determinant go through GF(p)
    # and QQ, not through exact's elimination itself
    leaks = {name: _field_leaks(name) for name in ("fflab.py", "weyl.py")}
    assert not any(leaks.values()), f"field types or private names of exact used: {leaks}"


# hooks of perfbench/tracing.py whose names the package no longer has; the
# traced layers that rest on them alone report "absent"
_GONE_HOOKS = {("fflab", "cell_window_mod_p"), ("fflab", "_jordan_type_mod_p"),
               ("fflab", "_rank_mod_p_np"), ("fflab", "_unipotent_indices"),
               ("fflab", "scan_cell"), ("fflab", "_cell_unipotent_prefix"),
               ("fflab", "ThreadPoolExecutor")}


def test_the_names_perfbench_hooks_still_exist():
    # perfbench times its layers by swapping these module attributes, and a
    # refactor that deletes or renames one leaves its layer recording
    # nothing; the file is read, not imported.  perfbench's own tests hook
    # fflab._primitive_root
    tree = ast.parse((SRC.parent / "perfbench" / "tracing.py").read_text())
    hooked = {(node.args[0].value, node.args[1].value) for node in ast.walk(tree)
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Hook"}
    kept = hooked - _GONE_HOOKS
    assert kept, "no Hook(...) call found in perfbench/tracing.py"
    missing = [f"{module}.{name}" for module, name in sorted(kept | {("fflab", "_primitive_root")})
               if not callable(getattr(importlib.import_module(f"bruhatkit.{module}"), name, None))]
    assert not missing, f"names perfbench hooks that the package no longer has: {missing}"
