"""One timed run of one benchmark workload, in a fresh process.

Started by run.py as ``python3 child.py SPEC.json``; the spec names the
package source directory, the task, its inputs, whether to trace, and the
file to write the result envelope to.  The envelope carries the monotonic
time at which ``import bruhatkit`` returned (the parent subtracts its spawn
time to get ``setup_s``) and the outputs run.py checks.

Tasks:
  baseline  import numpy instead of bruhatkit and stop (the set-up work the
            package does not own, timed next to each probe);
  probe     import bruhatkit and nothing else (a set-up sample);
  verify  run ``bruhatkit.cli.main`` on the spec's argv, capturing the report;
  exact   parse, factor and rank-profile the spec's rational matrices, then
          enumerate one cell with the ExactMatrix enumerator (its elements
          are counted, counted once each, and hashed in sorted order).
"""

import time  # noqa: I001  the set-up clock starts with the interpreter, keep imports light

import contextlib
import hashlib
import io
import json
import platform
import sys
from pathlib import Path


def run_verify(spec: dict) -> dict:
    from bruhatkit import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(spec["argv"])
    return {"exit": code, "stdout": out.getvalue()}


def run_exact(spec: dict) -> dict:
    from bruhatkit import cells, exact, weyl

    with open(spec["input"]) as fh:
        objs = json.load(fh)
    factorizations = []
    for obj in objs:
        g = exact.matrix_from_json(obj)
        fact = cells.bruhat_decompose(g)
        oracle = cells.bruhat_cell_rank_profile(g)
        factorizations.append({
            "w": list(fact.w.window),
            "oracle": list(oracle.window),
            "b1": fact.b1.to_json()["entries"],
            "b2": fact.b2.to_json()["entries"],
        })
    cell = spec["cell"]
    w = weyl.GroupSpec(cell["family"], cell["rank"]).element(cell["window"])
    enumerated = 0
    seen = set()
    for m in cells.enumerate_cell(w, cell["q"]):
        enumerated += 1
        seen.add(tuple(int(x) for row in m.entries for x in row))
    # order-independent: a rewrite may yield the same elements in another order
    digest = hashlib.sha256(json.dumps(sorted(seen)).encode()).hexdigest()
    return {"exit": 0, "factorizations": factorizations, "enumerated": enumerated,
            "distinct": len(seen), "digest": digest,
            "cell_order": cells.cell_order(w, cell["q"])}


TASKS = {"verify": run_verify, "exact": run_exact}


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = Path(spec["src"]).resolve()
    if spec["task"] == "baseline":
        import numpy  # noqa: F401

        envelope = {"setup_done": time.monotonic()}
        with open(spec["out"], "w") as fh:
            json.dump(envelope, fh)
        return 0
    sys.path.insert(0, str(src))
    import bruhatkit

    setup_done = time.monotonic()
    if src not in Path(bruhatkit.__file__).resolve().parents:
        print(f"bruhatkit was imported from {bruhatkit.__file__}, not from {src}", file=sys.stderr)
        return 2
    import numpy

    envelope = {"setup_done": setup_done, "python": platform.python_version(),
                "numpy": numpy.__version__}
    if spec["task"] != "probe":
        tracer = None
        if spec["trace"]:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            envelope.update(TASKS[spec["task"]](spec))
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            envelope["trace"] = tracer.report()
    with open(spec["out"], "w") as fh:
        json.dump(envelope, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
