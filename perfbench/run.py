"""The bruhatkit benchmark: timed, checked runs of named workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each timed run is a fresh process (child.py), so module caches and the Weyl
class tables are paid for on every run, as a command-line user pays for
them.  Untraced runs (``--trace 0``) print the end-to-end metrics: medians
over the workload runs started within ``--seconds`` (at least one), set-up
time over import-only probes.  A traced run (``--trace 1``) runs the
workload once untraced and once with every layer wrapped (tracing.py), and
prints the per-layer metrics plus the tracing overhead.  Run times are
rescaled to one machine speed, measured while each child runs
(SpeedSampler), and set-up times by a baseline child that imports numpy
alone; the untraced medians before rescaling are printed as well.

Every run's output is checked: a verify run must exit 0 with ``ok`` true and
the seed-independent part of its report must hash to the reference recorded
at the seed commit; an exact run must reconstruct every factorization,
agree with the rank-profile oracle, and enumerate the cell's closed order of
elements, each once, whose sorted list hashes to the reference recorded at
the seed commit.  ``--workload all`` runs every workload in turn;
``--smoke`` swaps in tiny inputs for the benchmark's own tests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (environment, samples, failure reasons, layer statuses).
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACE_OUT = ROOT / ".perfbench_out"

RUN_LIMIT_S = 170.0  # a run must end within 180 s; children get what is left
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("elements_per_s", "1/s"))
# SpeedSampler's loop time, and the set-up time of child.py's baseline task,
# on an unloaded vCPU of the 2-vCPU Xeon VM where the bounds were set: every
# reported time is rescaled to this machine speed
REF_LOOP_S = 0.0012
REF_BASELINE_S = 0.11
SETUP_SAMPLES = 5  # baseline-and-probe pairs per untraced run, at least


@dataclass(frozen=True)
class Inputs:
    """One concrete input set: a verify command line, or exact-path sizes.

    ``elements`` is the logical work from closed-form group or cell sizes,
    not from what the code scans; ``reference`` is the SHA-256 recorded at
    the seed commit of the seed-independent part of a verify report, or of
    the sorted elements of the exact workload's cell.
    """

    elements: int
    argv: tuple[str, ...] = ()
    reference: str = ""
    matrices: int = 0
    cell: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    full: Inputs
    smoke: Inputs


def _sp4_borel(q: int) -> int:
    return (q - 1) ** 2 * q ** 4


def _sl3_borel(q: int) -> int:
    return (q - 1) ** 2 * q ** 3


def _bc_w0_cell(rank: int, q: int) -> int:
    # q^l(w0) * |B| with l(w0) = rank^2 and |B| = (q-1)^rank q^(rank^2)
    return q ** (rank * rank) * (q - 1) ** rank * q ** (rank * rank)


EXACT_MATRICES = 200
EXACT_SIZE = 6

WORKLOADS = {w.name: w for w in (
    Workload(
        "table_sl3_q5",
        "whole-group table path: closure and cell windows of all 372,000 elements of SL_3(F_5)",
        Inputs(372_000, ("verify", "sl", "3", "--q", "5"),
               "b1caddad1ac347c1a79f6dd9189723b3f64001a1eb95bda3d944494df8ab1742"),
        Inputs(5_616, ("verify", "sl", "3", "--q", "3"),
               "d6ca1c9f89085905556bc7cf4355cb9adfccf02340b938a4bfcd3e661bafa09d"),
    ),
    Workload(
        "cells_sp4_q5",
        "cell-parametrized path: Jordan types over the 6 minimal cells of Sp_4(F_5) plus the census",
        # minimal-length elements of W(C_2) have lengths 0, 1, 1, 2, 2, 4
        Inputs(_sp4_borel(5) * (1 + 5 + 5 + 25 + 25 + 625), ("verify", "sp", "4", "--q", "5"),
               "004388c6ed49065332b41b6d0ab6da7856e99057d4f7c358d3466b682dd55edc"),
        Inputs(_sp4_borel(3) * (1 + 3 + 3 + 9 + 9 + 81), ("verify", "sp", "4", "--q", "3"),
               "dea3915547733441f64ea66c43cef39ea4bdda23fd6160e1ece5b7c61cccf537"),
    ),
    Workload(
        "propd_sp4_q35",
        "elliptic proxies: full scans of 3 cells of Sp_4 at q = 3 and 5, orbit BFS and centralizers",
        # the elliptic minimal cells of W(C_2) have lengths 2, 2, 4
        Inputs(sum(_sp4_borel(q) * (q ** 2 + q ** 2 + q ** 4) for q in (3, 5)),
               ("verify", "sp", "4", "--q", "3", "--q", "5", "--no-theorem-a"),
               "8de8e1c7bed44892cbc33cd01a2dd9432cbdf5adf34d88a47a8ea0f9a3b74a88"),
        # the elliptic class of W(A_2) has two minimal elements of length 2
        Inputs(sum(_sl3_borel(q) * 2 * q ** 2 for q in (3, 5)),
               ("verify", "sl", "3", "--q", "3", "--q", "5", "--no-theorem-a"),
               "ee769a461f87db4cdef30362cc11421f3a54f8e3c51eadd86e698913968314e7"),
    ),
    Workload(
        "exact_q",
        "the only ExactMatrix path: 200 rational 6x6 factorizations and the w0 cell of BC_2 at q = 3",
        Inputs(EXACT_MATRICES + _bc_w0_cell(2, 3),
               reference="096754128d1377fb13c31739d4407af51ad9125d52c5bdcfb1123095256989fd",
               matrices=EXACT_MATRICES,
               cell={"family": "BC", "rank": 2, "window": [-1, -2], "q": 3}),
        Inputs(5 + _bc_w0_cell(2, 2),
               reference="2f0da5b8ee7ac6ff4527843b9de810d7ed8abda8ce351bc6745259ea079bc44c",
               matrices=5,
               cell={"family": "BC", "rank": 2, "window": [-1, -2], "q": 2}),
    ),
)}


# ---------------------------------------------------------------------------
# inputs and checks


def _rank(rows: list[list[Fraction]]) -> int:
    m = [list(r) for r in rows]
    rank = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / m[rank][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def random_rational_matrices(seed: int, count: int, n: int) -> list[list[list[Fraction]]]:
    """``count`` invertible n x n matrices with small rational entries."""
    rng = random.Random(seed)
    pool = [Fraction(a, b) for a in range(-5, 6) for b in range(1, 4)]
    out = []
    while len(out) < count:
        m = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
        if _rank(m) == n:
            out.append(m)
    return out


def report_digest(report: dict) -> str:
    """SHA-256 of a verify report without its seed-dependent spot-check
    records and seed."""
    report = copy.deepcopy(report)
    for section in report.get("theorem_a") or []:
        spot = section.get("spot_checks")
        if spot:
            spot.pop("records", None)
            spot.pop("seed", None)
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_verify(inputs: Inputs, seed: int, envelope: dict) -> str | None:
    """The reason a verify run's output is wrong, or None when it is right."""
    if envelope.get("exit") != 0:
        return f"verify exited {envelope.get('exit')}"
    try:
        report = json.loads(envelope["stdout"])
    except (KeyError, json.JSONDecodeError) as exc:
        return f"report is not JSON: {exc}"
    if not isinstance(report, dict) or report.get("ok") is not True:
        return "report ok is not true"
    for section in report.get("theorem_a") or []:
        if section.get("spot_checks", {}).get("seed") != seed:
            return "spot checks did not use the benchmark seed"
    digest = report_digest(report)
    if digest != inputs.reference:
        return f"report digest {digest} differs from the reference {inputs.reference}"
    return None


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _is_borel(m) -> bool:
    n = len(m)
    return all(m[i][j] == 0 for i in range(n) for j in range(i)) and all(m[i][i] != 0 for i in range(n))


def check_exact(inputs: Inputs, matrices, envelope: dict) -> str | None:
    """The reason an exact run's output is wrong, or None when it is right.
    Reconstruction is re-done here in plain fractions, independent of the
    package's own matrix arithmetic."""
    facts = envelope.get("factorizations") or []
    if envelope.get("exit") != 0 or len(facts) != len(matrices):
        return f"{len(facts)} of {len(matrices)} matrices factored"
    for k, (g, fact) in enumerate(zip(matrices, facts)):
        if fact["w"] != fact["oracle"]:
            return f"matrix {k}: elimination gives {fact['w']}, rank profile {fact['oracle']}"
        n = len(g)
        w_rep = [[Fraction(int(fact["w"][j] == i + 1)) for j in range(n)] for i in range(n)]
        b1 = [[Fraction(str(x)) for x in row] for row in fact["b1"]]
        b2 = [[Fraction(str(x)) for x in row] for row in fact["b2"]]
        if not (_is_borel(b1) and _is_borel(b2)) or _matmul(_matmul(b1, w_rep), b2) != g:
            return f"matrix {k}: b1 * w_rep * b2 does not reconstruct the input"
    expected = inputs.elements - len(matrices)
    counts = [envelope.get(k) for k in ("enumerated", "distinct", "cell_order")]
    if counts != [expected] * 3:
        return (f"enumerated {counts[0]} elements, {counts[1]} distinct, cell_order says "
                f"{counts[2]}, the closed form {expected}")
    if envelope.get("digest") != inputs.reference:
        return f"cell digest {envelope.get('digest')} differs from the reference {inputs.reference}"
    return None


# ---------------------------------------------------------------------------
# child processes


class ProbeError(RuntimeError):
    """The package does not even import, so no run can be measured."""


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float | None
    failure: str | None
    envelope: dict
    loop_s: float | None  # the machine's speed while the child ran, see SpeedSampler

    @property
    def scale(self) -> float:
        """Factor that rescales this child's times to the speed REF_LOOP_S."""
        return REF_LOOP_S / self.loop_s


def _reference_loop() -> int:
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return acc


class SpeedSampler:
    """Measures how fast the CPUs run while one child runs.

    A vCPU on a shared host switches between speeds up to 1.5 times apart
    within seconds, as other guests load the physical core under it, and
    each vCPU switches on its own.  Every TICK_S a thread of this process pins itself
    to the next allowed CPU in turn and takes the thread CPU time of a fixed
    loop there (about a millisecond, so the child loses about 1 %).  A tick
    counts when a runnable thread of the child sits on that CPU, so the mean
    over those ticks is the speed the child ran at; when no tick counts, the
    mean over all ticks stands in.
    """

    TICK_S = 0.05

    def __init__(self, pid: int):
        self.pid = pid
        self.cpus = sorted(os.sched_getaffinity(0))
        self.ticks: list[tuple[float, bool]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _child_on(self, cpu: int) -> bool:
        try:
            for tid in os.listdir(f"/proc/{self.pid}/task"):
                with open(f"/proc/{self.pid}/task/{tid}/stat") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
                if fields[0] == "R" and int(fields[36]) == cpu:
                    return True
        except (OSError, IndexError, ValueError):
            pass  # the child or its thread has exited
        return False

    def _run(self) -> None:
        k = 0
        while True:
            cpu = self.cpus[k % len(self.cpus)]
            k += 1
            os.sched_setaffinity(0, {cpu})  # this thread only
            t = time.thread_time()
            _reference_loop()
            self.ticks.append((time.thread_time() - t, self._child_on(cpu)))
            if self._stop.wait(self.TICK_S):
                return

    def stop(self) -> float:
        """The mean loop time while the child ran, in seconds."""
        self._stop.set()
        self._thread.join()
        on = [dt for dt, child_on in self.ticks if child_on]
        return statistics.fmean(on or [dt for dt, _ in self.ticks])


def _reap(proc: subprocess.Popen, deadline: float):
    """Block until the child exits, killing it at the deadline; returns its
    own resource usage and whether it was killed."""
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage, killed.is_set()


def spawn(task: dict, workdir: Path, deadline: float, sample_speed: bool = False) -> Sample:
    """Run child.py on one task and measure it from spawn to exit; with
    ``sample_speed``, follow the machine's speed while it runs."""
    fd, spec_path = tempfile.mkstemp(suffix=".json", dir=workdir)
    out_path = Path(spec_path).with_suffix(".out")
    err_path = Path(spec_path).with_suffix(".err")
    with os.fdopen(fd, "w") as fh:
        json.dump(dict(task, src=str(SRC), out=str(out_path)), fh)
    with open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), spec_path],
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        sampler = SpeedSampler(proc.pid) if sample_speed else None
        try:
            usage, timed_out = _reap(proc, deadline)
            end = time.monotonic()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            loop_s = sampler.stop() if sampler else None
    envelope = {}
    failure = None
    if timed_out:
        failure = "timed out"
    elif proc.returncode != 0 or not out_path.exists():
        tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
        failure = f"child exited {proc.returncode}: {' '.join(tail)}"
    else:
        envelope = json.loads(out_path.read_text())
    setup = envelope["setup_done"] - start if "setup_done" in envelope else None
    return Sample(end - start, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6,
                  setup, failure, envelope, loop_s)


def prepare(workload: Workload, inputs: Inputs, seed: int, workdir: Path):
    """The child task and the checker for one workload at one seed."""
    if inputs.argv:
        task = {"task": "verify", "argv": [*inputs.argv, "--seed", str(seed)]}
        return task, lambda env: check_verify(inputs, seed, env)
    matrices = random_rational_matrices(seed, inputs.matrices, EXACT_SIZE)
    path = workdir / "matrices.json"
    path.write_text(json.dumps([
        {"field": "Q", "rows": EXACT_SIZE, "cols": EXACT_SIZE,
         "entries": [[str(x) for x in row] for row in m]}
        for m in matrices
    ]))
    task = {"task": "exact", "input": str(path), "cell": inputs.cell}
    return task, lambda env: check_exact(inputs, matrices, env)


def run_checked(task: dict, check, trace: bool, workdir: Path, deadline: float) -> Sample:
    sample = spawn(dict(task, trace=trace), workdir, deadline, sample_speed=True)
    if sample.failure is None:
        sample.failure = check(sample.envelope)
    return sample


# ---------------------------------------------------------------------------
# environment and reporting


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, env=dict(os.environ, GIT_DIR=str(ROOT / ".git")))
    except OSError:
        return None
    return proc.stdout.strip() or None


def environment(seed: int, samples: list[Sample]) -> dict:
    numpy_version = next((s.envelope["numpy"] for s in samples if "numpy" in s.envelope), None)
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        # verify sizes its thread pool from the CPU count unless --workers is given
        "verify_workers": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(workload: Workload, inputs: Inputs, seed: int, seconds: float, trace: bool,
            workdir: Path) -> tuple[dict, dict]:
    """Run one workload; return the result object and the details."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    task, check = prepare(workload, inputs, seed, workdir)
    details: dict = {"workload": workload.name, "why": workload.why, "trace": int(trace)}
    if trace:
        plain = run_checked(task, check, False, workdir, deadline)
        traced = run_checked(task, check, True, workdir, deadline)
        samples = [plain, traced]
        report = traced.envelope.get("trace", {})
        metrics = {}
        for name, value in report.get("metrics", {}).items():
            if name.endswith(("busy_s", "self_s")):
                value *= traced.scale
            elif name.endswith("items_per_s"):
                value /= traced.scale
            metrics[name] = value
        traced_wall, plain_wall = traced.wall_s * traced.scale, plain.wall_s * plain.scale
        metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1
        details.update(layer_status=report.get("status"), missing_hooks=report.get("missing_hooks"),
                       uncounted_hooks=report.get("uncounted_hooks"),
                       untraced_wall_s=plain.wall_s, traced_wall_s=traced.wall_s)
        TRACE_OUT.mkdir(exist_ok=True)
        spans_path = TRACE_OUT / f"spans-{workload.name}-seed{seed}.json"
        spans_path.write_text(json.dumps({"fields": ["layer", "start", "end", "parent", "thread"],
                                          "spans": report.get("spans", [])}))
        details["spans_file"] = str(spans_path.relative_to(ROOT))
        units = dict(tracing.metric_names())
        details["layer_map"] = {layer.name: {"moves": layer.moves, "on": layer.on,
                                             "unchanged_on": layer.unchanged_on}
                                for layer in tracing.LAYERS}
    else:
        samples: list[Sample] = []
        probes: list[tuple[Sample, Sample]] = []

        def probe():
            baseline = spawn({"task": "baseline"}, workdir, deadline)
            probes.append((baseline, spawn({"task": "probe"}, workdir, deadline)))

        # runs start while the measuring time lasts and should end within the
        # run limit; a set-up probe goes before each run
        while True:
            probe()
            samples.append(run_checked(task, check, False, workdir, deadline))
            elapsed = time.monotonic() - start
            mean_wall = statistics.fmean(s.wall_s for s in samples)
            if elapsed >= seconds or elapsed + mean_wall > RUN_LIMIT_S:
                break
        while len(probes) < SETUP_SAMPLES:
            probe()
        failures = [s.failure for pair in probes for s in pair if s.failure]
        if failures:
            raise ProbeError(failures[0])
        metrics = {
            "wall_s": _median([s.wall_s * s.scale for s in samples]),
            # process start-up and imports slow down with the host far more
            # than SpeedSampler's loop does, so each probe is rescaled by the
            # baseline (interpreter and numpy, no bruhatkit) started just before
            "setup_s": _median([p.setup_s * REF_BASELINE_S / b.setup_s for b, p in probes]),
            "cpu_s": _median([s.cpu_s * s.scale for s in samples]),
            "peak_rss_mb": _median([s.peak_rss_mb for s in samples]),
            "elements_per_s": _median([inputs.elements / (s.wall_s * s.scale) for s in samples]),
        }
        # the same medians before rescaling, for reading against a stopwatch
        details["raw"] = {f"{name}_raw": {"value": value, "unit": unit} for name, value, unit in (
            ("wall_s", _median([s.wall_s for s in samples]), "s"),
            ("setup_s", _median([p.setup_s for _, p in probes]), "s"),
            ("cpu_s", _median([s.cpu_s for s in samples]), "s"),
            ("elements_per_s", _median([inputs.elements / s.wall_s for s in samples]), "1/s"),
        )}
        details["setup_samples"] = len(probes)
        units = dict(END_TO_END)
    failed = sum(1 for s in samples if s.failure)
    details.update(
        samples=len(samples),
        fail_frac=failed / len(samples),
        failures=[s.failure for s in samples if s.failure],
        elements=inputs.elements,
        runs=[{"wall_s": s.wall_s, "cpu_s": s.cpu_s, "peak_rss_mb": s.peak_rss_mb,
               "loop_s": s.loop_s} for s in samples],
        environment=environment(seed, samples),
    )
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, details


def print_block(result: dict, details: dict) -> None:
    print(f"workload {details['workload']}: {details['samples']} run(s), "
          f"fail_frac {details['fail_frac']:.3f} ({result['failed']} of {result['attempted']} failed)")
    for failure in details["failures"]:
        print(f"  FAILED: {failure}")
    for name, metric in {**details.get("raw", {}), **result["metrics"]}.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="start workload runs while this time lasts (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "bruhatkit" / "__init__.py").is_file():
        print(f"error: no bruhatkit sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    WORK.mkdir(exist_ok=True)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        workload = WORKLOADS[name]
        inputs = workload.smoke if args.smoke else workload.full
        workdir = Path(tempfile.mkdtemp(dir=WORK))
        try:
            result, details = measure(workload, inputs, args.seed, args.seconds,
                                      bool(args.trace), workdir)
        except ProbeError as exc:
            print(f"error: import probe failed: {exc}", file=sys.stderr)
            return 2
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print_block(result, details)
        print(json.dumps(details))
        if len(names) > 1:
            print(json.dumps(result))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, value in result["metrics"].items():
            combined["metrics"][prefix + metric] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
