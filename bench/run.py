"""Benchmark of coxforge: fits, cross-validation, and ingest-and-score.

Run from the repository root::

    python3 bench/run.py --workload fit_m_final_6x8 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --trace 1
    python3 bench/run.py --workload all --smoke      # every workload, tiny sizes

``--trace 0`` measures end-to-end metrics with nothing wrapped.
``--trace 1`` runs a traced, an untraced and a second traced pass of
set-up plus one operation and reports the per-layer metrics of the last.
Each workload's result is one JSON line with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, the last line printed; the
first line records the environment. A failed check sets ``correct`` to
false; the exit code is 0 whenever results are printed.
``--record-reference`` rewrites ``bench/reference.json`` from the code
in ``src/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

# Settings of the benchmark's own process, made before numpy loads.
# - One BLAS thread: on a 2-vCPU machine a second one made fits no
#   faster, and every workload is single-threaded.
# - No huge-page requests: numpy asks the kernel for huge pages on arrays
#   of 4 MB and more, and whether it gets them depends on the machine's
#   free memory. With the request, peak memory of identical
#   fit_m_final_6x8 runs fell in two groups, 101 and 115 MB.
# - A fixed hash seed: with random ones, the peak memory of fit_m_final_6x8
#   spread 0.107 and 0.141 (Q3 - Q1 over the median of ten runs, two sets);
#   with seed 0, 0.003 and 0.046.
SETTINGS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
    "PYTHONHASHSEED": "0",
}


def _apply_settings() -> None:
    """Make SETTINGS hold for this script. The hash seed takes effect only
    at start-up, so the script runs itself again in this same process,
    which starts no other."""
    if any(os.environ.get(k) != v for k, v in SETTINGS.items()):
        os.environ.update(SETTINGS)
        os.execv(sys.executable, [sys.executable, *sys.argv])


ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference.json"
WORKDIR = ROOT / ".bench_work"


def _import_package():
    """Import coxforge from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "coxforge" / "__init__.py").is_file():
        sys.exit(f"bench: {SRC / 'coxforge'} not found; run from the repository root")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH))
    import coxforge

    if Path(coxforge.__file__).resolve().parent != (SRC / "coxforge").resolve():
        sys.exit(f"bench: imported coxforge from {coxforge.__file__}, not {SRC}")


def _blas_threads() -> dict:
    """OpenBLAS libraries loaded by numpy and scipy, with their thread counts."""
    out = {}
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return out
    for path in sorted({ln.split()[-1] for ln in maps if "openblas" in ln}):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                out[Path(path).name] = int(getattr(lib, fn)())
                break
    return out


def environment() -> dict:
    import numpy as np
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "coxforge").rglob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "settings": SETTINGS,
        "src_lines": src_lines,  # information only, not a metric
    }


class Tally:
    """Attempted and failed operations, with the problems found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, checked, where: str) -> None:
        self.attempted += checked.items
        self.failed += checked.failed
        self.problems += [f"{where}: {p}" for p in checked.problems]

    def fail(self, items: int, where: str, message: str) -> None:
        self.attempted += items
        self.failed += items
        self.problems.append(f"{where}: {message}")


def _attempt(wl, inputs, tally: Tally, where: str, ref, first_digest=None):
    """Run one operation and check it; returns (seconds, digest, output)."""
    from workloads import Checked

    t0 = perf_counter()
    try:
        out = wl.run(inputs)
    except Exception as exc:  # a failed operation is counted, not fatal
        dt = perf_counter() - t0
        tally.fail(wl.items(inputs), where, f"{type(exc).__name__}: {exc}")
        return dt, None, None
    dt = perf_counter() - t0
    checked = wl.check(out, ref, inputs)
    digest = wl.digest(out)
    if first_digest is not None and digest != first_digest and not checked.failed:
        checked = Checked(checked.items, checked.items, ("output differs from the run's first",))
    tally.add(checked, where)
    return dt, digest, out


def _warm_up(wl, inputs, smoke: bool, tally: Tally):
    stored = None
    if wl.uses_reference:
        recorded = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        stored = recorded.get(wl.name, {}).get("smoke" if smoke else "full")
        if stored is None:
            tally.fail(1, "reference", f"no recorded reference for {wl.name}")
    try:
        checked, op_ref = wl.warm_up(inputs, stored)
    except Exception as exc:
        tally.fail(wl.items(inputs), "warm-up", f"{type(exc).__name__}: {exc}")
        return None
    tally.add(checked, "warm-up")
    return op_ref


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def op_seconds(times: list[float], share: float) -> float:
    """Mean of the fastest ``share`` of a run's operation times, at least one.

    On a shared machine the CPU runs in a fast and a slow state, each for
    seconds at a time, about 1.5 times apart. A run's median jumps between
    the two as their shares of the run shift. The mean of every operation
    (``share`` 1) moves with those shares; it suits operations of several
    seconds, each of which already spans both states. Where a run holds
    dozens of short operations, the fastest tenth measures the fast state
    alone.
    """
    k = max(1, math.ceil(share * len(times)))
    return statistics.fmean(sorted(times)[:k])


def measure(wl, seed: int, seconds: float, smoke: bool) -> dict:
    tally = Tally()
    setup_times = []
    for _ in range(wl.setup_repeats):
        t0 = perf_counter()
        inputs = wl.setup(seed, WORKDIR)
        setup_times.append(perf_counter() - t0)
    op_ref = _warm_up(wl, inputs, smoke, tally)

    times, first = [], None
    t_start = perf_counter()
    while True:
        dt, digest, _ = _attempt(wl, inputs, tally, f"op {len(times)}", op_ref, first)
        times.append(dt)
        if len(times) == 1:
            # later operations reuse the memory the first one freed, but how
            # much more they add depends on how many there are
            peak_rss_mb = _peak_rss_mb()
        first = first or digest
        elapsed = perf_counter() - t_start
        # stop before an operation that would run past the measuring window
        if elapsed * (1 + 1 / len(times)) > seconds:
            break
    return {
        "tally": tally,
        "metrics": {
            "op_s": (op_seconds(times, wl.fastest_share), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
        "detail": {"op_seconds": times, "setup_seconds": setup_times},
    }


def trace(wl, seed: int, smoke: bool) -> dict:
    import layers
    from tracer import Tracer, installed

    tally = Tally()
    inputs = wl.setup(seed, WORKDIR)
    op_ref = _warm_up(wl, inputs, smoke, tally)

    def one_pass(tracer, where):
        t0 = perf_counter()
        with nullcontext() if tracer is None else installed(tracer, layers.BINDINGS):
            _, digest, out = _attempt(wl, wl.setup(seed, WORKDIR), tally, where, op_ref)
        return perf_counter() - t0, digest, out

    # the first pass also pays first-call costs, so the untraced pass and
    # the reported metrics come after it
    tracers = [Tracer(), Tracer()]
    _, digest_1, _ = one_pass(tracers[0], "traced 1")
    untraced_s, digest_u, out_u = one_pass(None, "untraced")
    traced_s, digest_2, _ = one_pass(tracers[1], "traced 2")

    per_layer = [layers.layer_metrics(t) for t in tracers]
    problems = layers.self_check(wl, tracers, per_layer, [digest_u, digest_1, digest_2])
    if problems:
        tally.fail(1, "tracer self-check", "; ".join(problems))

    metrics = per_layer[1]
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    # the ingest workload's two phases, timed untraced by the workload itself
    prep = score = 0.0
    read = written = 0
    if out_u is not None and hasattr(out_u, "prep_s"):
        prep = len(out_u.records) / out_u.prep_s
        score = len(out_u.q) / out_u.score_s
        read, written = out_u.bytes_read, out_u.bytes_written
    metrics["ingest.prep_scans_per_s"] = (prep, "1/s")
    metrics["ingest.score_shoes_per_s"] = (score, "1/s")
    metrics["datasets.bytes_read"] = (read, "B")
    metrics["datasets.bytes_written"] = (written, "B")
    return {"tally": tally, "metrics": metrics, "detail": {}}


def record_reference() -> None:
    from workloads import make_workloads

    doc = {}
    for smoke in (False, True):
        for wl in make_workloads(smoke).values():
            if not wl.uses_reference:
                continue
            out = wl.run(wl.setup(0, WORKDIR))
            doc.setdefault(wl.name, {})["smoke" if smoke else "full"] = wl.record(out)
            print(f"recorded {wl.name} ({'smoke' if smoke else 'full'})", file=sys.stderr)
    REFERENCE.write_text(json.dumps(doc, sort_keys=True) + "\n")


def result_line(res: dict) -> dict:
    tally = res["tally"]
    return {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)

    _import_package()
    logging.getLogger("coxforge").setLevel(logging.ERROR)
    from workloads import make_workloads

    workloads = make_workloads(args.smoke)
    if args.workload != "all" and args.workload not in workloads:
        ap.error(f"unknown workload {args.workload!r}; have {', '.join(workloads)}")
    names = list(workloads) if args.workload == "all" else [args.workload]

    WORKDIR.mkdir(exist_ok=True)
    try:
        if args.record_reference:
            record_reference()
            return 0
        print(json.dumps({"environment": environment()}))
        for name in names:
            wl = workloads[name]
            if args.trace:
                res = trace(wl, args.seed, args.smoke)
            else:
                res = measure(wl, args.seed, args.seconds, args.smoke)
            for p in res["tally"].problems:
                print(f"bench {name}: {p}", file=sys.stderr)
            print(json.dumps({"workload": name, **res["detail"]}))
            print(json.dumps(result_line(res)))
        return 0
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)


if __name__ == "__main__":
    _apply_settings()
    sys.exit(main())
