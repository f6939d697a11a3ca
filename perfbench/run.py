"""cfbm benchmark: three closed-loop workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload {series,mc,analytics} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; cfbm is imported from ``src`` by absolute path,
so no install is needed.  A run

1. times ``setup_s``: fresh interpreters importing ``cfbm.cli`` (median);
2. runs one warm-up pass at the reference seed and compares its outputs with
   ``reference.json`` (captured at the benchmark's first commit);
3. runs passes at ``--seed`` for ``--seconds`` seconds, checking that every
   pass reproduces the first one exactly.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json:
``wall_s`` (median pass), ``setup_s``, ``peak_rss_mb`` and ``ok_frac`` (one
minus the failed share of operations).

The host is shared, and the speed it gives this process swings by up to 2x
within minutes; every kind of work slows together.  So ``wall_s`` and
``setup_s`` are seconds scaled to a fixed host speed: between operations
(at most every ``CAL_EVERY_S``) and around each set-up sample the run times
a calibration chunk, fixed work that uses no cfbm code, and scales each pass
or sample by ``CAL_REF_S`` / its chunks' mean time.  The raw times are
printed and reported as per-layer metrics.  With ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics (medians over
the traced passes) with the tracing overhead.  The last stdout line is one
JSON object: correct, attempted, failed, metrics.

An operation fails when it raises, when a CLI command exits non-zero (its
gate failed), or when a deterministic value of the warm-up pass is outside
the reference tolerance (rtol 1e-8, atol 1e-12).  Monte Carlo outputs are
checked only through their commands' own gates.  ``attempted`` and
``failed`` count the run's distinct operations, those of the warm-up pass and
of one pass at ``--seed``, so they depend on the seed and not on how many
passes fit in the time; the later passes repeat those operations, and
``correct`` is false when one does not reproduce the first pass exactly or
on a reference mismatch.

``--write-reference`` recaptures ``reference.json`` from the current code.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
SETUP_SAMPLES = 5
CAL_REF_S = 0.1  # the chunk's time at the host speed wall_s and setup_s are scaled to
CAL_EVERY_S = 0.5
_CAL_Z = np.linspace(0.01, 1.0, 2048) + 0.3j


def calibration_chunk():
    """Seconds one fixed piece of work takes now: a pure-Python loop and
    complex numpy arithmetic on arrays of F_k-table length, the two kinds of
    work the passes do.  About 0.1 s on an unloaded 2 vCPU Xeon."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    z = np.zeros(2048, dtype=complex)
    for j in range(200):
        z += np.exp(-_CAL_Z * (j * 1e-3)) * _CAL_Z**0.35
    return time.perf_counter() - t0


def _median(xs):
    return statistics.median(xs) if xs else 0.0


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Pass:
    """Outcome of one pass: time, per-op status ("ok", "gate" or the
    exception name), per-op output and the calibration chunks run between
    its operations."""

    def __init__(self, ops, tracer=None):
        from workloads import GateFailure

        self.seconds = 0.0
        self.status = []
        self.values = []
        self.cal = []
        gc.collect()  # so no pass pays for the garbage of the one before
        if tracer:
            tracer.install()
        last_cal = time.perf_counter()
        try:
            for op in ops:
                idx = tracer.open(f"op.{op.label}") if tracer else None
                t0 = time.perf_counter()
                try:
                    raw, status = op.call(), "ok"
                except GateFailure:
                    raw, status = None, "gate"
                except Exception as exc:  # counted as a failed operation
                    raw, status = None, type(exc).__name__
                self.seconds += time.perf_counter() - t0
                if tracer:
                    tracer.close(idx, "" if status == "ok" else status)
                self.status.append(status)
                self.values.append(op.output(raw) if raw is not None else None)
                if time.perf_counter() - last_cal >= CAL_EVERY_S:
                    self.cal.append(calibration_chunk())
                    last_cal = time.perf_counter()
            if not self.cal:
                self.cal.append(calibration_chunk())
        finally:
            if tracer:
                tracer.uninstall()

    def scaled_seconds(self):
        return self.seconds * CAL_REF_S / statistics.fmean(self.cal)

    def failures(self):
        return sum(s != "ok" for s in self.status)


def _same(a, b):
    return a == b or (a != a and b != b)  # NaN reproduces as NaN


def reproduces(first, other):
    return first.status == other.status and all(map(_same, first.values, other.values))


def check_reference(workload, ops, warm):
    """(mismatched ops, CSVs whose bytes differ) of the warm-up pass."""
    from workloads import close, csv_digest, encode

    ref = json.loads(REFERENCE.read_text())["workloads"][workload]
    if [label for label, _ in ref["ops"]] != [op.label for op in ops]:
        raise SystemExit(f"reference.json does not list the {workload} operations")
    mismatched = Counter(
        op.label
        for op, value, (_, expected) in zip(ops, warm.values, ref["ops"])
        if not op.mc and not close(encode(value), expected)
    )
    for label, n in sorted(mismatched.items()):
        print(f"mismatch: {n} x {label} outside rtol/atol of the reference", file=sys.stderr)
    changed = sum(
        value is not None and csv_digest(value) != ref["csv_sha256"][op.label]
        for op, value in zip(ops, warm.values)
        if op.writes_csv
    )
    return sum(mismatched.values()), changed


def write_reference(out_dir):
    from workloads import WORKLOADS, build_ops, csv_digest, encode

    lines = []
    for workload in WORKLOADS:
        ops = build_ops(workload, REFERENCE_SEED, out_dir)
        warm = Pass(ops)
        entries = [
            json.dumps([op.label, None if op.mc else encode(v)], separators=(",", ":"))
            for op, v in zip(ops, warm.values)
        ]
        digests = {op.label: csv_digest(v) for op, v in zip(ops, warm.values) if op.writes_csv}
        lines.append(
            f' "{workload}": {{"csv_sha256": {json.dumps(digests)}, "ops": [\n  '
            + ",\n  ".join(entries)
            + "\n ]}"
        )
    head = f'{{"seed": {REFERENCE_SEED}, "workloads": {{\n'
    REFERENCE.write_text(head + ",\n".join(lines) + "\n}}\n")


# ---------------------------------------------------------------------------
# setup, fingerprint
# ---------------------------------------------------------------------------

def setup_times(cwd, importtime):
    """Wall seconds of fresh interpreters importing cfbm.cli, the same
    scaled by the calibration chunks run before and after each, and the
    interpreters' stderr (per-module import times when ``importtime``)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), "-c", "import cfbm.cli"]
    times, scaled, stderrs = [], [], []
    for _ in range(SETUP_SAMPLES):
        before = calibration_chunk()
        t0 = time.perf_counter()
        res = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, check=False)
        times.append(time.perf_counter() - t0)
        if res.returncode != 0:
            raise SystemExit(f"importing cfbm.cli failed:\n{res.stderr}")
        scaled.append(times[-1] * 2 * CAL_REF_S / (before + calibration_chunk()))
        stderrs.append(res.stderr)
    return times, scaled, stderrs


def fingerprint():
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = next(
        (os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if v in os.environ),
        f"default ({os.cpu_count()})",
    )

    def git(*args):
        try:
            res = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                                 check=False, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return res.stdout.strip() if res.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "git_commit": commit,
        "git_dirty": None if dirty is None else bool(dirty),
        "src_lines": src_lines(),
    }


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "cfbm").rglob("*.py")))


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)
    if not args.write_reference and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def run(args, out_dir):
    from layers import cov_rank_fracs, import_times, span_metrics
    from tracer import Tracer
    from workloads import build_ops

    setup_raw, setup, stderrs = setup_times(out_dir, importtime=bool(args.trace))

    ref_ops = build_ops(args.workload, REFERENCE_SEED, out_dir)
    warm = Pass(ref_ops)
    mismatched, csv_changed = check_reference(args.workload, ref_ops, warm)

    warm.values = None
    ops = build_ops(args.workload, args.seed, out_dir)
    plain, traced, layer = [], [], []
    reproducible = True
    t_end = time.perf_counter() + args.seconds
    while not plain or time.perf_counter() < t_end:
        plain.append(Pass(ops))
        if args.trace:
            tracer = Tracer()
            traced.append(Pass(ops, tracer))
            layer.append(span_metrics(tracer.spans, traced[-1].seconds, args.workload))
        # keep only the first pass's outputs, so memory does not grow with passes
        for p in (plain[-1], *traced[-1:]):
            if p is not plain[0]:
                reproducible = reproducible and reproduces(plain[0], p)
                p.values = None

    attempted = len(warm.status) + len(plain[0].status)
    failed = warm.failures() + plain[0].failures() + mismatched
    correct = mismatched == 0 and reproducible
    wall = [p.seconds for p in plain]
    cal = [c for p in plain for c in p.cal]

    if args.trace:
        metrics = {name: _median([m[name] for m in layer]) for name in layer[0]}
        metrics["trace.overhead_frac"] = _median([p.seconds for p in traced]) / _median(wall) - 1.0
        metrics["wall_raw_s"] = _median(wall)
        metrics["host.cal_s"] = _median(cal)
        per_sample = [import_times(text) for text in stderrs]
        metrics.update({k: _median([t[k] for t in per_sample]) for k in per_sample[0]})
        metrics.update(cov_rank_fracs(args.workload))
        metrics["src.lines"] = src_lines()
        metrics["cli.csv_changed"] = csv_changed
    else:
        metrics = {
            "wall_s": _median([p.scaled_seconds() for p in plain]),
            "setup_s": _median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
        }
    kinds = Counter(
        (op.label, st) for p in (warm, plain[0]) for op, st in zip(ops, p.status) if st != "ok"
    )
    print(f"untraced passes (s): {' '.join(f'{w:.4f}' for w in wall)}")
    print(f"  scaled to the reference host speed: "
          f"{' '.join(f'{p.scaled_seconds():.4f}' for p in plain)}")
    print(f"calibration chunks (s): median {_median(cal):.4f} of {len(cal)}")
    print(f"set-up samples (s): {' '.join(f'{t:.4f}' for t in setup_raw)}, "
          f"scaled: {' '.join(f'{t:.4f}' for t in setup)}")
    print(f"traced passes (s): {' '.join(f'{p.seconds:.4f}' for p in traced)}")
    print(f"failed {failed} of {attempted} operations: {mismatched} reference mismatches, "
          + ", ".join(f"{n} x {label} {st}" for (label, st), n in sorted(kinds.items())))
    print(f"CSVs whose bytes differ from the reference: {csv_changed}")
    return correct, attempted, failed, metrics


def main(argv=None):
    if not (SRC / "cfbm" / "__init__.py").is_file():
        print(f"cfbm sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    import cfbm.cli  # noqa: F401  (loads every traced module)

    if Path(sys.modules["cfbm"].__file__).resolve().parent != SRC / "cfbm":
        print(f"cfbm was imported from outside {SRC}", file=sys.stderr)
        return 2
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="perfbench-", dir=build) as out_dir:
        if args.write_reference:
            write_reference(out_dir)
            return 0
        correct, attempted, failed, metrics = run(args, out_dir)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    print("fingerprint: " + json.dumps(fingerprint()))
    for m in wanted:
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
