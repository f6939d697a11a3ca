"""Per-layer times of the Monte Carlo engine, per 1k paths.

Runs ``rough_integrals._mc_second_moment`` at each covariance of
``perfbench/workloads.py``'s ``MC_COVARIANCES`` with the shift set its ``mc``
command uses there (two equal shifts for ``levy-area``, three for
``levy-volume``), one set at a time and on one thread.  It times, through
wrappers on the engine's module names, the three layers inside a batch that
the benchmark's tracer cannot see: the normals (``_normal_block``, under the
name the engine draws them by: ``eps_approx``'s, or ``rough_integrals``' in a
checkout that draws them there), the triangular products (BLAS ``dtrmm``) and
the iterated-integral functional (``_iterated_trapezoid``).
``rest_s`` is the batch time left over (copies and bookkeeping); the factor
is timed apart and not counted in it.  ``factor_s`` is the time in
``cholesky_factor`` per covariance, under the name the engine calls it by
(``eps_approx``'s, or ``rough_integrals``' in a checkout that imports it
there), including ``covariance_s``, its build of the covariance's lower
triangle (``eps_approx._covariance_lower``).
``product_s`` is the time inside ``dtrmm``: where a checkout passes it
normals that are not F-contiguous, that includes scipy's copy of them, which
a checkout that gathers them first counts in ``rest_s``, so compare
checkouts on their sum.  Times are medians over ``REPEATS`` runs of
``N_PATHS`` paths, scaled to 1000 paths.  ``peak_n2`` is the ``tracemalloc``
peak of one more run, untimed and after the timed ones, above what was
allocated before it, in real n x n arrays (8 n^2 bytes, n = grid_n + 1
points).  It prints one JSON object.  ``--root`` names the checkout whose ``src`` and ``perfbench`` are
imported (default: the one holding this script), so one copy of the script
times any checkout:

    python tools/mc_layers.py --root ../parent > parent.json
    python tools/mc_layers.py > change.json
"""

from __future__ import annotations

import argparse
import importlib
import json
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

N_PATHS = 1024  # paths per run: eight batches of the engine's 128
REPEATS = 3  # runs per covariance
LAYERS = ("normals_s", "product_s", "trapezoid_s")
# the (module, name) wrapped by a timer, by the total it adds to; the engine
# calls each through its module's attribute
WRAPPED = {"normals_s": ("cfbm.eps_approx", "_normal_block"),
           "product_s": ("scipy.linalg.blas", "dtrmm"),
           "trapezoid_s": ("cfbm.rough_integrals", "_iterated_trapezoid"),
           "factor_s": ("cfbm.eps_approx", "cholesky_factor"),
           "covariance_s": ("cfbm.eps_approx", "_covariance_lower")}
PER_COVARIANCE = ("factor_s", "covariance_s")  # timed once per run, not per path


def _timed(name, fn, totals):
    # fn, adding its wall time to totals[name] on every call
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[name] += time.perf_counter() - t0

    return wrapper


def _traced_peak(run):
    # the tracemalloc peak of run() above what was allocated before it, in bytes
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _shift_sets(workloads):
    # (alpha, eps, grid_n) -> components of the shift set its command uses
    order = {}
    for _, argv in workloads.MC_COMMANDS:
        alpha = float(argv[argv.index("--alpha") + 1])
        grid_n = int(argv[argv.index("--grid-n") + 1])
        for i, flag in enumerate(argv):
            if flag == "--eps":
                order[(alpha, float(argv[i + 1]), grid_n)] = 3 if argv[0] == "levy-volume" else 2
    return [(cov, order[cov]) for cov in workloads.MC_COVARIANCES]


def layer_times(root):
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import numpy as np
    import scipy

    import cfbm.rough_integrals as ri
    import workloads

    targets = {name: (importlib.import_module(mod), attr) for name, (mod, attr) in WRAPPED.items()}
    if hasattr(ri, "cholesky_factor"):  # a checkout whose engine imports the factor
        targets["factor_s"] = (ri, "cholesky_factor")
    if hasattr(ri, "_normal_block"):  # a checkout whose Monte Carlo draws its normals
        targets["normals_s"] = (ri, "_normal_block")
    originals = {name: getattr(mod, attr) for name, (mod, attr) in targets.items()}
    out = {}
    try:
        for (alpha, eps, grid_n), order in _shift_sets(workloads):
            runs = []
            for _ in range(REPEATS):
                totals = dict.fromkeys(WRAPPED, 0.0)
                for name, (mod, attr) in targets.items():
                    setattr(mod, attr, _timed(name, originals[name], totals))
                t0 = time.perf_counter()
                ri._mc_second_moment(alpha, [(eps,) * order], 1.0, grid_n, N_PATHS, 0, 1)
                wall = time.perf_counter() - t0
                # covariance_s is part of factor_s
                totals["rest_s"] = wall - sum(totals[k] for k in (*LAYERS, "factor_s"))
                runs.append(totals)
            for name, (mod, attr) in targets.items():
                setattr(mod, attr, originals[name])
            peak = _traced_peak(lambda: ri._mc_second_moment(
                alpha, [(eps,) * order], 1.0, grid_n, N_PATHS, 0, 1))
            per_1k = 1000.0 / N_PATHS
            row = {k: statistics.median(r[k] for r in runs) * per_1k
                   for k in (*LAYERS, "rest_s")}
            row.update({k: statistics.median(r[k] for r in runs) for k in PER_COVARIANCE})
            row["peak_n2"] = peak / (8.0 * (grid_n + 1) ** 2)
            row["order"] = order
            out[f"a{alpha}-e{eps}-n{grid_n}"] = row
    finally:
        for name, (mod, attr) in targets.items():
            setattr(mod, attr, originals[name])
    machine = {"python": platform.python_version(), "numpy": np.__version__,
               "scipy": scipy.__version__, "machine": platform.machine()}
    return {"n_paths": N_PATHS, "repeats": REPEATS, "machine": machine,
            "per_1k_paths": out}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout to time (default: this script's)")
    args = parser.parse_args()
    print(json.dumps(layer_times(args.root.resolve()), indent=1))


if __name__ == "__main__":
    main()
