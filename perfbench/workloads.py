"""The benchmark's three workloads, each a fixed list of operations.

One client issues a pass's operations back to back in one process (a closed
loop).  Every callable looks its cfbm function up at call time, through the
module, so the tracer's rebound wrappers see the call.

- series: the F_k-table sampler (``fk_table``) on the real axis with many
  terms and at five off-axis rows t + i eps; never touches the covariance
  factor or 2F1.
- mc: exact eps-shift covariances, their factor and Monte Carlo paths; the
  first command has low-rank covariances, the second high-rank ones, so a
  low-rank factor shows its gain on one and its cost on the other.  Builds
  no F_k tables.
- analytics: quadrature and 2F1 with no sampling; uses neither ``fk_table``
  nor the factor.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import cfbm.cli as cli
import cfbm.eps_approx as ea
import cfbm.rough_integrals as ri
import cfbm.specfun as sf
from cfbm.gamma_process import ModelParams


class GateFailure(Exception):
    """A CLI command exited with its gate-failure (or usage) code."""


@dataclass(frozen=True)
class Op:
    """One operation of a pass.

    ``call`` is the timed part.  ``output`` turns its return value into the
    value that is checked (untimed).  ``mc`` marks outputs that are checked
    only through the command's own gates.
    """

    label: str
    call: Callable[[], object]
    output: Callable[[object], object] = lambda raw: raw
    mc: bool = False
    writes_csv: bool = False


# Series sizes are a quarter of the README's converge-* examples (2048 rather
# than 8192 terms, 500 rather than 2000, grid 256 rather than 512), so that a
# pass takes seconds and a run holds several passes; the F_k table is still
# over 90% of the pass.
SERIES_COMMANDS = (
    ("sample", ["sample", "--alpha", "0.4", "--n-terms", "1000", "--grid-n", "256"]),
    ("converge-series", ["converge-series", "--alpha", "0.35", "--n-terms", "2048",
                         "--n-mc", "200", "--grid-n", "256"]),
    ("converge-eps", ["converge-eps", "--alpha", "0.35", "--n-terms", "500",
                      "--n-mc", "200", "--grid-n", "256"]),
)

MC_COMMANDS = (
    ("levy-area.lowrank", ["levy-area", "--alpha", "0.4", "--grid-n", "1024", "--n-mc", "2000",
                           "--eps", "0.1", "--eps", "0.05"]),
    ("levy-area.highrank", ["levy-area", "--alpha", "0.2", "--grid-n", "2048", "--n-mc", "2000",
                            "--eps", "0.0125", "--eps", "0.005"]),
    ("levy-volume", ["levy-volume", "--alpha", "0.3", "--eps", "0.05", "--grid-n", "512",
                     "--n-mc", "500"]),
)

# (alpha, eps, grid_n) of every covariance the mc commands factor
MC_COVARIANCES = (
    (0.4, 0.1, 1024),
    (0.4, 0.05, 1024),
    (0.2, 0.0125, 2048),
    (0.2, 0.005, 2048),
    (0.3, 0.05, 512),
)

ANALYTICS_COMMANDS = (
    ("kernel-check", ["kernel-check", "--alpha", "0.3"]),
    ("cov-check", ["cov-check", "--alpha", "0.35"]),
)

LEVY_ALPHAS = (0.3, 0.4, 0.45, 0.7)
LEVY_EPS = tuple(np.logspace(-5.0, -1.0, 17))
DIVERGENCE_ALPHAS = (0.15, 0.2)
DIVERGENCE_EPS = (3e-4, 1e-4, 3e-5, 1e-5)  # the schedule of the levy-area footer
N_POWER_INTEGRALS = 1500
N_HYP2F1 = 3000
CONTOUR_S = (0.2, 0.5, 0.95)
CONTOUR_T = (0.25, 0.6, 1.05)

COMMANDS = {
    "series": SERIES_COMMANDS,
    "mc": MC_COMMANDS,
    "analytics": ANALYTICS_COMMANDS,
}
WORKLOADS = tuple(COMMANDS)


def _cli_op(label, argv, seed, out_dir, mc=False):
    out = Path(out_dir) / f"{label}.csv"
    args = [*argv, "--seed", str(seed), "--threads", "1", "--out", str(out)]

    def call():
        rc = cli.main(args)
        if rc != 0:
            raise GateFailure(f"{argv[0]} exited {rc}")
        return out

    return Op(label, call, output=lambda path: path.read_bytes(), mc=mc, writes_csv=True)


def _random_power_integral(rng):
    # the acceptance suite's generator (criterion 4)
    alpha = rng.uniform(0.15, 0.85)
    while abs(alpha - 0.5) < 0.03:
        alpha = rng.uniform(0.15, 0.85)
    e2 = rng.uniform(0.005, 0.1)
    s, t = sorted(rng.uniform(-0.5, 1.5, 2))
    return ri.PowerIntegralParams(
        a=rng.uniform(-0.5, 0.5),
        b=rng.uniform(-0.5, 0.5),
        beta1=rng.choice([2 * alpha - 2, 2 * alpha - 1, 2 * alpha]),
        beta2=rng.choice([2 * alpha - 1, 2 * alpha]),
        eps1=e2 + rng.uniform(0.001, 0.1),
        eps2=e2,
        s=s,
        t=t,
    )


def _analytics_ops(seed):
    ops = []
    for alpha in LEVY_ALPHAS:
        for eps in LEVY_EPS:
            spec = ri.LevyAreaSpec(alpha, 1.0, float(eps), float(eps))
            ops.append(Op("levy_area_variance", lambda s=spec: ri.levy_area_variance(s)))
    for alpha in DIVERGENCE_ALPHAS:
        ops.append(Op("divergence_slope",
                      lambda a=alpha: ri.divergence_slope(a, DIVERGENCE_EPS, 1.0)))
    rng = np.random.default_rng(seed)
    for _ in range(N_POWER_INTEGRALS):
        p = _random_power_integral(rng)
        ops.append(Op("I1", lambda p=p: ri.I1(p)))
        ops.append(Op("I2", lambda p=p: ri.I2(p)))
    for i in range(N_HYP2F1):
        args = cli._random_2f1_case(rng, cli._SPECFUN_REGIONS[i % len(cli._SPECFUN_REGIONS)])
        ops.append(Op("hyp2f1", lambda args=args: sf.hyp2f1(*args)))
    params = ModelParams(0.3)
    for s in CONTOUR_S:
        for t in CONTOUR_T:
            ops.append(Op("contour_kernel_integral",
                          lambda s=s, t=t: ea.contour_kernel_integral(s, t, params)))
    ops.append(Op("levy_area_sign_sum", lambda: ri.levy_area_sign_sum(0.3, 0.05, 0.05, 1.0)))
    return ops


def build_ops(workload, seed, out_dir):
    """The operations of one pass of ``workload`` with inputs from ``seed``."""
    ops = _analytics_ops(seed) if workload == "analytics" else []
    for label, argv in COMMANDS[workload]:
        ops.append(_cli_op(label, argv, seed, out_dir, mc=workload == "mc"))
    return ops


# ---------------------------------------------------------------------------
# checked values: a JSON-friendly form and a tolerance comparison
# ---------------------------------------------------------------------------

RTOL = 1e-8
ATOL = 1e-12


def _cell(text):
    for kind in (float, complex):
        try:
            return encode(kind(text))
        except ValueError:
            pass
    return text


def encode(value):
    """JSON form of an operation's output, floats kept to 12 digits.

    Complex numbers become {"re", "im"}; CSV bytes become rows of cells.
    """
    if value is None:
        return None
    if isinstance(value, bytes):
        rows = csv.reader(io.StringIO(value.decode("utf-8")))
        return [[_cell(c) for c in row] for row in rows]
    if isinstance(value, (complex, np.complexfloating)):
        return {"re": encode(value.real), "im": encode(value.imag)}
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if not math.isfinite(v) else float(f"{v:.12g}")
    return value


def close(x, ref):
    """True when encoded ``x`` matches encoded ``ref`` within RTOL/ATOL."""
    if x is None or ref is None:  # an operation that raised has no value
        return True
    if isinstance(ref, dict):
        return isinstance(x, dict) and abs(
            complex(x["re"], x["im"]) - complex(ref["re"], ref["im"])
        ) <= ATOL + RTOL * abs(complex(ref["re"], ref["im"]))
    if isinstance(ref, list):
        return isinstance(x, list) and len(x) == len(ref) and all(map(close, x, ref))
    if isinstance(ref, float):
        if not isinstance(x, float):
            return False
        if math.isnan(ref):
            return math.isnan(x)
        return abs(x - ref) <= ATOL + RTOL * abs(ref)
    return x == ref


def csv_digest(raw):
    return hashlib.sha256(raw).hexdigest()
