"""Per-layer metrics derived from the spans of one traced pass."""

from __future__ import annotations

import inspect
import sys

import numpy as np
from scipy.linalg import lapack

from cfbm.eps_approx import EpsApproxSpec, covariance_matrix
from cfbm.gamma_process import ModelParams
from workloads import COMMANDS, MC_COVARIANCES

HYP2F1_BANDS = ("series", "one_minus_z", "inv_z", "annulus")
POWER_INTEGRALS = ("I1", "I2", "F1", "F2", "Phi1", "Phi2")
IMPORT_MODULES = (
    "cfbm", "cfbm.specfun", "cfbm.gamma_process", "cfbm.eps_approx",
    "cfbm.rough_integrals", "cfbm.cli", "scipy.special", "scipy.integrate", "mpmath",
)


def hyp2f1_band(z):
    """The hyp2f1 dispatch region of argument z (tested in dispatch order)."""
    z = complex(z)
    if abs(z) <= 0.7:
        return "series"
    if abs(1.0 - z) <= 0.3:
        return "one_minus_z"
    if abs(z) >= 1.4:
        return "inv_z"
    return "annulus"


class _Spans:
    def __init__(self, spans):
        self.by_name = {}
        for span in spans:
            self.by_name.setdefault(span.name, []).append(span)

    def get(self, name):
        return self.by_name.get(name, [])

    def s(self, name):
        return sum(sp.duration for sp in self.get(name))

    def self_s(self, *names):
        return sum(sp.self_s for n in names for sp in self.get(n))

    def calls(self, name):
        return len(self.get(name))

    def arguments(self, name):
        """Bound arguments of every call of the traced function ``name``."""
        module, fn_name = name.split(".")
        sig = inspect.signature(getattr(sys.modules[f"cfbm.{module}"], fn_name))
        return [sig.bind(*sp.args, **sp.kwargs).arguments for sp in self.get(name)]


def span_metrics(spans, pass_s, workload):
    """Layer metrics of one traced pass that took ``pass_s`` seconds."""
    sp = _Spans(spans)
    m = {}

    fk = "gamma_process.fk_table"
    cells = sum(a["n_terms"] * len(np.atleast_1d(a["points"])) for a in sp.arguments(fk))
    m[f"{fk}.s"] = sp.s(fk)
    m[f"{fk}.calls"] = sp.calls(fk)
    m[f"{fk}.cells"] = cells
    m[f"{fk}.ns_per_cell"] = 1e9 * sp.s(fk) / cells if cells else 0.0
    m["gamma_process.gaussian_draw.s"] = sp.s("gamma_process.gaussian_draw")
    m["gamma_process.gaussian_draw.calls"] = sp.calls("gamma_process.gaussian_draw")
    for name in ("gamma_process.series_truncation_experiment",
                 "eps_approx.sup_error_experiment",
                 "gamma_process.sample_fbm_series",
                 "rough_integrals.mc_levy_area_moment",
                 "rough_integrals.mc_levy_volume_moment",
                 "rough_integrals.divergence_slope"):
        m[f"{name}.self_s"] = sp.self_s(name)
    for name in ("eps_approx.covariance_matrix", "eps_approx.cholesky_factor",
                 "rough_integrals.levy_area_variance"):
        m[f"{name}.s"] = sp.s(name)
        m[f"{name}.calls"] = sp.calls(name)
    m["rough_integrals.levy_area_sign_sum.s"] = sp.s("rough_integrals.levy_area_sign_sum")
    m["eps_approx.contour_kernel_integral.s"] = sp.s("eps_approx.contour_kernel_integral")

    # paths per second of sampling and functionals, factor and covariance excluded
    mc = ("rough_integrals.mc_levy_area_moment", "rough_integrals.mc_levy_volume_moment")
    paths = sum(a["n_paths"] for name in mc for a in sp.arguments(name))
    mc_self = sp.self_s(*mc)
    m["rough_integrals.mc.paths_per_s"] = paths / mc_self if mc_self else 0.0

    hyp = "specfun.hyp2f1"
    bands = [hyp2f1_band(a["z"]) for a in sp.arguments(hyp)]
    for band in HYP2F1_BANDS:
        mine = [s for s, b in zip(sp.get(hyp), bands) if b == band]
        m[f"{hyp}.s.{band}"] = sum(s.duration for s in mine)
        m[f"{hyp}.calls.{band}"] = len(mine)
        m[f"{hyp}.share.{band}"] = len(mine) / len(bands) if bands else 0.0
    m[f"{hyp}.failed"] = sum(1 for s in sp.get(hyp) if s.error)
    m["rough_integrals.power_integrals.self_s"] = sp.self_s(
        *(f"rough_integrals.{n}" for n in POWER_INTEGRALS)
    )

    for label, _ in (c for cmds in COMMANDS.values() for c in cmds):
        m[f"cli.main.{label}.s"] = sp.s(f"op.{label}")

    # share of the pass in the layer the workload was chosen to stress
    if workload == "series":
        target = sp.self_s(fk)
    elif workload == "mc":
        eps_layer = [n for n in sp.by_name if n.startswith("eps_approx.")]
        target = sp.self_s(*eps_layer, *mc)
    else:
        target = sp.s(hyp) + sp.s("rough_integrals.levy_area_variance")
    m["trace.target_share"] = target / pass_s
    return m


def cov_rank_fracs(workload):
    """Numerical rank / n of each covariance the mc commands factor.

    The rank is that of LAPACK's pivoted Cholesky (?pstrf) at its default
    tolerance, n * machine eps * max diagonal.
    """
    out = {}
    for alpha, eps, grid_n in MC_COVARIANCES:
        name = f"eps_approx.cov_rank_frac.a{alpha}-e{eps}-n{grid_n}"
        out[name] = 0.0
        if workload == "mc":
            grid = np.linspace(0.0, 1.0, grid_n + 1)
            cov = covariance_matrix(EpsApproxSpec(alpha, eps, tuple(grid)), ModelParams(alpha))
            rank = lapack.dpstrf(cov, lower=1)[2]
            out[name] = rank / (grid_n + 1)
    return out


def import_times(stderr_text):
    """Cumulative import seconds per module from ``python -X importtime``.

    scipy subpackages loaded through ``from scipy import x`` get no line of
    their own; their time is then that of the subtrees of their submodules
    whose parent line is not one of them.
    """
    rows = []
    for line in stderr_text.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if line.startswith("import time:") and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1]) * 1e-6))
    # the output is post-order, so a line's parent is the next line indented less
    parents, stack = [], []
    for indent, name, _ in reversed(rows):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        parents.append(stack[-1][1] if stack else "")
        stack.append((indent, name))
    parents.reverse()

    own = {name: cum for _, name, cum in rows}

    def sub(name, mod):
        return name.startswith(mod + ".")

    return {
        f"import.{mod}.s": own[mod] if mod in own else sum(
            cum for (_, name, cum), parent in zip(rows, parents)
            if sub(name, mod) and not sub(parent, mod)
        )
        for mod in IMPORT_MODULES
    }
