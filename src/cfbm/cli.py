"""Batch experiment front end.

Deterministic, seeded subcommands that run each desk-scale verification and
emit machine-readable CSV tables.  Every subcommand is a pure function of
(config file, flags): reruns are byte-identical.  Exit codes: 0 pass,
1 acceptance-gate failure or library error, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import typing
from dataclasses import dataclass, replace

import numpy as np

from .eps_approx import _finest_shift, cov_eps, sup_error_experiment
from .gamma_process import (
    DomainError,
    ModelParams,
    _is_integer,
    _philox,
    cayley,
    gaussian_draw,
    kernel_closed,
    kernel_partial_sum,
    kernel_terms_needed,
    sample_fbm_series,
    series_truncation_experiment,
)
from .specfun import SpecFunError, hyp2f1

__all__ = ["main", "ConfigError", "ExperimentConfig"]


class ConfigError(ValueError):
    """Bad configuration value; maps to exit code 2."""


@dataclass(frozen=True)
class ExperimentConfig:
    alpha: float = 0.4
    seed: int = 20240901
    n_terms: int = 1000
    grid_n: int = 512  # resolves the finest default shift (4 t / grid_n <= eps)
    t_max: float = 1.0
    eps_list: tuple = (0.1, 0.05, 0.025, 0.0125)
    n_mc: int = 200
    out: str = ""
    threads: int = 1

    def validated(self, command):
        try:
            ModelParams(self.alpha)
        except ValueError as exc:
            raise ConfigError(f"alpha: {exc}") from exc
        for name in ("seed", "n_terms", "grid_n", "n_mc", "threads"):
            if not _is_integer(getattr(self, name)):
                raise ConfigError(f"{name}: must be an integer, got {getattr(self, name)!r}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed: must be in [0, 2**64), got {self.seed}")
        if self.n_terms < 1:
            raise ConfigError(f"n_terms: must be >= 1, got {self.n_terms}")
        if self.grid_n < 2:
            raise ConfigError(f"grid_n: must be >= 2, got {self.grid_n}")
        if not 0 < self.t_max < math.inf:
            raise ConfigError(f"t_max: must be > 0 and finite, got {self.t_max}")
        if self.n_mc < 1:
            raise ConfigError(f"n_mc: must be >= 1, got {self.n_mc}")
        if self.threads < 1:
            raise ConfigError(f"threads: must be >= 1, got {self.threads}")
        if len(self.eps_list) == 0:
            raise ConfigError("eps_list: must not be empty")
        if not all(0 < e < math.inf for e in self.eps_list):
            raise ConfigError(f"eps_list: entries must be > 0 and finite, got {self.eps_list}")
        if any(b >= a for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise ConfigError(
                f"eps_list: must be strictly decreasing, got {self.eps_list}"
            )
        if command in ("levy-area", "levy-volume"):
            if self.grid_n & (self.grid_n - 1):
                raise ConfigError(f"grid_n: must be a power of two, got {self.grid_n}")
            if self.n_mc < 2:
                raise ConfigError(f"n_mc: must be >= 2, got {self.n_mc}")
        if command == "converge-series" and self.n_terms < 3:
            raise ConfigError(f"n_terms: must be >= 3, got {self.n_terms}")
        if command == "specfun-test":
            try:
                import mpmath  # noqa: F401  (cmd_specfun_test imports it on use)
            except ImportError:
                raise ConfigError(
                    "specfun-test: its reference, mpmath.hyp2f1, needs mpmath; "
                    "pip install -e .[oracle]"
                ) from None
        return self


_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)  # field name -> its type


def _parse_config_value(key, raw):
    raw = raw.strip()
    kind = _FIELD_TYPES[key]
    try:
        if kind is tuple:  # a comma-separated list of floats
            return tuple(float(tok) for tok in raw.split(",") if tok.strip())
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse value {raw!r}") from exc


def load_config_file(path):
    """Parse a plain key=value config file (# starts a comment)."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
                key, raw = (part.strip() for part in line.split("=", 1))
                if key not in _FIELD_TYPES:
                    raise ConfigError(f"unknown config key {key!r} (line {lineno})")
                values[key] = _parse_config_value(key, raw)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _fmt(x):
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    if isinstance(x, complex):
        return f"{x.real:.17g}{x.imag:+.17g}j"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _resolve_config(args):
    cfg = ExperimentConfig()
    if args.config:
        cfg = replace(cfg, **load_config_file(args.config))
    overrides = {}
    for name in _FIELD_TYPES:
        val = getattr(args, name)
        if val is not None:
            overrides[name] = tuple(val) if name == "eps_list" else val
    if overrides:
        cfg = replace(cfg, **overrides)
    if not cfg.out:
        cfg = replace(cfg, out=f"{args.command.replace('-', '_')}.csv")
    return cfg.validated(args.command)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_sample(cfg):
    params = ModelParams(cfg.alpha)
    grid = np.linspace(0.0, cfg.t_max, cfg.grid_n + 1)
    draw = gaussian_draw(cfg.seed, cfg.n_terms, params)
    path = sample_fbm_series(draw, grid, params)
    return ["t", "value"], zip(path.grid, path.values), []


_KERNEL_POINTS = (
    1j,
    0.2 + 0.4j,
    1.1 + 0.6j,
    -0.7 + 0.9j,
    0.05 + 0.05j,
    2.4 + 1.5j,
    -1.8 + 0.25j,
    0.6 + 2.2j,
)


def cmd_kernel_check(cfg):
    params = ModelParams(cfg.alpha)
    rows = []
    worst = 0.0
    pairs = [
        (z, w)
        for i, z in enumerate(_KERNEL_POINTS)
        for w in _KERNEL_POINTS[i:]
        if abs(cayley(z) * cayley(w)) <= 0.9
    ]
    for z, w in pairs:
        closed = kernel_closed(z, w, params)
        n_final = kernel_terms_needed(z, w, params)
        n_values = sorted({1, 2, 4, 8, max(2, n_final // 4), max(3, n_final // 2), n_final})
        for n in n_values:
            err = abs(kernel_partial_sum(z, w, n, params) - closed)
            rows.append((z, w, n, err))
        worst = np.maximum(worst, rows[-1][3])  # NaN-propagating: a NaN error fails the gate
    failures = [] if worst <= 1e-6 else [f"final-N error {worst:.3e} exceeds 1e-6"]
    return ["z", "w", "N", "abs_error"], rows, failures


def cmd_cov_check(cfg):
    params = ModelParams(cfg.alpha)
    a2 = 2.0 * cfg.alpha
    grid = np.linspace(-cfg.t_max, cfg.t_max, 20)
    rows = []
    worst = 0.0
    for s in grid:
        for t in grid:
            closed = cov_eps(s, 0.0, t, 0.0, params)
            ref = 0.5 * (abs(s) ** a2 + abs(t) ** a2 - abs(t - s) ** a2)
            err = abs(closed - ref)
            worst = np.maximum(worst, err)
            rows.append((s, t, closed, ref, err))
    failures = [] if worst <= 1e-10 else [f"max deviation {worst:.3e} exceeds 1e-10"]
    return ["s", "t", "cov_closed", "cov_reference", "abs_error"], rows, failures


_DIVERGENCE_EPS = (3e-4, 1e-4, 3e-5, 1e-5)


def _unresolved(cfg, e):
    if e < _finest_shift(cfg.t_max, cfg.grid_n):
        return f"eps={e}: grid_n={cfg.grid_n} too coarse to resolve"
    return None


def cmd_levy_area(cfg):
    from .rough_integrals import (  # on use: the sampling commands never load it
        LevyAreaSpec,
        divergence_slope,
        levy_area_variance,
        levy_const,
        mc_levy_area_moments,
    )

    t = cfg.t_max
    target = None
    if cfg.alpha > 0.25:
        try:
            target = levy_const(cfg.alpha) * t ** (4.0 * cfg.alpha)
        except OverflowError:
            target = math.inf
        if target == math.inf:
            raise OverflowError(f"the target levy_const * t_max^(4 alpha) overflows double "
                                f"precision at t_max={t}, alpha={cfg.alpha}")
    # one Monte Carlo run for every resolved shift, sharing each path's normals
    resolved = [e for e in cfg.eps_list if not _unresolved(cfg, e)]
    estimates = {}
    if resolved:
        estimates = dict(zip(resolved, mc_levy_area_moments(
            cfg.alpha, resolved, t, cfg.n_mc, cfg.grid_n, cfg.seed, n_threads=cfg.threads
        )))
    rows = []
    failures = []
    for e in cfg.eps_list:
        analytic = levy_area_variance(LevyAreaSpec(cfg.alpha, t, e, e))
        if not 0 < analytic < math.inf:  # e.g. a V that underflows to -0 at a tiny t_max
            failures.append(f"eps={e}: analytic V {analytic:.6g} is not finite and > 0")
        if e not in estimates:
            failures.append(_unresolved(cfg, e))
            rows.append((e, analytic, None, None, target))
            continue
        est = estimates[e]
        if not abs(est.mean - analytic) <= 3.0 * est.stderr:
            failures.append(
                f"eps={e}: MC {est.mean:.6g} off analytic {analytic:.6g} "
                f"by more than 3 stderr ({est.stderr:.2g})"
            )
        rows.append((e, analytic, est.mean, est.stderr, target))
    if cfg.alpha < 0.25:
        # the power law V ~ eps^(4a-1) only dominates for small shifts, so
        # the reported exponent is fitted on a dedicated asymptotic schedule
        slope = divergence_slope(cfg.alpha, _DIVERGENCE_EPS, t)
        rows.append(("divergence_slope", slope, None, None, None))
        if not math.isfinite(slope):
            failures.append(f"divergence slope {slope} is not finite")
    return ["eps", "analytic_V", "mc_mean", "mc_stderr", "levy_const_target"], rows, failures


def cmd_levy_volume(cfg):
    from .rough_integrals import (  # on use: the sampling commands never load it
        _volume_inner_max_error,
        levy_area_sign_sum,
        levy_volume_w1,
        mc_levy_volume_moment,
    )

    params = ModelParams(cfg.alpha)
    t = cfg.t_max
    e = cfg.eps_list[0]
    rows = []
    failures = []

    # closed inner kernel integral vs quadrature of its 1-d reduction
    worst_inner = _volume_inner_max_error(cfg.alpha, e, cfg.seed)
    rows.append(("inner_integral_max_abs_err", worst_inner, 0.0, worst_inner))
    if not worst_inner <= 1e-4:  # graded 20-point Gauss-Legendre on d = x3 - y3
        failures.append(f"inner closed form off quadrature by {worst_inner:.3e}")

    # sub-term identity: product form vs sign-resolved assembly
    w1 = levy_volume_w1(cfg.alpha, e, e, e, t)
    kappa = params.kappa
    a2 = 2.0 * cfg.alpha
    sign_sum = levy_area_sign_sum(cfg.alpha, e, e, t)
    direct = kappa ** 3 * 2.0 * (2.0 * e) ** a2 / (a2 * (a2 - 1.0)) * sign_sum.real
    # an underflowed assembly (direct = 0) leaves the relative error undefined,
    # and fails the gate even where w1 underflows too
    rel_err = abs(w1 - direct) / abs(direct) if direct else math.nan
    rows.append(("w1_identity_rel_err", rel_err, 0.0, w1))
    if not direct:
        failures.append("volume sub-term identity untestable: the assembly underflows to 0")
    elif not abs(w1 - direct) <= 1e-8 * abs(direct):
        failures.append("volume sub-term identity broken")

    # Monte Carlo second moment
    unresolved = _unresolved(cfg, e)
    if unresolved:
        failures.append(unresolved)
        rows.append(("mc_second_moment", None, None, None))
    else:
        est = mc_levy_volume_moment(
            cfg.alpha, e, e, e, t, cfg.n_mc, cfg.grid_n, cfg.seed, n_threads=cfg.threads
        )
        rows.append(("mc_second_moment", est.mean, est.stderr, est.n_samples))
        if not (math.isfinite(est.mean) and est.mean >= 0):
            failures.append(f"MC volume moment not finite/non-negative: {est.mean}")
    return ["quantity", "value", "reference", "extra"], rows, failures


def cmd_converge(cfg, which):
    params = ModelParams(cfg.alpha)
    grid = np.linspace(0.0, cfg.t_max, cfg.grid_n)
    if which == "series":
        # fitted truncations stay a factor >= 4 below the coupled reference
        n_list = sorted({max(2, cfg.n_terms // d) for d in (32, 16, 8, 4)})
        rows, slope = series_truncation_experiment(
            params, n_list, cfg.n_terms, cfg.n_mc, grid, cfg.seed
        )
        gate_ok = len(rows) < 2 or slope <= -(cfg.alpha - 0.1)
        gate_msg = f"slope {slope} vs bound {-(cfg.alpha - 0.1)}"
    else:
        rows, slope = sup_error_experiment(
            params, cfg.eps_list, cfg.n_mc, cfg.n_terms, cfg.seed, grid
        )
        gate_ok = len(rows) < 2 or abs(slope) >= cfg.alpha - 0.1
        gate_msg = f"|slope| {abs(slope)} vs bound {cfg.alpha - 0.1}"
    rows = [(p, e, slope) for p, e in rows]
    return ["param", "e_sup_estimate", "fit_slope"], rows, [] if gate_ok else [gate_msg]


_SPECFUN_REGIONS = ("series", "inv", "near_one")


def _random_2f1_case(rng, region):
    # admissible for the tests' Euler-integral oracle: Re c > Re b > 0, moderate
    # imaginary parts, parameter differences away from integers
    while True:
        a = complex(rng.uniform(-1.2, 1.2), rng.uniform(-0.5, 0.5))
        b = complex(rng.uniform(0.3, 2.0), rng.uniform(-0.4, 0.4))
        c = b + complex(rng.uniform(0.4, 1.8), rng.uniform(-0.3, 0.3))
        deg = [b - a, c - a - b]
        if any(abs((d.real) - round(d.real)) < 0.1 and abs(d.imag) < 0.1 for d in deg):
            continue
        break
    if region == "series":
        z = 0.65 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform())
    elif region == "inv":
        z = rng.uniform(1.5, 4.0) * np.exp(1j * rng.uniform(0.2, 2 * math.pi - 0.2))
    else:
        z = 1.0 + rng.uniform(0.05, 0.28) * np.exp(1j * rng.uniform(0.15, 2 * math.pi - 0.15))
        if abs(z.imag) < 0.02 and z.real > 1.0:
            z = complex(z.real, 0.05)
    return a, b, c, complex(z)


def cmd_specfun_test(cfg):
    import mpmath

    def reference(a, b, c, z):
        # exact to double precision, so rel_error is the engine's own error
        with mpmath.workdps(30):
            return complex(mpmath.hyp2f1(a, b, c, z))

    rng = _philox(cfg.seed, 0)
    rows = []
    worst = worst_at_one = 0.0
    for i in range(cfg.n_mc):
        region = _SPECFUN_REGIONS[i % len(_SPECFUN_REGIONS)]
        a, b, c, z = _random_2f1_case(rng, region)
        val = hyp2f1(a, b, c, z)
        oracle = reference(a, b, c, z)
        rel = abs(val - oracle) / abs(oracle)
        worst = np.maximum(worst, rel)
        rows.append((region, a, b, c, z, val, oracle, rel))
    # boundary value at z = 1 (the Gauss Gamma ratio)
    for _ in range(10):
        a, b, c, _z = _random_2f1_case(rng, "series")
        c = c + abs(a.real) + abs(b.real) + 1.0  # force Re(c-a-b) > 0
        val = hyp2f1(a, b, c, 1.0)
        ref = reference(a, b, c, 1.0)
        rel = abs(val - ref) / abs(ref)
        rows.append(("at_one", a, b, c, 1.0 + 0j, val, ref, rel))
        worst_at_one = np.maximum(worst_at_one, rel)
    failures = [] if worst <= 1e-8 else [f"worst relative error {worst:.3e} exceeds 1e-8"]
    if not worst_at_one <= 1e-10:
        failures.append(f"worst relative error at z = 1 {worst_at_one:.3e} exceeds 1e-10")
    return ["region", "a", "b", "c", "z", "value", "oracle", "rel_error"], rows, failures


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "sample": cmd_sample,
    "kernel-check": cmd_kernel_check,
    "cov-check": cmd_cov_check,
    "levy-area": cmd_levy_area,
    "levy-volume": cmd_levy_volume,
    "converge-series": lambda cfg: cmd_converge(cfg, "series"),
    "converge-eps": lambda cfg: cmd_converge(cfg, "eps"),
    "specfun-test": cmd_specfun_test,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cfbm",
        description="Analytic-FBM verification experiments (CSV output).",
    )
    parser.add_argument("command", choices=_COMMANDS, help="the experiment to run")
    parser.add_argument("--alpha", type=float, help="Hurst exponent in (0,1), != 1/2")
    parser.add_argument("--seed", type=int, help="non-negative RNG seed")
    parser.add_argument("--n-terms", type=int, help="series truncation")
    parser.add_argument("--grid-n", type=int, help="grid intervals on [0, t-max] (grid_n + 1 "
                        "points); grid points for converge-series and converge-eps")
    parser.add_argument("--t-max", type=float, help="time horizon")
    parser.add_argument("--eps", dest="eps_list", metavar="EPS", action="append", type=float,
                        help="imaginary shift; repeat for a decreasing schedule "
                        "(levy-volume uses only the first)")
    parser.add_argument("--n-mc", type=int, help="Monte Carlo replicates/paths")
    parser.add_argument("--out", type=str, help="output CSV path")
    parser.add_argument("--threads", type=int,
                        help="accepted and checked (>= 1); starts no thread, changes nothing")
    parser.add_argument("--config", type=str, help="key=value config file")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        header, rows, failures = _COMMANDS[args.command](cfg)
        _write_csv(cfg.out, header, rows)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except (SpecFunError, DomainError, ArithmeticError, np.linalg.LinAlgError) as exc:
        # a library error (a failed guard or factor, an overflow) ends the run on one line
        print(f"{args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    for msg in failures:
        print(f"{args.command}: {msg}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
