"""Per-layer measurements, made only in traced runs.

Each measurement calls one public function of one taildep module from
outside, on inputs drawn from the run's seed.  ``LAYER_METRICS`` names every metric with its unit
and direction; BENCHMARK.json lists the same set.  Times are the best of
several repetitions, which other tenants of a shared machine disturb least.
"""

from __future__ import annotations

import dataclasses
import math
import random
import time
import tracemalloc

import workloads as W

FAMILIES = {  # metric key -> config family
    "mo": "marshall_olkin", "mixture": "mixture_mo", "fgm": "fgm",
    "gen_clayton": "generalized_clayton", "clayton": "clayton",
    "independence": "independence", "comonotone": "frechet_upper",
}
RISK_FAMILIES = {  # metric key -> (config family, survival)
    "mo": ("marshall_olkin", False), "mo_survival": ("marshall_olkin", True),
    "mixture": ("mixture_mo", False), "fgm": ("fgm", False),
    "independence": ("independence", False), "comonotone": ("frechet_upper", False),
}
CLI_COMMANDS = ("eval", "axioms", "path", "indices", "compare", "risk",
                "table1", "contour")
CLI_RSS = ("risk", "table1", "contour")
# every survival family but MO, mixture and comonotone shows spurious or
# misplaced maximizers at this level
SURVIVAL_LEVEL = 1e-5


def _metric_table() -> list[tuple[str, str, str]]:
    rows = []
    for key in FAMILIES:
        rows += [(f"copulas.scan_us.{key}", "us", "lower"),
                 (f"copulas.point_us.{key}", "us", "lower"),
                 (f"paths.pointwise_max_ms.{key}", "ms", "lower"),
                 (f"paths.solve_path_ms.{key}", "ms", "lower"),
                 (f"paths.kernel_calls_per_level.{key}", "count", "lower"),
                 (f"paths.maximizers_per_level.{key}", "count", "lower")]
    rows += [("indices.classical_ms", "ms", "lower"),
             ("indices.star_ms", "ms", "lower"),
             ("indices.compare_ms", "ms", "lower")]
    rows += [(f"risk.sample_mpairs_per_s.{key}", "Mpairs/s", "higher")
             for key in RISK_FAMILIES]
    rows += [("risk.risk_measures_s", "s", "lower"),
             ("risk.reference_table_s", "s", "lower"),
             ("risk.tracemalloc_peak_mb", "MB", "lower"),
             ("config.copula_from_config_us", "us", "lower"),
             ("serialize.dumps_json_us", "us", "lower"),
             ("serialize.path_csv_us", "us", "lower"),
             ("cli.import_s", "s", "lower")]
    rows += [(f"cli.{c}_s", "s", "lower") for c in CLI_COMMANDS]
    rows += [(f"cli.{c}_rss_mb", "MB", "lower") for c in CLI_RSS]
    return rows


LAYER_METRICS = _metric_table()


def _best_time(fn, reps: int, inner: int = 1) -> float:
    """Best over reps of the mean time of `inner` back-to-back calls."""
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        out.append((time.perf_counter() - t0) / inner)
    return min(out)


def _counting(cop):
    """The same copula as an instance of a subclass that counts _log_cdf calls."""
    base = type(cop)

    class Counting(base):
        calls = 0

        def _log_cdf(self, u, v):
            Counting.calls += 1
            return super()._log_cdf(u, v)

    fields = [getattr(cop, f.name) for f in dataclasses.fields(cop)]
    return Counting(*fields)


def _params(seed: int) -> dict:
    rng = random.Random(f"layers:{seed}")
    return {key: W._draw(rng, fam) for key, fam in FAMILIES.items()}


def measure(seed: int, span) -> dict:
    """Every in-process per-layer metric, in microseconds, ms or counts."""
    import taildep as td
    from taildep.config import copula_from_config
    from taildep.risk import ParetoII, reference_table, risk_measures, sample_pairs
    from taildep.serialize import dumps_json

    import numpy as np

    out: dict[str, float] = {}
    params = _params(seed)
    g6 = W.grid(W.G6)
    u = 1e-3
    ts = np.linspace(2 * math.log(u), 0.0, 4097)
    xs = np.exp(ts)
    ys = np.minimum(u * u / xs, 1.0)
    for key, fam in FAMILIES.items():
        cop = W.copula(fam, params[key])
        with span(f"copulas.{key}"):
            out[f"copulas.scan_us.{key}"] = 1e6 * _best_time(
                lambda: cop.log_cdf(xs, ys), 15)
            x1, y1 = np.array([0.8 * u]), np.array([u / 0.8])
            out[f"copulas.point_us.{key}"] = 1e6 * _best_time(
                lambda: cop.log_cdf(x1, y1), 15, inner=50)
        with span(f"paths.{key}"):
            out[f"paths.pointwise_max_ms.{key}"] = 1e3 * _best_time(
                lambda: td.pointwise_max(cop, u), 5)
            out[f"paths.solve_path_ms.{key}"] = 1e3 * _best_time(
                lambda: td.solve_path(cop, g6), 3)
            counting = _counting(cop)
            td.solve_path(counting, g6)
            out[f"paths.kernel_calls_per_level.{key}"] = counting.calls / len(g6)
        with span(f"paths.survival.{key}"):
            point = td.pointwise_max(cop.survival(), SURVIVAL_LEVEL)
            out[f"paths.maximizers_per_level.{key}"] = float(len(point.maximizers))

    mo = W.copula("marshall_olkin", params["mo"])
    mix = td.MixtureMO(mo.a, mo.b)
    g29 = W.grid(W.G29)
    sol = td.solve_path(mo, g29)
    with span("indices"):
        out["indices.classical_ms"] = 1e3 * _best_time(
            lambda: td.classical_indices(mo, g29), 15, inner=10)
        out["indices.star_ms"] = 1e3 * _best_time(
            lambda: td.star_indices(sol), 15, inner=10)
        out["indices.compare_ms"] = 1e3 * _best_time(
            lambda: td.compare(mo, mix, g6), 3)

    marginal = ParetoII(0.0, 1.0, 4.0)
    with span("risk"):
        for key, (fam, surv) in RISK_FAMILIES.items():
            p = params.get(key, params["mo"])
            cop = W.copula(fam, p, surv)
            n = 500_000
            t = _best_time(lambda: sample_pairs(cop, n, seed), 3)
            out[f"risk.sample_mpairs_per_s.{key}"] = n / t / 1e6
        mos = td.MarshallOlkin(0.3529, 0.75).survival()
        out["risk.risk_measures_s"] = _best_time(
            lambda: risk_measures(mos, marginal, 0.99, 2_000_000, seed), 3)
        out["risk.reference_table_s"] = _best_time(
            lambda: reference_table(seed=seed, n=2_000_000), 1)
        tracemalloc.start()
        try:
            risk_measures(mos, marginal, 0.99, 2_000_000, seed)
            out["risk.tracemalloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    text = "family = marshall_olkin\na = {a!r}\nb = {b!r}\n".format(**params["mo"])
    report = td.classical_indices(mo, g6).to_json_dict()
    with span("config_serialize"):
        out["config.copula_from_config_us"] = 1e6 * _best_time(
            lambda: copula_from_config(text), 15, inner=100)
        out["serialize.dumps_json_us"] = 1e6 * _best_time(
            lambda: dumps_json(report), 15, inner=100)
        out["serialize.path_csv_us"] = 1e6 * _best_time(
            lambda: sol.to_csv(), 15, inner=20)
    return out
