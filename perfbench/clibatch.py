"""A scripted session of ``taildep`` CLI commands, for the cli layer.

``make_session(seed)`` writes the seeded config files under
``.perfbench_out/cli-s<seed>/`` and returns one command of each kind; the
traced run times each as a fresh process, and ``check_cli(item, stdout)``
verifies its output with the same reference values as the workloads.  No
command passes ``--threads``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from pathlib import Path

import workloads as W

OUT_DIR = Path(".perfbench_out")


def _config(path: Path, family: str, p: dict) -> str:
    lines = [f"family = {family}"] + [f"{k} = {v!r}" for k, v in p.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def make_session(seed: int) -> list[dict]:
    """Write the seeded configs and return one command of each kind."""
    rng = random.Random(f"cli:{seed}")
    work = OUT_DIR / f"cli-s{seed}"
    work.mkdir(parents=True, exist_ok=True)
    # a, b >= 0.3 apart by 0.2: see the compare items of tail_paths
    a, b = W._distinct_pair(rng, 0.3, 0.9, 0.2)
    specs = {  # config name -> (family, parameters)
        "mo": ("marshall_olkin", {"a": a, "b": b}),
        "mixture": ("mixture_mo", {"a": a, "b": b}),
        "gc": ("generalized_clayton", W._draw(rng, "generalized_clayton")),
        "fgm": ("fgm", W._draw(rng, "fgm")),
    }
    cfg = {name: _config(work / f"{name}.txt", fam, p) for name, (fam, p) in specs.items()}

    def one(kind, name, argv, **extra):
        it = {"id": f"cli-{kind}", "kind": kind, "argv": [kind] + argv, **extra}
        if name:
            it["family"], it["p"] = specs[name]
            it["argv"][1:1] = ["--config", cfg[name]]
        return it

    u, v = rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99)
    g15 = ["--umin-exp", "8", "--per-decade", "2"]
    return [
        one("eval", "gc", ["--format", "csv", "--u", repr(u), "--v", repr(v)], u=u, v=v),
        one("axioms", "fgm", ["--grid-n", "100"]),
        one("path", "mixture", ["--format", "json", "--umin-exp", "7", "--per-decade", "2"],
            grid=(7, 1, 2)),
        one("indices", "mo", ["--survival"], survival=True),
        one("compare", None, ["--config", cfg["mo"], "--config", cfg["mixture"], *g15],
            grid=W.G15, pair=[list(specs["mo"]), list(specs["mixture"])]),
        one("risk", "mo", ["--survival", "--q", "0.99", "--n", "100000", "--seed", str(seed)],
            survival=True, q=0.99, n=100_000),
        one("table1", None, ["--n", "200000", "--seed", str(seed)], n=200_000),
        one("contour", "fgm", ["--resolution", "201", "--out", str(work / "contour.csv")],
            out=str(work / "contour.csv"), resolution=201, grid=W.G6),
    ]


def _path_rows(item: dict, rows: list[dict]) -> list[str]:
    """Check path points given as dicts with u, maximizers, pi_star and flags."""
    import checks as C

    levels = W.grid(item["grid"])
    if len(rows) != len(levels):
        return [f"{len(rows)} levels, expected {len(levels)}"]
    problems = []
    for r, u in zip(rows, levels):
        lv = {"u": r["u"], "maximizers": r["maximizers"],
              "log_pi_star": math.log(r["pi_star"]),
              "boundary": r["boundary_attained"], "apm": r["all_paths_maximal"]}
        problems += C._level_problems(item, lv, float(u))
    return problems


def _csv_path(text: str) -> list[dict]:
    rows = []
    for rec in csv.DictReader(io.StringIO(text)):
        xs = [float(v) for k, v in rec.items() if k.startswith("x_star_") and v]
        rows.append({"u": float(rec["u"]), "maximizers": xs,
                     "pi_star": float(rec["pi_star"]),
                     "boundary_attained": rec["boundary_attained"] == "true",
                     "all_paths_maximal": rec["all_paths_maximal"] == "true"})
    return rows


def _check_contour(item: dict) -> list[str]:
    import numpy as np

    res = item["resolution"]
    lattice = np.loadtxt(item["out"], delimiter=",", skiprows=1)
    if lattice.shape != (res * res, 3):
        return [f"lattice shape {lattice.shape}"]
    u, v, c = lattice.T
    alpha = item["p"]["alpha"]  # the FGM copula, written out
    err = float(np.max(np.abs(c - u * v * (1 + alpha * (1 - u) * (1 - v)))))
    problems = [] if err <= 1e-13 else [f"lattice error {err:.3g}"]
    out = Path(item["out"])
    path_text = out.with_name(out.stem + "_path.csv").read_text()
    return problems + _path_rows(item, _csv_path(path_text))


def check_cli(item: dict, stdout: str) -> list[str]:
    """Problems with one command's output (empty: passed)."""
    import checks as C
    import oracles as O

    kind = item["kind"]
    try:
        if kind == "eval":
            value = float(stdout.splitlines()[1].split(",")[2])  # u,v,value
            with O.mp.workdps(O.MP_DPS):
                want = float(O.mp_cdf(item["family"], item["p"], item["u"], item["v"]))
            return [] if C._rel(value, want) <= 1e-13 else [f"C = {value!r} vs {want!r}"]
        if kind == "axioms":
            rep = json.loads(stdout)
            bad = [k for k in ("grounded_ok", "marginals_ok", "two_increasing_ok", "all_ok")
                   if rep[k] is not True]
            if rep["max_marginal_dev"] > 1e-12:
                bad.append(f"max_marginal_dev {rep['max_marginal_dev']!r}")
            return [f"axioms: {bad}"] if bad else []
        if kind == "path":
            return _path_rows(item, json.loads(stdout)["points"])
        if kind == "indices":
            rep = {k: dict(v, lam=v["lambda"]) for k, v in json.loads(stdout).items()
                   if k in ("maximal", "diagonal")}
            want, tol = C._indices(item)
            return (C._index_problems("maximal", rep["maximal"], want, tol, star=True)
                    + C._index_problems("diagonal", rep["diagonal"], want, tol, star=False))
        if kind == "compare":
            return C.check_compare(item, json.loads(stdout))
        if kind == "risk":
            rep = json.loads(stdout)
            out = {"var": rep["var_q"], "cte": rep["cte_q"], "mtvar": rep["mtvar_q"],
                   "n_exceed": rep["n_exceed"], "stderr_cte": rep["stderr_cte"]}
            return C.check_risk(item, out)
        if kind == "table1":
            rows = [[float(x) for x in line.split(",")]
                    for line in stdout.splitlines()[1:]]
            return C.check_table(item, rows, published=False)
        if kind == "contour":
            return _check_contour(item)
    except (KeyError, ValueError, IndexError, TypeError, OSError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
    raise ValueError(f"unknown command kind {kind!r}")
