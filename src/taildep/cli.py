"""Command-line front end.

Copulas come either from plain-text config files (``--config spec.txt``) or
from flags mirroring the config keys one-to-one (``--family``, ``--a``,
``--b``, ``--alpha``, ``--gamma0``, ``--gamma1``, ``--theta``); flags
override file values.  ``--survival`` swaps in the survival copula of the
given spec, which maps upper-tail questions onto the lower-tail machinery
(and is how ``table1`` couples its losses).  The path solver's tolerances
are fixed, so no command takes solver flags.  Commands:

=========  ==================================================================
eval       C(u, v) at a point
axioms     lattice check of groundedness / marginals / two-increasingness
path       per-level maximizer sets and maximal probabilities (CSV or JSON)
indices    diagonal and/or maximal tail-index reports (JSON)
compare    tail ordering of two copulas, given as two --config files (JSON)
risk       Monte Carlo VaR / CTE / MTVar of X + Y with Pareto-II marginals
table1     (q, b) sweep of indices and risk measures for Marshall-Olkin (CSV)
contour    (u, v, C) lattice plus the solved path points, for external plots
=========  ==================================================================

Exit codes: 0 success, 1 config parse error, 2 parameter validation error,
3 numeric failure (bracketing, overflow, degenerate tails).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from taildep.config import FAMILY_PARAMS, copula_from_mapping, parse_config
from taildep.copulas import check_axioms
from taildep.errors import (
    ConfigError,
    NoAdmissiblePathError,
    NumericError,
    GeneratorError,
    InsufficientTailError,
    ParameterError,
    TailDepError,
    UnsupportedMethodError,
)
from taildep.indices import (
    classical_indices,
    compare,
    default_u_grid,
    star_indices,
)
from taildep.paths import solve_path
from taildep.risk import ParetoII, reference_table, risk_measures
from taildep.serialize import dumps_json, format_float

# --family plus one flag per parameter key of any family, in registry order
_COPULA_FLAGS = ("family", *dict.fromkeys(
    key for keys in FAMILY_PARAMS.values() for key in keys))

def _add_copula_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", action="append", default=[],
                        metavar="FILE", help="copula config file")
    parser.add_argument("--family", choices=sorted(FAMILY_PARAMS))
    for key in _COPULA_FLAGS[1:]:
        parser.add_argument(f"--{key}", type=float, default=None)
    parser.add_argument("--survival", action="store_true",
                        help="use the survival copula of the given spec "
                             "(maps upper-tail questions to the lower tail)")


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--umin-exp", type=int, default=6,
                        help="smallest level is 10^-UMIN_EXP")
    parser.add_argument("--umax-exp", type=int, default=1,
                        help="largest level is 10^-UMAX_EXP")
    parser.add_argument("--per-decade", type=int, default=1)


def _add_output_flags(parser: argparse.ArgumentParser,
                      formats: tuple[str, ...]) -> None:
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="output file (default: stdout)")
    parser.add_argument("--format", choices=formats, default=formats[0])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taildep",
        description="maximal tail dependence paths, indices and risk measures")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate C(u, v)")
    _add_copula_flags(p)
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--v", type=float, required=True)
    _add_output_flags(p, ("json", "csv"))

    p = sub.add_parser("axioms", help="lattice check of the copula axioms")
    _add_copula_flags(p)
    p.add_argument("--grid-n", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-10)
    _add_output_flags(p, ("json",))

    p = sub.add_parser("path", help="solve the maximal-dependence path")
    _add_copula_flags(p)
    _add_grid_flags(p)
    _add_output_flags(p, ("csv", "json"))

    p = sub.add_parser("indices", help="tail index reports")
    _add_copula_flags(p)
    _add_grid_flags(p)
    p.add_argument("--kind", choices=("diagonal", "maximal", "both"),
                   default="both")
    _add_output_flags(p, ("json",))

    p = sub.add_parser("compare", help="tail ordering of two copulas")
    p.add_argument("--config", action="append", default=[], metavar="FILE",
                   help="give exactly twice: the two copulas to compare")
    _add_grid_flags(p)
    _add_output_flags(p, ("json",))

    p = sub.add_parser("risk", help="Monte Carlo VaR / CTE / MTVar of X + Y")
    _add_copula_flags(p)
    p.add_argument("--q", type=float, default=0.99)
    p.add_argument("--n", type=int, default=2_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--tail-index", type=float, default=4.0,
                   help="Pareto-II tail index of both marginals")
    _add_output_flags(p, ("json",))

    p = sub.add_parser("table1", help="(q, b) sweep of indices and risk measures")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=2_000_000)
    _add_output_flags(p, ("csv", "json"))

    p = sub.add_parser("contour", help="CDF lattice plus path overlay points")
    _add_copula_flags(p)
    _add_grid_flags(p)
    p.add_argument("--resolution", type=int, default=201)
    p.add_argument("--out", metavar="FILE", default="contour.csv",
                   help="lattice file; path points go to <out>_path.csv")
    p.add_argument("--format", choices=("csv",), default="csv")

    return parser


def _build_copula(args: argparse.Namespace):
    mapping: dict[str, object] = {}
    configs = getattr(args, "config", [])
    if len(configs) > 1:
        raise ParameterError(
            "this command takes at most one --config (compare takes two)")
    for path in configs:
        mapping.update(parse_config(Path(path).read_text()))
    for key in _COPULA_FLAGS:
        value = getattr(args, key, None)
        if value is not None:
            mapping[key] = value
    if not mapping:
        raise ConfigError("no copula given: use --config or --family flags")
    cop = copula_from_mapping(mapping)
    if getattr(args, "survival", False):
        cop = cop.survival()
    return cop


def _u_grid(args: argparse.Namespace) -> np.ndarray:
    return default_u_grid(args.umin_exp, args.umax_exp, args.per_decade)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _path_json_dict(solution) -> dict:
    return {
        "u_grid": list(solution.u_grid),
        "points": [
            {
                "u": p.u,
                "maximizers": list(p.maximizers),
                "pi_star": p.pi_star,
                "boundary_attained": p.boundary_attained,
                "all_paths_maximal": p.all_paths_maximal,
            }
            for p in solution.points
        ],
    }


def _cmd_eval(args) -> str:
    cop = _build_copula(args)
    value = cop.cdf(args.u, args.v)
    if args.format == "csv":
        return ("u,v,value\n"
                + ",".join(format_float(x) for x in (args.u, args.v, value))
                + "\n")
    return dumps_json({"copula": cop.params(), "u": args.u, "v": args.v,
                       "value": value})


def _cmd_axioms(args) -> str:
    cop = _build_copula(args)
    report = check_axioms(cop, grid_n=args.grid_n, tol=args.tol)
    return dumps_json({
        "copula": cop.params(),
        "grid_n": report.grid_n,
        "tol": args.tol,
        "grounded_ok": report.grounded_ok,
        "marginals_ok": report.marginals_ok,
        "max_marginal_dev": report.max_marginal_dev,
        "two_increasing_ok": report.two_increasing_ok,
        "min_rectangle_mass": report.min_rectangle_mass,
        "worst_rectangle": list(report.worst_rectangle),
        "all_ok": report.all_ok,
    })


def _cmd_path(args) -> str:
    cop = _build_copula(args)
    solution = solve_path(cop, _u_grid(args))
    if args.format == "json":
        return dumps_json(_path_json_dict(solution))
    return solution.to_csv()


def _cmd_indices(args) -> str:
    cop = _build_copula(args)
    grid = _u_grid(args)
    out: dict[str, object] = {"copula": cop.params()}
    if args.kind in ("diagonal", "both"):
        out["diagonal"] = classical_indices(cop, grid).to_json_dict()
    if args.kind in ("maximal", "both"):
        solution = solve_path(cop, grid)
        out["maximal"] = star_indices(solution).to_json_dict()
    return dumps_json(out)


def _cmd_compare(args) -> str:
    if len(args.config) != 2:
        raise ParameterError("compare requires exactly two --config files")
    cops = [copula_from_mapping(parse_config(Path(p).read_text()))
            for p in args.config]
    report = compare(cops[0], cops[1], _u_grid(args))
    out = {"copula_1": cops[0].params(), "copula_2": cops[1].params()}
    out.update(report.to_json_dict())
    return dumps_json(out)


def _cmd_risk(args) -> str:
    cop = _build_copula(args)
    marginal = ParetoII(args.mu, args.sigma, args.tail_index)
    report = risk_measures(cop, marginal, args.q, args.n, args.seed)
    out = {"copula": cop.params(),
           "marginal": {"mu": marginal.mu, "sigma": marginal.sigma,
                        "alpha": marginal.alpha}}
    out.update(report.to_json_dict())
    return dumps_json(out)


def _cmd_table1(args) -> str:
    table = reference_table(seed=args.seed, n=args.n)
    if args.format == "json":
        return dumps_json({
            "a": table.a,
            "n": table.n,
            "seed": table.seed,
            "rows": [
                {"q": r.q, "b": r.b, "tau": r.tau, "kappa_L": r.kappa_l,
                 "kappa_L_star": r.kappa_l_star, "VaR": r.var_q,
                 "CTE": r.cte_q, "MTVar": r.mtvar_q}
                for r in table.rows
            ],
        })
    return table.to_csv()


def _cmd_contour(args) -> str:
    cop = _build_copula(args)
    res = args.resolution
    if res < 2:
        raise ParameterError(f"resolution must be >= 2, got {res}")
    g = np.linspace(0.0, 1.0, res)
    uu, vv = np.meshgrid(g, g, indexing="ij")
    cc = np.asarray(cop.cdf(uu, vv))
    lines = ["u,v,C"]
    for i in range(res):
        for j in range(res):
            lines.append(",".join(format_float(x)
                                  for x in (uu[i, j], vv[i, j], cc[i, j])))

    solution = solve_path(cop, _u_grid(args))
    out = Path(args.out)
    path_file = out.with_name(out.stem + "_path" + (out.suffix or ".csv"))
    path_file.write_text(solution.to_csv())
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "eval": _cmd_eval,
        "axioms": _cmd_axioms,
        "path": _cmd_path,
        "indices": _cmd_indices,
        "compare": _cmd_compare,
        "risk": _cmd_risk,
        "table1": _cmd_table1,
        "contour": _cmd_contour,
    }
    try:
        text = handlers[args.command](args)
        _emit(text, args.out)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParameterError, UnsupportedMethodError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, GeneratorError, NoAdmissiblePathError,
            InsufficientTailError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TailDepError as exc:  # anything else from the package
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
