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

Floats print as their shortest round-trip ``repr``; JSON is strict, so a
NaN or infinity is not printed.  Exit codes, from one table
(``_EXIT_CODES``): 0 success, 1 config parse error or a file that cannot be
read or written, 2 parameter validation error or a method the family lacks,
3 any other failure of the package (bracketing, overflow, degenerate tails,
a non-finite value to print).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from taildep.config import copula_from_config, copula_from_mapping, parse_config
from taildep.copulas import FAMILIES, _check_int, check_axioms
from taildep.errors import (
    ConfigError,
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
from taildep.serialize import dumps_csv, dumps_json

# --family plus one flag per parameter key of any family, in registry order
_COPULA_FLAGS = ("family", *dict.fromkeys(
    key for _, keys in FAMILIES.values() for key in keys))

# the exit code of each error class, checked in order: the first match decides
_EXIT_CODES = ((ConfigError, 1), ((ParameterError, UnsupportedMethodError), 2),
               (OSError, 1), (TailDepError, 3))


def _add_copula_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", action="append", default=[],
                        metavar="FILE", help="copula config file")
    parser.add_argument("--family", choices=sorted(FAMILIES))
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
    p.set_defaults(handler=_cmd_eval)
    _add_copula_flags(p)
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--v", type=float, required=True)
    _add_output_flags(p, ("json", "csv"))

    p = sub.add_parser("axioms", help="lattice check of the copula axioms")
    p.set_defaults(handler=_cmd_axioms)
    _add_copula_flags(p)
    p.add_argument("--grid-n", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-10)
    _add_output_flags(p, ("json",))

    p = sub.add_parser("path", help="solve the maximal-dependence path")
    p.set_defaults(handler=_cmd_path)
    _add_copula_flags(p)
    _add_grid_flags(p)
    _add_output_flags(p, ("csv", "json"))

    p = sub.add_parser("indices", help="tail index reports")
    p.set_defaults(handler=_cmd_indices)
    _add_copula_flags(p)
    _add_grid_flags(p)
    p.add_argument("--kind", choices=("diagonal", "maximal", "both"),
                   default="both")
    _add_output_flags(p, ("json",))

    p = sub.add_parser("compare", help="tail ordering of two copulas")
    p.set_defaults(handler=_cmd_compare)
    p.add_argument("--config", action="append", default=[], metavar="FILE",
                   help="give exactly twice: the two copulas to compare")
    _add_grid_flags(p)
    _add_output_flags(p, ("json",))

    p = sub.add_parser("risk", help="Monte Carlo VaR / CTE / MTVar of X + Y")
    p.set_defaults(handler=_cmd_risk)
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
    p.set_defaults(handler=_cmd_table1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=2_000_000)
    _add_output_flags(p, ("csv", "json"))

    p = sub.add_parser("contour", help="CDF lattice plus path overlay points")
    p.set_defaults(handler=_cmd_contour)
    _add_copula_flags(p)
    _add_grid_flags(p)
    p.add_argument("--resolution", type=int, default=201)
    p.add_argument("--out", metavar="FILE", default="contour.csv",
                   help="lattice file; path points go to <out>_path.csv")
    p.add_argument("--format", choices=("csv",), default="csv")

    return parser


def _build_copula(args: argparse.Namespace):
    mapping: dict[str, object] = {}
    if len(args.config) > 1:
        raise ParameterError(
            "this command takes at most one --config (compare takes two)")
    for path in args.config:
        mapping.update(parse_config(Path(path).read_text()))
    for key in _COPULA_FLAGS:
        value = getattr(args, key)
        if value is not None:
            mapping[key] = value
    if not mapping:
        raise ConfigError("no copula given: use --config or --family flags")
    cop = copula_from_mapping(mapping)
    if args.survival:
        cop = cop.survival()
    return cop


def _u_grid(args: argparse.Namespace) -> np.ndarray:
    return default_u_grid(args.umin_exp, args.umax_exp, args.per_decade)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_eval(args) -> str:
    cop = _build_copula(args)
    value = cop.cdf(args.u, args.v)
    if args.format == "csv":
        return dumps_csv(("u", "v", "value"), [(args.u, args.v, value)])
    return dumps_json({"copula": cop.params(), "u": args.u, "v": args.v,
                       "value": value})


def _cmd_axioms(args) -> str:
    cop = _build_copula(args)
    report = check_axioms(cop, grid_n=args.grid_n, tol=args.tol)
    return dumps_json({"copula": cop.params(), **asdict(report),
                       "all_ok": report.all_ok})


def _cmd_path(args) -> str:
    cop = _build_copula(args)
    solution = solve_path(cop, _u_grid(args))
    if args.format == "json":
        return dumps_json(solution.to_json_dict())
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
    cops = [copula_from_config(Path(p).read_text()) for p in args.config]
    report = compare(cops[0], cops[1], _u_grid(args))
    out = {"copula_1": cops[0].params(), "copula_2": cops[1].params()}
    out.update(report.to_json_dict())
    return dumps_json(out)


def _cmd_risk(args) -> str:
    cop = _build_copula(args)
    marginal = ParetoII(args.mu, args.sigma, args.tail_index)
    report = risk_measures(cop, marginal, args.q, args.n, args.seed)
    out = {"copula": cop.params(), "marginal": asdict(marginal)}
    out.update(report.to_json_dict())
    return dumps_json(out)


def _cmd_table1(args) -> str:
    table = reference_table(seed=args.seed, n=args.n)
    if args.format == "json":
        return dumps_json(table.to_json_dict())
    return table.to_csv()


def _cmd_contour(args) -> str:
    cop = _build_copula(args)
    g = np.linspace(0.0, 1.0, _check_int(args.resolution, "resolution", 2))
    uu, vv = np.meshgrid(g, g, indexing="ij")
    cc = np.asarray(cop.cdf(uu, vv))

    solution = solve_path(cop, _u_grid(args))
    out = Path(args.out)
    path_file = out.with_name(out.stem + "_path" + (out.suffix or ".csv"))
    path_file.write_text(solution.to_csv())
    return dumps_csv(("u", "v", "C"), zip(
        uu.ravel().tolist(), vv.ravel().tolist(), cc.ravel().tolist()))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _emit(args.handler(args), args.out)
    except (TailDepError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))
    return 0


if __name__ == "__main__":
    sys.exit(main())
