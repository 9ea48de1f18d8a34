"""Text emission for every CSV and JSON surface of the package.

Floats print as the ``repr`` of their double, the shortest text that parses
back to it, so emitted files are byte-reproducible and exact.  JSON comes
from the standard library, fed the dicts that the reports' ``to_json_dict``
build from their dataclass fields, in field order; NaN and infinity are not
JSON and are refused.  ``dumps_csv`` is the one CSV writer: every CSV
line is joined and every cell formatted there.

A value below the normal doubles whose log is exact is not printed as its
double: ``normal`` makes it None, which prints as JSON null and as an empty
CSV cell, and its log prints beside it.
"""

import json
import math
import sys

from taildep.errors import NumericError

__all__ = ["dumps_json", "dumps_csv", "normal"]


def normal(x: float, log_x: float) -> float | None:
    """x, or None where x is below the normal doubles although its log is
    finite: there x = exp(log x) has lost digits or become 0.0.  x = 0.0
    with log x = -inf is exact and stays, and so does a NaN."""
    return None if x < sys.float_info.min and log_x > -math.inf else x


def dumps_json(obj) -> str:
    """``obj`` as JSON indented by 2; a NaN or infinity raises NumericError."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericError(f"cannot print as JSON: {exc}") from exc


def _csv_cell(x) -> str:
    if type(x) is float:  # most cells: skip the checks and the re-wrapping
        return repr(x)
    if x is None:
        return ""
    if isinstance(x, bool):  # before float(): a bool is an int
        return "true" if x else "false"
    # float(): numpy 2 reprs np.float64 as np.float64(...)
    return repr(float(x))


def dumps_csv(header, rows) -> str:
    """Header and rows as comma-joined lines, each ending in a newline:
    None as an empty cell, booleans as true/false, other cells as floats."""
    lines = [",".join(header), *(",".join(map(_csv_cell, r)) for r in rows)]
    return "\n".join(lines) + "\n"
