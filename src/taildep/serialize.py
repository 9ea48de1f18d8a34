"""Text emission for every CSV and JSON surface of the package.

Floats print as the ``repr`` of their double, the shortest text that parses
back to it, so emitted files are byte-reproducible and exact.  JSON comes
from the standard library, fed the dicts that the reports' ``to_json_dict``
build from their dataclass fields, in field order; NaN and infinity are not
JSON and are refused.  ``dumps_csv`` is the one CSV writer: every CSV
line is joined and every cell formatted there.
"""

import json

from taildep.errors import NumericError

__all__ = ["dumps_json", "dumps_csv"]


def dumps_json(obj) -> str:
    """``obj`` as JSON indented by 2; a NaN or infinity raises NumericError."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericError(f"cannot print as JSON: {exc}") from exc


def _csv_cell(x) -> str:
    if type(x) is float:  # most cells: skip the checks and the re-wrapping
        return repr(x)
    if isinstance(x, bool):  # before float(): a bool is an int
        return "true" if x else "false"
    # float(): numpy 2 reprs np.float64 as np.float64(...)
    return x if isinstance(x, str) else repr(float(x))


def dumps_csv(header, rows) -> str:
    """Header and rows as comma-joined lines, each ending in a newline:
    strings as given, booleans as true/false, other cells as floats."""
    lines = [",".join(header), *(",".join(map(_csv_cell, r)) for r in rows)]
    return "\n".join(lines) + "\n"
