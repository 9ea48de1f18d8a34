#!/usr/bin/env bash
# Smoke checks of the command-line interface.
#
# Usage: ci/smoke.sh <command prefix>
#   ci/smoke.sh taildep                                  # installed console script
#   PYTHONPATH=src ci/smoke.sh python -m taildep.cli     # source checkout, offline
#
# Exits nonzero on the first failing check; files go to a temporary directory.
set -euo pipefail
if [ "$#" -eq 0 ]; then
    echo "usage: $0 <command prefix, e.g. taildep or python -m taildep.cli>" >&2
    exit 2
fi
td=("$@")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== every command prints strict JSON"
"${td[@]}" eval --family marshall_olkin --a 0.3529 --b 0.75 --u 0.1 --v 0.2 | python -m json.tool > /dev/null
"${td[@]}" table1 --n 20000 --format json | python -m json.tool > /dev/null
"${td[@]}" risk --family mixture_mo --a 0.3 --b 0.7 --n 20000 | python -m json.tool > /dev/null

echo "== table1 CSV: 6 rows in (q, b) order, closed-form indices, ordered risks, the JSON rows"
"${td[@]}" table1 --n 20000 --format csv > "$tmp/t1.csv"
"${td[@]}" table1 --n 20000 --format json > "$tmp/t1.json"
python - "$tmp/t1.csv" "$tmp/t1.json" <<'PY'
import csv, json, math, sys
header, *rows = csv.reader(open(sys.argv[1], newline=""))
assert header == ["q", "b", "tau", "kappa_L", "kappa_L_star", "VaR", "CTE", "MTVar"], header
rows = [[float(cell) for cell in row] for row in rows]
assert [row[:2] for row in rows] == [[q, b] for q in (0.99, 0.995)
                                     for b in (0.75, 0.5, 0.3529)], rows
a = 0.3529
for q, b, tau, kappa, kappa_star, var, cte, mtvar in rows:
    assert math.isclose(kappa, 2 - min(a, b), rel_tol=0, abs_tol=1e-12), (b, kappa)
    assert math.isclose(kappa_star, 2 - 2 * a * b / (a + b),
                        rel_tol=0, abs_tol=1e-12), (b, kappa_star)
    assert var <= cte <= mtvar, (q, b)
table = json.load(open(sys.argv[2]))
assert rows == [[row[c] for c in header] for row in table["rows"]], "CSV != JSON rows"
PY

echo "== report keys print in the documented order; a missing --config file exits 1"
"${td[@]}" indices --family marshall_olkin --a 0.3529 --b 0.75 > "$tmp/keys.json"
"${td[@]}" path --family mixture_mo --a 0.3 --b 0.7 --format json > "$tmp/keys_path.json"
python - "$tmp/keys.json" "$tmp/keys_path.json" <<'PY'
import json, sys
indices, path = (json.load(open(name)) for name in sys.argv[1:])
assert list(indices) == ["copula", "diagonal", "maximal"], list(indices)
for kind in ("diagonal", "maximal"):
    assert list(indices[kind]) == [
        "kappa", "lambda", "chi", "local_slopes", "residual", "path_kind",
        "lambda_degenerate"], (kind, list(indices[kind]))
assert list(path) == ["u_grid", "points"] and path["points"], list(path)
for point in path["points"]:
    assert list(point) == ["u", "maximizers", "log_maximizers", "pi_star",
                           "log_pi_star", "boundary_attained",
                           "all_paths_maximal"], list(point)
PY
code=0
"${td[@]}" eval --config "$tmp/missing.txt" --u 0.5 --v 0.5 > /dev/null 2>&1 || code=$?
test "$code" -eq 1

echo "== a negative tol is a parameter error (exit 2)"
code=0
"${td[@]}" axioms --family independence --tol=-1 > /dev/null 2>&1 || code=$?
test "$code" -eq 2

echo "== a level below 1e-323 is a parameter error that names min_exponent (exit 2)"
code=0
"${td[@]}" path --family independence --umin-exp 400 > /dev/null 2> "$tmp/err" || code=$?
test "$code" -eq 2
grep -q min_exponent "$tmp/err"

echo "== deep levels print their logs, and null where the value is below the doubles"
"${td[@]}" path --family marshall_olkin --a 0.3529 --b 0.75 --umin-exp 300 --umax-exp 299 --format json > "$tmp/deep.json"
"${td[@]}" eval --family marshall_olkin --a 0.3 --b 0.7 --u 1e-200 --v 1e-200 > "$tmp/deep_eval.json"
python - "$tmp/deep.json" "$tmp/deep_eval.json" <<'PY'
import json, math, sys
path, point = (json.load(open(name)) for name in sys.argv[1:])
assert len(path["points"]) == 2, path
for p in path["points"]:
    assert p["pi_star"] is None and math.isfinite(p["log_pi_star"]), p
assert point["value"] is None, point
assert abs(point["log_value"] - -782.8789316179755) <= 1e-12 * 782.8789316179755, point
PY

echo "== contour files read back: one cell per column, floats round-trip"
"${td[@]}" contour --family mixture_mo --a 0.3 --b 0.7 --resolution 11 --out "$tmp/c.csv"
python - "$tmp/c.csv" "$tmp/c_path.csv" <<'PY'
import csv, sys
for name in sys.argv[1:]:
    header, *rows = csv.reader(open(name, newline=""))
    assert rows, name
    for row in rows:
        assert len(row) == len(header), (name, row)
        for cell in row:
            if cell not in ("", "true", "false"):
                assert repr(float(cell)) == cell, (name, cell)
PY

echo "== a near-equal mixture keeps both maximizers on every level"
"${td[@]}" path --family mixture_mo --a 0.5 --b 0.5001 --format csv > "$tmp/near.csv"
python - "$tmp/near.csv" <<'PY'
import csv, sys
header, *rows = csv.reader(open(sys.argv[1], newline=""))
col = header.index("x_star_2")
assert rows and all(row[col] for row in rows), "a level lost its second maximizer"
PY

echo "== mixture maximizers are u^(2b/(a+b)) and u^(2a/(a+b)) on every level"
"${td[@]}" path --family mixture_mo --a 0.3 --b 0.7 --format csv > "$tmp/mix.csv"
python - "$tmp/mix.csv" <<'PY'
import csv, math, sys
header, *rows = csv.reader(open(sys.argv[1], newline=""))
assert rows and header[1:3] == ["x_star_1", "x_star_2"], header
for row in rows:
    u = float(row[0])
    for cell, power in zip(row[1:3], (2 * 0.7, 2 * 0.3)):  # over a + b = 1
        assert math.isclose(float(cell), u ** power, rel_tol=1e-9), row
PY

echo "== the diagonal route: the one maximizer is u itself, unflagged, on every level"
for spec in "clayton --theta 2" "fgm --alpha 0.5" "frechet_upper" \
        "generalized_clayton --gamma0 0.5 --gamma1 0" \
        "marshall_olkin --a 0.4 --b 0.4 --survival" "frechet_upper --survival" \
        "mixture_mo --a 0.4 --b 0.4 --survival"; do
    # shellcheck disable=SC2086  # spec is a word list
    "${td[@]}" path --family $spec --umin-exp 12 --format csv > "$tmp/diag.csv"
    python - "$tmp/diag.csv" <<'PY'
import csv, sys
header, *rows = csv.reader(open(sys.argv[1], newline=""))
assert len(rows) == 12 and header[:2] == ["u", "x_star_1"], header
assert "x_star_2" not in header, header
flags = [header.index("boundary_attained"), header.index("all_paths_maximal")]
for row in rows:
    assert row[1] == row[0] and all(row[k] == "false" for k in flags), row
PY
done

echo "== the exact survival kernel: one maximizer and no flag on every level down to 1e-18"
"${td[@]}" path --family marshall_olkin --a 0.3529 --b 0.75 --survival --umin-exp 18 --format csv > "$tmp/surv.csv"
python - "$tmp/surv.csv" <<'PY'
import csv, sys
header, *rows = csv.reader(open(sys.argv[1], newline=""))
assert len(rows) == 18 and header[1] == "x_star_1", header
assert "x_star_2" not in header, header
flags = [header.index("boundary_attained"), header.index("all_paths_maximal")]
for row in rows:
    assert float(row[1]) > 0.0 and all(row[k] == "false" for k in flags), row
PY

echo "== the scanned survival mixture: both kinks b P(x) = a Q(y) and a P(x) = b Q(y), x y = u^2, on every level"
# --umin-exp, --per-decade and the number of levels of each run
for run in 5:1:5 12:2:23; do
    IFS=: read -r umin per levels <<< "$run"
    "${td[@]}" path --family mixture_mo --a 0.3 --b 0.7 --survival \
        --umin-exp "$umin" --per-decade "$per" --format csv > "$tmp/smix.csv"
    python - "$tmp/smix.csv" "$levels" <<'PY'
import csv, math, sys
a, b = 0.3, 0.7
header, *rows = csv.reader(open(sys.argv[1], newline=""))
assert len(rows) == int(sys.argv[2]), len(rows)
assert header[1:3] == ["x_star_1", "x_star_2"], header
assert "x_star_3" not in header, header
flags = [header.index("boundary_attained"), header.index("all_paths_maximal")]
for row in rows:
    u, x1, x2 = (float(cell) for cell in row[:3])
    assert all(row[k] == "false" for k in flags), row
    assert math.isclose(x1 * x2, u * u, rel_tol=1e-12), row
    for x in (x1, x2):
        p, q = -math.log1p(-x), -math.log1p(-u * u / x)  # P(x), Q(u^2/x)
        assert (math.isclose(b * p, a * q, rel_tol=1e-9)
                or math.isclose(a * p, b * q, rel_tol=1e-9)), (row, x)
PY
done

echo "== survival cdf is the exp of the exact kernel where the linear sum cancels"
"${td[@]}" eval --family mixture_mo --a 0.3 --b 0.7 --survival --u 1e-12 --v 0.5 > "$tmp/eval.json"
python - "$tmp/eval.json" <<'PY'
import json, math, sys
value = json.load(open(sys.argv[1]))["value"]
assert math.isclose(value, 7.5e-13, rel_tol=1e-12), value
PY

echo "== below the survival sum's cancellation floor indices exit 3 with no negative lambda"
code=0
"${td[@]}" indices --family clayton --theta 2 --survival --umin-exp 8 > "$tmp/ind.out" 2>&1 || code=$?
test "$code" -eq 3
if grep -q '"lambda": -' "$tmp/ind.out"; then exit 1; fi

echo "== selection flags: a flat peak family and a boundary-attained half scan"
"${td[@]}" path --family marshall_olkin --a 0.6 --b 0 --format csv > "$tmp/flat.csv"
"${td[@]}" path --family fgm --alpha -0.5 --format csv > "$tmp/ends.csv"
python - "$tmp/flat.csv" all_paths_maximal "$tmp/ends.csv" boundary_attained <<'PY'
import csv, sys
for name, flag in zip(sys.argv[1::2], sys.argv[2::2]):
    header, *rows = csv.reader(open(name, newline=""))
    col = header.index(flag)
    assert rows and all(row[col] == "true" for row in rows), (name, flag)
PY

echo "== risk output is the same pinned to one CPU and unpinned"
# the two --survival runs take the reflected-corner routes of the corner test
for args in "risk --family mixture_mo --a 0.3 --b 0.7 --n 200000" "table1 --n 200000" \
        "risk --family marshall_olkin --a 0.3529 --b 0.5 --survival --n 200000" \
        "risk --family mixture_mo --a 0.3 --b 0.7 --survival --q 0.995 --n 200000"; do
    # shellcheck disable=SC2086  # args is a word list
    taskset -c 0 "${td[@]}" $args > "$tmp/pinned.out"
    "${td[@]}" $args > "$tmp/unpinned.out"
    diff "$tmp/pinned.out" "$tmp/unpinned.out"
done
echo "== all smoke checks passed"
