"""Benchmark command for taildep.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  One client, closed loop: the parent runs at most one child
process at a time and waits for each; the workload itself runs in a fresh
worker process (worker.py).

A run takes ``SETUP_SAMPLES`` fresh set-up samples (spawn of a new
interpreter to its first timed item), then a fixed number of passes over
the workload's seeded mix, derived from ``--seconds``.  Every output is
checked against reference values computed apart from the program.  The
last line of stdout is the result JSON; the line before it records the
run's provenance.  Raw outputs and traces go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench_out")

# Every process gets one BLAS/OpenMP thread: on a shared 2-core machine the
# pools only add scheduling noise to single-request work.
THREAD_PINS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_PINS)

WORKLOADS = ("tail_paths", "risk_mc")
# Nominal seconds of one pass on the reference machine.  The pass count is
# round(seconds / nominal), at least MIN_PASSES, so it depends on --seconds
# only: every run of a workload times the same items in the same order.
NOMINAL_PASS_S = {"tail_paths": 3.3, "risk_mc": 3.0}
MIN_PASSES = 3
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_PINS)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn_until_ready(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and the seconds until it printed READY."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py"), *args],
                            stdout=subprocess.PIPE, env=child_env(), text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker {args} did not get ready: {line!r}")
    return proc, elapsed


def setup_probe(workload: str, seed: int) -> float:
    proc, elapsed = spawn_until_ready(["--workload", workload, "--seed", str(seed), "--probe"])
    proc.communicate(timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return elapsed


def run_inprocess(workload: str, seed: int, passes: int, trace_file: str | None):
    """Set-up samples plus the measured worker's document."""
    # half the fresh starts before the measured worker and half after it,
    # so that a slow stretch of the machine does not cover all of them
    samples = [setup_probe(workload, seed) for _ in range(SETUP_SAMPLES // 2)]
    args = ["--workload", workload, "--seed", str(seed), "--passes", str(passes)]
    if trace_file:
        args += ["--trace-file", trace_file]
    proc, elapsed = spawn_until_ready(args)
    samples.append(elapsed)
    text, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    doc = json.loads(text.strip().splitlines()[-1])
    samples += [setup_probe(workload, seed) for _ in range(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)]

    # imported only now: a child's peak RSS counts the memory of the parent
    # it was forked from, so the parent stays small while children run
    import checks
    import workloads as W

    items = W.make_items(workload, seed)
    verdicts = {it["id"]: [checks.check(it, out) for out in doc["outputs"][it["id"]]]
                for it in items}
    results = []  # (item, seconds, problems) per execution
    for times, which in zip(doc["times"], doc["which"]):
        for it, t, k in zip(items, times, which):
            results.append((it, t, verdicts[it["id"]][k]))
    return {"setup": samples, "results": results, "items": items,
            "peak_rss_kb": doc["maxrss_kb"], "versions": doc["versions"],
            "layers": doc.get("layers")}


def run_child_timed(argv: list[str]) -> tuple[float, int, str, int]:
    """Run one CLI command; wall seconds, exit code, stdout and peak RSS (KB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "taildep.cli", *argv],
                            stdout=subprocess.PIPE, env=child_env())
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return elapsed, proc.returncode, out.decode(), usage.ru_maxrss


def cli_layers(seed: int) -> tuple[dict, list]:
    """cli.* per-layer metrics: import time and one fresh run of each command.

    Also returns the problems the checks find in those commands' outputs.
    """
    import clibatch
    import layers

    out, problems = {}, []
    imports = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import taildep.cli"], env=child_env(),
                       check=True, timeout=CHILD_TIMEOUT_S)
        imports.append(time.perf_counter() - t0)
    out["cli.import_s"] = min(imports)
    session = clibatch.make_session(seed)
    runs = [(it, run_child_timed(it["argv"])) for it in session]
    for it, (t, code, stdout, rss) in runs:
        cmd = it["kind"]
        out[f"cli.{cmd}_s"] = t
        if cmd in layers.CLI_RSS:
            out[f"cli.{cmd}_rss_mb"] = rss / 1024.0
        found = [f"exit code {code}"] if code else clibatch.check_cli(it, stdout)
        problems += [f"{it['id']}: {p}" for p in found[:1]]
    return out, problems


def self_times(spans: list[dict]) -> dict:
    """Seconds per span name, minus the time covered by child spans."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
    out: dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - child.get(s["id"], 0.0)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def provenance(workload, seed, seconds, trace, passes, res) -> dict:
    head = Path(".git/HEAD")
    sha = None
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: ") and Path(".git", ref[5:]).is_file():
            sha = Path(".git", ref[5:]).read_text().strip()
    digest = hashlib.sha256()
    for f in sorted(Path("src/taildep").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    import numpy

    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "passes": passes, "git_sha": sha, "source_sha256": digest.hexdigest(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "thread_pins": THREAD_PINS, "worker": res["versions"]}


def tail_fraction(k: int) -> float:
    """The highest percentile of k items that has ten items beyond it."""
    return (k - 10) / k


def harrell_davis(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of values.

    A mean of all order statistics weighted by a Beta(p(n+1), (1-p)(n+1))
    distribution, so neighbouring items share the weight that the plain
    order statistic puts on one of them.
    """
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    w = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(w @ x)


def summarize(res: dict) -> dict:
    """The end-to-end metrics of one run.

    Each item's time is its best over the passes.  On a shared host,
    stretches of 5-60 s run the same code up to 35% slower; the best of
    several tries spread over the run moves far less between runs than the
    median pass does.  Set-up is the median of its fresh starts.
    """
    best: dict[str, float] = {}
    for it, t, _ in res["results"]:
        best[it["id"]] = min(t, best.get(it["id"], t))
    times = sorted(best.values())
    return {
        "setup_s": {"value": statistics.median(res["setup"]), "unit": "s"},
        "items_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "item_p50_ms": {"value": 1e3 * statistics.median(times), "unit": "ms"},
        # the single order statistic there moved 20-26% between seeds: it
        # sits where item times climb steeply, so one item's parameters
        # decide it; the Harrell-Davis estimate of the same percentile
        # spreads its weight over the neighbouring items
        "item_tail_ms": {"value": 1e3 * harrell_davis(times, tail_fraction(len(times))),
                         "unit": "ms"},
        "peak_rss_mb": {"value": res["peak_rss_kb"] / 1024.0, "unit": "MB"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not Path("src/taildep/__init__.py").is_file():
        print("error: run from the root of a taildep checkout (src/taildep missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    OUT_DIR.mkdir(exist_ok=True)

    passes = max(MIN_PASSES, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    trace_file = str(OUT_DIR / f"trace-{tag}.jsonl") if args.trace else None
    # CLI children first, while this process is still small (see run_inprocess)
    cli_layer, cli_problems = cli_layers(args.seed) if args.trace else ({}, [])
    res = run_inprocess(args.workload, args.seed, passes, trace_file)

    failures = [(it, problems) for it, _, problems in res["results"] if problems]
    unexpected = [(it, pr) for it, pr in failures if not it.get("known_fault")]
    info = provenance(args.workload, args.seed, args.seconds, args.trace, passes, res)
    info["items_per_pass"] = len(res["items"])
    info["setup_samples_s"] = res["setup"]
    n = len(res["results"])
    k = len(res["items"])
    info["tail_percentile"] = round(100.0 * tail_fraction(k), 2)
    info["failures"] = sorted({(it["id"], it.get("known_fault") or "", pr[0])
                               for it, pr in failures})
    e2e = summarize(res)
    if args.trace:
        spans = [json.loads(line) for line in open(trace_file)]
        info["self_time_s"] = self_times(spans)
        info["traced_items_per_s"] = e2e["items_per_s"]["value"]
        info["cli_layer_problems"] = cli_problems
        layer = dict(res["layers"], **cli_layer)
        import layers

        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit, _ in layers.LAYER_METRICS}
    else:
        metrics = e2e
    with open(OUT_DIR / f"run-{tag}.json", "w") as fh:
        json.dump({"info": info, "metrics": metrics,
                   "item_seconds": [[it["id"], t] for it, t, _ in res["results"]]}, fh)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not unexpected, "attempted": n,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
