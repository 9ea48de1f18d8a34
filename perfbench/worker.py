"""Fresh interpreter that runs one workload's set-up and, unless probing, its passes.

    python3 perfbench/worker.py --workload W --seed N [--passes P] [--probe]
                                [--trace-file PATH]

The worker imports taildep, generates the seeded inputs, runs one untimed
warm-up item of each kind and prints ``READY``; the parent takes the time
from its spawn to that line as one set-up sample.  ``--probe`` exits there.
Otherwise the worker times ``--passes`` passes over the mix and prints one
JSON document: item times, distinct outputs, its peak RSS and versions.
``--trace-file`` records spans around every layer call, writes them to
that file and adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


class Tracer:
    """In-memory spans: name, start, end, parent and the request they serve."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.request = None

    def span(self, name: str):
        return _Span(self, name)


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.rec = {"id": len(t.spans), "name": self.name, "request": t.request,
                    "parent": t._stack[-1] if t._stack else None,
                    "start": time.perf_counter(), "end": None}
        t.spans.append(self.rec)
        t._stack.append(self.rec["id"])
        return self

    def __exit__(self, *exc):
        self.rec["end"] = time.perf_counter()
        self.tracer._stack.pop()
        return False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args(argv)

    import numpy as np

    import taildep
    import workloads as W

    tracer = Tracer() if args.trace_file else None
    span = tracer.span if tracer else (lambda name: W.NO_SPAN)
    items = W.make_items(args.workload, args.seed)
    calls = [W.bind(it, span) for it in items]
    for it in W.warmup_items(args.workload):
        W.bind(it)()
    print("READY", flush=True)
    if args.probe:
        return 0

    times = []
    outputs: dict[str, list[str]] = {it["id"]: [] for it in items}
    which = []  # per pass, per item: index into outputs[id]
    for p in range(args.passes):
        pass_times, pass_which = [], []
        for it, call in zip(items, calls):
            if tracer:
                tracer.request = f"{p}:{it['id']}"
                with tracer.span("item"):
                    t0 = time.perf_counter()
                    raw = call()
                    dt = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                raw = call()
                dt = time.perf_counter() - t0
            pass_times.append(dt)
            text = json.dumps(W.record(it, raw), sort_keys=True)
            seen = outputs[it["id"]]
            if text not in seen:
                seen.append(text)
            pass_which.append(seen.index(text))
        times.append(pass_times)
        which.append(pass_which)

    doc = {"times": times, "which": which,
           "outputs": {k: [json.loads(t) for t in v] for k, v in outputs.items()},
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                        "taildep": taildep.__version__, "taildep_file": taildep.__file__}}
    if tracer:
        import layers

        tracer.request = "layers"
        doc["layers"] = layers.measure(args.seed, tracer.span)
        with open(args.trace_file, "w") as fh:
            for rec in tracer.spans:
                fh.write(json.dumps(rec) + "\n")
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
