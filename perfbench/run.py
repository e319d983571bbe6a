"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload fleet-kv --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``fleet-kv`` — 32 stock kv tenants on the inline fleet scheduler with
  one shared page store; four tenants are attacked at seeded epochs.
* ``canary-heavy`` — one 64 MiB guest with ~24k live canaries and a
  small dirty set per epoch, canary + malware scan modules, no store.
* ``evidence-service`` — the case service in its own process over a
  pre-loaded vault: one-second cycles of an open-loop ingest block,
  then a closed-loop analyst query block over the vault as it stands.

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` wraps each layer's public functions and reports the
per-layer metrics instead; spans are written to ``perfbench/out/``.

Standard output: a ``detail`` JSON line (host fingerprint, every named
metric of the workload with percentile and sample counts, checks,
layer breakdown), then, last, the result object:
``{"correct", "attempted", "failed", "metrics"}``. The metric names
and units are the ones ``BENCHMARK.json`` declares; a layer a workload
does not exercise reports 0 for its per-layer metrics.

The program is imported from ``src/`` of the checkout this file sits
in; no build step is needed. Exit status is 0 only when every
correctness check passed.
"""

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("fleet-kv", "canary-heavy", "evidence-service")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program source at %s" % SRC, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    os.makedirs(OUT, exist_ok=True)

    from common import host_fingerprint, metric
    from epoch import CheckFailed

    trace_path = os.path.join(OUT, "trace-%s-seed%d.jsonl"
                              % (args.workload, args.seed))
    host_before = host_fingerprint()
    started = time.perf_counter()
    try:
        if args.workload == "evidence-service":
            from evidence import run_evidence_service
            result = run_evidence_service(args.seed, args.seconds,
                                          bool(args.trace), trace_path, OUT)
        else:
            from epoch import run_epoch_workload
            result = run_epoch_workload(args.workload, args.seed,
                                        args.seconds, bool(args.trace),
                                        trace_path)
        correct, failure = True, None
    except CheckFailed as err:
        correct, failure, result = False, str(err), None

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "host": host_before,
        "loadavg_after": list(os.getloadavg()),
        "correct": correct,
        "failure": failure,
    }
    if result is None:
        print(json.dumps(detail, sort_keys=True))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    detail["named"] = result["named"]
    detail.update(result["detail"])
    if args.trace:
        measured = result["per_layer"]
        metrics = {entry["name"]: measured.get(entry["name"],
                                               metric(0.0, entry["unit"]))
                   for entry in declared["per_layer"]}
    else:
        metrics = result["end_to_end"]
    kind = "per_layer" if args.trace else "end_to_end"
    expected = {entry["name"]: entry["unit"] for entry in declared[kind]}
    produced = {name: entry["unit"] for name, entry in metrics.items()}
    if produced != expected:
        print("perfbench: measured %s metrics %r do not match BENCHMARK.json"
              " %r" % (kind, produced, expected), file=sys.stderr)
        return 3
    detail["metrics"] = metrics
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
