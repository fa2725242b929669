"""jetspace benchmark: cold CLI runs, checked against oracles.

    python3 perfbench/run.py --workload corpus|ladder|verdicts|all \
        --seed N --seconds S --trace 0|1

Each input runs in its own fresh interpreter (perfbench/child.py), one at
a time, at the default --jobs 1, so the program's process-wide caches
start cold as they do for a command-line user.  Passes over the
workload's inputs repeat until --seconds have gone by; a pass's order is
shuffled by the seed.

--trace 0 reports the end-to-end metrics, measured with tracing off:
  setup_s           median time from spawning a child to jetspace imported
  pass_s            median over passes of the summed in-child main() times
  input_geomean_ms  geometric mean over inputs of each input's median time
  peak_rss_mb       median over passes of the largest child ru_maxrss
--trace 1 alternates untraced and traced passes and reports per-layer
metrics (see tracer.py) and the tracing overhead, the median over pairs
of a traced pass's time minus the untraced pass's; span files go to
.bench_out/trace/.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  An input fails on a wrong answer per its
oracle, an unexpected exit code, a traceback, or the wall limit; failed
inputs are counted, and the run is `correct` when every failure is a
known defect listed in workloads.KNOWN_DEFECTS.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

from workloads import KNOWN_DEFECTS, WORKLOADS  # noqa: E402

# per-input wall limit, seconds; a child over it is killed and fails
WALL_LIMIT = {"corpus": 10.0, "ladder": 30.0, "verdicts": 20.0}
# no child starts after this many seconds of a run, so a run always ends
# well inside three minutes even when every input hits its limit
RUN_DEADLINE = 140.0
# fresh-interpreter set-up samples taken at the start of every run, in
# addition to the set-up of every input's child
SETUP_PROBES = 8

# metric names and units come from the benchmark's contract file
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _CONTRACT = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in _CONTRACT["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _CONTRACT["per_layer"]}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spawn(spec, limit):
    """Run one child; returns (parsed result or None, set-up seconds or
    None, failure reason or None)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("JETSPACE_")}
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD],
            input=json.dumps(spec),
            capture_output=True,
            text=True,
            timeout=limit,
            cwd=ROOT,
            env=env,
        )
    except subprocess.TimeoutExpired:
        return None, None, f"killed at the {limit:g} s wall limit"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, None, f"child exited {proc.returncode}: {tail[0]}"
    result = json.loads(lines[-1])
    return result, result["ready"] - started, None


class Sample:
    """One input run inside a pass."""

    def __init__(self, name, main_s, rss_mb, failure, counters=None):
        self.name = name
        self.main_s = main_s
        self.rss_mb = rss_mb
        self.failure = failure
        self.counters = counters


def write_inputs(workload, inputs, k):
    folder = os.path.join(OUT, "inputs", workload)
    os.makedirs(folder, exist_ok=True)
    paths = {}
    for inp in inputs:
        if inp.text:
            path = os.path.join(folder, f"{inp.name.split('/', 1)[1]}-pass{k}.jet")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(inp.text)
            paths[inp.name] = os.path.relpath(path, ROOT)
    return paths


def run_pass(workload, seed, k, traced, clock, setups):
    """Pass k over the workload's inputs, in a seed-shuffled order."""
    inputs = WORKLOADS[workload](seed, k)
    paths = write_inputs(workload, inputs, k)
    random.Random(f"{seed}-{k}").shuffle(inputs)
    limit = WALL_LIMIT[workload]
    trace_dir = os.path.join(OUT, "trace", workload)
    if traced:
        os.makedirs(trace_dir, exist_ok=True)
    samples = []
    for inp in inputs:
        argv = [paths.get(inp.name, a) if a == "{file}" else a for a in inp.argv]
        if time.monotonic() - clock > RUN_DEADLINE:
            result, failure = None, "not started: run deadline"
        else:
            spec = {"argv": argv, "label": inp.name}
            if traced:
                spec["trace"] = os.path.join(trace_dir, inp.name.split("/", 1)[1] + ".jsonl")
            result, setup, failure = spawn(spec, limit)
        if result is None:
            sample = Sample(inp.name, limit, 0.0, failure)
        else:
            if not traced:
                setups.append(setup)
            if result["error"]:
                failure = "traceback: " + result["error"].strip().splitlines()[-1]
            else:
                failure = inp.oracle(result["code"], result["stdout"])
            sample = Sample(inp.name, result["main_s"], result["maxrss_kb"] / 1024.0,
                            failure, result.get("counters"))
        samples.append(sample)
        if failure:
            known = " (known defect)" if KNOWN_DEFECTS.get(inp.name) == failure else ""
            log(f"  FAILED{known} {inp.name} [jetspace {' '.join(argv)}]: {failure}")
        if traced and result is not None:
            for kind, (label, secs) in sorted(result["costliest"].items()):
                log(f"  {inp.name}: costliest {kind} {label}: {secs:.4f} s "
                    f"of {result['main_s']:.4f} s")
    return samples


def pass_total(samples):
    return sum(s.main_s for s in samples)


def combine_counters(samples):
    """Per-layer metrics of one traced pass."""
    total = {}
    for s in samples:
        for key, value in (s.counters or {}).items():
            if key.endswith(".max"):
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    out = {}
    for name in PER_LAYER_UNITS:
        if name.endswith("_ratio"):
            den = total.get(name + "#den", 0)
            out[name] = total.get(name + "#num", 0) / den if den else 0.0
        else:
            out[name] = total.get(name, 0)
    return out


def run_workload(workload, seed, seconds, trace):
    clock = time.monotonic()

    # the first child compiles bytecode; it is not a sample
    _, _, failure = spawn({"probe": True}, 120.0)
    if failure:
        raise SystemExit(f"jetspace cannot be imported from {ROOT}/src: {failure}")
    setups = []
    for _ in range(SETUP_PROBES):
        _, setup, failure = spawn({"probe": True}, 60.0)
        if failure:
            raise SystemExit(f"set-up probe failed: {failure}")
        setups.append(setup)

    plain, traced = [], []
    while True:
        use_trace = bool(trace) and len(traced) < len(plain)
        # a traced pass reuses the inputs of the untraced pass before it
        k = len(traced) if use_trace else len(plain)
        samples = run_pass(workload, seed, k, use_trace, clock, setups)
        (traced if use_trace else plain).append(samples)
        elapsed = time.monotonic() - clock
        if elapsed >= seconds and (not trace or traced) or elapsed > RUN_DEADLINE:
            break

    every = [s for p in plain + traced for s in p]
    failures = [s for s in every if s.failure]
    unexpected = [s for s in failures if KNOWN_DEFECTS.get(s.name) != s.failure]

    pass_s = statistics.median(pass_total(p) for p in plain)
    if trace:
        layer = [combine_counters(p) for p in traced]
        metrics = {name: statistics.median(m[name] for m in layer) for name in PER_LAYER_UNITS}
        metrics["trace.pass_s"] = statistics.median(pass_total(p) for p in traced)
        metrics["trace.untraced_pass_s"] = pass_s
        # traced pass j reran the inputs of untraced pass j right after it;
        # pairing them keeps the machine's slow drift out of the difference
        metrics["trace.overhead_s"] = statistics.median(
            pass_total(t) - pass_total(p) for p, t in zip(plain, traced))
        units = PER_LAYER_UNITS
    else:
        per_input = {}
        for p in plain:
            for s in p:
                per_input.setdefault(s.name, []).append(s.main_s)
        logs = [math.log(statistics.median(v) * 1000.0) for v in per_input.values()]
        metrics = {
            "setup_s": statistics.median(setups),
            "pass_s": pass_s,
            "input_geomean_ms": math.exp(sum(logs) / len(logs)),
            "peak_rss_mb": statistics.median(max(s.rss_mb for s in p) for p in plain),
        }
        units = END_TO_END
    log(f"{workload}: untraced passes " + " ".join(f"{pass_total(p):.4f}" for p in plain)
        + " s")
    log(f"{workload}: {len(plain)} untraced + {len(traced)} traced passes over "
        f"{len(plain[0])} inputs, {len(setups)} set-up samples, {len(failures)} failed "
        f"of {len(every)}, {time.monotonic() - clock:.1f} s")
    return {
        "correct": not unexpected,
        "attempted": len(every),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "jetspace", "cli.py")):
        log(f"no jetspace sources under {ROOT}/src")
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        for key, m in results[name]["metrics"].items():
            log(f"  {name:9s} {key:45s} {m['value']:14.6f} {m['unit']}")
        log(f"  {name:9s} failed_frac {results[name]['failed']}/{results[name]['attempted']}")
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
