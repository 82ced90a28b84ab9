"""Forward/backward pass benchmark of the symvo pipeline.

    python3 vobench/run.py --workload orbit --seed 7 --seconds 30 --trace 0

Run from the repository root.  It generates the workload's scene from
``--seed``, then runs every pass of the workload (each config forward and
backward) again and again until ``--seconds`` are used, timing each
``Pipeline.process_frame`` call.  With ``--trace 1`` it first runs untraced
for half the time, then one traced repetition, and reports per-module
metrics, the tracing overhead and whether the digests agree.

Every line but the last is a human-readable report; the last is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``, where
the metrics are those BENCHMARK.json lists for the trace mode.  Details,
host facts and spans go to ``.vobench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".vobench_out")
# Environment every run executes under, whatever the caller set: one BLAS
# thread, and glibc's mmap threshold pinned at the 32 MiB ceiling of its
# adaptive range.  Left to adapt, it makes the peak RSS of equal work
# differ by up to 40 MB between scenes, with the allocation history.
FIXED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MALLOC_MMAP_THRESHOLD_": str(32 << 20)}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import symvo from this checkout's sources and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "symvo", "__init__.py")):
        raise SystemExit(f"vobench: no symvo sources under {src}")
    sys.path.insert(0, src)
    import symvo
    if not os.path.abspath(symvo.__file__).startswith(src + os.sep):
        raise SystemExit(f"vobench: symvo imported from {symvo.__file__}")
    return src


def source_digest(src) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(src, "symvo")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()[:16]


def host_facts() -> dict:
    import platform

    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var) for var in FIXED_ENV},
    }


def check_against_earlier_runs(key: str, digests: dict) -> list:
    """Digests of this workload, seed and source from earlier runs must match."""
    path = os.path.join(OUT_DIR, "digests.json")
    try:
        with open(path) as f:
            known = json.load(f)
    except (OSError, ValueError):
        known = {}
    if key in known:
        return [f"{k}: digest {v} differs from an earlier run's {known[key].get(k)}"
                for k, v in digests.items() if known[key].get(k) != v]
    known[key] = digests
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return []


def fmt(value) -> str:
    if value is None:
        return "undefined"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def report_passes(units):
    for p in units[0]:
        e_r = fmt(p.e_r) if p.e_r_error is None else f"unevaluable ({p.e_r_error})"
        line = (f"pass {p.key():34s} {p.health:14s} poses {p.n_poses}/{p.n_frames} "
                f"init_frame {p.init_frame} e_r {e_r} ate {fmt(p.ate)} "
                f"digest {(p.digest or '-')[:16]}")
        if p.error:
            line += f" error {p.error}"
        print(line)


def main(argv=None) -> int:
    args = parse_args(argv)
    if any(os.environ.get(k) != v for k, v in FIXED_ENV.items()):
        # numpy and the allocator read these at start-up: start again
        os.environ.update(FIXED_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    src = import_program()

    import harness
    import spans
    from workloads import HELD_OUT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"vobench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        listed = json.load(f)["per_layer" if args.trace else "end_to_end"]
    os.makedirs(OUT_DIR, exist_ok=True)
    host = host_facts()
    if args.trace:
        spans.self_test()

    samples = harness.Samples(workload, args.seed)
    units = harness.run_units(workload, args.seed,
                              args.seconds / 2 if args.trace else args.seconds,
                              samples)
    e2e, n_timed = harness.end_to_end(units, samples)

    problems = []
    first = harness.digests(units[0])
    for i, unit in enumerate(units[1:], start=2):
        if harness.digests(unit) != first:
            problems.append(f"repetition {i} gave other digests than the first")
    problems += check_against_earlier_runs(
        f"{workload!r} seed={args.seed} source={source_digest(src)}", first)
    passes = [p for unit in units for p in unit]
    layer = {}
    if args.trace:
        tunit, layer, traced_problems = harness.traced_unit(
            workload, args.seed, first,
            os.path.join(OUT_DIR, f"spans-{workload.name}-seed{args.seed}.csv"))
        problems += traced_problems
        t_frames = [ns for p in tunit for ns in p.frame_ns]
        layer["trace.overhead_s_per_frame"] = (
            sum(t_frames) / len(t_frames) / 1e9 - e2e["wall_s_per_frame"][0], "s")
        passes += tunit
    for p in passes:
        problems += [f"{p.key()}: {msg}" for msg in p.problems]

    print(f"vobench workload={workload.name} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g} units={len(units)} "
          f"frames_timed={n_timed} held_out_seed={HELD_OUT_SEED}")
    print("host " + json.dumps(host, sort_keys=True))
    report_passes(units)
    for name, (value, unit_name) in e2e.items():
        extra = {"frame_ms_p50": f" (median of {n_timed} frames)",
                 "setup_s": f" (median of {len(samples.setup_s)} set-ups)"}.get(name, "")
        print(f"metric {name} = {fmt(value)} {unit_name}{extra}")
    for name, (value, unit_name) in layer.items():
        print(f"layer {name} = {fmt(value)} {unit_name}")
    for msg in problems:
        print(f"CHECK FAILED {msg}")

    chosen = layer if args.trace else e2e
    metrics = {}
    for m in listed:
        value, unit_name = chosen[m["name"]]
        if value is None:
            raise SystemExit(f"vobench: metric {m['name']} is undefined")
        metrics[m["name"]] = {"value": value, "unit": unit_name}

    result = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "host": host, "units": len(units),
        "end_to_end": {k: v[0] for k, v in e2e.items()},
        "per_layer": {k: v[0] for k, v in layer.items()},
        "digests": first, "problems": problems,
        "passes": [dataclasses.asdict(p) for p in units[0]],
    }
    name = f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as f:
        json.dump(result, f, indent=1)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(passes),
        "failed": sum(p.health != "ok" for p in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
