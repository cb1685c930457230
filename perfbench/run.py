"""Benchmark of calderon: three seeded workloads, end-to-end metrics, and a
traced run for per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload single_mode --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics measured with tracing off;
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Full
results with the environment fingerprint, and the spans of a traced run,
are written under ``perfbench/out/``.  See ``perfbench/README.md``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("single_mode", "sweep_large", "cli_pipelines")
SETUP_PROBES = 4  # fresh-process set-ups besides this process's own
SETUP_CHUNKS = 300  # host probe chunks that time the host after a set-up
MAX_PASSES = 200
LOOP_GUARD_S = 110.0  # keeps a run, stage replays included, well inside 180 s

# one BLAS thread, fixed before numpy loads; recorded in the fingerprint
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# This process and its children run on one CPU, so that the host probe
# times the CPU the measured work runs on: a fresh CLI process left free
# lands on the other CPU, whose neighbours are not the probe's.
NPROC = len(os.sched_getaffinity(0))
CPU = max(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})

import harness  # noqa: E402


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "toy"), default="full",
                    help="toy sizes run every call of a pass in a second or so")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit (used for setup_s samples)")
    return ap.parse_args(argv)


def _import_calderon():
    src = ROOT / "src"
    if not (src / "calderon" / "__init__.py").is_file():
        raise SystemExit(f"calderon sources not found under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import calderon

    if not Path(calderon.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported calderon from {calderon.__file__}, not from {src}")


def _setup_samples(args):
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--scale", args.scale, "--setup-only"],
            stdout=subprocess.PIPE, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _per_layer(names, tracer, traced_ids, direct, pass_times):
    busy, calls, selfs = tracer.busy(), tracer.calls(), tracer.self_times()
    counters = tracer.counters
    med = harness.median

    def layered(table, name):
        """Median over traced passes where the pass makes the call; else
        the value from the stage replays."""
        vals = [table.get(pid, {}).get(name) for pid in traced_ids]
        if any(v is not None for v in vals):
            return med([v or 0 for v in vals])
        return table.get(harness.STAGES, {}).get(name, 0)

    def ratio(num, den):
        den = layered(counters, den)
        return layered(counters, num) / den if den else 0.0

    special = {
        "contour.contour_quadrature.useful_ratio": lambda: ratio(
            "contour.contour_quadrature.final_nodes", "contour.contour_quadrature.nodes"),
        "grassmann.retained_ratio": lambda: ratio("grassmann.modes_retained", "grassmann.lattice_modes"),
        "trace.overhead_s": lambda: med(pass_times[True]) - med(pass_times[False]),
        "trace.spans": lambda: med([sum(calls.get(pid, {}).values()) for pid in traced_ids]),
    }
    out = {}
    for name in names:
        if name in direct:
            out[name] = direct[name]
        elif name in special:
            out[name] = special[name]()
        elif name.endswith(".busy_s"):
            out[name] = layered(busy, name[: -len(".busy_s")])
        elif name.endswith(".calls"):
            out[name] = layered(calls, name[: -len(".calls")])
        elif name.endswith(".self_s"):
            layer = name[: -len(".self_s")]
            out[name] = med([selfs.get(pid, {}).get(layer, 0.0) for pid in traced_ids])
        else:
            out[name] = layered(counters, name)
    return out


def main(argv=None):
    args = _parse(argv)
    # on SIGTERM, unwind: subprocess.run kills and reaps its child, and the
    # work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    _import_calderon()
    module = importlib.import_module(args.workload)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        probe = harness.HostProbe()
        wl = module.Workload(args.seed, args.scale, workdir)
        first = wl.inputs(0)
        wl.warmup()
        setup = time.perf_counter() - T_START
        probe.sample(SETUP_CHUNKS)
        setup /= probe.take_factor()
        if args.setup_only:
            print(json.dumps({"setup_s": setup}))
            return 0
        return _measure(args, wl, first, setup, probe, out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, wl, first, setup, probe, out_dir):
    tracer = harness.Tracer() if args.trace else None
    null = harness.NullTracer()
    checks = harness.Checks()
    # the traced run reports raw busy times; only untraced runs normalize
    steps = harness.Steps(None if args.trace else probe, *wl.probe)
    pass_times = {False: [], True: []}  # traced? -> pass wall times
    traced_ids, last_traced = [], None
    i = 0
    t_loop = time.perf_counter()
    while True:
        traced = bool(args.trace) and i % 2 == 1
        inp = first if i == 0 else wl.inputs(i)
        tr = tracer if traced else null
        if traced:
            tracer.pass_id = f"pass{i}"
            traced_ids.append(tracer.pass_id)
            last_traced = inp
        steps.new_pass()
        t0 = time.perf_counter()
        with tr.span("bench.pass"):
            wl.run_pass(inp, tr, checks, steps)
        pass_times[traced].append(time.perf_counter() - t0)
        steps.end_pass()
        i += 1
        done = i >= max(wl.min_passes, 2 if args.trace else 1)
        if done and time.perf_counter() - t_loop >= args.seconds:
            break
        if i >= MAX_PASSES or time.perf_counter() - T_START > LOOP_GUARD_S:
            break
    peak = harness.peak_rss_mb(wl.children_rss)

    if args.trace:
        tracer.pass_id = harness.STAGES
        with tracer.span("bench.stages"):
            direct = wl.stages(last_traced, tracer, checks)
        units = harness.metric_units(ROOT)["per_layer"]
        metrics = _per_layer(units, tracer, traced_ids, direct, pass_times)
        tracer.dump(out_dir / f"{args.workload}-seed{args.seed}-spans.json")
        samples = {"untraced_pass_s": pass_times[False], "traced_pass_s": pass_times[True],
                   "absent_stages": tracer.absent}
    else:
        solve = steps.solve_s()
        setups = [setup] + _setup_samples(args)
        metrics = {
            "setup_s": harness.median(setups),
            "solve_s": solve,
            "modes_per_s": harness.median(steps.modes) / solve,
            "mode_us_p50": steps.latency_p50() * 1e6,
            "peak_rss_mb": peak,
        }
        units = harness.metric_units(ROOT)["end_to_end"]
        samples = {"passes": len(steps.work), "pass_s": pass_times[False],
                   "median_pass_s": harness.median(pass_times[False]),
                   "normalized_work_s": steps.work, "host_factor": steps.factors,
                   "setup_s": setups}
        if len(steps.times) <= 20:
            samples["step_s"] = {str(k): v for k, v in steps.times.items()}

    env = harness.fingerprint(ROOT, NPROC, CPU)
    payload = harness.emit(metrics, units)
    print(f"# fingerprint {json.dumps(env, sort_keys=True)}")
    print(f"# {args.workload} seed {args.seed} trace {args.trace} scale {args.scale}: "
          f"samples {json.dumps(samples)}")
    for name, item in payload.items():
        print(f"#   {name:42s} {item['value']:.6g} {item['unit']}")
    fail_ratio = checks.failed / checks.attempted if checks.attempted else 1.0
    print(f"# checks: {checks.attempted} attempted, {checks.failed} failed, fail_ratio {fail_ratio:.3g}")
    for failure in checks.failures:
        print(f"#   FAILED {failure}")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "scale": args.scale,
        "fingerprint": env, "metrics": payload, "samples": samples,
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "fail_ratio": fail_ratio, "failures": checks.failures},
    }
    result_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": checks.attempted > 0 and checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": payload,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
