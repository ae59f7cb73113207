"""The partialpi benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 24 --trace 0

Workloads (see ``workloads.py``): ``sweep-cold`` and ``check-pi``. A run
times whole passes of its workload until ``--seconds`` have gone by (at least
one pass) and checks every verdict against the reference in ``reference/``.

``--trace 0`` prints the end-to-end metrics: set-up seconds, seconds per
pass, verdict latency p50 and p90 (per request for check-pi; a sweep hands
over all its verdicts when its pass ends; p95 is printed too) and peak
resident memory.
``--trace 1`` runs one pass untraced and one traced, prints per-layer
metrics of the traced pass, and writes the full trace report and all spans
to ``out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
say the same for a reader, with the environment stamp. Python, numpy and the
sources under ``src/`` are all it needs.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import workloads
from tracer import KERNELS, LAYERS, Tracer

OUT_DIR = workloads.BENCH_DIR / "out"

# The per-layer functions whose calls and inclusive time are reported.
LAYER_FUNCTIONS = {
    "_kernels": KERNELS,
    "groups": ("group_from_generators", "subgroup_generated", "quotient",
               "is_isomorphic", "lift_subgroup"),
    "chiefs": ("normal_subgroups", "all_chief_series"),
    "structure": ("all_subgroups", "frattini", "hall", "is_quaternion_free",
                  "sylow"),
    "embedding": ("satisfies_partial_pi", "satisfies_partial_cap",
                  "pi_series_through", "is_complemented"),
    "modrep": ("section_as_module", "minimal_submodules", "is_irreducible",
               "is_homogeneous", "are_isomorphic_modules",
               "is_absolutely_irreducible"),
    "theorems": ("run_check", "check_theorem_A", "check_theorem_B",
                 "check_theorem_C", "check_lemma"),
}
# Seconds go in the result line only for layers that every workload
# enters, so that no time reads 0 on every run of a workload; the trace
# report in out/ has the inclusive seconds of every function above and the
# self seconds of every layer.
LAYER_TIMES = ("_kernels.self_s", "groups.self_s", "chiefs.normal_subgroups.s",
               "chiefs.self_s", "embedding.satisfies_partial_pi.s",
               "embedding.self_s")


def end_to_end_metrics(setup, walls, latencies, notes):
    """The end-to-end metrics; p95 goes to ``notes`` only.

    check-pi's p95 falls among its slowest group but one (elemab:3:4, 12 of
    468 requests), whose time swings more with the machine's speed than the
    rest: on a shared 2-vCPU host its IQR over 10 seeds was 0.16-0.31 of the
    median, too wide for any bound. p90 falls among 24 order-64 requests."""
    p50, p90, p95 = workloads.quantiles_ms(latencies)
    notes["latency_p95_ms"] = p95
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def measure(seconds, run_pass):
    """Call ``run_pass`` until ``seconds`` have gone by, at least once.

    Each pass returns (seconds, latencies, tally, *rest); returns the pass
    seconds, all latencies, the summed tally and each pass's rest."""
    walls, latencies, tally, rests = [], [], workloads.Tally(), []
    start = time.perf_counter()
    while True:
        wall, lat, t, *rest = run_pass()
        walls.append(wall)
        latencies.extend(lat)
        tally.add(t)
        rests.append(rest)
        if time.perf_counter() - start >= seconds:
            return walls, latencies, tally, rests


def _reference():
    return workloads.REFERENCE_REPORT.read_text(encoding="utf-8")


# -- untimed-set-up, timed-pass runs -------------------------------------------


def run_sweep_cold(seed, seconds):
    setup = workloads.setup_samples("sweep-cold", seed)
    ref_text = _reference()
    walls, latencies, tally, texts = measure(
        seconds, lambda: workloads.cold_pass(ref_text.splitlines()))
    # Records are checked one by one; a byte difference elsewhere, such as
    # in a header comment, is reported but is not a wrong verdict.
    notes = {"passes": len(walls), "latency_samples": len(latencies),
             "report_identical_to_reference":
                 all(text == ref_text for text, in texts)}
    return end_to_end_metrics(statistics.median(setup), walls, latencies,
                              notes), tally, notes


def run_check_pi(seed, seconds):
    setup = workloads.setup_samples("check-pi", seed)
    stream = workloads.build_inputs("check-pi", seed)
    oracle: dict = {}
    walls, latencies, tally, _ = measure(
        seconds, lambda: workloads.check_pi_pass(next(stream), oracle))
    notes = {"passes": len(walls), "latency_samples": len(latencies)}
    return end_to_end_metrics(statistics.median(setup), walls, latencies,
                              notes), tally, notes


# -- traced runs -----------------------------------------------------------------
# Each runs one pass of the workload untraced, then one traced, and returns
# the ratio of their seconds and the verdict tally.


def traced_sweep_cold(seed, seconds, tracer):
    ref_lines = _reference().splitlines()
    plain, _, tally, _ = workloads.cold_pass(ref_lines)
    tracer.install()
    tracer.active = True
    traced, _, t, _ = workloads.cold_pass(ref_lines, tracer)
    tracer.uninstall()
    tally.add(t)
    return traced / plain, tally


def traced_check_pi(seed, seconds, tracer):
    batch = next(workloads.build_inputs("check-pi", seed))
    oracle: dict = {}
    plain, _, tally = workloads.check_pi_pass(batch, oracle)
    tracer.install()
    tracer.active = True
    traced, _, t = workloads.check_pi_pass(batch, oracle, tracer)
    tracer.uninstall()
    tally.add(t)
    return traced / plain, tally


RUNS = {"sweep-cold": run_sweep_cold, "check-pi": run_check_pi}
TRACED_RUNS = {"sweep-cold": traced_sweep_cold, "check-pi": traced_check_pi}


def per_layer_metrics(report, overhead, tally):
    functions, layers, memo = (report["functions"], report["layers"],
                               report["memo"])
    out = {}
    for layer, names in LAYER_FUNCTIONS.items():
        for name in names:
            out[f"{layer}.{name}.calls"] = (
                functions[f"{layer}.{name}"]["calls"], "count")
    for layer in LAYERS:
        out[f"{layer}.raised"] = (layers[layer]["raised"], "count")
    for name, key, field in (
            ("structure.lattice_builds", "structure.lattice", "builds"),
            ("structure.lattice_element_sets", "structure.lattice",
             "element_sets"),
            ("chiefs.normal_subgroups_builds", "chiefs.normal_subgroups",
             "builds"),
            ("chiefs.normal_subgroups_element_sets",
             "chiefs.normal_subgroups", "element_sets")):
        out[name] = (memo[key][field], "count")
    for name in LAYER_TIMES:
        layer, _, rest = name.partition(".")
        value = (layers[layer]["self_s"] if rest == "self_s"
                 else functions[name[:-2]]["s"])
        out[name] = (value, "s")
    out["trace_overhead"] = (overhead, "ratio")
    out["verdicts.failed_ratio"] = (tally.failed / tally.attempted, "ratio")
    out["verdicts.indeterminate_ratio"] = (
        tally.indeterminate / tally.attempted, "ratio")
    # Metric names start with a letter, so ``_kernels`` reports as ``kernels``.
    return {key.lstrip("_"): value for key, value in out.items()}


# -- output ------------------------------------------------------------------------


def environment() -> dict:
    import numpy
    from partialpi import _kernels

    commit = "unknown"
    if (workloads.ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"kernel_backend": _kernels.BACKEND,
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "commit": commit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(RUNS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        workloads.use_checkout_sources()
        for path in (workloads.REFERENCE_REPORT, workloads.REQUEST_POOL):
            if not path.is_file():
                raise workloads.ProgramMissing(f"missing reference {path}")
    except workloads.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        tracer = Tracer()
        overhead, tally = TRACED_RUNS[args.workload](
            args.seed, args.seconds, tracer)
        report = tracer.report()
        metrics = per_layer_metrics(report, overhead, tally)
        notes = {"spans": report["spans"]}
    else:
        metrics, tally, notes = RUNS[args.workload](args.seed, args.seconds)
    env = environment()
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        report.update(workload=args.workload, seed=args.seed, env=env,
                      trace_overhead=overhead)
        trace_path = OUT_DIR / f"trace-{args.workload}.json"
        trace_path.write_text(json.dumps(report, indent=1) + "\n",
                              encoding="utf-8")
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}.json.gz")
        notes["trace_report"] = os.path.relpath(trace_path, workloads.ROOT)
        print_breakdown(report)

    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for key, value in notes.items():
        print(f"{key}: {value}")
    print(f"verdicts attempted {tally.attempted} failed {tally.failed} "
          f"indeterminate {tally.indeterminate} failed_ratio "
          f"{tally.failed / tally.attempted:.6g} indeterminate_ratio "
          f"{tally.indeterminate / tally.attempted:.6g}")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value!r} {unit}")
    failed = tally.failed + tally.indeterminate
    print(json.dumps({
        "correct": failed == 0, "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


def print_breakdown(report):
    """Per-function and per-layer seconds, and where the request time went."""
    print("traced pass: function calls and inclusive seconds:")
    for layer, names in LAYER_FUNCTIONS.items():
        for name in names:
            row = report["functions"][f"{layer}.{name}"]
            print(f"  {layer + '.' + name:36s} {row['calls']:10g} "
                  f"{row['s']:10.4f}")
    print("traced pass: layer self seconds:")
    for layer, row in report["layers"].items():
        print(f"  {layer:10s} {row['self_s']:10.4f}  raised {row['raised']:g}")
    for title, key in (("group", "per_group_s"),
                       ("check family", "per_family_s")):
        table = report[key]
        total = sum(table.values()) or 1.0
        print(f"traced pass: seconds per {title} (share):")
        for label, secs in sorted(table.items(), key=lambda kv: -kv[1])[:12]:
            print(f"  {label:28s} {secs:10.4f} ({secs / total:.1%})")


if __name__ == "__main__":
    sys.exit(main())
