"""padfl benchmark: one command, three round-loop workloads.

    python3 padbench/run.py --workload pa3dfl-train --seed 0 --seconds 30 --trace 0

Run from the root of a padfl checkout; the program is imported from its
``src/``. Prints a report, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exits 1 when the output check fails and 2 when padfl cannot be found.
See README.md in this directory.
"""
import os

# BLAS and OpenMP pools are sized when numpy loads, so pin them first:
# metrics.csv is only byte-stable under a fixed thread count.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")


def import_padfl():
    """Import padfl from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "padfl", "__init__.py")):
        fail(f"no padfl sources under {SRC}; run from a padfl checkout")
    sys.path.insert(0, SRC)
    import padfl
    if not os.path.abspath(padfl.__file__).startswith(SRC + os.sep):
        fail(f"imported padfl from {padfl.__file__}, not {SRC}")
    return padfl


def fail(message):
    print(f"padbench: {message}", file=sys.stderr)
    sys.exit(2)


def commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if ref.startswith("ref: "):
        path = os.path.join(ROOT, ".git", ref[5:])
        if not os.path.isfile(path):
            return None
        with open(path) as fh:
            return fh.read().strip()
    return ref


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "padfl")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "commit": commit(),
        "src_sha256": digest.hexdigest(),
    }


def report(result, env, units):
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"config seeds {result['config_seeds']}  measured {result['measured_s']:.1f} s")
    print("environment " + json.dumps(env, sort_keys=True))
    for s, runs in result["runs"].items():
        for r in runs:
            rounds = " ".join(f"{t:.3f}" for t in r["round_s"])
            cover = next((f"round {t}" for t, c in enumerate(r["coverage"])
                          if c == result["clients"]), f"none of {len(r['coverage'])} rounds")
            print(f"  seed {s}: run {r['run_s']:.3f} s, setup {r['setup_s']:.3f} s, "
                  f"rounds [{rounds}] s, clients with a local model {r['coverage']} "
                  f"(all by {cover})")
        print(f"  seed {s}: metrics.csv sha256 {result['metrics_csv_sha256'][s]}")
    n_rounds = sum(len(r["round_s"][result["timed_from"]:])
                   for rs in result["runs"].values() for r in rs)
    print(f"end-to-end (round_s: median of {n_rounds} timed rounds from round "
          f"{result['timed_from']} on):")
    for name, value in result["end_to_end"].items():
        print(f"  {name:22s} {value:14.6g} {units[name]}")
    trace = result.get("trace")
    if trace:
        col = trace["collected"]
        metrics = trace["metrics"]
        round_total = metrics.get("protocol.run_round.s")
        overhead = ", ".join(f"{x:.3f}" for x in trace["overhead_s"])
        print(f"per-layer (traced, per run; traced minus untraced run_s per seed: "
              f"{overhead} s):")
        for name, value in metrics.items():
            share = ""
            if (round_total and name.endswith(".s") and name != "protocol.run_round.s"
                    and not name.startswith("runner.")):
                share = f"  {100 * value / round_total:5.1f}% of round time"
            print(f"  {name:44s} {value:14.6g} {units[name]}{share}")
        if trace["missing"]:
            print("  missing hooks (their metrics are left out): " + ", ".join(trace["missing"]))
        tail = col.tail("protocol.local_update")
        if tail:
            p50, q, v, n = tail
            beyond = f"p{q} {v:.3f} ms" if q else "no percentile above p50"
            print(f"  protocol.local_update: p50 {p50:.3f} ms, {beyond} "
                  f"(highest with >= 10 calls beyond it), {n} calls")
        print("  largest self times per run: " + ", ".join(
            f"{name} {s:.3f} s" for name, s in col.spans_top()))
        if round_total and all(m in metrics for m in result["dominant"]):
            share = sum(metrics[m] for m in result["dominant"]) / round_total
            print(f"  workload design: {' + '.join(result['dominant'])} is "
                  f"{100 * share:.1f}% of round time "
                  f"({'the majority' if share > 0.5 else 'NOT the majority'})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_padfl()
    import harness
    import spans
    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(harness.WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    env = environment()
    units = dict(harness.END_TO_END)
    units.update((m["name"], m["unit"]) for m in spans.PER_LAYER)
    result, correct, error = None, True, None
    try:
        result = harness.measure(harness.WORKLOADS[args.workload], args.seed, args.seconds,
                                 bool(args.trace), OUT_ROOT)
    except harness.OutputCheckError as exc:
        correct, error = False, str(exc)
    if result is not None:
        report(result, env, units)
        save(result, env, args)
    if error:
        print(f"OUTPUT CHECK FAILED: {error}")
    metrics = {}
    if result is not None:
        chosen = result["trace"]["metrics"] if args.trace else result["end_to_end"]
        metrics = {k: {"value": v, "unit": units[k]} for k, v in chosen.items()}
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"] if result else 1,
                      "failed": result["failed"] if result else 0,
                      "metrics": metrics}))
    return 0 if correct else 1


def save(result, env, args):
    """Write the full result (and spans, if traced) under .bench_out/."""
    os.makedirs(OUT_ROOT, exist_ok=True)
    stem = os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    payload = {k: v for k, v in result.items() if k != "trace"}
    payload["environment"] = env
    if "trace" in result:
        trace = result["trace"]
        payload["per_layer"] = trace["metrics"]
        payload["missing_hooks"] = trace["missing"]
        payload["trace_overhead_s"] = trace["overhead_s"]
        with open(stem + "-spans.json", "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "round"],
                       "spans": {str(s): sp for s, sp in trace["spans"].items()}}, fh)
    with open(stem + ".json", "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main())
