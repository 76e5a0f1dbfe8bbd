"""Digest padfl runs so that two checkouts can be compared run by run.

Runs every method of `config.METHODS` on four configs at rounds = 3,
with 1 and then 2 workers, from the padfl sources under --src (default:
this checkout's src/), one `padfl run` process per run. Prints one line
per run:

    <config> <method> workers=<w> metrics=<sha256> rounds=<sha256> summary=<sha256>

`metrics` hashes metrics.csv; `rounds` hashes rounds.csv without its
wall-second columns (`*_s`); `summary` hashes summary.json without
`wall_time_s` and the config's `out_dir` and `workers`. A run that exits
non-zero prints `exit=<code>` in place of the three hashes. To compare a
change with its parent commit:

    git archive HEAD~1 | tar -x -C /tmp/parent
    python3 tools/digests.py --src /tmp/parent/src > parent.txt
    python3 tools/digests.py > change.txt
    diff parent.txt change.txt
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_PINS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
WORKERS = (1, 2)
ROUNDS = 3

# config text on top of the defaults; the last is a 4-client conv 4,8
# network at full width
CONFIGS = {
    "default": "",
    "fc32": "fc_dims = 32\n",
    "conv48-w4": "conv_channels = 4,8\nmin_width = 1/4\n",
    "conv48-ideal4": (
        "clients = 4\nper_round = 2\nbatch = 8\nepochs = 1\nlr = 0.05\n"
        "synth_classes = 2\nsynth_per_class = 40\nsynth_shape = 1,8,8\n"
        "conv_channels = 4,8\nconv_kernel = 3\nmin_width = 1/4\n"
        "hn_embed = 6\nhn_hidden = 6\nhn_depth = 2\npatience_frac = 0\n"
        "capacity = ideal\nseed = 3\n"),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def untimed(rounds_csv: str) -> str:
    """rounds.csv without its wall-second (`*_s`) columns."""
    rows = [line.split(",") for line in rounds_csv.splitlines()]
    keep = [j for j, name in enumerate(rows[0]) if not name.endswith("_s")]
    return "\n".join(",".join(row[j] for j in keep) for row in rows) + "\n"


def placeless(summary_json: str) -> str:
    """summary.json without its wall time and the config's out_dir and
    workers, which differ between runs the line already tells apart."""
    summary = json.loads(summary_json)
    del summary["wall_time_s"], summary["config"]["out_dir"], summary["config"]["workers"]
    return json.dumps(summary, sort_keys=True, indent=2) + "\n"


def padfl(src, *args):
    """Run `python <args>` on the padfl package under src, BLAS pinned to
    one thread."""
    env = dict(os.environ, PYTHONPATH=src, **BLAS_PINS)
    env.pop("PADFL_OUTPUT_ROOT", None)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def digest(src, name, cfg, method, workers, rounds, scratch) -> str:
    """One run's line: its config, method, workers and hashes (or exit code)."""
    out = os.path.join(scratch, f"{name}-{method}-{workers}")
    sets = [f"method={method}", f"workers={workers}", f"rounds={rounds}", f"out_dir={out}"]
    done = padfl(src, "-m", "padfl.cli", "run", cfg, *(a for s in sets for a in ("--set", s)))
    head = f"{name} {method} workers={workers}"
    if done.returncode:
        return f"{head} exit={done.returncode}"
    with open(os.path.join(out, "metrics.csv")) as fh:
        metrics = sha256(fh.read())
    with open(os.path.join(out, "rounds.csv")) as fh:
        rounds_hash = sha256(untimed(fh.read()))
    with open(os.path.join(out, "summary.json")) as fh:
        summary = sha256(placeless(fh.read()))
    return f"{head} metrics={metrics} rounds={rounds_hash} summary={summary}"


def digests(src, configs=CONFIGS, methods=None, workers=WORKERS, rounds=ROUNDS):
    """Yield one line per (config, method, workers) run, in that order;
    methods defaults to the `config.METHODS` of the sources under src."""
    src = os.path.abspath(src)
    if methods is None:
        listed = padfl(src, "-c", "from padfl.config import METHODS; print(*METHODS)")
        methods = listed.stdout.split()
    with tempfile.TemporaryDirectory(prefix="padfl-digests-") as scratch:
        for name, text in configs.items():
            cfg = os.path.join(scratch, f"{name}.cfg")
            with open(cfg, "w") as fh:
                fh.write(text)
            for method in methods:
                for w in workers:
                    yield digest(src, name, cfg, method, w, rounds, scratch)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(os.path.dirname(HERE), "src"),
                        help="directory holding the padfl package (default: ./src)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(args.src, "padfl", "__init__.py")):
        parser.error(f"no padfl package under {args.src}")
    for line in digests(args.src):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
