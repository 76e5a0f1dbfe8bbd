"""tools/digests.py compares two checkouts run by run. On one small
config: a line names its run, the hashes ignore the wall-second columns
and summary.json's wall time, out_dir and workers (so 1 and 2 workers
agree), and a run padfl refuses prints its exit code. tools/benchpairs.py
runs the benchmark on two checkouts in alternating pairs and writes a
BENCH file. The tools are run from their source, so nothing is written
next to them."""
import json
import re
import shutil
import types
from pathlib import Path

from padfl import runner

from test_cli import SMALL

ROOT = Path(__file__).resolve().parents[1]


def load_tool(name="digests"):
    tool = ROOT / "tools" / f"{name}.py"
    module = types.ModuleType(f"padfl_{name}")
    module.__file__ = str(tool)
    exec(compile(tool.read_text(), str(tool), "exec"), module.__dict__)
    return module


def test_digests_of_one_small_config():
    tool = load_tool()
    untimed = tool.untimed(runner.ROUNDS_HEADER + "\n")
    assert untimed == "round,eta,hn_loss,params_exchanged,failed\n"
    # min_width 1/3 does not divide SMALL's conv 4,4: `validate` rejects it, exit 2
    configs = {"small": SMALL, "third": SMALL + "min_width = 1/3\n"}
    lines = list(tool.digests(str(ROOT / "src"), configs, ("Pa3dFL",), rounds=2))
    assert re.fullmatch(r"small Pa3dFL workers=1 metrics=[0-9a-f]{64} rounds=[0-9a-f]{64} "
                        r"summary=[0-9a-f]{64}", lines[0])
    assert lines[1] == lines[0].replace("workers=1", "workers=2")
    assert lines[2:] == [f"third Pa3dFL workers={w} exit=2" for w in (1, 2)]


def test_benchpairs_writes_one_pair(tmp_path):
    tool = load_tool("benchpairs")
    for side in ("parent", "change"):  # the same sources on both sides
        shutil.copytree(ROOT / "src", tmp_path / side / "src")
        shutil.copytree(ROOT / "padbench", tmp_path / side / "padbench")
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path / side)
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"workloads": {"other": {"pairs": 3}}}))
    assert tool.main(["--parent", str(tmp_path / "parent"), "--change",
                      str(tmp_path / "change"), "--workload", "pa3dfl-server", "--pairs", "1",
                      "--seed", "1", "--seconds", "0", "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    assert bench["workloads"]["other"] == {"pairs": 3}  # other workloads are kept
    entry = bench["workloads"]["pa3dfl-server"]
    assert entry["first"] == ["parent"] and entry["all_correct"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert sorted(entry["summary"]) == sorted(m["name"] for m in declared)
    parent, change = entry["runs"]["parent"], entry["runs"]["change"]
    assert len(parent) == len(change) == 1
    for name in ("final_test_acc", "params_per_round", "client_ok_frac"):
        assert parent[0][name] == change[0][name]
        assert entry["summary"][name]["change_better_pairs"] == 0
        assert entry["summary"][name]["within_bound"] == "yes"
    round_s = entry["summary"]["round_s"]
    assert round_s["parent"]["median"] == round_s["parent"]["q1"] == parent[0]["round_s"]
    assert isinstance(round_s["nine_in_ten"], bool)
    assert round_s["bound"] == 0.24 and round_s["within_bound"] in ("yes", "no")
    # the no-regression rule on a parent with median 1 and spread 0.1
    parent_runs = [0.9, 0.95, 1.0, 1.05, 1.1]
    assert tool.within_bound(parent_runs, [1.2] * 5, "lower", 0.24) == "yes"
    assert tool.within_bound(parent_runs, [1.3] * 5, "lower", 0.24) == "no"
    assert tool.within_bound(parent_runs, [0.7] * 5, "higher", 0.24) == "no"
    assert tool.within_bound(parent_runs, [1.3] * 5, "lower", 0.05) == "unresolved"
    assert tool.within_bound(parent_runs, [0.85] * 5, "lower", 0.05) == "yes"
    assert tool.within_bound(parent_runs, [1.15] * 5, "higher", 0.05) == "yes"
