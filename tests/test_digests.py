"""tools/digests.py compares two checkouts run by run. On one small
config: a line names its run, the hashes ignore the wall-second columns
and summary.json's wall time, out_dir and workers (so 1 and 2 workers
agree), and a run padfl refuses prints its exit code. The tool is run from its source, so nothing is written next to it."""
import re
import types
from pathlib import Path

from padfl import runner

from test_cli import SMALL

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "digests.py"


def load_tool():
    module = types.ModuleType("padfl_digests")
    module.__file__ = str(TOOL)
    exec(compile(TOOL.read_text(), str(TOOL), "exec"), module.__dict__)
    return module


def test_digests_of_one_small_config():
    tool = load_tool()
    untimed = tool.untimed(runner.ROUNDS_HEADER + "\n")
    assert untimed == "round,eta,hn_loss,params_exchanged,failed\n"
    # SMALL is conv 4,4, where the FLANC layout would repeat Pa3dFL: exit 2
    lines = list(tool.digests(str(ROOT / "src"), {"small": SMALL},
                              ("Pa3dFL", "Pa3dFL_FlancDecomp"), rounds=2))
    assert re.fullmatch(r"small Pa3dFL workers=1 metrics=[0-9a-f]{64} rounds=[0-9a-f]{64} "
                        r"summary=[0-9a-f]{64}", lines[0])
    assert lines[1] == lines[0].replace("workers=1", "workers=2")
    assert lines[2:] == [f"small Pa3dFL_FlancDecomp workers={w} exit=2" for w in (1, 2)]
