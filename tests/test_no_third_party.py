"""The package runs on the standard library alone."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.modules["networkx"] = None  # any import of it now raises ImportError
from iccover import cli
from iccover.oracles import check_lemma2
from iccover.template import random_template
if check_lemma2(random_template(3, 3, 0.3, seed=1)) is not True:
    sys.exit("Lemma 2 check failed")
sys.exit(cli.main(["compare", "--digraph", sys.argv[1]]))
"""


def test_runs_without_networkx():
    env = {k: v for k, v in os.environ.items() if k != "ICC_EXACT_BOUND"}
    env["PYTHONPATH"] = str(ROOT / "src")
    res = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "tests" / "data" / "d1.json")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == '{"n":6,"l_cyc":5,"l_cc":6,"l_icc":4,"mais":4,"optimal":true}\n'
