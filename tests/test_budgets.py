"""The tier-1 slice of the budget table in ``budgets.py``, and its coverage of
the caps.  ``python tests/budgets.py`` runs the whole table."""

import os
import re
import subprocess
import sys

import budgets
from trapnets.caps import CAPS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _dimension(row):
    """The dimension a row runs at: its first file's, or its ``--n``."""
    nets = [a for a in row.args if isinstance(a, budgets.Net)]
    return nets[0].n if nets else int(row.args[row.args.index("--n") + 1])


def test_refusals_below_the_network_cap_keep_their_budgets():
    # Every row that must exit 2 and reads no file at the network cap, whose
    # refusals stay in the full run.  The runner runs in a child of its own,
    # so that the rows' peak RSS counts none of this process's.
    rows = [i for i, row in enumerate(budgets.ROWS)
            if row.codes == (2,) and all(net.n < CAPS["network"] for net in row.inputs)]
    assert len(rows) >= 10
    run = "import sys, budgets; sys.exit(budgets.main([budgets.ROWS[int(i)] for i in sys.argv[1:]]))"
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "tests")}
    out = subprocess.run([sys.executable, "-c", run, *map(str, rows)], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stdout + out.stderr


def test_each_cap_a_command_reads_has_a_row_at_it_and_a_refusal_above_it():
    with open(os.path.join(ROOT, "src", "trapnets", "cli.py"), encoding="utf-8") as fh:
        read = set(re.findall(r"CAPS\[[\"'](\w+)[\"']\]", fh.read()))
    assert read
    rows = {(row.cap, _dimension(row) - CAPS[row.cap], row.codes == (2,))
            for row in budgets.ROWS if row.cap}
    for cap in read:
        assert (cap, 0, False) in rows and (cap, 1, True) in rows, cap
    assert {offset for _, offset, _ in rows} <= {0, 1}


def test_readme_caps_table_lists_every_cap_at_its_value():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## Caps\n", 1)[1].split("\n## ", 1)[0]
    listed = dict(re.findall(r"^\| `(\w+)` \| (\d+) \|", section, re.M))
    assert listed == {kind: str(cap) for kind, cap in CAPS.items()}
