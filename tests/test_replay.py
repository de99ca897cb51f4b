"""The tools still run against the library and the tests they import.

tools/replay.py prints the same lines each time. Only self-consistency is checked,
never a digest: replay compares two checkouts, which one checkout cannot do.
"""

import os
import subprocess
import sys

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools")
REPLAY = os.path.join(TOOLS, "replay.py")
# a warning fails a subprocess too, as filterwarnings = ["error"] makes it fail the suite
PYTHON = [sys.executable, "-W", "error"]


def test_replay_runs_and_repeats_itself(tmp_path):
    lines = []
    for run in ("first", "second"):
        (tmp_path / run).mkdir()
        proc = subprocess.run([*PYTHON, REPLAY, os.path.join("runs", "replay")],
                              cwd=tmp_path / run, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        lines.append(proc.stdout.splitlines())
    assert lines[0] and lines[0] == lines[1]


def test_transfer_imports_its_protocol():
    # tools/transfer.py imports criterion 6's protocol and bounds from
    # tests/test_acceptance.py; importing it runs no experiment, as main is guarded
    code = f"import sys; sys.path.insert(0, {TOOLS!r}); import transfer"
    proc = subprocess.run([*PYTHON, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
