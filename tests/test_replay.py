"""tools/replay.py still runs against the library, and prints the same lines each time.

Only self-consistency is checked, never a digest: replay compares two checkouts,
which one checkout cannot do.
"""

import os
import subprocess
import sys

REPLAY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools", "replay.py")


def test_replay_runs_and_repeats_itself(tmp_path):
    lines = []
    for run in ("first", "second"):
        (tmp_path / run).mkdir()
        proc = subprocess.run([sys.executable, REPLAY, os.path.join("runs", "replay")],
                              cwd=tmp_path / run, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        lines.append(proc.stdout.splitlines())
    assert lines[0] and lines[0] == lines[1]
