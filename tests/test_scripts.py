import os
import subprocess
import sys
from pathlib import Path

import blobvid

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_fit_recovery_smoke(tmp_path):
    # The child runs in a tmp cwd; give it the absolute src directory this
    # process imported blobvid from, so it runs the same source.
    src = str(Path(blobvid.__file__).resolve().parent.parent)
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "fit_recovery.py"), "--trials", "4"],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "trials=4 " in proc.stdout
    assert "fit below init: 0 " in proc.stdout
