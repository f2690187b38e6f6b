import json
import os
import subprocess
import sys
from pathlib import Path

import blobvid

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, cwd):
    # The child runs in a tmp cwd; give it the absolute src directory this
    # process imported blobvid from, so it runs the same source.
    src = str(Path(blobvid.__file__).resolve().parent.parent)
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, cwd=cwd, env=env, timeout=300)


def test_fit_recovery_smoke(tmp_path):
    proc = run_script("fit_recovery.py", "--trials", "4", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "trials=4 " in proc.stdout
    assert "fit below init: 0 " in proc.stdout


def test_run_demo_smoke(tmp_path):
    proc = run_script("run_demo.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "demo_out"
    assert json.loads((out / "video.json").read_text())["num_frames"] == 13
    assert len(list((out / "masks").glob("*.pgm"))) == 13
    assert len(list((out / "render").glob("*.ppm"))) == 13
    # The JSON that mask, render and attend print, one document each.
    decoder, text, docs = json.JSONDecoder(), proc.stdout.strip(), []
    while text:
        doc, end = decoder.raw_decode(text)
        docs.append(doc)
        text = text[end:].lstrip()
    assert [doc.get("written") for doc in docs] == [13, 13, None]
    assert docs[2]["rows"] == 13 * 16 * 16
