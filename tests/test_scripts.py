import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_pipeline_runs(tmp_path):
    # the script's five steps, each at its smallest size
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_smoke_pipeline.py"),
         "--workdir", str(tmp_path), "--images", "4", "--eval-images", "2",
         "--iterations", "2", "--base-channels", "2"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (tmp_path / "net.ckpt").is_file()
