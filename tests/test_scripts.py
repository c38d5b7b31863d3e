import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help(script):
    # --help runs the module-level imports from the package, then exits
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(script), "--help"], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")



# each script end to end at its smallest size; the refinement study needs
# h = 1/16 at s = 2, since the annulus gap 0.75 is below 4 s h at h = 1/8
SMALLEST_RUNS = {
    "refinement_study.py": ["--resolutions", "16", "--s", "2"],
    "sign_changing_eigen_study.py": ["--resolutions", "8:1,16:2"],
    "decay_rate_study.py": ["--n", "8", "--s", "1", "--horizon", "1", "--shifts", "0.0"],
    "artifact_digest.py": ["--h", "0.125"],
    "step_cost.py": ["--h", "0.125", "--drift", "0.7", "-0.3", "--steps", "5", "--repeats", "2"],
}


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(script), *SMALLEST_RUNS[script.name]],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
