"""The workflow's command checks, run from ``ci/`` as the workflow runs them.

Each script runs under ``bash -eo pipefail`` with ``QUBUSLAB`` set to this
interpreter's ``python -m qubuslab.cli`` and ``src/`` on the path, so its
sha256 pins, its one-``Error:``-line refusals and its 14-qubit displacement
programs are checked on every run.  ``without_scipy.sh`` runs with SciPy's
import blocked.  The two scripts run at the same time.
"""

import os
import subprocess
import sys
from pathlib import Path

import qubuslab

ROOT = Path(qubuslab.__file__).resolve().parents[2]
SRC = ROOT / "src"


def test_ci_scripts_pass(tmp_path):
    blocker = tmp_path / "blocked" / "scipy"
    blocker.mkdir(parents=True)
    (blocker / "__init__.py").write_text('raise ImportError("scipy is blocked")\n')
    env = dict(os.environ, QUBUSLAB=f"{sys.executable} -m qubuslab.cli", TMPDIR=str(tmp_path))
    paths = {"installed_command.sh": [SRC], "without_scipy.sh": [blocker.parent, SRC]}
    procs = {}
    for name, path in paths.items():
        cwd = tmp_path / name
        cwd.mkdir()
        procs[name] = subprocess.Popen(
            ["bash", "-eo", "pipefail", str(ROOT / "ci" / name)], cwd=cwd,
            env=dict(env, PYTHONPATH=os.pathsep.join(map(str, path))),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    for name, proc in procs.items():
        out, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0, f"{name}:\n{out[-3000:]}"
    assert not list((tmp_path / "installed_command.sh").iterdir())
    assert not list((tmp_path / "without_scipy.sh").iterdir())
