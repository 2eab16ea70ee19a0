"""Start-up guard: the batch CLI imports only what a batch runs.

Every batch runs in a fresh process, so import cost is paid per batch.
These checks look at which modules get loaded, not at timings, so they are
deterministic.  Modules the interpreter had loaded before the import (its
``site`` hooks may load some) do not count against the package.
"""

import os
import subprocess
import sys
from pathlib import Path

import schubvanish

SRC = str(Path(schubvanish.__file__).resolve().parent.parent)

# needed only by --selfcheck, the oracle, reference code and error paths
NOT_ON_BATCH_PATH = {
    "dataclasses",
    "inspect",
    "fractions",
    "decimal",
    "traceback",
    "schubvanish.refsuite",
    "schubvanish.schubpoly",
    "schubvanish.gpermutahedron",
}


def modules_loaded_by(code: str, stdin: str = "") -> set[str]:
    """Modules a fresh interpreter loads while it runs code."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "sys.stderr.write(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        input=stdin, env=env, capture_output=True, text=True, check=True,
    )
    return set(done.stderr.split())


def test_importing_the_cli_skips_what_a_batch_does_not_run():
    loaded = modules_loaded_by("import schubvanish.cli")
    assert "schubvanish.cli" in loaded
    assert not loaded & NOT_ON_BATCH_PATH
    assert "json" not in loaded  # only jsonlines output needs it


def test_running_a_batch_skips_what_it_does_not_run():
    batch = "sym: 3256147, 2143657, 4632175\nasym: 4123, 1342 -> 4312\nasym: 1423, 1423 -> 4213\n"
    loaded = modules_loaded_by(
        "from schubvanish import cli\n"
        "cli.main(['--stable', '--format=jsonlines', '--flexible-samples=4',\n"
        "          '--tests=schubitope,flexible,bruhat,descent_cycling,root_game'])",
        stdin=batch,
    )
    assert "json" in loaded
    assert not loaded & NOT_ON_BATCH_PATH


def test_oracle_and_selfcheck_import_their_modules():
    loaded = modules_loaded_by(
        "from schubvanish import cli\ncli.main(['--stable', '--tests=oracle'])",
        stdin="sym: 1234, 1234, 4321\n",
    )
    assert "schubvanish.schubpoly" in loaded
    assert "schubvanish.refsuite" not in loaded
    loaded = modules_loaded_by("from schubvanish import cli\ncli.main(['--selfcheck', '--stable'])")
    assert "schubvanish.refsuite" in loaded
