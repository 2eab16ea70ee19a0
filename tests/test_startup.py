"""Start-up guard: the batch CLI imports only what a batch runs.

Every batch runs in a fresh process, so import cost is paid per batch.
These checks look at which modules get loaded, not at timings, so they are
deterministic.  The probe interpreter runs with ``-S``, so no ``site`` hook
loads modules before it; modules loaded before the probe's code runs do
not count against the package.
"""

import enum
import os
import subprocess
import sys
from pathlib import Path

import schubvanish

SRC = str(Path(schubvanish.__file__).resolve().parent.parent)

# needed only by --selfcheck, the oracle, reference code and error paths;
# the option parser and the input decoder need none of the argparse family
NOT_ON_BATCH_PATH = {
    "argparse",
    "getopt",
    "gettext",
    "locale",
    "encodings.utf_8_sig",
    "dataclasses",
    "inspect",
    "fractions",
    "decimal",
    "traceback",
    "json",
    "json.decoder",
    "json.encoder",
    "json.scanner",
    "_json",
    "schubvanish.refsuite",
    "schubvanish.schubpoly",
    "schubvanish.gpermutahedron",
}


def modules_loaded_by(code: str, stdin: str = "") -> set[str]:
    """Modules a fresh interpreter, without ``site``, loads while it runs code."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "sys.stderr.write(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        input=stdin, env=env, capture_output=True, text=True, check=True,
    )
    return set(done.stderr.split())


def test_importing_the_cli_skips_what_a_batch_does_not_run():
    loaded = modules_loaded_by("import schubvanish.cli")
    assert "schubvanish.cli" in loaded
    assert not loaded & NOT_ON_BATCH_PATH


def test_running_a_batch_skips_what_it_does_not_run():
    batch = "sym: 3256147, 2143657, 4632175\nasym: 4123, 1342 -> 4312\nasym: 1423, 1423 -> 4213\n"
    loaded = modules_loaded_by(
        "from schubvanish import cli\n"
        "cli.main(['--stable', '--format=jsonlines', '--flexible-samples=4',\n"
        "          '--tests=schubitope,flexible,bruhat,descent_cycling,root_game'])",
        stdin=batch,
    )
    assert "json" not in loaded  # cli.to_json writes the JSON lines
    assert not loaded & NOT_ON_BATCH_PATH


def test_a_batch_without_rival_tests_skips_rivals():
    loaded = modules_loaded_by(
        "from schubvanish import cli\n"
        "cli.main(['--stable', '--flexible-samples=4', '--tests=schubitope,flexible'])",
        stdin="asym: 4123, 1342 -> 4312\nasym: 1423, 1423 -> 4213\n",
    )
    assert "schubvanish.vanishing" in loaded
    assert "schubvanish.rivals" not in loaded


def test_oracle_and_selfcheck_import_their_modules():
    loaded = modules_loaded_by(
        "from schubvanish import cli\ncli.main(['--stable', '--tests=oracle'])",
        stdin="sym: 1234, 1234, 4321\n",
    )
    assert "schubvanish.schubpoly" in loaded
    assert "schubvanish.refsuite" not in loaded
    loaded = modules_loaded_by("from schubvanish import cli\ncli.main(['--selfcheck', '--stable'])")
    assert "schubvanish.refsuite" in loaded
    # the report is its pinned problem lines: no polytope or reference code
    assert not loaded & {"schubvanish.gpermutahedron", "dataclasses"}


def test_a_batch_builds_no_namedtuple_or_enum_class():
    # namedtuple compiles each class's __new__ and Enum builds its members
    # at import; the package's value classes are permcore.Frozen instead
    from schubvanish import cli, permcore, rivals, schubitope, vanishing

    options = cli.Options(tests=cli.KNOWN_TESTS, flexible_samples=4, stable=True)
    records, code = cli.run_batch(["sym: 1423, 1423, 1423", "asym: 4123, 1342 -> 4312"], options)
    assert code == 0 and len(records) == 2
    for module in (cli, vanishing, schubitope, permcore, rivals):
        for value in vars(module).values():
            if isinstance(value, type):
                assert not hasattr(value, "_make"), value
                assert not issubclass(value, enum.Enum), value
