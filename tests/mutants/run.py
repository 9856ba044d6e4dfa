"""Run the mutation catalog: every catalogued mutant must be killed.

    python tests/mutants/run.py [NAME-SUBSTRING ...]

Copies src/, tests/ and pyproject.toml to a temporary directory, then for
each mutant (or each whose name contains one of the arguments) plants it
alone, runs its tests there with pytest and restores the file.  A mutant
is killed when its tests fail; a test run that errors in any other way
(a missing test, a collection error) counts as not killed.  Prints one
line per mutant and exits 1 unless every mutant run is killed.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from catalog import MUTANTS

ROOT = Path(__file__).resolve().parents[2]

# pytest's exit code when tests ran and some failed
TESTS_FAILED = 1


def _copy_tree(dest):
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_mutant(tree, mutant):
    """pytest's exit code for mutant's tests with mutant planted in tree."""
    path = tree / mutant.path
    original = path.read_text()
    if original.count(mutant.snippet) != 1:
        raise SystemExit("%s: the snippet does not occur exactly once in %s"
                         % (mutant.name, mutant.path))
    path.write_text(original.replace(mutant.snippet, mutant.replacement))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"))
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
    finally:
        path.write_text(original)


def main(argv):
    chosen = [m for m in MUTANTS if not argv or any(a in m.name for a in argv)]
    alive = 0
    with tempfile.TemporaryDirectory(prefix="lcpforge-mutants-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        for mutant in chosen:
            code = run_mutant(tree, mutant)
            if code == TESTS_FAILED:
                status = "killed"
            else:
                alive += 1
                status = "SURVIVED" if code == 0 else "NOT RUN (pytest exit %d)" % code
            print("%s: %s (%s)" % (status, mutant.name, mutant.check), flush=True)
    print("%d of %d mutants killed" % (len(chosen) - alive, len(chosen)))
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
