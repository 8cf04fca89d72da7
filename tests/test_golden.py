"""Golden digests of the bundled scenarios.

Each scenario's event-log digest is pinned in `perfbench/suite_digests.json`,
as is the combined digest: sha256 over the 12 raw digests in file-name order;
the benchmark's `suite` workload checks the same file.  A change that moves any
byte of any log fails this file.  The combined digest must also come out the
same under different string-hash seeds, so no dict or set iteration order
that depends on `PYTHONHASHSEED` can reach a log, and under each other
supported Python found on `PATH`.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oraclesim
from oraclesim.harness import bundled_scenarios, run_scenario

PINNED = json.loads((Path(__file__).parents[1] / "perfbench" / "suite_digests.json").read_text())
DIGESTS = PINNED["scenarios"]
COMBINED = PINNED["combined"]

# Runs every bundled scenario and prints the combined digest.
SUITE_SCRIPT = """
import hashlib
from oraclesim.harness import bundled_scenarios, run_scenario
digests = {path.name: run_scenario(path).log.digest() for path in bundled_scenarios()}
print(hashlib.sha256(b"".join(digests[name] for name in sorted(digests))).hexdigest())
"""


def combined(digests: dict[str, str]) -> str:
    return hashlib.sha256(b"".join(bytes.fromhex(digests[n]) for n in sorted(digests))).hexdigest()


def test_pinned_digests_cover_the_bundled_scenarios():
    assert sorted(DIGESTS) == [path.name for path in bundled_scenarios()]
    assert combined(DIGESTS) == COMBINED


@pytest.mark.parametrize("path", bundled_scenarios(), ids=lambda path: path.stem)
def test_bundled_scenario_digest(path):
    result = run_scenario(path)
    assert result.passed, result.failures
    assert result.log.digest().hex() == DIGESTS[path.name]


def suite_digest(python: str, **env_overrides: str) -> str:
    """The combined digest from a fresh `python` process, stdlib only (`-S`)."""
    src = str(Path(oraclesim.__file__).resolve().parents[1])
    env = dict(os.environ, **env_overrides)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [python, "-S", "-c", SUITE_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return run.stdout.strip()


def test_suite_digest_is_independent_of_hash_seed():
    outputs = [suite_digest(sys.executable, PYTHONHASHSEED=seed) for seed in ("0", "12345")]
    assert outputs == [COMBINED, COMBINED]


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_suite_digest_is_the_same_on_other_interpreters(version):
    # pyproject.toml claims requires-python >=3.10; the tests themselves run on one
    python = shutil.which(f"python{version}")
    if python is None or subprocess.run([python, "-S", "-c", ""], capture_output=True).returncode:
        pytest.skip(f"python{version} is not installed")
    assert suite_digest(python) == COMBINED
