"""Golden digests of the bundled scenarios.

Each scenario's event-log digest is pinned here, as is the combined digest:
sha256 over the 12 raw digests in file-name order.  A change that moves any
byte of any log fails this file.  The combined digest must also come out the
same under different string-hash seeds, so no dict or set iteration order
that depends on `PYTHONHASHSEED` can reach a log, and under each other
supported Python found on `PATH`.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oraclesim
from oraclesim.harness import bundled_scenarios, run_scenario

DIGESTS = {
    "counterparty_bet.json": "2662b1272af8e470c67670374639de109ba38c23ff61234fc0947a1033f9cb8d",
    "counterparty_overspend.json": "4414bce24af2bb791f180f8c909d368554a575390d7179420fc16c0150d18096",
    "oraclize_dead_oracle.json": "32094267e5eaad6a0d547af64ac6f2dc5eabbd1ce758928d6a3314914f43e360",
    "oraclize_milan.json": "38c252a35f2c8b73f040da8f6ef22b3dcaab18a01b200e08561943b5c9ab1015",
    "orisi_election.json": "a6a7c175306c31d2198f4e05787d85cf45503aa134c046b811bdb4d138f170ef",
    "orisi_theft.json": "e80a64d1bc62a5fe77f3fb806ee5ff4527c1705bd4f7f2bc3dd5d7ed9932fd91",
    "realitykeys_objection.json": "65fc94bdce3e36ccd676b5e8524de99a61865c82977b0c87670e4f4dd23a0397",
    "realitykeys_stake.json": "08a5fb17885aa8caab53347467c1b3ed6728184a7f61fbbdc0cf95095f263219",
    "truthcoin_capture.json": "19e7150ab3e7b9fba47e144138a71af71764d98390984971671ff3e3d3afbce3",
    "truthcoin_market.json": "2ac69daa9ff80551e832c7e7846f7e634a852ee70713a2a520b2f81f7d8a58e9",
    "will_claim.json": "79adaf8f731429a4c77ce789368a8a24491437f7b474d05793be87b7ad3d0acb",
    "will_refusal.json": "15531ce2517478aa428938f9b0152b4272439cbb6c8ba503b09efff393fa475d",
}
COMBINED = "82c71b94fe783517687198c9af8199fcac609378156c29b5077746ae1f3258ea"

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
