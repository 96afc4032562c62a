"""Replayable regression corpus: every checked-in bundle must reproduce.

``tests/corpus/`` holds ddmin-minimized repro bundles of historical chaos
failures (see ``repro-agg shrink``).  Each test strict-replays one bundle:
any divergence — a changed delivery order, a drifted bit count, a failure
that no longer happens — fails loudly with the first divergent round, so a
behavior change in the simulator or protocols cannot silently invalidate
past forensics.
"""

import glob
import os
import subprocess
import sys

import pytest

from repro.analysis.runner import is_failure
from repro.sim import ExecutionRecord, replay_bundle
from repro.sim.recorder import SUPPORTED_BUNDLE_VERSIONS

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
BUNDLES = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))


def test_corpus_is_not_empty():
    assert BUNDLES, f"no bundles in {CORPUS_DIR}"


def test_corpus_covers_every_bundle_version():
    """The corpus is the only load fixture for old bundle formats, so it
    keeps a bundle of every version the loader accepts.  Re-recording a
    bundle upgrades it to the current version; re-record one only when
    another bundle still holds its old version."""
    versions = {ExecutionRecord.load(path).version for path in BUNDLES}
    assert versions == SUPPORTED_BUNDLE_VERSIONS


@pytest.mark.parametrize(
    "path", BUNDLES, ids=[os.path.basename(p) for p in BUNDLES]
)
def test_corpus_bundle_replays_exactly(path):
    outcome = replay_bundle(path)  # strict: raises ReplayDivergence on drift
    assert outcome.reproduced
    # Every corpus entry documents a *failure*; a bundle that replays to a
    # clean run means the recording no longer demonstrates anything.
    assert is_failure(outcome.record) or outcome.record.failed


@pytest.mark.parametrize(
    "path", BUNDLES, ids=[os.path.basename(p) for p in BUNDLES]
)
def test_corpus_bundle_is_small(path):
    """Corpus entries are minimized — a fat bundle was checked in raw."""
    bundle = ExecutionRecord.load(path)
    assert bundle.n_decisions <= 10, (
        f"{os.path.basename(path)} has {bundle.n_decisions} events; "
        "run `repro-agg shrink` before checking bundles in"
    )


def test_rerecorded_bundle_is_byte_reproducible():
    """Two re-records of one bundle write the same bytes, and the
    re-recorded bundle still replays strictly."""
    from repro.adversary.shrink import rerecord_bundle

    path = os.path.join(CORPUS_DIR, "tag-grid4x4-s0-record-e5d2c5bb1f.min.json")
    bundle = ExecutionRecord.load(path)
    first = rerecord_bundle(bundle).to_json()
    second = rerecord_bundle(bundle).to_json()
    assert first == second
    assert " at 0x" not in first
    assert replay_bundle(ExecutionRecord.from_json(first)).reproduced


_RERECORD = """
import sys
from repro.adversary.shrink import rerecord_bundle
from repro.sim import ExecutionRecord
sys.stdout.write(rerecord_bundle(ExecutionRecord.load(sys.argv[1])).to_json())
"""


def test_rerecorded_bundle_bytes_do_not_depend_on_hash_seed():
    """Set iteration order changes with ``PYTHONHASHSEED``; nothing built
    from a set (such as an envelope's content keys) may reach a bundle."""
    path = os.path.join(CORPUS_DIR, "tag-grid4x4-s0-record-e5d2c5bb1f.min.json")
    src = os.path.join(os.path.dirname(CORPUS_DIR), os.pardir, "src")
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath(src), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-c", _RERECORD, path],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("{")
