"""E23 — end-to-end message integrity: detection rate vs overhead bits.

The paper's model assumes delivered messages arrive intact; the
integrity layer (:mod:`repro.integrity`) makes that assumption *checked*
instead of trusted.  This bench sweeps the bit-flip rate across the
three integrity modes and measures what detection costs and buys:

* **off** — corrupted frames reach the protocol unchecked.  The
  silent-corruption oracle counts every corrupted delivery that was
  accepted; nonzero acceptances mean the result is untrustworthy.
* **checksum** — 16-bit truncated CRC-32 per frame.  Catches random
  flips at the cost of ~21+16 overhead bits per broadcast frame.
* **mac** — 32-bit truncated seeded HMAC-SHA256.  Catches everything
  that doesn't know the key; double the tag width.

Detection composes with recovery: a rejected frame looks like a lost
frame to the reliable transport, whose NACK path re-fetches it, so
detected corruption costs retransmissions (booked as overhead), never
protocol CC — the ``cc_bits`` column must be flat across modes at rate
0.  The headline assertions: **mac and checksum resolve every delivered
corruption at every rate** (zero unresolved → zero silent-wrong), while
**off accepts corrupted frames as soon as the rate is nonzero**; and
integrity overhead is framing + tag only (mac > checksum > off).

The trajectory point lands in ``BENCH_e23_integrity.json`` at the repo
root (per-(rate, mode) detection/overhead rows).
"""

import json
import os
import random

import pytest

from repro.analysis import format_table
from repro.analysis.runner import make_inputs, run_protocol
from repro.graphs import grid_graph
from repro.integrity import IntegrityConfig
from repro.resilience import RecoveryPolicy, TransportConfig
from repro.sim.faults import MessageCorruption

from _util import emit, once

GRID_SIDE = 4
SEEDS = 4
RATES = (0.0, 0.01, 0.02, 0.05)
MODES = ("off", "checksum", "mac")
TRAJECTORY_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_e23_integrity.json"
)


def _one_run(mode, rate, seed):
    topo = grid_graph(GRID_SIDE, GRID_SIDE)
    rng = random.Random(seed)
    inputs = make_inputs(topo, rng)
    injectors = []
    if rate:
        injectors.append(
            MessageCorruption(bitflip=rate, truncate=rate / 2, seed=seed)
        )
    integrity = None if mode == "off" else IntegrityConfig(mode=mode)
    record = run_protocol(
        "unknown_f",
        topo,
        inputs,
        rng=rng,
        strict=False,
        injectors=injectors,
        recovery=RecoveryPolicy(
            transport=TransportConfig(retransmits=4, backoff_cap=8)
        ),
        integrity=integrity,
    )
    assert record.error is None, record.error
    return record


def run_integrity_study():
    rows = []
    for rate in RATES:
        for mode in MODES:
            delivered = unresolved = rejected = 0
            overhead = cc = exact = partial = uncertified = silent_wrong = 0
            for seed in range(SEEDS):
                record = _one_run(mode, rate, seed)
                extra = record.extra
                delivered += extra.get("delivered_corruptions", 0)
                unresolved += extra.get("unresolved_corruptions", 0)
                rejected += extra.get("integrity_rejected", 0)
                overhead += extra.get("overhead_bits", 0)
                cc += record.cc_bits
                status = extra.get("status")
                certified = bool(extra.get("certified"))
                if status == "exact" and certified:
                    exact += 1
                    # A certified-exact claim that is wrong, or any
                    # accepted corruption, is the silent-wrong class.
                    if not record.correct:
                        silent_wrong += 1
                elif certified:
                    partial += 1
                else:
                    uncertified += 1
                if extra.get("unresolved_corruptions", 0) and mode != "off":
                    silent_wrong += 1
            detected = delivered - unresolved
            rows.append(
                {
                    "rate": rate,
                    "mode": mode,
                    "delivered": delivered,
                    "detected": detected,
                    "detection": (
                        round(detected / delivered, 3) if delivered else 1.0
                    ),
                    "unresolved": unresolved,
                    "rejected": rejected,
                    "overhead_bits": round(overhead / SEEDS, 1),
                    "cc_bits": round(cc / SEEDS, 1),
                    "exact": f"{exact}/{SEEDS}",
                    "partial": partial,
                    "uncertified": uncertified,
                    "silent_wrong": silent_wrong,
                }
            )
    return rows


def _write_trajectory(rows):
    point = {
        "experiment": "E23",
        "topology": f"grid({GRID_SIDE}x{GRID_SIDE})",
        "protocol": "unknown_f",
        "seeds": SEEDS,
        "rows": rows,
    }
    with open(os.path.abspath(TRAJECTORY_PATH), "w") as fh:
        json.dump(point, fh, indent=2, sort_keys=True)
        fh.write("\n")


@pytest.mark.benchmark(group="integrity")
def test_integrity_detection_vs_overhead(benchmark):
    rows = once(benchmark, run_integrity_study)
    emit(
        "e23_integrity",
        format_table(
            rows,
            title=(
                f"E23: corruption detection vs overhead, grid "
                f"{GRID_SIDE}x{GRID_SIDE}, {SEEDS} seeds"
            ),
        ),
    )
    _write_trajectory(rows)

    by_key = {(r["rate"], r["mode"]): r for r in rows}

    # The outcome columns partition the seeds: every run is certified
    # exact, a certified partial, or uncertified.
    for r in rows:
        exact = int(r["exact"].split("/")[0])
        assert exact + r["partial"] + r["uncertified"] == SEEDS, r

    # Authenticated modes resolve every delivered corruption at every
    # rate — the zero-silent-wrong contract.  (Runs may honestly degrade
    # to certified partials or uncertified rows under heavy corruption;
    # what they must never do is certify a wrong exact answer or accept
    # a corrupted frame.)
    for rate in RATES:
        for mode in ("checksum", "mac"):
            assert by_key[(rate, mode)]["unresolved"] == 0, (rate, mode)
            assert by_key[(rate, mode)]["silent_wrong"] == 0, (rate, mode)
            assert by_key[(rate, mode)]["detection"] == 1.0, (rate, mode)

    # Unprotected runs accept corrupted frames as soon as corruption
    # flows at all.
    for rate in (0.02, 0.05):
        assert by_key[(rate, "off")]["unresolved"] > 0

    # Integrity costs overhead only, ordered by tag width, and protocol
    # CC stays flat across modes in the clean arm.
    for rate in RATES:
        assert (
            by_key[(rate, "mac")]["overhead_bits"]
            > by_key[(rate, "checksum")]["overhead_bits"]
            > by_key[(rate, "off")]["overhead_bits"]
        )
    clean_cc = {by_key[(0.0, mode)]["cc_bits"] for mode in MODES}
    assert len(clean_cc) == 1
