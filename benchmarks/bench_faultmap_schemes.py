"""Vulnerability maps under systematic fault injection (§VII-B3).

The paper's qualitative claim — EMI-induced checkpoint corruption makes
NVP silently corrupt data or brick the device, while GECKO detects the
attack and recovers — measured exhaustively: every fault model ×
``POINTS`` injections per scheme over ``crc16``, classified against a
golden fault-free reference.  The same campaign is executed once with a
4-worker pool and once serially, and the two maps must be bit-identical
(SHA-256 fingerprints over the canonical JSON).
"""

from _util import bar, emit, run_once

from repro.eval.campaign import CampaignRunner
from repro.faultsim import (
    CKPT_CORRUPT,
    CKPT_TRUNCATE,
    FAULT_MODELS,
    INSTR_SKIP,
    OUTCOME_ORDER,
    REG_FLIP,
    SIGNAL_DROP,
    SIGNAL_SPURIOUS,
    scheme_comparison,
)

WORKLOAD = "crc16"
SCHEMES = ("nvp", "gecko")
POINTS = 50          # per fault model, per scheme
SEED = 0


def _experiment():
    parallel = scheme_comparison(workload=WORKLOAD, schemes=SCHEMES,
                                 models=FAULT_MODELS, points=POINTS,
                                 seed=SEED, workers=4)
    serial = scheme_comparison(workload=WORKLOAD, schemes=SCHEMES,
                               models=FAULT_MODELS, points=POINTS,
                               seed=SEED, runner=CampaignRunner(workers=1))
    return parallel, serial


def test_faultmap_schemes(benchmark):
    parallel, serial = run_once(benchmark, _experiment)

    def ckpt_corrupting(vmap):
        return (vmap.corruption_count(model=CKPT_CORRUPT)
                + vmap.corruption_count(model=CKPT_TRUNCATE))

    lines = []
    for scheme in SCHEMES:
        vmap = parallel[scheme].map
        lines.append(vmap.render())
        corrupting = vmap.corruption_count()
        lines.append(f"{scheme}: {corrupting}/{vmap.total} corrupting "
                     f"(sdc+brick), {ckpt_corrupting(vmap)} from "
                     f"checkpoint-image faults  "
                     f"{bar(corrupting / max(vmap.total, 1))}")
        lines.append("")
    lines.append("NVP restores corrupted checkpoint images; GECKO's ACK "
                 "detection rolls back instead (paper §VII-B3)")
    emit("faultmap_schemes", lines, data={
        scheme: {
            "map": parallel[scheme].map.to_dict(),
            "fingerprint_parallel": parallel[scheme].map.fingerprint(),
            "fingerprint_serial": serial[scheme].map.fingerprint(),
            "histogram": parallel[scheme].map.histogram(),
            "corrupting": parallel[scheme].map.corruption_count(),
        }
        for scheme in SCHEMES
    })

    for scheme in SCHEMES:
        vmap = parallel[scheme].map
        # Full coverage: every planned injection (the seeded draws of
        # every model, repeated draws deduped) got a record.
        assert vmap.total == len(parallel[scheme].spec.plan())
        # Serial and 4-worker parallel sweeps are bit-identical.
        assert vmap.fingerprint() == serial[scheme].map.fingerprint()
        # Every record carries a classification from the outcome alphabet.
        histogram = vmap.histogram()
        assert sum(histogram.values()) == vmap.total
        assert set(histogram) == {o.value for o in OUTCOME_ORDER}

    nvp, gecko = parallel["nvp"].map, parallel["gecko"].map
    # The headline asymmetry (§VII-B3): checkpoint-image faults corrupt
    # or brick NVP at least once, and never GECKO.
    assert ckpt_corrupting(nvp) >= 1
    assert ckpt_corrupting(gecko) == 0
    # Monitor-signal faults corrupt neither scheme: at worst they cost
    # a checkpoint or a detection, never committed output.
    for vmap in (nvp, gecko):
        assert vmap.corruption_count(model=SIGNAL_DROP) == 0
        assert vmap.corruption_count(model=SIGNAL_SPURIOUS) == 0
    # Architectural faults (bit-flips and skips in the live core) are
    # outside any crash-consistency scheme's defense perimeter; the map
    # shows them corrupting both schemes alike.
    for vmap in (nvp, gecko):
        assert (vmap.corruption_count(model=REG_FLIP)
                + vmap.corruption_count(model=INSTR_SKIP)) >= 1
