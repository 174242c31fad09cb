"""Record ``perfbench/references.json`` and show that it is right.

    python3 perfbench/record.py                      # every workload
    python3 perfbench/record.py --only torture-sweep

A reference is only written after an independent path agrees with it:

* sim-attack — every simulation on the interpreter backend gives the same
  result digest as on the threaded backend;
* faultmap-slice — for every seed-chosen offset, the reduced forking map
  has the same fingerprint as the naive map simulated from reset;
* campaign-store — a cold campaign on the interpreter backend gives the
  same per-point results and metrics fingerprint as one on the threaded
  backend, and warm runs of the workload (store hits) pass the check;
* torture-sweep — every case of every candidate seed is clean, with the
  interpreter and threaded backends cross-checked inside each case.

This is slow (the naive maps take minutes); the benchmark itself only
reads the file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import HERE, OUT_DIR, import_repro

REFERENCES = os.path.join(HERE, "references.json")


def record_sim_attack(workloads) -> dict:
    digests = {}
    for backend in ("threaded", "interpreter"):
        workload = workloads.SimAttack(0, OUT_DIR, {}, backend=backend)
        workload.setup()
        digests[backend] = workload.digests(workload.round())
        print(f"sim-attack {backend}: {digests[backend]}", flush=True)
    if digests["threaded"] != digests["interpreter"] \
            or None in digests["threaded"].values():
        raise SystemExit("sim-attack: backends disagree or a run raised")
    return {"tasks": digests["threaded"],
            "validated": "threaded == interpreter"}


def record_faultmap(workloads) -> dict:
    import repro.exhaustive as exhaustive

    cls = workloads.FaultmapSlice
    spec = cls(0, OUT_DIR, {}).spec()
    trace = exhaustive.trace.capture_trace(spec.victim.compile().linked,
                                           spec.snapshot_stride)
    offsets = {}
    for choice in range(workloads.SEED_CHOICES):
        spec = cls(choice, OUT_DIR, {}).spec()
        reduced = exhaustive.exhaustive_map(spec, workers=workloads.WORKERS)
        naive = exhaustive.exhaustive_map(spec, workers=workloads.WORKERS,
                                          naive=True)
        if reduced.map.fingerprint() != naive.map.fingerprint():
            raise SystemExit(f"faultmap offset {spec.start_step}: reduced "
                             f"and naive maps differ")
        offsets[str(choice)] = cls.record(reduced)
        print(f"faultmap choice {choice} offset {spec.start_step}: "
              f"{offsets[str(choice)]}, naive "
              f"{naive.stats.simulated} sims agree", flush=True)
    return {"golden_steps": trace.golden_steps, "stride": cls.STRIDE,
            "offsets": offsets, "validated": "reduced == naive"}


def record_campaign(workloads) -> dict:
    from repro.eval.campaign import CampaignRunner

    cls = workloads.CampaignStore
    records = {}
    for backend in ("threaded", "interpreter"):
        workload = cls(0, OUT_DIR, {}, backend=backend)
        result = CampaignRunner(workers=workloads.WORKERS).run(
            workload.spec(workload.points()))
        if result.failures():
            raise SystemExit(f"campaign-store {backend}: "
                             f"{len(result.failures())} points failed")
        records[backend] = cls.record(result)
        print(f"campaign-store cold {backend}: "
              f"{records[backend]['metrics_fingerprint']}", flush=True)
    if records["threaded"] != records["interpreter"]:
        raise SystemExit("campaign-store: backends disagree")
    ref = dict(records["threaded"], validated="threaded == interpreter, "
                                               "warm == cold")
    for seed in range(4):
        workload = cls(seed, OUT_DIR, {cls.name: ref})
        workload.setup()
        workload.prepare()
        check = workload.check(workload.round())
        workload.finish()
        if check.failed:
            raise SystemExit(f"campaign-store warm seed {seed}: "
                             f"{check.problems[:3]}")
        print(f"campaign-store warm seed {seed}: ok", flush=True)
    return ref


def record_torture(workloads) -> dict:
    import repro.torture as torture

    cls = workloads.TortureSweep
    seeds = {}
    for torture_seed in range(workloads.SEED_CHOICES):
        combos = {}
        for spec in cls(torture_seed, OUT_DIR, {}).specs():
            report = torture.run_campaign(spec)
            if report.violations or report.errors:
                raise SystemExit(
                    f"torture {spec.workload}/{spec.scheme} seed "
                    f"{torture_seed}: {report.summary()}")
            combos[f"{spec.workload}/{spec.scheme}"] = cls.record(report)
        seeds[str(torture_seed)] = combos
        print(f"torture seed {torture_seed}: clean", flush=True)
    return {"cases": cls.CASES, "seeds": seeds,
            "validated": "clean, interpreter == threaded per case"}


RECORDERS = {"sim-attack": record_sim_attack,
             "faultmap-slice": record_faultmap,
             "campaign-store": record_campaign,
             "torture-sweep": record_torture}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", default=",".join(RECORDERS),
                        help="comma-separated workloads to re-record")
    args = parser.parse_args(argv)
    import_repro()
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    refs = {}
    if os.path.exists(REFERENCES):
        with open(REFERENCES) as handle:
            refs = json.load(handle)
    for name in args.only.split(","):
        refs[name] = RECORDERS[name](workloads)
        with open(REFERENCES, "w") as handle:
            json.dump(refs, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
