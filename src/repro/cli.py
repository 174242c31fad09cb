"""Command-line interface: compile, run, simulate, attack — from a shell.

Installed as ``repro-gecko`` (see pyproject) and runnable as
``python -m repro``.  Subcommands:

* ``workloads``             — list the bundled benchmark applications;
* ``devices``               — list the Table I platform catalog;
* ``compile  <prog>``       — compile and print instrumentation statistics
  (``--dump`` prints the final assembly);
* ``run      <prog>``       — execute on stable power, print the output;
* ``simulate <prog>``       — intermittent simulation with a chosen
  harvester, optional EMI attack, an optional ASCII trace, and
  ``--trace-out`` for a Perfetto timeline of the same run;
* ``trace    <prog>``       — simulate and export the run as a
  Perfetto/Chrome trace (open at https://ui.perfetto.dev) plus an
  optional JSONL event log;
* ``profile  <prog>``       — simulate under the profiler and print
  wall-time per phase, simulated cycles per opcode class, and the
  busiest metrics;
* ``sweep``                 — frequency-sweep one device/monitor pair;
* ``campaign <prog>``       — declarative sweep campaign over frequency
  (and optionally distance) with ``--workers`` parallelism, compile
  caching and baseline dedup; ``--json`` saves the full CampaignResult.
  ``--store DIR`` writes each run to a result store as it finishes, so
  rerunning a killed campaign with the same ``--store`` executes only
  what is missing.
* ``faultsim <workload>``   — systematic fault-injection campaign:
  sweeps the (fault model × time × target) space per scheme, classifies
  every run against a golden reference, and prints the vulnerability
  maps; ``--json`` saves them.
* ``adversary <workload>``  — adaptive attack synthesis: searches the
  bounded EMI attack space per defense, prints the Pareto frontiers and
  the head-to-head robustness verdict; ``--json`` saves the
  RobustnessReport, ``--replay`` re-runs a saved report's strongest
  attack through the standard harness.
* ``serve``                 — start the always-on campaign server: a
  content-addressed result store behind a line-JSON protocol (unix
  socket or localhost TCP) with multi-tenant fair-share queues and
  worker shards; ``campaign --via-store ADDR`` submits through it.
* ``store <op>``            — operate on a result store without the
  server: ``ls``, ``stats``, ``gc``.

All stochastic subcommands (``campaign --sample``, ``faultsim``,
``adversary``) share a single ``--seed`` flag with the same meaning:
one integer pins every random choice, so re-running reproduces the run.

``<prog>`` is either a bundled workload name or a path to a MiniC file
(``faultsim`` and ``adversary`` take bundled workload names only).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .core import compile_scheme
from .emi import AttackSchedule, EMISource, RemotePath, device, device_names
from .energy import (
    Capacitor,
    ConstantSupply,
    PowerSystem,
    RFHarvester,
    SquareWaveHarvester,
)
from .runtime import (
    IntermittentSimulator,
    Machine,
    SimConfig,
    Tracer,
    run_to_completion,
    runtime_for,
)
from .workloads import REGISTRY, source


def _load_source(program: str) -> str:
    if program in REGISTRY:
        return source(program)
    if os.path.exists(program):
        with open(program) as handle:
            return handle.read()
    raise SystemExit(
        f"error: {program!r} is neither a bundled workload "
        f"({', '.join(sorted(REGISTRY))}) nor a readable file"
    )


def _add_program_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("program",
                        help="bundled workload name or MiniC file path")
    parser.add_argument("--scheme", default="gecko",
                        choices=["nvp", "ratchet", "gecko",
                                 "gecko-nopruning"],
                        help="crash-consistency compilation scheme")
    parser.add_argument("--budget", type=int, default=None,
                        help="region power-on budget in cycles (gecko only)")


def _add_seed_arg(parser: argparse.ArgumentParser) -> None:
    """The one ``--seed`` flag every stochastic subcommand shares."""
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed pinning every random choice "
                             "(same seed, same run)")


def _add_backend_arg(parser: argparse.ArgumentParser) -> None:
    """The shared ``--backend`` execution-backend selector."""
    from .runtime import BACKEND_NAMES

    parser.add_argument("--backend", default="interpreter",
                        choices=list(BACKEND_NAMES),
                        help="execution backend: 'interpreter' (reference) "
                             "or 'threaded' (precompiled blocks, ~9-16x "
                             "faster, identical results)")


def _add_sim_args(parser: argparse.ArgumentParser) -> None:
    """The shared simulate/trace/profile simulation knobs."""
    parser.add_argument("--duration", type=float, default=0.2,
                        help="simulated seconds")
    parser.add_argument("--harvester", default="outage",
                        choices=["bench", "outage", "weak", "rf"])
    parser.add_argument("--capacitor", type=float, default=22.0,
                        help="capacitance in microfarads")
    parser.add_argument("--attack", default=None, metavar="MHZ,DBM",
                        help="continuous tone, e.g. 27,35")
    parser.add_argument("--distance", type=float, default=5.0,
                        help="attacker distance in meters")
    parser.add_argument("--device", default="TI-MSP430FR5994",
                        choices=device_names())
    parser.add_argument("--monitor", default="adc", choices=["adc", "comp"])
    _add_backend_arg(parser)


def _compile(args) -> object:
    kwargs = {}
    if args.budget is not None and args.scheme.startswith("gecko"):
        kwargs["region_budget"] = args.budget
    return compile_scheme(_load_source(args.program), args.scheme, **kwargs)


# ----------------------------------------------------------------------
# Subcommands.
# ----------------------------------------------------------------------
def cmd_workloads(args) -> int:
    for entry in REGISTRY.values():
        print(f"{entry.name:14s} {entry.kind:9s} {entry.blurb}")
    return 0


def cmd_devices(args) -> int:
    print(f"{'model':26} {'monitors':12} {'ADC resonances (MHz)'}")
    for name in device_names():
        profile = device(name)
        freqs = ", ".join(
            f"{f/1e6:.0f}" for f in profile.adc_curve.resonant_frequencies()
        )
        print(f"{name:26} {'+'.join(profile.monitors):12} {freqs}")
    return 0


def cmd_compile(args) -> int:
    program = _compile(args)
    stats = program.stats
    print(f"scheme:              {program.scheme}")
    print(f"code size:           {stats.code_size} instructions")
    print(f"regions:             {program.region_count}")
    print(f"checkpoint stores:   {program.checkpoint_stores}")
    if program.scheme.startswith("gecko"):
        print(f"pruning removed:     {stats.pruning_reduction:.0%}")
        print(f"recovery blocks:     {stats.recovery_blocks} "
              f"(avg {stats.avg_recovery_block_len:.1f} instrs)")
        print(f"lookup table:        ~{stats.lookup_table_size} words")
    if args.dump:
        print()
        for index, instr in enumerate(program.linked.instrs):
            print(f"{index:5d}: {instr}")
    return 0


def cmd_run(args) -> int:
    program = _compile(args)
    machine = run_to_completion(program.linked,
                                max_steps=args.max_steps,
                                backend=args.backend)
    print(f"output:  {machine.committed_out}")
    print(f"cycles:  {machine.cycles}")
    print(f"instrs:  {machine.instr_count}")
    return 0


def _build_power(args) -> PowerSystem:
    capacitor = Capacitor(args.capacitor * 1e-6)
    if args.harvester == "bench":
        harvester = ConstantSupply(0.5)
    elif args.harvester == "outage":
        harvester = SquareWaveHarvester(on_power_w=6e-3, period_s=0.02,
                                        duty=0.4)
    elif args.harvester == "rf":
        harvester = RFHarvester(distance_m=2.0)
    else:  # weak
        harvester = SquareWaveHarvester(on_power_w=5e-3, period_s=0.16,
                                        duty=0.4)
    return PowerSystem(capacitor=capacitor, harvester=harvester)


def _parse_attack(text: Optional[str]) -> AttackSchedule:
    if not text:
        return AttackSchedule.silent()
    try:
        freq_text, dbm_text = text.split(",")
        return AttackSchedule.always(
            EMISource(float(freq_text) * 1e6, float(dbm_text))
        )
    except ValueError:
        raise SystemExit("error: --attack expects MHZ,DBM (e.g. 27,35)")


def _build_sim(args, program, obs=None) -> IntermittentSimulator:
    """One simulator from the shared simulate/trace/profile arguments."""
    return IntermittentSimulator(
        machine=Machine(program.linked),
        runtime=runtime_for(program),
        power=_build_power(args),
        attack=_parse_attack(args.attack),
        path=RemotePath(distance_m=args.distance),
        device_profile=device(args.device),
        monitor_kind=args.monitor,
        config=SimConfig(quantum=64, sleep_min_s=1e-3),
        obs=obs,
        backend=args.backend,
    )


def _thresholds(power) -> dict:
    return {"V_off": power.v_off, "V_backup": power.v_backup,
            "V_on": power.v_on}


def cmd_simulate(args) -> int:
    from .obs import Observability, write_perfetto

    program = _compile(args)
    obs = Observability.for_tracing() \
        if args.trace or args.trace_out else None
    tracer = Tracer(sample_period_s=args.duration / 400).subscribe(obs.bus) \
        if args.trace else None
    sim = _build_sim(args, program, obs=obs)
    power = sim.power
    result = sim.run(args.duration)
    print(f"completions:          {result.completions}")
    print(f"reboots:              {result.reboots}  "
          f"(brownouts: {result.brownouts})")
    print(f"checkpoints:          {result.jit_checkpoints} ok, "
          f"{result.jit_checkpoint_failures} failed")
    if result.attacks_detected:
        print(f"attacks detected:     {result.attacks_detected}")
    if result.machine_fault:
        print(f"DEVICE FAULT:         {result.machine_fault}")
    print(f"final state:          {result.final_state}")
    if tracer is not None:
        print()
        print(tracer.render(
            thresholds=[power.v_backup, power.v_on],
            v_min=power.v_off - 0.2,
            v_max=power.capacitor.v_max + 0.1,
        ))
    if args.trace_out:
        write_perfetto(args.trace_out, sim.obs.bus,
                       trace_name=f"{args.program}:{args.scheme}",
                       thresholds=_thresholds(power))
        print(f"wrote {args.trace_out}")
    return 0


def cmd_trace(args) -> int:
    from .obs import Observability, validate_perfetto, write_jsonl, \
        write_perfetto

    program = _compile(args)
    obs = Observability.for_tracing()
    sim = _build_sim(args, program, obs=obs)
    result = sim.run(args.duration)
    trace = write_perfetto(args.out, obs.bus,
                           trace_name=f"{args.program}:{args.scheme}",
                           thresholds=_thresholds(sim.power))
    validate_perfetto(trace)
    counts = obs.bus.kind_counts()
    print(f"simulated {result.duration_s:.3f} s; final state "
          f"{result.final_state}")
    print(f"wrote {args.out}: {len(trace['traceEvents'])} trace events "
          f"({len(obs.bus.samples)} voltage samples)")
    for kind in sorted(counts):
        print(f"  {kind}: {counts[kind]}")
    if args.events_out:
        lines = write_jsonl(args.events_out, obs.bus.events)
        print(f"wrote {args.events_out}: {lines} events")
    return 0


def cmd_profile(args) -> int:
    from .obs import Observability

    program = _compile(args)
    obs = Observability.for_profiling()
    sim = _build_sim(args, program, obs=obs)
    result = sim.run(args.duration)
    print(f"simulated {result.duration_s:.3f} s; final state "
          f"{result.final_state}; completions {result.completions}")
    print()
    print(obs.profiler.render())
    top = sorted(obs.metrics.as_dict().items(),
                 key=lambda item: -abs(item[1]))[:args.top]
    if top:
        width = max(len(name) for name, _ in top)
        print()
        print("busiest metrics:")
        for name, value in top:
            print(f"  {name:<{width}}  {value:g}")
    return 0


def cmd_sweep(args) -> int:
    from .eval import fmt_pct, frequency_sweep_mhz, sweep_device
    freqs = frequency_sweep_mhz(start=args.start, stop=args.stop,
                                step=args.step, sparse_to=args.stop)
    result = sweep_device(args.device, args.monitor, freqs_mhz=freqs,
                          duration_s=0.03)
    for point in result.points:
        bar = "#" * int(round((1 - point.progress_rate) * 30))
        print(f"{point.freq_mhz:6.0f} MHz  "
              f"R={fmt_pct(point.progress_rate):>8}  {bar}")
    print(f"\nmost effective tone: {result.min_rate_freq_mhz:.0f} MHz "
          f"(R = {fmt_pct(result.min_rate)})")
    return 0


def _parse_axis(text: str) -> List[float]:
    """Parse an axis spec: ``start:stop:step`` or ``v1,v2,...``."""
    try:
        if ":" in text:
            start_t, stop_t, step_t = text.split(":")
            start, stop, step = float(start_t), float(stop_t), float(step_t)
            if step <= 0:
                raise ValueError
            values = []
            value = start
            while value <= stop + 1e-9:
                values.append(value)
                value += step
            return values
        values = [float(part) for part in text.split(",") if part.strip()]
        if not values:
            raise ValueError
        return values
    except ValueError:
        raise SystemExit(
            f"error: bad axis spec {text!r} (want START:STOP:STEP or "
            f"V1,V2,...)"
        )


def cmd_campaign(args) -> int:
    from .eval import fmt_pct
    from .eval.campaign import (
        AttackSpec,
        CampaignRunner,
        ExperimentSpec,
        PathSpec,
    )
    from .eval.common import VictimConfig
    from .eval.resilient import RetryPolicy

    if args.program in REGISTRY:
        victim = VictimConfig(workload=args.program)
    else:
        victim = VictimConfig(workload=os.path.basename(args.program),
                              workload_source=_load_source(args.program))
    victim = victim.with_overrides(
        device_name=args.device, monitor_kind=args.monitor,
        scheme=args.scheme, duration_s=args.duration,
        region_budget=args.budget, backend=args.backend,
    )
    sweep = {"attack.freq_mhz": _parse_axis(args.freqs)}
    if args.distances:
        sweep["path.distance_m"] = _parse_axis(args.distances)
    if args.sample is not None:
        # A seeded subsample of the cartesian grid, carried as paired
        # points on the "*" axis so each keeps its full coordinate.
        import itertools
        import random as random_mod

        if args.sample < 1:
            raise SystemExit("error: --sample wants a positive count")
        targets = list(sweep)
        grid = list(itertools.product(*sweep.values()))
        if args.sample < len(grid):
            rng = random_mod.Random(args.seed)
            keep = sorted(rng.sample(range(len(grid)), args.sample))
            grid = [grid[i] for i in keep]
        sweep = {"*": [dict(zip(targets, combo)) for combo in grid]}
    spec = ExperimentSpec(
        name=f"cli:{args.program}:{args.scheme}",
        victim=victim,
        attack=AttackSpec.tone(tx_dbm=args.dbm),
        path=PathSpec.remote(distance_m=args.distance),
        sweep=sweep,
    )
    policy = RetryPolicy(retries=args.retries, timeout_s=args.timeout_s,
                         seed=args.seed)
    store = None
    dispatcher = None
    if args.via_store:
        if args.store:
            raise SystemExit("error: --store and --via-store are "
                             "mutually exclusive")
        from .serve import ServeClient
        client = ServeClient(args.via_store, tenant=args.tenant)
        store, dispatcher = client, client.dispatcher()
    elif args.store:
        from .store import ResultStore
        store = ResultStore(args.store)
    campaign = CampaignRunner(workers=args.workers, policy=policy,
                              store=store,
                              dispatcher=dispatcher).run(spec)

    for outcome in campaign.outcomes:
        coords = {}
        for axis, value in outcome.params.items():
            if axis == "*":
                coords.update(value)
            else:
                coords[axis] = value
        label = "  ".join(
            f"{axis.split('.')[-1]}={value:g}"
            for axis, value in coords.items()
        )
        if outcome.error:
            kind = outcome.error_kind or "sim_error"
            print(f"{label:<28} FAILED[{kind}]: {outcome.error}")
        else:
            rate = outcome.progress_rate
            bar = "#" * int(round((1 - rate) * 30))
            retried = f"  (attempts: {outcome.attempts})" \
                if outcome.attempts > 1 else ""
            print(f"{label:<28} R={fmt_pct(rate):>8}  {bar}{retried}")
    stats = campaign.stats
    print()
    print(f"grid points:   {stats.grid_points}  "
          f"(failures: {stats.failures})")
    print(f"compiles:      {stats.compiles}  "
          f"(cache hits: {stats.compile_cache_hits})")
    print(f"baselines:     {stats.baseline_runs}  "
          f"(deduplicated: {stats.baseline_cache_hits})")
    print(f"workers:       {stats.workers}")
    if stats.retries or stats.timeouts or stats.worker_crashes \
            or stats.budget_exceeded:
        print(f"resilience:    retries={stats.retries}  "
              f"timeouts={stats.timeouts}  "
              f"worker_crashes={stats.worker_crashes}  "
              f"worker_restarts={stats.worker_restarts}  "
              f"budget_exceeded={stats.budget_exceeded}")
    if args.store or args.via_store:
        where = f"server {args.via_store}" if args.via_store \
            else args.store
        print(f"result store:  hits={stats.store_hits}  "
              f"misses={stats.store_misses}  puts={stats.store_puts}  "
              f"({where})")
    print(f"wall time:     {stats.wall_time_s:.2f} s")
    if args.json:
        campaign.save(args.json)
        print(f"wrote {args.json}")
    return 1 if stats.failures else 0


def cmd_faultsim(args) -> int:
    import json as json_mod

    from .faultsim import FAULT_MODELS, scheme_comparison

    if args.workload not in REGISTRY:
        raise SystemExit(
            f"error: faultsim takes a bundled workload name "
            f"({', '.join(sorted(REGISTRY))}), got {args.workload!r}")
    schemes = [s.strip() for s in args.scheme.split(",") if s.strip()]
    if args.fault_model.strip() == "all":
        models = FAULT_MODELS
    else:
        models = tuple(m.strip() for m in args.fault_model.split(",")
                       if m.strip())
        unknown = [m for m in models if m not in FAULT_MODELS]
        if unknown:
            raise SystemExit(
                f"error: unknown fault models {', '.join(unknown)} "
                f"(choose from {', '.join(FAULT_MODELS)} or 'all')")

    if args.exhaustive:
        return _faultsim_exhaustive(args, schemes, models)

    campaigns = scheme_comparison(
        workload=args.workload, schemes=schemes, models=models,
        points=args.points, seed=args.seed, duration_s=args.duration,
        workers=args.workers, backend=args.backend,
    )
    for scheme, campaign in campaigns.items():
        print(campaign.map.render())
        corrupting = campaign.map.corruption_count()
        print(f"{scheme}: {corrupting} corrupting injections (sdc+brick) "
              f"out of {campaign.map.total}  "
              f"[fingerprint {campaign.map.fingerprint()[:16]}]")
        print()
    if args.json:
        payload = {scheme: campaign.map.to_dict()
                   for scheme, campaign in campaigns.items()}
        with open(args.json, "w") as handle:
            json_mod.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


def _faultsim_exhaustive(args, schemes, models) -> int:
    import json as json_mod

    from .exhaustive import ExhaustiveSpec, exhaustive_map
    from .faultsim import FaultSimError, fault_victim

    try:
        bits = tuple(range(32)) if args.bits is None else tuple(
            int(b) for b in args.bits.split(",") if b.strip())
    except ValueError:
        raise SystemExit(f"error: --bits wants comma-separated bit "
                         f"positions, got {args.bits!r}")
    store = None
    if args.store:
        from .store import ResultStore
        store = ResultStore(args.store)
    try:
        results = {}
        for scheme in schemes:
            try:
                spec = ExhaustiveSpec(
                    victim=fault_victim(workload=args.workload,
                                        scheme=scheme,
                                        duration_s=args.duration,
                                        backend=args.backend),
                    models=tuple(models),
                    start_step=args.start_step, slice_steps=args.slice,
                    step_stride=args.stride, bits=bits,
                    ckpt_windows=args.windows,
                    signal_slots=args.signal_slots,
                )
            except FaultSimError as exc:
                raise SystemExit(f"error: {exc}")
            result = exhaustive_map(spec, workers=args.workers,
                                    naive=args.naive, store=store)
            results[scheme] = result
            print(result.render())
            corrupting = result.map.corruption_count()
            print(f"{scheme}: {corrupting} corrupting injections "
                  f"(sdc+brick) out of {result.map.total}  "
                  f"[fingerprint {result.map.fingerprint()[:16]}]")
            print()
        if args.json:
            payload = {scheme: result.to_dict()
                       for scheme, result in results.items()}
            with open(args.json, "w") as handle:
                json_mod.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"wrote {args.json}")
    finally:
        if store is not None:
            store.close()
    return 0


def cmd_adversary(args) -> int:
    from .adversary import RobustnessReport, compare_defenses, replay

    if args.replay:
        report = RobustnessReport.load(args.replay)
        donors = [d for d in report.defenses.values()
                  if d.worst_case is not None]
        if not donors:
            raise SystemExit(
                f"error: {args.replay} records no found attack to replay")
        donor = max(donors, key=lambda d: d.worst_damage)
        scheme = args.against or donor.scheme
        found = donor.worst_case
        c = found.candidate
        print(f"replaying the worst attack found against {donor.scheme} "
              f"(damage {found.scores.damage:.3f}) against {scheme}:")
        print(f"  {c.freq_mhz:.1f} MHz @ {c.tx_dbm:.1f} dBm, "
              f"{c.distance_m:.1f} m, duty {c.duty:.2f}, "
              f"{found.duration_s:g} s window")
        result = replay(found, report.workload, scheme,
                        backend=args.backend)
        print(f"completions:      {result.completions}")
        print(f"reboots:          {result.reboots}  "
              f"(brownouts: {result.brownouts})")
        print(f"attacks detected: {result.attacks_detected}")
        print(f"final state:      {result.final_state}")
        return 0

    if args.workload not in REGISTRY:
        raise SystemExit(
            f"error: adversary takes a bundled workload name "
            f"({', '.join(sorted(REGISTRY))}), got {args.workload!r}")
    schemes = tuple(s.strip() for s in args.scheme.split(",") if s.strip())
    report = compare_defenses(
        workload=args.workload, schemes=schemes, strategy=args.strategy,
        budget=args.budget, seed=args.seed, duration_s=args.duration,
        batch=args.batch, objective=args.objective, workers=args.workers,
        backend=args.backend,
    )
    print(report.render())
    if args.json:
        report.save(args.json)
        print(f"\nwrote {args.json}")
    return 0


def cmd_serve(args) -> int:
    from .eval.resilient import RetryPolicy
    from .serve import CampaignServer
    from .store import ResultStore

    if args.port is not None:
        address = f"{args.host}:{args.port}"
    else:
        address = args.socket
    store = ResultStore(args.store)
    policy = RetryPolicy(retries=args.retries, timeout_s=args.timeout_s,
                         backoff_s=0.01)
    server = CampaignServer(
        store=store, address=address, shards=args.shards,
        batch=args.batch, policy=policy,
        backend=None if args.backend == "as-submitted" else args.backend,
        workers_per_shard=args.workers,
    )
    resolved = server.start()
    entries = store.stats().entries
    print(f"serving on {resolved}  "
          f"(store: {args.store}, {entries} warm entries; "
          f"{args.shards} shards x {args.workers} workers, "
          f"batch {args.batch})")
    print("submit with: repro-gecko campaign <prog> "
          f"--via-store {resolved}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.stop()
    print("server stopped")
    return 0


def _open_store(args):
    from .store import ResultStore

    if not os.path.isdir(args.root):
        raise SystemExit(f"error: {args.root!r} is not a store "
                         f"directory (create one by running a campaign "
                         f"with --store)")
    return ResultStore(args.root)


def cmd_store_ls(args) -> int:
    store = _open_store(args)
    shown = 0
    for digest in sorted(store.digests()):
        entry = store.get(digest)
        meta = entry.get("meta") or {}
        name = meta.get("name") or meta.get("tenant") or "-"
        elapsed = meta.get("elapsed_s")
        tail = f"  {elapsed:.3f}s" if isinstance(elapsed, (int, float)) \
            else ""
        print(f"{digest}  {name}{tail}")
        shown += 1
        if args.limit and shown >= args.limit:
            remaining = len(store) - shown
            if remaining > 0:
                print(f"... and {remaining} more (raise --limit)")
            break
    if shown == 0:
        print("(empty store)")
    return 0


def cmd_store_stats(args) -> int:
    store = _open_store(args)
    stats = store.stats()
    print(f"root:      {args.root}")
    print(f"entries:   {stats.entries}")
    print(f"buckets:   {stats.buckets}  (segments: {stats.segments})")
    print(f"bytes:     {stats.bytes}")
    if stats.torn_recovered or stats.corrupt_skipped:
        print(f"recovery:  torn_recovered={stats.torn_recovered}  "
              f"corrupt_skipped={stats.corrupt_skipped}")
    return 0


def cmd_store_gc(args) -> int:
    from .store import StoreError

    store = _open_store(args)
    try:
        gc = store.gc(max_age_s=args.max_age_s, dry_run=args.dry_run)
    except StoreError as exc:
        raise SystemExit(f"error: {exc}")
    verb = "would reclaim" if args.dry_run else "reclaimed"
    print(f"entries:   kept {gc.kept}, dropped {gc.dropped} "
          f"({gc.duplicates_dropped} duplicates)")
    print(f"segments:  {gc.segments_compacted} compacted")
    print(f"bytes:     {verb} {gc.bytes_reclaimed}")
    return 0


def cmd_torture_run(args) -> int:
    import json as json_mod

    from .torture import TortureCorpus, TortureSpec, run_campaign

    spec = TortureSpec(
        workload=args.workload, scheme=args.scheme, seed=args.seed,
        cases=args.cases, events_min=args.events_min,
        events_max=args.events_max, backend=args.backend,
        check_backends=not args.no_cross_check,
        region_budget=args.region_budget, max_steps=args.max_steps,
        shrink=not args.no_shrink, shrink_budget=args.shrink_budget)
    report = run_campaign(spec, workers=args.workers)
    summary = report.summary()
    print(f"{spec.workload}/{spec.scheme}: {summary['cases']} cases, "
          f"{summary['violations']} violations, "
          f"{summary['errors']} errors")
    for oracle, count in summary["oracles"].items():
        print(f"  {oracle}: {count}")
    print(f"fingerprint: {summary['fingerprint']}")
    if args.json:
        with open(args.json, "w") as handle:
            json_mod.dump(summary, handle, indent=2, sort_keys=True)
        print(f"summary written to {args.json}")
    if report.repro_cases:
        if args.corpus:
            corpus = TortureCorpus.open(args.corpus)
            fresh = 0
            for case in report.repro_cases:
                digest, was_new = corpus.add(case)
                fresh += was_new
                mark = "new" if was_new else "dup"
                print(f"  {mark}  {digest}  {case.oracle}  "
                      f"{len(case.events)} events")
            print(f"corpus {args.corpus}: +{fresh} new "
                  f"({len(corpus)} total)")
        else:
            for case in report.repro_cases:
                print(f"  repro {case.digest}  {case.oracle}  "
                      f"{len(case.events)} events  (use --corpus to keep)")
    return 1 if report.violations or report.errors else 0


def _open_corpus(args):
    from .torture import TortureCorpus

    if not os.path.isdir(args.corpus):
        raise SystemExit(f"error: {args.corpus!r} is not a corpus "
                         f"directory (create one with 'torture run "
                         f"--corpus')")
    return TortureCorpus.open(args.corpus)


def _corpus_cases(corpus, digest: Optional[str]):
    if digest is None:
        cases = list(corpus.cases())
        if not cases:
            raise SystemExit("error: corpus is empty")
        return cases
    case = corpus.get(digest)
    if case is None:
        raise SystemExit(f"error: no corpus case {digest!r}")
    return [(digest, case)]


def cmd_torture_replay(args) -> int:
    corpus = _open_corpus(args)
    backends = tuple(args.backends.split(",")) if args.backends else None
    failures = 0
    for digest, case in _corpus_cases(corpus, args.digest):
        results = corpus.replay(case, backends=backends,
                                max_steps=args.max_steps)
        for result in results:
            verdict = "ok" if result.ok else \
                ("NOT-REPRODUCED" if not result.reproduced
                 else "FINGERPRINT-DRIFT")
            failures += not result.ok
            print(f"{digest}  {result.backend:<11}  {case.oracle:<19} "
                  f"{verdict}")
            if verdict == "FINGERPRINT-DRIFT":
                print(f"    recorded {result.recorded}")
                print(f"    replayed {result.fingerprint}")
    print(f"{failures} failures" if failures else "all cases reproduced")
    return 1 if failures else 0


def cmd_torture_shrink(args) -> int:
    from .torture import ReproCase, record_fingerprints, shrink_schedule

    corpus = _open_corpus(args)
    for digest, case in _corpus_cases(corpus, args.digest):
        result = shrink_schedule(case.target(), case.schedule(),
                                 case.oracle, backend=case.backend,
                                 run_budget=args.budget)
        before, after = len(case.events), result.events
        print(f"{digest}: {before} -> {after} events "
              f"({result.runs} runs, "
              f"{'minimal' if result.minimal else 'budget exhausted'})")
        if after < before:
            data = case.to_dict()
            data["events"] = result.schedule.to_dicts()
            smaller = record_fingerprints(ReproCase.from_dict(data))
            new_digest, was_new = corpus.add(smaller)
            if was_new:
                print(f"  stored smaller case {new_digest}")
    return 0


def cmd_torture_corpus(args) -> int:
    corpus = _open_corpus(args)
    shown = 0
    for digest, case in corpus.cases():
        print(f"{digest}  {case.workload:<10} {case.scheme:<14} "
              f"{case.oracle:<19} {len(case.events)} events")
        if args.verbose and case.detail:
            print(f"    {case.detail}")
        shown += 1
    print(f"({shown} cases)" if shown else "(empty corpus)")
    return 0


# ----------------------------------------------------------------------
# Parser.
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gecko",
        description=__doc__.splitlines()[0],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list bundled workloads") \
        .set_defaults(func=cmd_workloads)
    sub.add_parser("devices", help="list the platform catalog") \
        .set_defaults(func=cmd_devices)

    p = sub.add_parser("compile", help="compile and show statistics")
    _add_program_args(p)
    p.add_argument("--dump", action="store_true",
                   help="print the final instruction stream")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="execute on stable power")
    _add_program_args(p)
    p.add_argument("--max-steps", type=int, default=10_000_000)
    _add_backend_arg(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("simulate", help="intermittent simulation")
    _add_program_args(p)
    _add_sim_args(p)
    p.add_argument("--trace", action="store_true",
                   help="render an ASCII voltage/event trace")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="write a Perfetto/Chrome trace of the run here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("trace",
                       help="simulate and export a Perfetto timeline")
    _add_program_args(p)
    _add_sim_args(p)
    p.add_argument("--out", default="trace.json", metavar="PATH",
                   help="Perfetto/Chrome trace output path")
    p.add_argument("--events-out", default=None, metavar="PATH",
                   help="also write the event log as JSONL here")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("profile",
                       help="simulate under the profiler and report")
    _add_program_args(p)
    _add_sim_args(p)
    p.add_argument("--top", type=int, default=10,
                   help="metrics to list in the busiest-metrics table")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("sweep", help="frequency-sweep a device")
    p.add_argument("--device", default="TI-MSP430FR5994",
                   choices=device_names())
    p.add_argument("--monitor", default="adc", choices=["adc", "comp"])
    p.add_argument("--start", type=float, default=5)
    p.add_argument("--stop", type=float, default=45)
    p.add_argument("--step", type=float, default=4)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("campaign",
                       help="declarative sweep campaign (parallel)")
    _add_program_args(p)
    p.add_argument("--freqs", default="5:45:4", metavar="A:B:STEP|F1,F2,..",
                   help="frequency axis in MHz")
    p.add_argument("--distances", default=None, metavar="A:B:STEP|D1,D2,..",
                   help="optional attacker-distance axis in meters")
    p.add_argument("--dbm", type=float, default=35.0,
                   help="attacker transmit power")
    p.add_argument("--distance", type=float, default=5.0,
                   help="attacker distance when no distance axis is given")
    p.add_argument("--device", default="TI-MSP430FR5994",
                   choices=device_names())
    p.add_argument("--monitor", default="adc", choices=["adc", "comp"])
    p.add_argument("--duration", type=float, default=0.03,
                   help="simulated seconds per grid point")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for the grid")
    p.add_argument("--sample", type=int, default=None, metavar="N",
                   help="run a seeded random subsample of N grid points "
                        "instead of the full grid")
    p.add_argument("--timeout-s", type=float, default=None, metavar="S",
                   help="per-run wall-clock timeout (pooled runs only); "
                        "expired runs are tagged 'timeout'")
    p.add_argument("--retries", type=int, default=0,
                   help="re-attempts per failed run, with seeded "
                        "jittered backoff")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="memoize results in a content-addressed store "
                        "at DIR, each run as it finishes; repeat runs "
                        "are served without simulating, so rerunning a "
                        "killed campaign with the same DIR resumes it")
    p.add_argument("--via-store", default=None, metavar="ADDR",
                   help="submit through a running campaign server "
                        "(see 'serve'): warm hits come from its store, "
                        "misses run on its worker shards")
    p.add_argument("--tenant", default="default",
                   help="fair-share tenant name for --via-store "
                        "submissions")
    _add_seed_arg(p)
    _add_backend_arg(p)
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the CampaignResult JSON here")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("faultsim",
                       help="systematic fault-injection campaign")
    p.add_argument("workload", help="bundled workload name")
    p.add_argument("--scheme", default="nvp,gecko",
                   metavar="S1,S2,..",
                   help="comma-separated crash-consistency schemes")
    p.add_argument("--fault-model", default="all", metavar="M1,M2,..|all",
                   help="fault models to inject (default: all)")
    p.add_argument("--points", type=int, default=50,
                   help="injections per fault model")
    _add_seed_arg(p)
    p.add_argument("--duration", type=float, default=0.25,
                   help="simulated seconds per injection")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for the injection grid")
    _add_backend_arg(p)
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the vulnerability maps as JSON here")
    p.add_argument("--exhaustive", action="store_true",
                   help="enumerate the complete injection space instead "
                        "of sampling --points draws (see repro.exhaustive)")
    p.add_argument("--naive", action="store_true",
                   help="with --exhaustive: disable fault-space reduction "
                        "and snapshot forking (the differential oracle)")
    p.add_argument("--start-step", type=int, default=0,
                   help="with --exhaustive: first instruction step of the "
                        "step-model slice")
    p.add_argument("--slice", type=int, default=None, metavar="STEPS",
                   help="with --exhaustive: limit step models to STEPS "
                        "instruction steps (default: the whole run)")
    p.add_argument("--stride", type=int, default=1,
                   help="with --exhaustive: stride over instruction steps")
    p.add_argument("--bits", default=None, metavar="B1,B2,..",
                   help="with --exhaustive: bit positions to flip "
                        "(default: all 32)")
    p.add_argument("--windows", type=int, default=1,
                   help="with --exhaustive: checkpoint windows for the "
                        "image-fault grids")
    p.add_argument("--signal-slots", type=int, default=8,
                   help="with --exhaustive: monitor-signal grid slots")
    p.add_argument("--store", default=None, metavar="DIR",
                   help="with --exhaustive: memoize classifications in a "
                        "content-addressed store at DIR; warm reruns "
                        "simulate nothing")
    p.set_defaults(func=cmd_faultsim)

    p = sub.add_parser("adversary",
                       help="adaptive attack search and robustness verdict")
    p.add_argument("workload", nargs="?", default="blink",
                   help="bundled workload name (default: blink)")
    p.add_argument("--scheme", default="nvp,gecko", metavar="S1,S2,..",
                   help="comma-separated defenses to search and compare")
    p.add_argument("--strategy", default="anneal",
                   choices=["grid", "random", "anneal", "halving"])
    p.add_argument("--objective", default="damage",
                   choices=["damage", "stealth", "efficiency"])
    p.add_argument("--budget", type=int, default=32,
                   help="candidate evaluations per defense")
    p.add_argument("--batch", type=int, default=8,
                   help="candidates per search round")
    _add_seed_arg(p)
    p.add_argument("--duration", type=float, default=0.05,
                   help="simulated seconds per candidate")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for candidate batches")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the RobustnessReport JSON here")
    p.add_argument("--replay", default=None, metavar="PATH",
                   help="replay the strongest attack from a saved report "
                        "instead of searching")
    p.add_argument("--against", default=None, metavar="SCHEME",
                   help="defense to replay against (default: the scheme "
                        "the attack was found against)")
    _add_backend_arg(p)
    p.set_defaults(func=cmd_adversary)

    p = sub.add_parser("serve",
                       help="run the always-on campaign server")
    p.add_argument("--store", default="results-store", metavar="DIR",
                   help="result-store directory (created if missing)")
    p.add_argument("--socket", default="serve.sock", metavar="PATH",
                   help="unix socket path to listen on")
    p.add_argument("--host", default="127.0.0.1",
                   help="TCP host when --port is given")
    p.add_argument("--port", type=int, default=None, metavar="N",
                   help="listen on TCP host:port instead of the unix "
                        "socket (0 picks a free port)")
    p.add_argument("--shards", type=int, default=2,
                   help="worker shard threads draining the queues")
    p.add_argument("--workers", type=int, default=1,
                   help="executor processes per shard")
    p.add_argument("--batch", type=int, default=8,
                   help="runs a shard takes per fair-share cycle")
    p.add_argument("--retries", type=int, default=1,
                   help="re-attempts per failed run")
    p.add_argument("--timeout-s", type=float, default=None, metavar="S",
                   help="per-run wall-clock timeout on the shards")
    p.add_argument("--backend", default="threaded",
                   choices=["threaded", "interpreter", "as-submitted"],
                   help="execution backend for misses ('as-submitted' "
                        "honors each run's own setting)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("store",
                       help="inspect or maintain a result store")
    store_sub = p.add_subparsers(dest="store_op", required=True)

    q = store_sub.add_parser("ls", help="list stored results")
    q.add_argument("root", help="store directory")
    q.add_argument("--limit", type=int, default=50,
                   help="entries to show (0 = all)")
    q.set_defaults(func=cmd_store_ls)

    q = store_sub.add_parser("stats", help="show store statistics")
    q.add_argument("root", help="store directory")
    q.set_defaults(func=cmd_store_stats)

    q = store_sub.add_parser("gc",
                             help="compact segments and drop stale "
                                  "entries")
    q.add_argument("root", help="store directory")
    q.add_argument("--max-age-s", type=float, default=None, metavar="S",
                   help="also drop entries older than S seconds")
    q.add_argument("--dry-run", action="store_true",
                   help="report what would change without rewriting")
    q.set_defaults(func=cmd_store_gc)

    p = sub.add_parser("torture",
                       help="adversarial crash-consistency fuzzing")
    torture_sub = p.add_subparsers(dest="torture_op", required=True)

    q = torture_sub.add_parser("run", help="run a seeded fuzz campaign")
    q.add_argument("workload", help="bundled workload name")
    q.add_argument("--scheme", default="gecko-jit",
                   choices=["gecko-jit", "gecko-rollback", "nvp",
                            "ratchet"])
    _add_seed_arg(q)
    q.add_argument("--cases", type=int, default=50,
                   help="schedules to generate and run")
    q.add_argument("--events-min", type=int, default=2)
    q.add_argument("--events-max", type=int, default=10)
    _add_backend_arg(q)
    q.add_argument("--no-cross-check", action="store_true",
                   help="skip the backend_equivalence mirror run")
    q.add_argument("--region-budget", type=int, default=None,
                   help="gecko region budget (instructions)")
    q.add_argument("--max-steps", type=int, default=None,
                   help="per-case step watchdog override")
    q.add_argument("--no-shrink", action="store_true",
                   help="report violations without minimizing them")
    q.add_argument("--shrink-budget", type=int, default=300,
                   help="schedule re-runs allowed per shrink")
    q.add_argument("--workers", type=int, default=1,
                   help="worker processes for the case fan-out")
    q.add_argument("--corpus", default=None, metavar="DIR",
                   help="persist shrunk repro cases in this corpus")
    q.add_argument("--json", default=None, metavar="PATH",
                   help="write the campaign summary JSON here")
    q.set_defaults(func=cmd_torture_run)

    q = torture_sub.add_parser("replay",
                               help="replay corpus cases bit-identically")
    q.add_argument("corpus", help="corpus directory")
    q.add_argument("digest", nargs="?", default=None,
                   help="one case digest (default: every case)")
    q.add_argument("--backends", default=None, metavar="B1,B2",
                   help="backends to replay on (default: the recorded "
                        "ones)")
    q.add_argument("--max-steps", type=int, default=None)
    q.set_defaults(func=cmd_torture_replay)

    q = torture_sub.add_parser("shrink",
                               help="re-minimize stored cases")
    q.add_argument("corpus", help="corpus directory")
    q.add_argument("digest", nargs="?", default=None,
                   help="one case digest (default: every case)")
    q.add_argument("--budget", type=int, default=300,
                   help="schedule re-runs allowed per case")
    q.set_defaults(func=cmd_torture_shrink)

    q = torture_sub.add_parser("corpus", help="list corpus cases")
    q.add_argument("corpus", help="corpus directory")
    q.add_argument("-v", "--verbose", action="store_true",
                   help="also print each case's violation detail")
    q.set_defaults(func=cmd_torture_corpus)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
