"""Simulator results pinned by digest on the paths sim-attack does not run.

The benchmark's sim-attack workload covers the ADC monitor, the remote
path, a continuous tone, the outage harvester and the threaded backend
with no observability and no fault injector.  Each case here takes one
other branch of the simulator's slice path (comparator re-samples at
reboot, DPI boost, segment edges mid-run, other harvesters, tracing
bundles, fault injection, the interpreter) and pins ``content_digest`` of
the whole :meth:`SimResult.to_dict`.  A refactor of the simulator, the
energy, EMI or monitor layers, or a runtime protocol that keeps these
digests keeps every float those paths compute.

After a deliberate change to simulation output, print fresh digests with
``PYTHONPATH=src python tests/test_sim_paths.py``.
"""

import contextlib
import functools
import hashlib
import io

import pytest

import repro
from repro.cli import main
from repro.emi import AttackSchedule, DPIPath, EMISource, RemotePath
from repro.energy import Capacitor, ConstantSupply, PowerSystem, RFHarvester
from repro.eval.common import REMOTE_DISTANCE_M, fault_victim
from repro.faultsim import FaultInjector, FaultSpec
from repro.obs import Observability
from repro.runtime import IntermittentSimulator, Machine, runtime_for
from repro.store.digest import content_digest

TONE = EMISource(27e6, 35.0)


@functools.lru_cache(maxsize=None)
def _compiled(scheme):
    return fault_victim("crc16", scheme).compile()


def _gapped_schedule():
    """Tone windows with gaps, plus a burst at another frequency that
    overlaps the second window: segment edges fall mid-run."""
    schedule = AttackSchedule.from_intervals(
        [(0.004, 0.011), (0.016, 0.027), (0.033, 0.041)], TONE)
    schedule.add(0.019, 0.023, EMISource(31e6, 33.0))
    return schedule


def _simulate(scheme="gecko", duration_s=0.04, attack=TONE,
              backend="threaded", power=None, path=None, monitor_kind="adc",
              obs=None, fault=None, **config):
    """One crc16 run on the victim rig, varied in one place per case."""
    victim = fault_victim("crc16", scheme)
    compiled = _compiled(scheme)
    if isinstance(attack, EMISource):
        attack = AttackSchedule.always(attack)
    injector = FaultInjector(fault) if fault is not None else None
    sim = IntermittentSimulator(
        machine=Machine(compiled.linked), runtime=runtime_for(compiled),
        power=power or victim.power_system(), attack=attack,
        path=path or RemotePath(distance_m=REMOTE_DISTANCE_M),
        device_profile=victim.profile(), monitor_kind=monitor_kind,
        config=victim.sim_config(**config), fault_injector=injector,
        obs=obs, backend=backend)
    result = sim.run(duration_s)
    if injector is not None:
        assert injector.fired, fault
    return result


def _power(harvester):
    """The victim's 22 uF buffer on a supply weaker than the core's draw,
    so the harvested power shows in every voltage the run reads."""
    return PowerSystem(capacitor=Capacitor(22e-6), harvester=harvester)


CASES = {
    "comparator/nvp": lambda: _simulate(scheme="nvp", monitor_kind="comp"),
    "comparator/gecko": lambda: _simulate(monitor_kind="comp"),
    "dpi-p2/nvp": lambda: _simulate(scheme="nvp", path=DPIPath("P2"),
                                    attack=EMISource(27e6, 20.0)),
    "gapped-burst/nvp": lambda: _simulate(scheme="nvp",
                                          attack=_gapped_schedule(),
                                          duration_s=0.05),
    "gapped-burst/gecko": lambda: _simulate(attack=_gapped_schedule(),
                                            duration_s=0.05),
    "constant-supply/gecko": lambda: _simulate(
        power=_power(ConstantSupply(1e-3)), duration_s=0.05),
    "rf-harvester/nvp": lambda: _simulate(
        scheme="nvp", power=_power(RFHarvester(distance_m=2.0)),
        attack=AttackSchedule.silent(), duration_s=0.05),
    "traced-timeline/gecko": lambda: _simulate(
        attack=_gapped_schedule(), obs=Observability.for_tracing(),
        record_timeline=True, timeline_dt_s=0.005),
    "signal_drop/nvp": lambda: _simulate(
        scheme="nvp", attack=AttackSchedule.silent(),
        fault=FaultSpec(model="signal_drop", trigger_time_s=0.01)),
    "signal_spurious/nvp": lambda: _simulate(
        scheme="nvp", attack=AttackSchedule.silent(),
        fault=FaultSpec(model="signal_spurious", trigger_time_s=0.012)),
    "ckpt_corrupt/gecko": lambda: _simulate(
        attack=AttackSchedule.silent(),
        fault=FaultSpec(model="ckpt_corrupt", target=16, bit=3,
                        trigger_time_s=0.005)),
    "interpreter/gecko": lambda: _simulate(
        backend="interpreter", attack=_gapped_schedule(), duration_s=0.03),
}


def _cli_digest() -> str:
    """sha256 of the stdout of ``simulate crc16 --scheme gecko --trace
    --attack 27,35 --backend threaded`` (the rendered voltage trace)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["simulate", "crc16", "--scheme", "gecko", "--trace",
                     "--attack", "27,35", "--backend", "threaded"])
    assert code == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


EXPECTED = {
    'ckpt_corrupt/gecko':
        "7d6973ff664be12ddb00558d6fcb3c2ecd93989111a7a7bc0adb6444347f7d5b",
    'comparator/gecko':
        "559d30b9bd041436b561aa511a7df7b9a301a21fe6bbc356f2ebbe09b0fb3df7",
    'comparator/nvp':
        "2b5272fe8c43933af621673058dbfe5804b6ecc7b96b3f2c00de8edc48082422",
    'constant-supply/gecko':
        "944cbfe9e03f452548e4a8e6256b0b8d86ed184fb44b3affe1e24fb4246e5f0e",
    'dpi-p2/nvp':
        "f1c04958ecab2f1cb22893bf478867e479cb36720485b29ef97766c5c9a7c382",
    'gapped-burst/gecko':
        "d9caa96c9798e96d089ea7a4a47018173d168cd924bb3f2f018af09512b51568",
    'gapped-burst/nvp':
        "f13749864e5099f8cd93b5df98bb27936cbd90d751e2a4a253b59afba05d235b",
    'interpreter/gecko':
        "695df80029d465594b9281a078d5b88ec08925af6e545ea9b58b3f1cce1b1873",
    'rf-harvester/nvp':
        "69f8d9053bc63dc96446c4054def2a5de83681198d6debec36cbd44deb6acdf9",
    'signal_drop/nvp':
        "87bf5112c916116e2473406eebe2cd6d8a82212bf714efccf482f92fc6710d7e",
    'signal_spurious/nvp':
        "d8d24bfdc5f5358643e485807432caf4cc5b3dcf44a1a1d3164e5cbbae243227",
    'traced-timeline/gecko':
        "0c0280808a6765c8a741168c6184612cb4715fba7bfc9fc7e4da62c792f0d671",
}

EXPECTED_CLI = "bf6496dd2b27401c308f9a5b83fb22c7fc9369cc5900f7d3f3fdb0dc6b1a8bdd"


@pytest.mark.parametrize("name", sorted(CASES))
def test_sim_result_digest(name):
    assert content_digest(CASES[name]().to_dict()) == EXPECTED[name]


def test_simulate_trace_stdout():
    assert _cli_digest() == EXPECTED_CLI


# sim-attack's matrix: no SimResult field carries an energy figure, so an
# energy-model change that crosses no threshold keeps every digest above
# and in perfbench's references.  The capacitor's end-of-run energy sees it.
SIM_ATTACK = [(w, s, a) for w in ("crc16", "dhrystone", "glucose")
              for s in ("nvp", "gecko") for a in ("silent", "tone")]


def _end_energy(workload, scheme, attack):
    """``capacitor.energy.hex()`` after sim-attack's run of one
    configuration (0.1 s, threaded, the victim's outage harvester)."""
    victim = fault_victim(workload, scheme, duration_s=0.1,
                          backend="threaded")
    power = victim.power_system()
    repro.simulate_program(
        victim.compile(), duration_s=0.1, power=power,
        attack=AttackSchedule.silent() if attack == "silent"
        else AttackSchedule.always(TONE),
        path=RemotePath(distance_m=REMOTE_DISTANCE_M),
        device=victim.profile(), monitor_kind=victim.monitor_kind,
        config=victim.sim_config(), backend="threaded")
    return power.capacitor.energy.hex()


EXPECTED_ENERGY = {
    'crc16/nvp/silent': '0x1.3752864b5a409p-14',
    'crc16/nvp/tone': '0x1.e337d77f5a11dp-14',
    'crc16/gecko/silent': '0x1.374c46a81d4dcp-14',
    'crc16/gecko/tone': '0x1.c01df2425e7b0p-15',
    'dhrystone/nvp/silent': '0x1.372c013957729p-14',
    'dhrystone/nvp/tone': '0x1.d71829ba4b439p-14',
    'dhrystone/gecko/silent': '0x1.373b16b727973p-14',
    'dhrystone/gecko/tone': '0x1.c01d526549a89p-15',
    'glucose/nvp/silent': '0x1.372ca1fc071f6p-14',
    'glucose/nvp/tone': '0x1.db5e00b414d55p-14',
    'glucose/gecko/silent': '0x1.37549f24d1e0bp-14',
    'glucose/gecko/tone': '0x1.cfd792ed62fbap-14',
}


@pytest.mark.parametrize("case", SIM_ATTACK, ids="/".join)
def test_sim_attack_end_energy(case):
    assert _end_energy(*case) == EXPECTED_ENERGY["/".join(case)]


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f"    {name!r}:\n"
              f"        \"{content_digest(CASES[name]().to_dict())}\",")
    print(f"EXPECTED_CLI = \"{_cli_digest()}\"")
    for case in SIM_ATTACK:
        print(f"    {'/'.join(case)!r}: {_end_energy(*case)!r},")
