"""Compiled programs pinned by digest.

Each digest covers everything a compiled program carries into a run: every
linked instruction's text and annotations, every MARK's restore plan in
dict order (slot loads, and recovery-block instructions with their
``meta``), the symbol table and the :class:`CompileStats`.  A compiler
refactor that keeps these digests keeps every simulation, campaign, map
and torture fingerprint downstream of them.

After a deliberate change to compiled output, print fresh digests with
``PYTHONPATH=src python tests/test_compiled_programs.py``.
"""

import dataclasses
import hashlib

import pytest

from repro.core import RegionPlan, SliceExec, compile_scheme
from repro.workloads import REGISTRY, source

SCHEMES = ("nvp", "ratchet", "gecko", "gecko-nopruning")
GECKO_BUDGETS = (800, 1500)


def _instr_text(instr) -> str:
    meta = sorted((key, repr(value)) for key, value in instr.meta.items()
                  if key != "plan")
    return f"{instr} {meta}"


def program_digest(program) -> str:
    lines = []
    for instr in program.linked.instrs:
        lines.append(_instr_text(instr))
        plan = instr.meta.get("plan")
        if isinstance(plan, RegionPlan):
            lines.append(f"  plan region={plan.region}")
            for reg, action in plan.restores.items():
                if isinstance(action, SliceExec):
                    lines.append(f"  R{reg} slice target={action.target}")
                    lines.extend(f"    {_instr_text(i)}"
                                 for i in action.instrs)
                else:
                    lines.append(f"  R{reg} {action!r}")
    lines.append(repr(sorted(program.linked.symtab.items())))
    lines.append(repr(dataclasses.asdict(program.stats)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _cases():
    for name in REGISTRY:
        for scheme in SCHEMES:
            yield name, scheme, None
        for budget in GECKO_BUDGETS:
            yield name, "gecko", budget


def _compile(name, scheme, budget):
    kwargs = {} if budget is None else {"region_budget": budget}
    return compile_scheme(source(name), scheme, **kwargs)


EXPECTED = {
    ('basicmath', 'nvp', None):
        "017acd60838ffee6531c7638239d7062c60f94f4223eef0afb87e0705b1eba9d",
    ('basicmath', 'ratchet', None):
        "2dd2669143529dadfaf1ec83da20883d278beb82a7a6c5d1903c0e49e91f7b74",
    ('basicmath', 'gecko', None):
        "1e1b1e75d746acebe319f6e9a643f31356ef9ebb1e1fdf6c9ec8e855a48ce72d",
    ('basicmath', 'gecko-nopruning', None):
        "3772e230028b77fb2289210a1307d53a1d50187861b1ca6a2f607e8de4d5e841",
    ('basicmath', 'gecko', 800):
        "f60e316e7a60f7e9126ddf6f10aae404d92f2f7dda24ffa6666ca043fb68e12e",
    ('basicmath', 'gecko', 1500):
        "f60e316e7a60f7e9126ddf6f10aae404d92f2f7dda24ffa6666ca043fb68e12e",
    ('bitcnt', 'nvp', None):
        "c27291cb0fa43a637fc5a49a989cb49aa7d30b022ec0e87ff30e1244f6534108",
    ('bitcnt', 'ratchet', None):
        "131eb3389cecf23ff314d0d2a8ca7c24fb5366c70e3f6f5d2c2fc5fc372206c4",
    ('bitcnt', 'gecko', None):
        "ceefe1f18c81216285cde27427b6d32a810f61f6a5f108ce48e5332bb37406bc",
    ('bitcnt', 'gecko-nopruning', None):
        "20332f61430a2ca620e7919159a2536ff0a00b6a9969f2e8f73931432aaab983",
    ('bitcnt', 'gecko', 800):
        "ceefe1f18c81216285cde27427b6d32a810f61f6a5f108ce48e5332bb37406bc",
    ('bitcnt', 'gecko', 1500):
        "ceefe1f18c81216285cde27427b6d32a810f61f6a5f108ce48e5332bb37406bc",
    ('blink', 'nvp', None):
        "3c84871447c9c3efd010410026aba41308e928fb886a54d495e0a145048c3ef9",
    ('blink', 'ratchet', None):
        "922afd69c9944ba2ef80f1496f3a04cd9459f331b9343adfb729ba6a457665b5",
    ('blink', 'gecko', None):
        "4a4f7d326f7c3a2f8ad30596fd1f5715cf37a9daf58e491c563bc91286e17e74",
    ('blink', 'gecko-nopruning', None):
        "6b70af5a7514a984ccabac798cc06aefa364e28f4398d1bc2ee34002c0de4ee5",
    ('blink', 'gecko', 800):
        "4a4f7d326f7c3a2f8ad30596fd1f5715cf37a9daf58e491c563bc91286e17e74",
    ('blink', 'gecko', 1500):
        "4a4f7d326f7c3a2f8ad30596fd1f5715cf37a9daf58e491c563bc91286e17e74",
    ('crc16', 'nvp', None):
        "b649ea4c26d4737fcaa673bd0f0f0e6025b845d3583b063b3d2aee186ece9bec",
    ('crc16', 'ratchet', None):
        "dd636121874db6982e6ffd61f045868cfd0c10505411f38b9f5d55545b720971",
    ('crc16', 'gecko', None):
        "4cfb8265444ccf5733286df08d44b0655a994b6b8f2ad7f43bf51bfec5d4d7e8",
    ('crc16', 'gecko-nopruning', None):
        "9e810864d7704cf7fc8003a0fc11ff82f48d7352673a59176b387fa2f7639e21",
    ('crc16', 'gecko', 800):
        "46f39de1b10ea501837e9cd13acd6fa567c48f81e42ca4193301e5811b5eb39d",
    ('crc16', 'gecko', 1500):
        "46f39de1b10ea501837e9cd13acd6fa567c48f81e42ca4193301e5811b5eb39d",
    ('crc32', 'nvp', None):
        "edfa7263bd0b02bed10836a2ba0793387d076d02af41a2061e6f7bfbaa26f81c",
    ('crc32', 'ratchet', None):
        "6aebdfff1762a732b4afecb7e092c4ac446335271be49025ce99e244a712939c",
    ('crc32', 'gecko', None):
        "4324f5a4e27be2ed4a155acad00703a6a376da40dd6c7ac68bca5b84351f824a",
    ('crc32', 'gecko-nopruning', None):
        "5c95210c9843dd0f803a76e0324267fc5fb938314b3a90dd0bba9d466dd92d52",
    ('crc32', 'gecko', 800):
        "79884507a307572c3228f108d21c62447c3f51a06f5e8413160713aded3637fe",
    ('crc32', 'gecko', 1500):
        "79884507a307572c3228f108d21c62447c3f51a06f5e8413160713aded3637fe",
    ('dhrystone', 'nvp', None):
        "f59c5dca8362f443cbeb603f3081bedbab33016aa2472f908264e9472efd2889",
    ('dhrystone', 'ratchet', None):
        "50ae3333e8d03e0e962de86c483f32b6171663ebfb00a74c5ee85166d6110828",
    ('dhrystone', 'gecko', None):
        "d5cc30e499d08787545c6447cd344f350deee767c62f05d9820e3caa818bf5ac",
    ('dhrystone', 'gecko-nopruning', None):
        "dcf62cc5e88622631b0f91272311432bc6cf6a0c89a31de26a6a94f5ea059b43",
    ('dhrystone', 'gecko', 800):
        "369b12ec032ffe8391683658b410b24339f96b277828b0ad1bce88f92813f2bc",
    ('dhrystone', 'gecko', 1500):
        "d5cc30e499d08787545c6447cd344f350deee767c62f05d9820e3caa818bf5ac",
    ('dijkstra', 'nvp', None):
        "ae4c5e6ea7df15200b2b463805d67e7f6072ecf8f215ea54b4ba120e00e16cfe",
    ('dijkstra', 'ratchet', None):
        "8d202b73053c84955383b9577ae624213b065812d59355e435b239b0a2da847d",
    ('dijkstra', 'gecko', None):
        "c3b99328e77ec3a78c3940d4870dd22dbfa08b8f54d387ecba73e731dff6b852",
    ('dijkstra', 'gecko-nopruning', None):
        "b99dc29a49c2e41261fb6e23652685698369660e9fee9f6915a52a94b046d7b3",
    ('dijkstra', 'gecko', 800):
        "c3b99328e77ec3a78c3940d4870dd22dbfa08b8f54d387ecba73e731dff6b852",
    ('dijkstra', 'gecko', 1500):
        "c3b99328e77ec3a78c3940d4870dd22dbfa08b8f54d387ecba73e731dff6b852",
    ('fft', 'nvp', None):
        "318a84975d7c7264b7c59e0b147d9562cbe601c2576f814a07b64c097c4a0729",
    ('fft', 'ratchet', None):
        "4db1250f3dcb9725d6d3cc650c46f79dd42f322ae871f333fcee9547089fe28c",
    ('fft', 'gecko', None):
        "281293ecc60572a360becf401b3798c9f2c14a74b7a934e26288b7f3c137d5c2",
    ('fft', 'gecko-nopruning', None):
        "c03afdc18853950ebdaaff240ad895113b97a66294cd51c0344959f7fa1189b3",
    ('fft', 'gecko', 800):
        "ada9e5c0abdc015bcc1ceaa05337e5d16008462423274b85ec3761a7a2dc20b0",
    ('fft', 'gecko', 1500):
        "ada9e5c0abdc015bcc1ceaa05337e5d16008462423274b85ec3761a7a2dc20b0",
    ('fir', 'nvp', None):
        "af83204128e0879cdcddb2625c274c3c1c61f72f4d6be3b5a19dd5112f6df036",
    ('fir', 'ratchet', None):
        "7cb956c1f5f7234593b73a55df8ba758abcff91b72b48d83ebe9fd3f0d94010c",
    ('fir', 'gecko', None):
        "b5ecd8b3ba653c3a705a0ee46ad99ab3e681c37b17ec0b8e737ee851ce6324b5",
    ('fir', 'gecko-nopruning', None):
        "aa642b877236bbdcd31037539c2e0cd02efb66f669a7723d9be1148bc8d3c617",
    ('fir', 'gecko', 800):
        "b5ecd8b3ba653c3a705a0ee46ad99ab3e681c37b17ec0b8e737ee851ce6324b5",
    ('fir', 'gecko', 1500):
        "b5ecd8b3ba653c3a705a0ee46ad99ab3e681c37b17ec0b8e737ee851ce6324b5",
    ('qsort', 'nvp', None):
        "f85afd4f83c8b139728e1a51001d25d9581876612482132e9cf15f42e94a7dc9",
    ('qsort', 'ratchet', None):
        "69d6f32251344b919ddbd593024adf35206bcc09c83f4d62e31d22ed8f6f1220",
    ('qsort', 'gecko', None):
        "d05b26cf9ca58ffd32c328f6a45ef4f81a06bed04229593a02a8b00c22165419",
    ('qsort', 'gecko-nopruning', None):
        "ce9342ebe84c9142252d333a52b4fbddde93f3c0ca0de3e20c260eeb403dd611",
    ('qsort', 'gecko', 800):
        "d9b73ac2009af6216ad082c31e1c2b5e9b7b400778289e73a276edea8c571507",
    ('qsort', 'gecko', 1500):
        "d9b73ac2009af6216ad082c31e1c2b5e9b7b400778289e73a276edea8c571507",
    ('stringsearch', 'nvp', None):
        "38e1cd5ec7d9501986aa0cd7de2f540f2ac08204746e54d47673a8fab1bcf545",
    ('stringsearch', 'ratchet', None):
        "027bf7090893e13cea126b973901be998788d9a18d7224564e04e94396d7c419",
    ('stringsearch', 'gecko', None):
        "810291a9e3512bcf223250717283f2a866506905ee4eb0827b276dfd23a3807a",
    ('stringsearch', 'gecko-nopruning', None):
        "0a4eb4058284437c990014c659a8ba0cb0cb0dcd5bbf46b0fc766c9e4ac30dd3",
    ('stringsearch', 'gecko', 800):
        "2b55445b46e3611877df712e890e49f319dc724eb408bc7ce79320e3e0c184e6",
    ('stringsearch', 'gecko', 1500):
        "2b55445b46e3611877df712e890e49f319dc724eb408bc7ce79320e3e0c184e6",
    ('glucose', 'nvp', None):
        "bf9cbd44fad9fbeaac35b040e09bbc52e906f383cda440fc18069c9b182e947e",
    ('glucose', 'ratchet', None):
        "801eeff225972010f9abf0aa7a77d1b17ff20762a83345df2464d9ccf13ecc46",
    ('glucose', 'gecko', None):
        "14907388662a3f9a85d6af48bcb9a7fdd20f91fae75d55bc7394cc951cebfdb5",
    ('glucose', 'gecko-nopruning', None):
        "450019e2ebc86047b6751469bda7da6f256eb43e580d74be03e0c5d52f57ffe5",
    ('glucose', 'gecko', 800):
        "14907388662a3f9a85d6af48bcb9a7fdd20f91fae75d55bc7394cc951cebfdb5",
    ('glucose', 'gecko', 1500):
        "14907388662a3f9a85d6af48bcb9a7fdd20f91fae75d55bc7394cc951cebfdb5",
    ('heartbeat', 'nvp', None):
        "9b645ec3fbacb9035bb0cff7bbe2653bf8c6789a3fbf19c16d45cbf65e0bb305",
    ('heartbeat', 'ratchet', None):
        "b1b349df5342e16095bfcdae31b14a35ee7e2765b00fe7366e2f698c1e4d0c79",
    ('heartbeat', 'gecko', None):
        "e0d002c4c5a864fcc515d414bb6ca1357f26cc62c8b28568e8d701fe99b83412",
    ('heartbeat', 'gecko-nopruning', None):
        "5d1bce077a50b476259379a0bfdb969a214024f2e39cc702d491f6ce5f20f36d",
    ('heartbeat', 'gecko', 800):
        "e0d002c4c5a864fcc515d414bb6ca1357f26cc62c8b28568e8d701fe99b83412",
    ('heartbeat', 'gecko', 1500):
        "e0d002c4c5a864fcc515d414bb6ca1357f26cc62c8b28568e8d701fe99b83412",
    ('motionlog', 'nvp', None):
        "84ab4ef9399a3080e8d020a099bdb1ae6be3fdb0ae2989761fa7a5df99e767a4",
    ('motionlog', 'ratchet', None):
        "eee01275c22676846a84d4ae414a98205e13390b8001d03435897c1c266a1a08",
    ('motionlog', 'gecko', None):
        "cf6a7f94ea2d20279d82c4ae0ac1bd759021c5b70f752ff3dc5986710452a6de",
    ('motionlog', 'gecko-nopruning', None):
        "79ca54fc20317fecc4daeae00fa5fc8fe96bd22fdead9fd44824fd26d53e29bf",
    ('motionlog', 'gecko', 800):
        "cf6a7f94ea2d20279d82c4ae0ac1bd759021c5b70f752ff3dc5986710452a6de",
    ('motionlog', 'gecko', 1500):
        "cf6a7f94ea2d20279d82c4ae0ac1bd759021c5b70f752ff3dc5986710452a6de",
}


@pytest.mark.parametrize("name,scheme,budget", list(_cases()))
def test_compiled_program_digest(name, scheme, budget):
    digest = program_digest(_compile(name, scheme, budget))
    assert digest == EXPECTED[(name, scheme, budget)]


if __name__ == "__main__":
    for case in _cases():
        print(f"    {case!r}:\n        \"{program_digest(_compile(*case))}\",")
