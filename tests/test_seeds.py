"""Seed-spawning tests: determinism, injectivity, and the correlation
regression the ``seed + i`` audit exists to prevent.

Every seeded fan-out in the repo (fault models, search strategies,
torture cases) must draw its child streams through
:func:`repro.seeds.spawn_seed`, never arithmetic on the root seed —
overlapping derived integers feed identical Mersenne Twister streams
and silently collapse a sweep's dimensionality.  The consumer-level
tests lock the audited call sites (faultsim explorer, including its
ISR-window draws, and adversary strategies) onto spawned streams for
good.
"""

import pytest

from repro.faultsim import FaultCampaignSpec, fault_victim
from repro.seeds import spawn_rng, spawn_seed


class TestSpawn:
    def test_same_path_is_deterministic(self):
        assert spawn_seed(7, "case", 3) == spawn_seed(7, "case", 3)
        a = spawn_rng(7, "case", 3)
        b = spawn_rng(7, "case", 3)
        assert [a.random() for _ in range(8)] \
            == [b.random() for _ in range(8)]

    def test_distinct_paths_give_distinct_seeds(self):
        assert spawn_seed(0, "reg_flip", 3) != spawn_seed(0, "instr_skip", 3)
        assert spawn_seed(0, "case", 1) != spawn_seed(0, "case", 2)
        assert spawn_seed(0, "case", 1) != spawn_seed(1, "case", 1)

    def test_encoding_is_injective(self):
        # Neither concatenation tricks nor str/int ambiguity may collide.
        assert spawn_seed(0, "ab", "c") != spawn_seed(0, "a", "bc")
        assert spawn_seed(0, "1") != spawn_seed(0, 1)
        assert spawn_seed(0) != spawn_seed(0, "")

    def test_rejects_non_label_path_elements(self):
        with pytest.raises(TypeError):
            spawn_seed(0, 1.5)
        with pytest.raises(TypeError):
            spawn_seed(0, True)
        with pytest.raises(TypeError):
            spawn_seed(0, None)

    def test_no_cross_root_collisions(self):
        """The ``seed + i`` trap: root r's case i+1 must not equal root
        r+1's case i (arithmetic derivations make exactly that overlap).
        A child grid over (root, index) must be collision-free."""
        children = {spawn_seed(root, "case", index)
                    for root in range(10) for index in range(200)}
        assert len(children) == 10 * 200

    def test_adjacent_roots_are_uncorrelated(self):
        lo = spawn_rng(0, "axis", 0)
        hi = spawn_rng(1, "axis", 0)
        draws_lo = [lo.random() for _ in range(64)]
        draws_hi = [hi.random() for _ in range(64)]
        assert not any(a == b for a, b in zip(draws_lo, draws_hi))


class TestConsumerStreams:
    def test_isr_fault_models_draw_independent_streams(self):
        """Per-model spawned streams: growing the reg_flip draw count
        (drawn first) must not shift the handler-resident instr_skip
        draws."""
        def skip_steps(points):
            spec = FaultCampaignSpec(
                victim=fault_victim("glucose", duration_s=0.02),
                isr_window=True, points=points, seed=9)
            return [s.trigger_step for s in spec.plan()
                    if s.model == "instr_skip"]

        few, many = skip_steps(3), skip_steps(6)
        assert few
        assert many[:len(few)] == few

    def test_strategies_with_one_root_seed_diverge(self):
        from repro.adversary.space import AttackSpace
        from repro.adversary.strategies import (AnnealStrategy,
                                                RandomStrategy)

        space = AttackSpace()
        anneal = AnnealStrategy(space, budget=8, seed=0)
        rand = RandomStrategy(space, budget=8, seed=0)
        # A portfolio search sharing one root seed must not replay the
        # same candidates through every strategy.
        assert anneal.rng.random() != rand.rng.random()

    def test_campaign_models_draw_independent_streams(self):
        from repro.faultsim.explorer import FaultCampaignSpec

        # Time-triggered models only: no victim compile needed.
        one = FaultCampaignSpec(models=("ckpt_corrupt",), points=4, seed=5)
        both = FaultCampaignSpec(models=("ckpt_truncate", "ckpt_corrupt"),
                                 points=4, seed=5)
        corrupt = [s for s in both.plan() if s.model == "ckpt_corrupt"]
        assert [(s.trigger_time_s, s.target, s.bit) for s in one.plan()] \
            == [(s.trigger_time_s, s.target, s.bit) for s in corrupt]
