import math

import pytest

from modmult.circuit import (
    CSWAP_LAYER,
    DEFAULT_COST_MODEL,
    DepthModel,
    circuit_cost,
    circuit_depth,
)
from modmult.modexp import BaseNotCoprime, ModExpCircuit, build_modexp, modexp_depth, modexp_plan
from modmult.synth import SynthesisConfig, synthesize

from blocks import fold


class TestPlan:
    def test_m21_base2(self):
        plan = modexp_plan(21, 2)
        assert len(plan) == 10
        assert plan[:4] == (2, 4, 16, 4)
        # squaring cycles with period 2 after the third position
        assert plan[4:] == (16, 4) * 3

    def test_two_n_positions(self):
        for m in (21, 35, 1011113):
            assert len(modexp_plan(m)) == 2 * m.bit_length()

    def test_base_not_coprime(self):
        with pytest.raises(BaseNotCoprime):
            modexp_plan(21, 7)

    def test_multipliers_are_squares(self):
        plan = modexp_plan(115, 3)
        for a, b in zip(plan, plan[1:]):
            assert b == (a * a) % 115


class TestBuild:
    def test_end_to_end_composition(self):
        # composing the per-position permutations must realize b^z mod M
        circ = build_modexp(21, 2)
        for z in range(1 << circ.positions):
            acc, e = 1, z
            for block, _ in circ.blocks:
                if e & 1 and block.ops:
                    r1, r2 = fold(block, acc)
                    acc = r1 if block.result_register == "R1" else r2
                e >>= 1
            assert acc == pow(2, z, 21), z

    def test_cache_transparent(self):
        a = build_modexp(21, 2)
        # the same totals from a fresh synthesis per position; each CSWAP
        # layer spends 2n CNOTs
        ripple = DepthModel.ripple()
        toffoli = cnot = depth = 0
        for c in modexp_plan(21, 2):
            block = synthesize(c, 21)
            t, k = circuit_cost(block)
            toffoli += t + 2 * DEFAULT_COST_MODEL.op_cost(CSWAP_LAYER, 5)
            cnot += k + 2 * (2 * 5)
            depth += circuit_depth(block, ripple) + 2 * ripple.op_depth(CSWAP_LAYER, 5)
        assert (a.toffoli, a.cnot, a.depth) == (toffoli, cnot, depth)
        assert a.distinct_blocks == 3  # {2, 4, 16}

    def test_ripple_ancillae(self):
        circ = build_modexp(21, 2, depth_model=DepthModel.ripple())
        n = 5
        assert circ.ancilla_count == 5 * n + 2
        assert circ.qubit_count == 3 * n + circ.ancilla_count

    def test_lookahead_ancillae_budget_n128(self):
        n = 128
        dm = DepthModel.lookahead()
        expect = 7 * n - math.ceil(math.log2(n)) - 1  # = 888
        assert dm.modexp_ancillae(n) == expect
        assert expect <= 7 * n

    def test_depth_models_differ(self):
        la = build_modexp(1011113, 2, depth_model=DepthModel.lookahead())
        ri = build_modexp(1011113, 2, depth_model=DepthModel.ripple())
        assert la.depth < ri.depth
        assert isinstance(la, ModExpCircuit)

    def test_one_build_priced_under_every_depth_model(self):
        # a build's blocks, priced under another depth model, give that
        # model's build totals; Toffoli and CNOT totals do not depend on it
        m = 1011113
        ripple = build_modexp(m, 2)
        for dm in (DepthModel.ripple(), DepthModel.lookahead()):
            own = build_modexp(m, 2, depth_model=dm)
            assert modexp_depth(m, ripple.blocks, dm) == (
                own.depth, own.ancilla_count, own.qubit_count
            )
            assert (own.toffoli, own.cnot) == (ripple.toffoli, ripple.cnot)

    def test_custom_synthesis_config(self):
        cfg = SynthesisConfig(lookahead_depth=1)
        circ = build_modexp(21, 2, cfg=cfg)
        assert circ.positions == 10
