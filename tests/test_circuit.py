import json

import pytest
from hypothesis import given, strategies as st

from modmult.circuit import (
    ADD,
    CSWAP_LAYER,
    DBL,
    FANOUT,
    HLV,
    NEG,
    R1,
    R2,
    SUB,
    BlockCircuit,
    BlockOp,
    CostModel,
    DEFAULT_COST_MODEL,
    LOOKAHEAD,
    RIPPLE,
    DepthModel,
    InvariantViolation,
    ParseError,
    UnknownOpcode,
    circuit_cost,
    circuit_depth,
    load_model_file,
    parse,
    serialize,
)


def _circuit(ops, modulus=21, multiplier=13, result=R1):
    return BlockCircuit(modulus, multiplier, tuple(ops), result)


class TestBlockOp:
    def test_add_same_register_rejected(self):
        with pytest.raises(InvariantViolation):
            BlockOp(ADD, R1, R1)

    def test_unknown_opcode(self):
        with pytest.raises(UnknownOpcode):
            BlockOp("XOR")

    def test_fanout_not_first_rejected(self):
        with pytest.raises(InvariantViolation):
            _circuit([BlockOp(ADD, R1, R2), BlockOp(FANOUT)])


class TestCost:
    def test_fanout_free(self):
        for n in (3, 7, 64):
            assert DEFAULT_COST_MODEL.op_cost(FANOUT, n) == 0

    def test_add_default(self):
        assert DEFAULT_COST_MODEL.op_cost(ADD, 7) == 21

    def test_dbl_default(self):
        assert DEFAULT_COST_MODEL.op_cost(DBL, 7) == 23

    def test_empty_circuit(self):
        assert circuit_cost(_circuit([])) == (0, 0)

    def test_six_adds_with_fanout(self):
        ops = [BlockOp(FANOUT)] + [
            BlockOp(ADD, R1 if i % 2 == 0 else R2, R2 if i % 2 == 0 else R1)
            for i in range(6)
        ]
        assert circuit_cost(_circuit(ops)) == (90, 5)

    def test_additivity_fold(self):
        ops = [BlockOp(FANOUT), BlockOp(ADD, R1, R2), BlockOp(DBL, R2), BlockOp(NEG, R1)]
        c = _circuit(ops)
        toffoli, cnot = circuit_cost(c)
        assert toffoli == sum(DEFAULT_COST_MODEL.op_cost(op.opcode, c.width) for op in ops)

    def test_concatenation_additive(self):
        a = [BlockOp(ADD, R1, R2), BlockOp(DBL, R1)]
        b = [BlockOp(SUB, R2, R1), BlockOp(HLV, R2)]
        ca, cb, cab = _circuit(a), _circuit(b), _circuit(a + b)
        assert circuit_cost(cab)[0] == circuit_cost(ca)[0] + circuit_cost(cb)[0]
        dm = DepthModel.ripple()
        assert circuit_depth(cab, dm) == circuit_depth(ca, dm) + circuit_depth(cb, dm)

    def test_model_hash_tracks_coefficients(self):
        model = CostModel()
        assert model.hash == CostModel().hash == "627151b7e274d592"
        assert vars(model)["hash"] == model.hash  # computed once, then cached
        other = CostModel({**CostModel().coeffs, ADD: (4, 0)})
        assert other.hash != CostModel().hash


class TestDepth:
    def test_empty(self):
        assert circuit_depth(_circuit([]), DepthModel.lookahead()) == 0

    def test_lookahead_add_n16(self):
        c = BlockCircuit(40771, 3, (BlockOp(ADD, R1, R2),))
        assert circuit_depth(c, DepthModel.lookahead()) == 19  # 4*4 + 3

    def test_lookahead_dbl_n16(self):
        c = BlockCircuit(40771, 3, (BlockOp(DBL, R1),))
        assert circuit_depth(c, DepthModel.lookahead()) == 36  # 6*4 + 12

    @pytest.mark.parametrize("n", [32, 64, 128, 500])
    def test_lookahead_beats_ripple_wide(self, n):
        ops = (BlockOp(ADD, R1, R2), BlockOp(DBL, R1), BlockOp(CSWAP_LAYER))
        c = BlockCircuit((1 << n) - 1, 3, ops)
        assert circuit_depth(c, DepthModel.lookahead()) < circuit_depth(c, DepthModel.ripple())

    def test_negative_depth_refused(self, tmp_path):
        # as a negative Toffoli price is refused by CostModel.op_cost
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"depth": {"ADD": {"slope": -5, "intercept": 0}}}))
        _, depth, priced_depth = load_model_file(str(path))
        assert priced_depth
        c = BlockCircuit(21, 13, (BlockOp(ADD, R1, R2),))
        with pytest.raises(InvariantViolation, match="negative depth for ADD at n=5"):
            circuit_depth(c, depth)

    def test_lookahead_adder_ancillae(self):
        dm = DepthModel.lookahead()
        for n in (8, 16, 128, 300):
            import math

            assert dm.ancillae_per_adder(n) == 2 * n - math.ceil(math.log2(n)) - 2


_ops_strategy = st.lists(
    st.one_of(
        st.sampled_from([BlockOp(DBL, R1), BlockOp(DBL, R2), BlockOp(HLV, R1), BlockOp(HLV, R2), BlockOp(NEG, R1), BlockOp(NEG, R2), BlockOp(CSWAP_LAYER)]),
        st.tuples(st.sampled_from([ADD, SUB]), st.sampled_from([R1, R2])).map(
            lambda oc_t: BlockOp(oc_t[0], oc_t[1], R2 if oc_t[1] == R1 else R1)
        ),
    ),
    max_size=30,
)


def _outcome(fn, *args):
    """fn's value, or the type and message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


# drawn cost coefficients: opcodes may go unpriced, and prices negative
_coeffs_strategy = st.dictionaries(
    st.sampled_from([FANOUT, ADD, SUB, DBL, HLV, NEG, CSWAP_LAYER]),
    st.tuples(st.integers(0, 5), st.integers(-3, 5)),
)

# CNOT bookkeeping per bit of width: FANOUT copies the register, a
# CSWAP_LAYER fans its control out and clears it; arithmetic blocks count none
_CNOTS_PER_BIT = {FANOUT: 1, CSWAP_LAYER: 2}


class TestOpcodeCounts:
    @given(
        _ops_strategy,
        st.booleans(),
        st.sampled_from([21, 40771, (1 << 127) - 1]),
        _coeffs_strategy,
        st.sampled_from([RIPPLE, LOOKAHEAD]),
    )
    def test_match_per_op_sums(self, ops, fanout_first, modulus, coeffs, regime):
        # circuit totals price each opcode once; they equal the per-op sums,
        # and raise what the first unpriced or negative op raises
        if fanout_first:
            ops = [BlockOp(FANOUT)] + ops
        c = _circuit(ops, modulus=modulus)
        n = c.width

        def per_op_cost(model):
            toffoli = sum(model.op_cost(op.opcode, n) for op in ops)
            return toffoli, sum(_CNOTS_PER_BIT.get(op.opcode, 0) * n for op in ops)

        def per_op_depth(model):
            return sum(model.op_depth(op.opcode, n) for op in ops)

        for model in (DEFAULT_COST_MODEL, CostModel(coeffs)):
            assert _outcome(circuit_cost, c, model) == _outcome(per_op_cost, model)
        for model in (DepthModel(regime), DepthModel(regime, coeffs)):
            assert _outcome(circuit_depth, c, model) == _outcome(per_op_depth, model)


class TestSerialization:
    def test_golden_circuit_text(self):
        # hand-built with the printed labeling (result side = R1)
        ops = [BlockOp(FANOUT)]
        for i in range(6):
            t, s = (R1, R2) if i % 2 == 0 else (R2, R1)
            ops.append(BlockOp(ADD, t, s))
        text = serialize(_circuit(ops))
        assert text == (
            "MODULUS 21\nMULTIPLIER 13\nWIDTH 5\nRESULT R1\n"
            "FANOUT\nADD R1 R2\nADD R2 R1\nADD R1 R2\nADD R2 R1\n"
            "ADD R1 R2\nADD R2 R1\nEND\n"
        )
        assert parse(text) == _circuit(ops)

    def test_empty_circuit(self):
        text = serialize(_circuit([], multiplier=1))
        assert text == "MODULUS 21\nMULTIPLIER 1\nWIDTH 5\nRESULT R1\nEND\n"

    def test_comments_and_blanks_ignored(self):
        text = "# hi\nMODULUS 21\nMULTIPLIER 1\n\nWIDTH 5\nRESULT R2  # result\nEND\n"
        assert parse(text).result_register == R2

    def test_add_same_register_is_invariant_violation(self):
        text = "MODULUS 21\nMULTIPLIER 13\nWIDTH 5\nRESULT R1\nADD R1 R1\nEND\n"
        with pytest.raises(InvariantViolation):
            parse(text)

    def test_missing_end(self):
        with pytest.raises(ParseError):
            parse("MODULUS 21\nMULTIPLIER 13\nWIDTH 5\nRESULT R1\n")

    def test_fanout_not_first(self):
        text = "MODULUS 21\nMULTIPLIER 13\nWIDTH 5\nRESULT R1\nDBL R1\nFANOUT\nEND\n"
        with pytest.raises(InvariantViolation):
            parse(text)

    def test_even_or_small_modulus_rejected(self):
        for m in (1, 2, 22):
            with pytest.raises(InvariantViolation):
                parse(f"MODULUS {m}\nMULTIPLIER 1\nWIDTH {m.bit_length()}\nRESULT R1\nEND\n")

    def test_multiplier_outside_modulus_rejected(self):
        for c in (0, 21, 34):
            with pytest.raises(InvariantViolation):
                parse(f"MODULUS 21\nMULTIPLIER {c}\nWIDTH 5\nRESULT R1\nEND\n")

    def test_width_must_be_modulus_bit_length(self):
        # a wrong WIDTH would misprice every block, since costs are per bit
        for width in (3, 6):
            with pytest.raises(InvariantViolation):
                parse(f"MODULUS 21\nMULTIPLIER 13\nWIDTH {width}\nRESULT R1\nEND\n")

    def test_header_number_must_be_decimal_digits(self):
        # "2²".isdigit() holds, but int() refuses it
        text = "MODULUS 2\u00b2\nMULTIPLIER 1\nWIDTH 5\nRESULT R1\nEND\n"
        with pytest.raises(ParseError, match="line 1: MODULUS takes one decimal value"):
            parse(text)
        # "\u0665".isdecimal() holds, and int() reads it as 5
        text = "MODULUS 21\nMULTIPLIER 1\nWIDTH \u0665\nRESULT R1\nEND\n"
        with pytest.raises(ParseError, match="line 3: WIDTH takes one decimal value"):
            parse(text)

    def test_parse_error_carries_line_number(self):
        text = "MODULUS 21\nMULTIPLIER 13\nWIDTH 5\nRESULT R1\nFROB R1\nEND\n"
        with pytest.raises(ParseError, match="line 5"):
            parse(text)

    @given(_ops_strategy, st.booleans())
    def test_round_trip(self, ops, fanout_first):
        if fanout_first:
            ops = [BlockOp(FANOUT)] + ops
        c = _circuit(ops)
        assert parse(serialize(c)) == c


class TestModelFile:
    def test_round_trip(self, tmp_path):
        cost = CostModel({**CostModel().coeffs, ADD: (5, 1), SUB: (5, 1)})
        depth = DepthModel.lookahead()
        path = tmp_path / "model.json"
        doc = {
            "name": "custom",  # ignored: a model is its coefficients
            "adder_regime": "lookahead",
            "toffoli": {op: {"slope": s, "intercept": i} for op, (s, i) in cost.coeffs.items()},
            "depth": {op: {"slope": s, "intercept": i} for op, (s, i) in depth.coeffs.items()},
        }
        path.write_text(json.dumps(doc))
        cost2, depth2, priced_depth = load_model_file(str(path))
        assert priced_depth
        assert cost2 == cost
        assert cost2.hash == cost.hash
        assert depth2.adder_regime == "LOOKAHEAD"
        assert depth2.coeffs == depth.coeffs

    def test_defaults_when_sections_missing(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text('{"adder_regime": "ripple"}')
        cost, depth, priced_depth = load_model_file(str(path))
        assert not priced_depth
        assert cost.coeffs == DEFAULT_COST_MODEL.coeffs
        assert depth.adder_regime == "RIPPLE"
