"""Block-level circuit IR: operators, circuits, cost/depth models, and the
bit-exact text serialization.

A circuit is an ordered list of reversible blocks acting on a two-register
modular datapath (R1, R2). Costs are measured in Toffoli gates via affine
per-opcode formulas; CNOT-only bookkeeping (FANOUT, CSWAP fan-out wiring)
is tracked separately. Each opcode's semantics and inverse are defined
once, in `_BLOCKS`, and applied through `apply_block`.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations
from operator import attrgetter
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "R1",
    "R2",
    "Opcode",
    "BlockOp",
    "BlockCircuit",
    "CostModel",
    "DepthModel",
    "UnknownOpcode",
    "ParseError",
    "InvariantViolation",
    "FanoutOnNonzero",
    "DEFAULT_COST_MODEL",
    "apply_block",
    "inverse_op",
    "circuit_cost",
    "circuit_depth",
    "serialize",
    "parse",
    "load_model_file",
]

R1 = "R1"
R2 = "R2"
_REGISTERS = (R1, R2)

# Opcodes kept as plain strings; they double as serialization tokens.
FANOUT = "FANOUT"
ADD = "ADD"
SUB = "SUB"
DBL = "DBL"
HLV = "HLV"
NEG = "NEG"
CSWAP_LAYER = "CSWAP_LAYER"

Opcode = str
# Each opcode's register count: 2 = target and source, 1 = target only.
_REG_COUNT = {FANOUT: 0, ADD: 2, SUB: 2, DBL: 1, HLV: 1, NEG: 1, CSWAP_LAYER: 0}
_OPCODES = tuple(_REG_COUNT)
_TAKES = ("no arguments", "one register", "two registers")
# every legal (opcode, target, source): registers from R1, R2, and a
# target and source that differ
_SIGNATURES = frozenset(
    (code, *regs, *(None,) * (2 - count))
    for code, count in _REG_COUNT.items()
    for regs in permutations(_REGISTERS, count)
)


class UnknownOpcode(ValueError):
    pass


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class InvariantViolation(ValueError):
    pass


class FanoutOnNonzero(RuntimeError):
    """FANOUT hit a non-zero second register -- a synthesis bug upstream."""


@dataclass(frozen=True)
class BlockOp:
    """One reversible block: FANOUT | ADD t s | SUB t s | DBL r | HLV r |
    NEG r | CSWAP_LAYER."""

    opcode: Opcode
    target: str | None = None
    source: str | None = None

    def __post_init__(self) -> None:
        if (self.opcode, self.target, self.source) not in _SIGNATURES:
            if self.opcode not in _REG_COUNT:
                raise UnknownOpcode(f"unknown opcode {self.opcode!r}")
            raise InvariantViolation(
                f"illegal registers ({self.target!r}, {self.source!r}) for {self.opcode}, "
                f"which takes {_TAKES[_REG_COUNT[self.opcode]]}"
            )

    def text(self) -> str:
        return " ".join((self.opcode, self.target, self.source)[: 1 + _REG_COUNT[self.opcode]])


@dataclass(frozen=True)
class BlockCircuit:
    """An ordered BlockOp sequence over a fixed modulus.

    Semantic contract (checked by the simulator, not by construction):
    applying `ops` to (x, 0) leaves multiplier*x mod modulus in
    `result_register` and 0 in the other register.
    """

    modulus: int
    multiplier: int
    ops: tuple[BlockOp, ...]
    result_register: str = R1

    @property
    def width(self) -> int:
        return self.modulus.bit_length()

    @cached_property
    def opcode_counts(self) -> Counter:
        """Ops per opcode, in order of first use (so the first unpriced
        opcode raises, as it would op by op); counted once per circuit."""
        return Counter(map(attrgetter("opcode"), self.ops))

    def __post_init__(self) -> None:
        m = self.modulus
        if m < 3 or m % 2 == 0:
            raise InvariantViolation(f"modulus must be odd and >= 3, got {m}")
        if not 0 < self.multiplier < m:
            raise InvariantViolation(f"multiplier {self.multiplier} outside [1, {m - 1}]")
        if self.result_register not in _REGISTERS:
            raise InvariantViolation(f"bad result register {self.result_register!r}")
        for i, op in enumerate(self.ops):
            if op.opcode == FANOUT and i != 0:
                raise InvariantViolation("FANOUT may only appear as the first op")


# Block semantics: opcode -> (rule, inverse opcode). A rule maps the target
# register's value t and the other register's value s to the new t in plain
# `% m` arithmetic, so one definition serves Python ints and numpy arrays
# (int64 stays exact while m < 2^31; pass object arrays beyond). inv2 is
# 2^-1 mod m, which is (m + 1) // 2 for the odd moduli BlockCircuit admits.
# Every rule is linear in (t, s) mod m; `simulate.verify` relies on it.
_BLOCKS = {
    ADD: (lambda t, s, m, inv2: (t + s) % m, SUB),
    SUB: (lambda t, s, m, inv2: (t - s) % m, ADD),
    DBL: (lambda t, s, m, inv2: (2 * t) % m, HLV),
    HLV: (lambda t, s, m, inv2: (t * inv2) % m, DBL),
    NEG: (lambda t, s, m, inv2: (m - t) % m, NEG),
}


def apply_block(op: BlockOp, r1, r2, m: int, inv2: int):
    """Apply one block to register values mod m; returns the new (r1, r2).

    r1 and r2 are Python ints or numpy arrays of one shape. FANOUT copies
    R1 into R2 and demands R2 be zero (every element, for arrays).
    """
    code = op.opcode
    if code == FANOUT:
        if (r2 != 0).any() if isinstance(r2, np.ndarray) else r2 != 0:
            raise FanoutOnNonzero("FANOUT with non-zero second register")
        return r1, r1
    if code == CSWAP_LAYER:
        return r2, r1
    rule = _BLOCKS[code][0]
    if op.target == R1:
        return rule(r1, r2, m, inv2), r2
    return r1, rule(r2, r1, m, inv2)


def inverse_op(op: BlockOp) -> BlockOp:
    """Inverse block (ADD<->SUB, DBL<->HLV, NEG and CSWAP self-inverse)."""
    if op.opcode == CSWAP_LAYER:
        return op
    try:
        return BlockOp(_BLOCKS[op.opcode][1], op.target, op.source)
    except KeyError:
        raise ValueError(f"{op.opcode} has no block inverse") from None


def _coeff(model_coeffs: Mapping[str, tuple[int, int]], opcode: Opcode) -> tuple[int, int]:
    try:
        return model_coeffs[opcode]
    except KeyError as exc:
        raise UnknownOpcode(f"no coefficients for opcode {opcode!r}") from exc


@dataclass(frozen=True)
class CostModel:
    """Per-opcode Toffoli counts as affine functions of the bit-width n.

    `coeffs` maps opcode -> (slope, intercept): cost = slope*n + intercept.
    The coefficient hash identifies the comparability class of any results
    computed under this model.
    """

    coeffs: Mapping[str, tuple[int, int]] = field(
        default_factory=lambda: {
            FANOUT: (0, 0),
            ADD: (3, 0),
            SUB: (3, 0),
            DBL: (3, 2),
            HLV: (3, 2),
            NEG: (1, 0),
            CSWAP_LAYER: (1, 0),
        }
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", dict(self.coeffs))

    @cached_property
    def hash(self) -> str:
        """Hash of the coefficients, computed once per model; `coeffs`
        must not change after construction."""
        payload = json.dumps(sorted(self.coeffs.items()), separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def op_cost(self, opcode: Opcode, n: int) -> int:
        slope, intercept = _coeff(self.coeffs, opcode)
        cost = slope * n + intercept
        if cost < 0:
            raise InvariantViolation(f"negative cost for {opcode} at n={n}")
        return cost


DEFAULT_COST_MODEL = CostModel()

RIPPLE = "RIPPLE"
LOOKAHEAD = "LOOKAHEAD"


def _ceil_log2(n: int) -> int:
    return max(1, math.ceil(math.log2(n))) if n > 1 else 0


@dataclass(frozen=True)
class DepthModel:
    """Per-opcode Toffoli-depth formulas for one adder regime.

    RIPPLE prices depth linearly in n (Cuccaro-style serial adders);
    LOOKAHEAD prices it in ceil(log2 n) (carry-lookahead adders): additive
    blocks 4L+3, doubling/halving 6L+12, and each CSWAP_LAYER pays a 2L
    fan-out overhead. Formulas are (slope, intercept) over x, where x = n
    under RIPPLE and x = ceil(log2 n) under LOOKAHEAD.
    """

    adder_regime: str = RIPPLE
    coeffs: Mapping[str, tuple[int, int]] | None = None

    def __post_init__(self) -> None:
        if self.adder_regime not in (RIPPLE, LOOKAHEAD):
            raise ValueError(f"bad adder regime {self.adder_regime!r}")
        if self.coeffs is None:
            if self.adder_regime == RIPPLE:
                coeffs = {
                    FANOUT: (0, 0),
                    ADD: (2, 4),
                    SUB: (2, 4),
                    DBL: (3, 6),
                    HLV: (3, 6),
                    NEG: (2, 4),
                    CSWAP_LAYER: (1, 0),
                }
            else:
                coeffs = {
                    FANOUT: (0, 0),
                    ADD: (4, 3),
                    SUB: (4, 3),
                    DBL: (6, 12),
                    HLV: (6, 12),
                    NEG: (4, 3),
                    CSWAP_LAYER: (2, 0),
                }
            object.__setattr__(self, "coeffs", coeffs)
        else:
            object.__setattr__(self, "coeffs", dict(self.coeffs))

    @classmethod
    def ripple(cls) -> "DepthModel":
        return cls(RIPPLE)

    @classmethod
    def lookahead(cls) -> "DepthModel":
        return cls(LOOKAHEAD)

    def _x(self, n: int) -> int:
        return n if self.adder_regime == RIPPLE else _ceil_log2(n)

    def op_depth(self, opcode: Opcode, n: int) -> int:
        slope, intercept = _coeff(self.coeffs, opcode)
        depth = slope * self._x(n) + intercept
        if depth < 0:
            raise InvariantViolation(f"negative depth for {opcode} at n={n}")
        return depth

    def ancillae_per_adder(self, n: int) -> int:
        """Ancillae one adder block needs (cleared before the next block)."""
        if self.adder_regime == RIPPLE:
            return 1
        return 2 * n - _ceil_log2(n) - 2

    def modexp_ancillae(self, n: int) -> int:
        """Ancilla count of a full mod-exp assembly at width n.

        RIPPLE reproduces the 5n+2 reference figure; LOOKAHEAD swaps the
        single adder ancilla for the carry-lookahead block's, staying <= 7n.
        """
        base = 5 * n + 2
        if self.adder_regime == RIPPLE:
            return base
        return base - 1 + self.ancillae_per_adder(n)


def circuit_cost(
    c: BlockCircuit, model: CostModel = DEFAULT_COST_MODEL
) -> tuple[int, int]:
    """(toffoli, cnot) totals, additive over the op sequence: each opcode
    is priced once and weighted by its count. CNOTs are bookkeeping: FANOUT
    copies n bits and a CSWAP_LAYER spends 2n on control fan-out and clear;
    arithmetic blocks count none."""
    counts = c.opcode_counts
    toffoli = sum(model.op_cost(code, c.width) * count for code, count in counts.items())
    cnot = c.width * (counts[FANOUT] + 2 * counts[CSWAP_LAYER])
    return toffoli, cnot


def circuit_depth(c: BlockCircuit, model: DepthModel) -> int:
    """Total depth: blocks share both registers, so the schedule is the
    sequential chain and depth is the sum of per-op depths."""
    counts = c.opcode_counts
    return sum(model.op_depth(code, c.width) * count for code, count in counts.items())


def serialize(c: BlockCircuit) -> str:
    lines = [
        f"MODULUS {c.modulus}",
        f"MULTIPLIER {c.multiplier}",
        f"WIDTH {c.width}",
        f"RESULT {c.result_register}",
    ]
    lines.extend(op.text() for op in c.ops)
    lines.append("END")
    return "\n".join(lines) + "\n"


def _parse_register(tok: str, line_no: int) -> str:
    if tok not in _REGISTERS:
        raise ParseError(line_no, f"bad register {tok!r}")
    return tok


def parse(text: str) -> BlockCircuit:
    """Inverse of serialize. Raises ParseError (with line number) on
    malformed text and InvariantViolation on structurally illegal ops or a
    WIDTH that is not the modulus's bit length."""
    header: dict[str, object] = {}
    header_order = ["MODULUS", "MULTIPLIER", "WIDTH", "RESULT"]
    ops: list[BlockOp] = []
    ended = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ended:
            raise ParseError(line_no, "content after END")
        toks = line.split()
        key = toks[0]
        if len(header) < len(header_order):
            expect = header_order[len(header)]
            if key != expect:
                raise ParseError(line_no, f"expected {expect} header, got {key!r}")
            if expect == "RESULT":
                if len(toks) != 2:
                    raise ParseError(line_no, "RESULT takes one register")
                header[expect] = _parse_register(toks[1], line_no)
            else:
                if len(toks) != 2 or not (toks[1].isascii() and toks[1].isdecimal()):
                    raise ParseError(line_no, f"{expect} takes one decimal value")
                header[expect] = int(toks[1])
            continue
        if key == "END":
            if len(toks) != 1:
                raise ParseError(line_no, "END takes no arguments")
            ended = True
            continue
        count = _REG_COUNT.get(key)
        if count is None:
            raise ParseError(line_no, f"unknown token {key!r}")
        if len(toks) != 1 + count:
            raise ParseError(line_no, f"{key} takes {_TAKES[count]}")
        ops.append(BlockOp(key, *(_parse_register(tok, line_no) for tok in toks[1:])))
    if len(header) < len(header_order):
        raise ParseError(0, "incomplete header")
    if not ended:
        raise ParseError(0, "missing END")
    circ = BlockCircuit(header["MODULUS"], header["MULTIPLIER"], tuple(ops), header["RESULT"])
    width = header["WIDTH"]
    if width != circ.width:
        raise InvariantViolation(f"width {width} != bit length {circ.width} of {circ.modulus}")
    return circ


def load_model_file(path: str) -> tuple[CostModel, DepthModel]:
    """Load a flat JSON model document: opcode -> {slope, intercept} per
    metric, plus adder_regime. Missing sections fall back to defaults. A
    file that cannot be read or parsed, a document or section that is not
    an object, and an op entry that is not an object or whose slope or
    intercept is missing or not an integer are each a `ValueError` naming
    the file and what is wrong."""

    def invalid(what: str) -> ValueError:
        return ValueError(f"model file {path}: {what}")

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise invalid(exc.strerror or str(exc)) from None
    except ValueError as exc:  # not UTF-8, or not JSON
        raise invalid(f"not JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise invalid("the document is not a JSON object")
    regime = str(doc.get("adder_regime", "ripple")).upper()

    def to_coeffs(metric: str) -> dict[str, tuple[int, int]]:
        if not isinstance(doc[metric], dict):
            raise invalid(f"{metric} is not a JSON object")
        coeffs = {}
        for op, v in doc[metric].items():
            if not isinstance(v, dict):
                raise invalid(f"{metric} op {op!r} is not an object of slope and intercept")
            for key in ("slope", "intercept"):
                if key not in v:
                    raise invalid(f"{metric} op {op!r} has no {key!r}")
                if type(v[key]) is not int:  # JSON integers only: not 3.5, "3" or true
                    raise invalid(f"{metric} op {op!r} {key} {v[key]!r} is not an integer")
            coeffs[op] = (v["slope"], v["intercept"])
        return coeffs

    if "toffoli" in doc:
        cost = CostModel(to_coeffs("toffoli"))
    else:
        cost = CostModel()
    if "depth" in doc:
        depth = DepthModel(regime, to_coeffs("depth"))
    else:
        depth = DepthModel(regime)
    return cost, depth
