"""Independent output check: a small integer-only interpreter of the
circuit text format (`MODULUS/MULTIPLIER/WIDTH/RESULT` header, one block
per line, `END`).

It shares no code with `modmult.simulate` or `modmult.circuit`, so a
defect in the program's own simulator or serializer cannot hide a wrong
circuit from the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

_REGISTER = {"R1": 0, "R2": 1}
_ARITY = {"FANOUT": 0, "CSWAP_LAYER": 0, "ADD": 2, "SUB": 2, "DBL": 1, "HLV": 1, "NEG": 1}


@dataclass(frozen=True)
class Program:
    modulus: int
    multiplier: int
    width: int
    result: int  # index of the result register: 0 = R1, 1 = R2
    ops: tuple[tuple[str, int | None, int | None], ...]


def load(text: str) -> Program:
    """Parse circuit text; raises ValueError on anything malformed."""
    header: dict[str, str] = {}
    ops = []
    lines = [line.split() for line in text.splitlines() if line.strip()]
    for i, tokens in enumerate(lines):
        key = tokens[0]
        if i < 4:
            expected = ("MODULUS", "MULTIPLIER", "WIDTH", "RESULT")[i]
            if key != expected or len(tokens) != 2:
                raise ValueError(f"header line {i + 1}: expected {expected} <value>")
            header[key] = tokens[1]
        elif key == "END":
            if i != len(lines) - 1:
                raise ValueError("content after END")
            break
        else:
            operands = tokens[1:]
            if len(operands) != _ARITY.get(key) or any(t not in _REGISTER for t in operands):
                raise ValueError(f"line {i + 1}: bad op {' '.join(tokens)!r}")
            regs = [_REGISTER[t] for t in operands]
            ops.append((key, *regs, *[None] * (2 - len(regs))))
    else:
        raise ValueError("missing END")
    if header["RESULT"] not in _REGISTER:
        raise ValueError(f"bad result register {header['RESULT']!r}")
    return Program(
        int(header["MODULUS"]),
        int(header["MULTIPLIER"]),
        int(header["WIDTH"]),
        _REGISTER[header["RESULT"]],
        tuple(ops),
    )


def run(prog: Program, x: int) -> tuple[int, int]:
    """Apply the ops to (x, 0); returns (result register, other register)."""
    m = prog.modulus
    half = (m + 1) // 2  # inverse of 2 for odd m
    r = [x % m, 0]
    for code, t, s in prog.ops:
        if code == "ADD":
            r[t] = (r[t] + r[s]) % m
        elif code == "SUB":
            r[t] = (r[t] - r[s]) % m
        elif code == "DBL":
            r[t] = 2 * r[t] % m
        elif code == "HLV":
            r[t] = r[t] * half % m
        elif code == "NEG":
            r[t] = -r[t] % m
        elif code == "FANOUT":
            if r[1]:
                raise ValueError("FANOUT onto a non-zero register")
            r[1] = r[0]
        else:  # CSWAP_LAYER
            r.reverse()
    return r[prog.result], r[1 - prog.result]


def toffoli(prog: Program, coeffs: dict[str, tuple[int, int]]) -> int:
    """Toffoli count under affine per-op coefficients (slope, intercept)."""
    total = 0
    for code, _, _ in prog.ops:
        slope, intercept = coeffs[code]
        total += slope * prog.width + intercept
    return total


def problem(
    text: str,
    modulus: int,
    multiplier: int,
    xs: list[int],
    coeffs: dict[str, tuple[int, int]],
    expected_toffoli: int | None = None,
) -> str | None:
    """None when the circuit text parses, has the right header, maps every
    x in xs to (multiplier*x mod modulus, 0) and, if given, has the
    expected Toffoli count; otherwise a one-line description of the first
    fault found."""
    try:
        prog = load(text)
    except (KeyError, ValueError) as exc:
        return f"unreadable circuit text: {exc!r}"
    if (prog.modulus, prog.multiplier) != (modulus, multiplier % modulus):
        return f"header says C={prog.multiplier} M={prog.modulus}"
    if prog.width != modulus.bit_length():
        return f"WIDTH {prog.width} for a {modulus.bit_length()}-bit modulus"
    if expected_toffoli is not None and toffoli(prog, coeffs) != expected_toffoli:
        return f"toffoli {toffoli(prog, coeffs)} != recorded {expected_toffoli}"
    for x in xs:
        try:
            got = run(prog, x)
        except ValueError as exc:
            return f"x={x}: {exc}"
        if got != (multiplier * x % modulus, 0):
            return f"x={x}: got {got}"
    return None
