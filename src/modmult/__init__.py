"""Reversible block-level circuit synthesis for modular multiplication
and modular exponentiation, with cost/depth models, an exact optimal
search for small moduli, verification, and a benchmark harness."""

from .circuit import (
    BlockCircuit,
    BlockOp,
    CostModel,
    DEFAULT_COST_MODEL,
    DepthModel,
    circuit_cost,
    circuit_depth,
    parse,
    serialize,
)
from .modexp import build_modexp, modexp_plan
from .numtheory import Modulus, enumerate_semiprimes, nth_largest_prime
from .optimal import OptimalSearch
from .simulate import verify
from .synth import (
    GcdTrace,
    Move,
    SynthesisConfig,
    baseline_synthesize,
    binary_gcd_trace,
    euclid_trace,
    lookahead_trace,
    synthesize,
    trace_to_circuit,
)

__version__ = "0.1.0"
