"""Exact minimum-cost circuit search for small moduli.

States are residue pairs (a, b) in (Z_M)^2; edges are the block operators
(ADD/SUB with either target, DBL/HLV/NEG on either register) weighted by
the cost model, which must price each above 0. A bucket Dijkstra from the
two legal start states -- (1, 1) after a free FANOUT, and (1, 0) for
single-register circuits that skip it -- yields, for every coprime c, the
cheapest circuit ending in (c, 0) or (0, c). Edges come from `apply_block`
on the fly, so memory is the int32 distances, 8 bytes per state.

Each search covers about half its states, by a symmetry of the graph that
fixes its source: the register swap (a,b) -> (b,a) for (1, 1), under any
cost model, and (a,b) -> (a,-b) for (1, 0), which swaps ADD and SUB and so
holds only when the model prices them the same, as the default does. The
distances, and so every cost and circuit, are those of the full search.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .circuit import (
    ADD,
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
    apply_block,
    inverse_op,
)
from .numtheory import Modulus, NotCoprime

__all__ = [
    "ModulusTooLarge", "NonPositiveCost", "OptimalSearch", "optimal_costs", "optimal_circuit"
]

DEFAULT_BIT_CAP = 12


class ModulusTooLarge(ValueError):
    """State space M^2 exceeds the configured search cap."""


class NonPositiveCost(ValueError):
    """An edge op costs <= 0 at this width; least-cost search needs > 0."""


def _edge_ops(include_neg: bool) -> list[BlockOp]:
    # Fixed opcode order; path reconstruction tie-breaks along this list.
    ops = [
        BlockOp(ADD, R1, R2),
        BlockOp(ADD, R2, R1),
        BlockOp(SUB, R1, R2),
        BlockOp(SUB, R2, R1),
        BlockOp(DBL, R1),
        BlockOp(DBL, R2),
        BlockOp(HLV, R1),
        BlockOp(HLV, R2),
    ]
    if include_neg:
        ops.extend([BlockOp(NEG, R1), BlockOp(NEG, R2)])
    return ops


class OptimalSearch:
    """Least-cost distances over the block-operator state graph of one
    modulus, with deterministic circuit reconstruction."""

    def __init__(
        self,
        m: int,
        model: CostModel = DEFAULT_COST_MODEL,
        include_neg: bool = True,
        bit_cap: int = DEFAULT_BIT_CAP,
    ):
        Modulus(m)  # validate
        self.m = m
        self.n = m.bit_length()
        if self.n > bit_cap:
            raise ModulusTooLarge(
                f"{m} has {self.n} bits; cap is {bit_cap} (state space M^2)"
            )
        self.model = model
        self.ops = _edge_ops(include_neg)
        self._weights = [model.op_cost(op.opcode, self.n) for op in self.ops]
        free = [op.text() for op, w in zip(self.ops, self._weights) if w <= 0]
        if free:
            raise NonPositiveCost(f"{', '.join(free)} must cost > 0 at n={self.n}")
        self._inv2 = (m + 1) // 2
        self._dist = self._run()

    def _run(self) -> np.ndarray:
        """Dial's bucket Dijkstra (CACM 1969) over positive integer weights,
        one distance row per source; the unreached sentinel leaves room for
        `dist + w` in int32.

        Each row is searched over one representative of each orbit of a
        weight-preserving automorphism of the graph that fixes its source,
        and each other state then takes its representative's distance:
        - (1,1): the register swap (a,b) -> (b,a) maps each op onto the same
          opcode with the registers swapped; representative (min, max).
        - (1,0): (a,b) -> (a,-b) maps ADD onto SUB of the same target and
          commutes with DBL, HLV and NEG, so it applies only when ADD and
          SUB cost the same; representative (a, min(b, m-b)). Otherwise
          this row searches every state. Folded, it skips NEG R2: that op
          is the map itself, so it takes each representative onto itself.
        Each row equals the full search's, state for state.
        """
        m = self.m
        dist = np.full((2, m * m), np.iinfo(np.int32).max // 2, dtype=np.int32)
        add_is_sub = self.model.op_cost(ADD, self.n) == self.model.op_cost(SUB, self.n)
        edges = list(zip(self.ops, self._weights))
        edges_10 = [e for e in edges if e[0] != BlockOp(NEG, R2)] if add_is_sub else edges
        rows = (
            (dist[0], m + 1, edges, lambda a, b: np.minimum(a, b) * m + np.maximum(a, b)),
            (
                dist[1], m, edges_10,
                lambda a, b: a * m + (np.minimum(b, m - b) if add_is_sub else b),
            ),
        )
        for row, source, row_edges, state in rows:
            row[source] = 0
            buckets = {0: [np.array([source])]}
            while buckets:
                du = min(buckets)
                u = np.concatenate(buckets.pop(du))
                u = u[row[u] == du]  # drop entries lowered since queued
                a, b = np.divmod(u, m)
                for op, w in row_edges:
                    v = state(*apply_block(op, a, b, m, self._inv2))
                    v = v[row[v] > du + w]
                    if v.size:
                        row[v] = du + w
                        buckets.setdefault(du + w, []).append(v)
        swapped = dist[0].reshape(m, m)
        # R = min(R, R^T) a band of rows at a time: numpy copies an operand
        # that overlaps the output, and a whole R^T is M^2 int32
        for i in range(0, m, 256):
            band = swapped[i : i + 256]
            np.minimum(band, swapped[:, i : i + 256].T, out=band)
        if add_is_sub:
            negated = dist[1].reshape(m, m)
            negated[:, m // 2 + 1 :] = negated[:, m // 2 : 0 : -1]
        return dist

    def _candidates(self, c: int) -> list[tuple[int, int, str]]:
        m = self.m
        # (source row, target index, result register); fixed preference
        # order for ties: bare start first, result in R1 first.
        return [
            (1, c * m + 0, R1),
            (1, 0 * m + c, R2),
            (0, c * m + 0, R1),
            (0, 0 * m + c, R2),
        ]

    def cost(self, c: int) -> int:
        c %= self.m
        if gcd(c, self.m) != 1:
            raise NotCoprime(f"gcd({c}, {self.m}) != 1")
        if c == 1:
            return 0
        best = min(self._dist[s, t] for s, t, _ in self._candidates(c))
        return int(best)

    def all_costs(self) -> dict[int, int]:
        """Minimal cost for every coprime c in [1, M)."""
        m = self.m
        # (c, 0) sits at c * m, (0, c) at c; least over both rows
        best = np.minimum(self._dist[:, : m * m : m], self._dist[:, :m]).min(axis=0)
        return {c: 0 if c == 1 else int(best[c]) for c in range(1, m) if gcd(c, m) == 1}

    def circuit(self, c: int) -> BlockCircuit:
        """Reconstruct one least-cost circuit for c; deterministic via the
        fixed candidate order, then opcode order, then state index."""
        c %= self.m
        if gcd(c, self.m) != 1:
            raise NotCoprime(f"gcd({c}, {self.m}) != 1")
        m, n = self.m, self.n
        if c == 1:
            return BlockCircuit(m, 1, n, ())
        best = self.cost(c)
        source_row, target, result = next(
            (s, t, r)
            for s, t, r in self._candidates(c)
            if self._dist[s, t] == best
        )
        dist = self._dist[source_row]
        source_state = (1, 0) if source_row == 1 else (1, 1)
        inv_ops = [(op, inverse_op(op), w) for op, w in zip(self.ops, self._weights)]
        ops_rev: list[BlockOp] = []
        cur = target
        while dist[cur] > 0:
            ca, cb = divmod(cur, m)
            for op, inv, w in inv_ops:
                pa, pb = apply_block(inv, ca, cb, m, self._inv2)
                prev = pa * m + pb
                if dist[prev] + w == dist[cur]:
                    ops_rev.append(op)
                    cur = prev
                    break
            else:  # pragma: no cover - distances guarantee a predecessor
                raise RuntimeError("no predecessor found during reconstruction")
        assert divmod(cur, m) == source_state
        ops = list(reversed(ops_rev))
        if source_state == (1, 1):
            ops.insert(0, BlockOp(FANOUT))
        return BlockCircuit(m, c, n, tuple(ops), result)


def optimal_costs(
    m: int,
    model: CostModel = DEFAULT_COST_MODEL,
    include_neg: bool = True,
    bit_cap: int = DEFAULT_BIT_CAP,
) -> dict[int, int]:
    """Map each coprime c to its minimal circuit cost under the model."""
    return OptimalSearch(m, model, include_neg, bit_cap).all_costs()


def optimal_circuit(
    c: int,
    m: int,
    model: CostModel = DEFAULT_COST_MODEL,
    include_neg: bool = True,
    bit_cap: int = DEFAULT_BIT_CAP,
) -> BlockCircuit:
    """One least-cost circuit for (c, m); cost equals optimal_costs[c]."""
    return OptimalSearch(m, model, include_neg, bit_cap).circuit(c)
