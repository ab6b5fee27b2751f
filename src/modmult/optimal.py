"""Exact minimum-cost circuit search for small moduli.

States are residue pairs (a, b) in (Z_M)^2; edges are the block operators
(ADD/SUB with either target, DBL/HLV/NEG on either register) weighted by
the cost model, which must price each above 0. A circuit starts in (1, 1)
after a FANOUT, at FANOUT's price, or in (1, 0) if it keeps to one
register, and for every coprime c a bucket Dijkstra yields the cheapest
one ending in (c, 0) or (0, c). Edges come from `apply_block` on the fly,
so memory is the int32 distances, 4 bytes per state and searched source.

A reversible model, one that prices ADD = SUB and DBL = HLV (NEG is its own
inverse) as the default does, needs the search from (1, 0) only. Every op
is linear and its inverse costs the same, so scaling a path (1,1) -> (c,0)
by c^-1 and running it backwards gives a path (1,0) -> (c^-1, c^-1) of equal
cost, and back. A FANOUT circuit for c is then FANOUT followed by the
inverses of that path's ops, last op first. Any other model also searches
from (1, 1).

Each search covers about half its states, by a symmetry of the graph that
fixes its source: the register swap (a,b) -> (b,a) for (1, 1), under any
cost model, and (a,b) -> (a,-b) for (1, 0), which swaps ADD and SUB and so
holds only when the model prices them the same. The distances are those of
the full search.
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

__all__ = ["ModulusTooLarge", "NonPositiveCost", "OptimalSearch"]

DEFAULT_BIT_CAP = 12


class ModulusTooLarge(ValueError):
    """State space M^2 exceeds the configured search cap."""


class NonPositiveCost(ValueError):
    """An edge op costs <= 0 at this width; least-cost search needs > 0."""


# Fixed opcode order; path reconstruction tie-breaks along this list.
_EDGE_OPS = (
    BlockOp(ADD, R1, R2),
    BlockOp(ADD, R2, R1),
    BlockOp(SUB, R1, R2),
    BlockOp(SUB, R2, R1),
    BlockOp(DBL, R1),
    BlockOp(DBL, R2),
    BlockOp(HLV, R1),
    BlockOp(HLV, R2),
    BlockOp(NEG, R1),
    BlockOp(NEG, R2),
)


class OptimalSearch:
    """Least-cost distances over the block-operator state graph of one
    modulus, with deterministic circuit reconstruction."""

    def __init__(
        self,
        m: int,
        model: CostModel = DEFAULT_COST_MODEL,
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
        self._edges = [(op, model.op_cost(op.opcode, self.n)) for op in _EDGE_OPS]
        free = [op.text() for op, w in self._edges if w <= 0]
        if free:
            raise NonPositiveCost(f"{', '.join(free)} must cost > 0 at n={self.n}")
        # (op, inverse, weight); reconstruction steps back along op by its inverse
        self._steps = [(op, inverse_op(op), w) for op, w in self._edges]
        price = {op.opcode: w for op, w in self._edges}
        self._reversible = price[ADD] == price[SUB] and price[DBL] == price[HLV]
        self._fanout = model.op_cost(FANOUT, self.n)  # added to each FANOUT start
        self._inv2 = (m + 1) // 2
        self._dist = self._run()

    def _run(self) -> np.ndarray:
        """Dial's bucket Dijkstra (CACM 1969) over positive integer weights,
        one distance row per source: (1,0) alone for a reversible model,
        else (1,1) then (1,0). The unreached sentinel leaves room for
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
        add_is_sub = self.model.op_cost(ADD, self.n) == self.model.op_cost(SUB, self.n)
        edges = self._edges
        edges_10 = [e for e in edges if e[0] != BlockOp(NEG, R2)] if add_is_sub else edges
        rows = [
            (m, edges_10, lambda a, b: a * m + (np.minimum(b, m - b) if add_is_sub else b))
        ]
        if not self._reversible:
            rows.insert(0, (m + 1, edges, lambda a, b: np.minimum(a, b) * m + np.maximum(a, b)))
        dist = np.full((len(rows), m * m), np.iinfo(np.int32).max // 2, dtype=np.int32)
        for row, (source, row_edges, state) in zip(dist, rows):
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
        if not self._reversible:
            swapped = dist[0].reshape(m, m)
            # R = min(R, R^T) a band of rows at a time: numpy copies an operand
            # that overlaps the output, and a whole R^T is M^2 int32
            for i in range(0, m, 256):
                band = swapped[i : i + 256]
                np.minimum(band, swapped[:, i : i + 256].T, out=band)
        if add_is_sub:
            negated = dist[-1].reshape(m, m)
            negated[:, m // 2 + 1 :] = negated[:, m // 2 : 0 : -1]
        return dist

    def _best(self, c: int) -> tuple[int, int, str, bool]:
        """The first of c's candidates (distance row, target index, result
        register, FANOUT start) at least cost, for c in [0, M): its distance,
        plus FANOUT's price for a FANOUT start. Fixed preference order for
        ties: bare start first, result in R1 first. The (1,0) row is
        `_dist[-1]`; (c, 0) sits at c * m, (0, c) at c."""
        m = self.m
        if gcd(c, m) != 1:
            raise NotCoprime(f"gcd({c}, {m}) != 1")
        candidates = [(-1, c * m, R1, False), (-1, c, R2, False)]
        if self._reversible:
            # dist((1,1) -> (c,0)) = dist((1,0) -> (c^-1, c^-1)); the (0,c)
            # end ties (c,0) by the register swap, so it is never chosen
            candidates.append((-1, pow(c, -1, m) * (m + 1), R1, True))
        else:
            candidates += [(0, c * m, R1, True), (0, c, R2, True)]
        return min(candidates, key=lambda k: self._dist[k[0], k[1]] + self._fanout * k[3])

    def cost(self, c: int) -> int:
        row, target, _, fanout = self._best(c % self.m)
        return int(self._dist[row, target]) + self._fanout * fanout

    def all_costs(self) -> dict[int, int]:
        """Minimal cost for every coprime c in [1, M)."""
        m = self.m
        units = [c for c in range(1, m) if gcd(c, m) == 1]
        ends = np.minimum(self._dist[:, : m * m : m], self._dist[:, :m])
        if self._reversible:  # FANOUT start: (c^-1, c^-1) of the (1,0) row
            best = ends[0]
            diagonal = self._dist[-1, :: m + 1] + self._fanout
            best[units] = np.minimum(best[units], diagonal[[pow(c, -1, m) for c in units]])
        else:  # row 0 is the FANOUT start (1,1)
            best = np.minimum(ends[0] + self._fanout, ends[1])
        return dict(zip(units, best[units].tolist()))

    def circuit(self, c: int) -> BlockCircuit:
        """Reconstruct one least-cost circuit for c; deterministic via the
        fixed candidate order, then opcode order, then state index.

        A FANOUT circuit read off the (1,0) row walks back from
        (c^-1, c^-1) and records each op's inverse, so the walk's order is
        the circuit's: scaled by c*y, it runs from (y, y) to (c*y, 0)."""
        c %= self.m
        m = self.m
        row, cur, result, fanout = self._best(c)
        dist = self._dist[row]
        backward = fanout and self._reversible
        ops: list[BlockOp] = []
        while dist[cur] > 0:
            ca, cb = divmod(cur, m)
            for op, inv, w in self._steps:
                pa, pb = apply_block(inv, ca, cb, m, self._inv2)
                prev = pa * m + pb
                if dist[prev] + w == dist[cur]:
                    ops.append(inv if backward else op)
                    cur = prev
                    break
            else:  # pragma: no cover - distances guarantee a predecessor
                raise RuntimeError("no predecessor found during reconstruction")
        if not backward:
            ops.reverse()
        if fanout:
            ops.insert(0, BlockOp(FANOUT))
        return BlockCircuit(m, c, self.n, tuple(ops), result)
