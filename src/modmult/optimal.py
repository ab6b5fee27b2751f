"""Exact minimum-cost circuit search for small moduli.

States are residue pairs (a, b) in (Z_M)^2; edges are the block operators
(ADD/SUB with either target, DBL/HLV/NEG on either register) weighted by
the cost model, which must price each above 0. A circuit without FANOUT
runs from (1, 0) to (c, 0) or (0, c); one that starts with a FANOUT, at
FANOUT's price, runs from (1, 1) to (c, 0). A bucket Dijkstra from (1, 0)
yields both, for every coprime c. Edges come from `apply_block` on the
fly, so memory is the distances: int16, 2 bytes per representative (below)
and row, or int32 for a model whose distances outgrow int16; a model whose
distances outgrow int32 is refused with `DistanceOverflow`.

Every search starts at (1, 0). Every op is linear, so scaling a path
(1,1) -> (c,0) by c^-1 gives a path (c^-1, c^-1) -> (1,0) with the same ops
and cost: a path from (1, 0) to (c^-1, c^-1) in the reversed graph, whose
edges are the ops' inverses, each at its op's price. The FANOUT circuit for
c is FANOUT followed by the inverses of that path's edges, last edge first.
A model that prices ADD = SUB and DBL = HLV (NEG is its own inverse), as the
default does, has a reversed graph equal to its graph and searches one row;
any other model searches a second row, over the reversed graph. The (0, c)
end of a FANOUT circuit ties its (c, 0) end by the register swap.

When the model prices ADD and SUB the same, each row stores and searches
only one representative (a, min(b, M-b)) of each orbit of the symmetry
(a,b) -> (a,-b) of both graphs, which fixes (1, 0) and swaps ADD and SUB:
M * (M//2 + 1) entries in place of M^2. Every state reads its
representative's distance, which is the full search's. Any other model
keeps one entry per state.
"""

from __future__ import annotations

from collections.abc import Iterable
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

__all__ = ["DistanceOverflow", "ModulusTooLarge", "NonPositiveCost", "OptimalSearch"]

DEFAULT_BIT_CAP = 12


class ModulusTooLarge(ValueError):
    """State space M^2 exceeds the configured search cap."""


class NonPositiveCost(ValueError):
    """An edge op costs <= 0 at this width; least-cost search needs > 0."""


class DistanceOverflow(ValueError):
    """The model's distances would reach int32 rows' unreached value."""


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
_FANOUT = BlockOp(FANOUT)  # every FANOUT circuit's first op


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
        # (edge, its inverse, weight): reconstruction steps back by the inverse
        edges = [(op, inverse_op(op), model.op_cost(op.opcode, self.n)) for op in _EDGE_OPS]
        free = [op.text() for op, _, w in edges if w <= 0]
        if free:
            raise NonPositiveCost(f"{', '.join(free)} must cost > 0 at n={self.n}")
        # one row per graph: the ops, then their reverse when it differs
        reverse = [(inv, op, w) for op, inv, w in edges]
        self._rows = [edges] if set(reverse) == set(edges) else [edges, reverse]
        self._fanout = model.op_cost(FANOUT, self.n)  # added to each FANOUT start
        self._inv2 = (m + 1) // 2
        # a folded row holds one state (a, min(b, m-b)) per orbit of (a,b) -> (a,-b)
        self._fold = model.op_cost(ADD, self.n) == model.op_cost(SUB, self.n)
        self._width = m // 2 + 1 if self._fold else m
        self._dist = self._run(np.int16)
        if self._dist is None:  # distances outgrow int16 rows
            self._dist = self._run(np.int32)

    def _run(self, dtype: type[np.integer]) -> np.ndarray | None:
        """Dial's bucket Dijkstra (CACM 1969) over positive integer weights,
        from (1,0), one distance row per graph in `_rows`, of `dtype`. The
        unreached value is half the dtype's largest. Before it relaxes a
        bucket, the search checks that the bucket's distance plus the row's
        dearest edge stays below that value, so `dist + w` cannot wrap and a
        reached state never reads as unreached. If it would not, a search
        over int16 rows returns None, and one over int32 rows raises
        `DistanceOverflow`.

        State indices are int32 while M^2 fits it (M <= 46,340), which also
        holds every product `apply_block` forms (HLV's t * inv2 < M^2 / 2),
        and int64 past that. A bucket's states are read with `take`,
        filtered with `compress` and written with `put`: half the time of
        boolean-mask indexing, for the same distances.

        A folded row searches representatives only, at `_state`'s indices.
        The map (a,b) -> (a,-b) fixes (1,0), maps ADD onto SUB of the same
        target, or the reverse of one onto the reverse of the other, and
        commutes with DBL, HLV and NEG, so each state's distance is its
        representative's. Folded, a row skips NEG R2: that op is the map
        itself, so it takes each representative onto itself.
        """
        m = self.m
        unreached = np.iinfo(dtype).max // 2
        index = np.int32 if m * m <= 1 << 31 else np.int64
        dist = np.full((len(self._rows), m * self._width), unreached, dtype=dtype)
        start = self._width  # (1, 0)
        skip = BlockOp(NEG, R2) if self._fold else None
        for row, edges in zip(dist, self._rows):
            row_edges = [(op, w) for op, _, w in edges if op != skip]
            dearest = max(w for _, w in row_edges)
            row[start] = 0
            buckets = {0: [np.array([start], dtype=index)]}
            while buckets:
                du = min(buckets)
                if du + dearest >= unreached:
                    if dtype == np.int16:
                        return None
                    raise DistanceOverflow(
                        f"a distance of {du} plus an edge of {dearest} at n={self.n} "
                        f"reaches the search's limit of {unreached}"
                    )
                u = np.concatenate(buckets.pop(du))
                u = u.compress(row.take(u) == du)  # drop entries lowered since queued
                a, b = np.divmod(u, self._width)
                for op, w in row_edges:
                    v = self._state(*apply_block(op, a, b, m, self._inv2))
                    v = v.compress(row.take(v) > du + w)
                    if v.size:
                        row.put(v, du + w)
                        buckets.setdefault(du + w, []).append(v)
        return dist

    def _state(self, a, b):
        """The row index of (a, b)'s representative, for ints or arrays."""
        if self._fold:
            b = min(b, self.m - b) if isinstance(b, int) else np.minimum(b, self.m - b)
        return a * self._width + b

    def _best(self, c: int) -> tuple[int, int, tuple[int, int], str, bool]:
        """The first of c's candidates at least cost, for c in [0, M): its
        cost, distance row, end state, result register and whether it starts
        with FANOUT. A candidate costs its end's distance, plus FANOUT's
        price for a FANOUT start, which is added to Python ints, so the row
        dtype cannot wrap it. Fixed preference order for ties: (c, 0),
        (0, c), then FANOUT. A FANOUT start for c ends at (c^-1, c^-1) of
        the last row."""
        m = self.m
        if gcd(c, m) != 1:
            raise NotCoprime(f"gcd({c}, {m}) != 1")
        inv = pow(c, -1, m)
        candidates = [(0, (c, 0), R1, False), (0, (0, c), R2, False), (-1, (inv, inv), R1, True)]
        costs = [
            self._dist.item(row, self._state(*end)) + self._fanout * fanout
            for row, end, _, fanout in candidates
        ]
        first = costs.index(min(costs))
        return (costs[first], *candidates[first])

    def cost(self, c: int) -> int:
        return self._best(c % self.m)[0]

    def all_costs(self) -> dict[int, int]:
        """Minimal cost for every coprime c in [1, M). FANOUT's price is
        added to Python ints, which the row dtype cannot wrap."""
        m = self.m
        units = [c for c in range(1, m) if gcd(c, m) == 1]
        u = np.array(units)
        inv = np.array([pow(c, -1, m) for c in units])
        first = self._dist[0]
        bare = np.minimum(first[self._state(u, 0)], first[self._state(0, u)]).tolist()
        fanout = self._dist[-1, self._state(inv, inv)].tolist()
        return {c: min(d, f + self._fanout) for c, d, f in zip(units, bare, fanout)}

    def circuit(self, c: int) -> BlockCircuit:
        """One least-cost circuit for c: `circuits((c,))[0]`."""
        return self.circuits((c,))[0]

    def circuits(self, cs: Iterable[int]) -> list[BlockCircuit]:
        """One least-cost circuit for each c in cs, in order; deterministic
        via the fixed candidate order, then edge order. Every c is checked
        before any walk, so a non-unit raises `NotCoprime` first.

        Each c's walk steps back from its end of its row to (1,0), and the
        walks of one row step in lockstep, on arrays: at each step every
        unfinished walk tries the row's edges in order, and the first edge
        whose predecessor's distance plus its weight equals the walk's
        distance wins. A bare circuit is the walk's edges, last first. A
        FANOUT circuit is the inverses of the walk's edges in the walk's
        order: scaled by c*y, they run from (y, y) to (c*y, 0)."""
        m = self.m
        cs = [c % m for c in cs]
        best = [self._best(c) for c in cs]
        walked: list[list[int]] = [[] for _ in cs]  # edge indices, in walk order
        for row, (dist, edges) in enumerate(zip(self._dist, self._rows)):
            # _best names the last row -1
            walk = [i for i, found in enumerate(best) if found[1] % len(self._rows) == row]
            a, b = np.array([best[i][2] for i in walk], dtype=np.int64).reshape(-1, 2).T
            d = dist.take(self._state(a, b)).astype(np.int64)
            walk = np.array(walk, dtype=np.int64)
            while (live := d > 0).any():
                walk, a, b, d = walk[live], a[live], b[live], d[live]
                chosen = np.empty_like(walk)
                todo = np.arange(walk.size)  # the walks no edge has matched yet
                for e, (_, inv, w) in enumerate(edges):
                    pa, pb = apply_block(inv, a[todo], b[todo], m, self._inv2)
                    hit = dist.take(self._state(pa, pb)) == d[todo] - w
                    won = todo[hit]
                    chosen[won] = e
                    a[won], b[won], d[won] = pa[hit], pb[hit], d[won] - w
                    todo = todo[~hit]
                    if not todo.size:
                        break
                else:  # pragma: no cover - distances guarantee a predecessor
                    raise RuntimeError("no predecessor found during reconstruction")
                for i, e in zip(walk.tolist(), chosen.tolist()):
                    walked[i].append(e)
        out = []
        for c, (_, row, _, result, fanout), steps in zip(cs, best, walked):
            edges = self._rows[row]
            if fanout:
                ops = (_FANOUT, *(edges[e][1] for e in steps))
            else:
                ops = tuple(edges[e][0] for e in reversed(steps))
            out.append(BlockCircuit(m, c, ops, result))
        return out
