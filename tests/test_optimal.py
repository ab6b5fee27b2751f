import hashlib
import heapq
import random
import tracemalloc
from math import gcd
from unittest import mock

import numpy as np
import pytest

from modmult.circuit import (
    ADD,
    DBL,
    FANOUT,
    HLV,
    NEG,
    R1,
    R2,
    SUB,
    BlockOp,
    CostModel,
    DepthModel,
    apply_block,
    circuit_cost,
    circuit_depth,
    serialize,
)
from modmult import optimal
from modmult.numtheory import NotCoprime
from modmult.optimal import ModulusTooLarge, NonPositiveCost, OptimalSearch
from modmult.simulate import verify
from modmult.synth import SynthesisConfig, synthesize


def _search(m: int, model: CostModel = CostModel(), include_neg: bool = True) -> OptimalSearch:
    """The exact search over its edge list, or over that list less the two
    NEG ops. The search is generic over its edges; the graph without NEG is
    a second graph on which it must match the heapq reference and its
    goldens."""
    if include_neg:
        return OptimalSearch(m, model)
    no_neg = tuple(op for op in optimal._EDGE_OPS if op.opcode != NEG)
    with mock.patch.object(optimal, "_EDGE_OPS", no_neg):
        return OptimalSearch(m, model)


class TestCosts:
    def test_identity_free(self):
        assert OptimalSearch(21).cost(1) == 0

    def test_21_13_at_most_six_adds(self):
        model = CostModel()
        search = OptimalSearch(21, model)
        assert search.cost(13) <= 6 * model.op_cost(ADD, 5)

    def test_35_doubling(self):
        model = CostModel()
        assert OptimalSearch(35, model).cost(2) == model.op_cost(DBL, 6)

    def test_all_costs_matches_pointwise(self):
        search = OptimalSearch(33)
        table = search.all_costs()
        assert set(table) == {c for c in range(1, 33) if gcd(c, 33) == 1}
        for c, cost in table.items():
            assert cost == search.cost(c)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            OptimalSearch(21).cost(7)

    def test_bit_cap(self):
        with pytest.raises(ModulusTooLarge):
            OptimalSearch((1 << 13) + 1, bit_cap=12)

    def test_free_edge_op_refused(self):
        free_neg = CostModel({**CostModel().coeffs, NEG: (0, 0)})
        with pytest.raises(NonPositiveCost, match="NEG"):
            OptimalSearch(21, free_neg)
        # NEG is not an edge of the graph without it, so its price is irrelevant
        assert _search(21, free_neg, include_neg=False).cost(13) > 0


class TestReconstruction:
    def test_identity_circuit_empty(self):
        assert OptimalSearch(21).circuit(1).ops == ()

    def test_cost_matches_and_verifies(self):
        for m in (21, 33, 35):
            search = OptimalSearch(m)
            for c in range(2, m):
                if gcd(c, m) != 1:
                    continue
                circ = search.circuit(c)
                assert circuit_cost(circ, search.model)[0] == search.cost(c), (m, c)
                report = verify(circ)
                assert report.passed, (m, c, report.summary())

    def test_circuit_for_c_mod_m(self):
        # C, C + M and C - M are one residue, so one circuit, byte for byte
        for m, count in ((21, None), (1007, 24)):
            search = OptimalSearch(m)
            units = [c for c in range(1, m) if gcd(c, m) == 1]
            for c in random.Random(m).sample(units, count) if count else units:
                texts = {serialize(search.circuit(x)) for x in (c, c + m, c - m)}
                assert len(texts) == 1, (m, c)

    @pytest.mark.parametrize(
        "m, prices",
        [(221, {}), (1007, {}), (221, {HLV: (5, 1)}), (221, {ADD: (1000, 0), SUB: (1000, 0)})],
        ids=["221", "1007", "221-hlv-dearer", "221-int32"],
    )
    def test_batched_walks_match_single_walks(self, m, prices):
        # every unit in shuffled order, one twice, and 1 + m (C = 1: no ops);
        # dearer HLV searches two rows, dear ADD and SUB int32 rows
        search = OptimalSearch(m, CostModel({**CostModel().coeffs, **prices}))
        assert len(search._rows) == (2 if HLV in prices else 1)
        assert search._dist.dtype == (np.int32 if ADD in prices else np.int16)
        cs = [c for c in range(1, m) if gcd(c, m) == 1]
        random.Random(m).shuffle(cs)
        cs += [cs[0], 1 + m]
        batched = search.circuits(cs)
        assert batched == [search.circuits((c,))[0] for c in cs]
        assert batched[-1].ops == () and batched[-1].multiplier == 1
        assert search.circuits(()) == []

    def test_batched_walk_refuses_non_unit_first(self):
        search = OptimalSearch(21)
        with mock.patch.object(optimal, "apply_block", side_effect=AssertionError("walked")):
            with pytest.raises(NotCoprime):
                search.circuits([2, 5, 7, 13])

    def test_single_register_special_skips_fanout(self):
        circ = OptimalSearch(35).circuit(2)
        assert [op.opcode for op in circ.ops] == [DBL]
        assert circ.result_register == R1

    def test_fanout_source_circuits_start_with_fanout(self):
        search = OptimalSearch(21)
        circ = search.circuit(13)
        if circ.ops and circ.ops[0].opcode == FANOUT:
            assert all(op.opcode != FANOUT for op in circ.ops[1:])

    def test_deterministic(self):
        a = OptimalSearch(77)
        b = OptimalSearch(77)
        for c in (2, 10, 59, 76):
            assert serialize(a.circuit(c)) == serialize(b.circuit(c))

    @pytest.mark.parametrize("include_neg", [True, False])
    @pytest.mark.parametrize("m", [21, 33, 35, 77, 221])
    def test_every_circuit_verifies_at_its_cost(self, m, include_neg):
        # the default model, a reversible and two non-reversible models that
        # price FANOUT, which every FANOUT candidate must pay, and one with
        # ADD and SUB priced apart, whose rows are not folded
        default = CostModel().coeffs
        models = [
            CostModel(),
            CostModel({**default, FANOUT: (1, 0)}),
            CostModel({**default, HLV: (5, 1), FANOUT: (1, 0)}),
            CostModel({**default, SUB: (4, 0)}),
            CostModel({**default, SUB: (4, 0), FANOUT: (1, 0)}),
        ]
        for model in models:
            search = _search(m, model, include_neg)
            costs = search.all_costs()
            for c in range(1, m):
                if gcd(c, m) == 1:
                    circ = search.circuit(c)
                    assert circuit_cost(circ, model)[0] == search.cost(c) == costs[c], (model, c)
                    assert verify(circ).passed, (model, c)


class TestFloorProperty:
    def test_heuristic_never_beats_optimal(self):
        cfg = SynthesisConfig()
        for m in (21, 35, 91, 115):
            search = OptimalSearch(m, cfg.cost_model)
            floor = search.all_costs()
            for c in range(2, m):
                if gcd(c, m) != 1:
                    continue
                h = circuit_cost(synthesize(c, m, cfg), cfg.cost_model)[0]
                assert h >= floor[c], (m, c)

    def test_without_neg_costs_no_lower(self):
        with_neg = _search(21, include_neg=True).all_costs()
        without = _search(21, include_neg=False).all_costs()
        for c, cost in with_neg.items():
            assert without[c] >= cost


def _units(m: int) -> list[int]:
    return [c for c in range(2, m) if gcd(c, m) == 1]


def _running_digest(search: OptimalSearch) -> str:
    h = hashlib.sha256()
    for circ in search.circuits(_units(search.m)):
        h.update(serialize(circ).encode())
    return h.hexdigest()


def _measures_digest(search: OptimalSearch) -> str:
    """Digest of (c, toffoli, ripple depth, lookahead depth, op count) per
    coprime c: what a bench record keeps of each circuit, not its text."""
    ripple, lookahead = DepthModel.ripple(), DepthModel.lookahead()
    h = hashlib.sha256()
    units = _units(search.m)
    for c, circ in zip(units, search.circuits(units)):
        row = (
            c,
            circuit_cost(circ, search.model)[0],
            circuit_depth(circ, ripple),
            circuit_depth(circ, lookahead),
            len(circ.ops),
        )
        h.update(repr(row).encode())
    return h.hexdigest()


class TestSearch:
    def test_golden_1007(self):
        # the costs digest is the CSR-matrix search's, which this replaced.
        # The circuit digests are those of FANOUT circuits read backwards off
        # the (1,0) row: a tie-break change, same costs (82fabfaf00a50452 and
        # e0804c0125eb57ff when they came from the (1,1) row)
        search = OptimalSearch(1007)
        costs = repr(sorted(search.all_costs().items())).encode()
        assert hashlib.sha256(costs).hexdigest().startswith("5557e1c1ebd78a01")
        assert _running_digest(search).startswith("f5213ed542294c1f")
        no_neg = _search(1007, include_neg=False)
        assert _running_digest(no_neg).startswith("3f2d91ed35000909")

    @pytest.mark.parametrize(
        "include_neg, digest", [(True, "fd105691b21d410b"), (False, "efb2718953e63944")]
    )
    def test_golden_1007_measures(self, include_neg, digest):
        # computed on the two-row search: reading FANOUT circuits off the
        # (1,0) row moves their text, never a Toffoli count, depth or length
        assert _measures_digest(_search(1007, include_neg=include_neg)).startswith(digest)

    @pytest.mark.parametrize(
        "include_neg, digest", [(True, "c1fb79c91515b7b8"), (False, "e0320ebac312bccb")]
    )
    def test_golden_221_dearer_halving(self, include_neg, digest):
        # DBL and HLV priced apart: FANOUT circuits come off the reversed
        # graph's row, a tie-break change, same costs (f55c7a31fbd47fdd and
        # 3c6f8c601cb7bee4 when they came from a search from (1,1))
        model = CostModel({**CostModel().coeffs, HLV: (5, 1)})
        assert _running_digest(_search(221, model, include_neg)).startswith(digest)

    @pytest.mark.parametrize(
        "prices, m, digest",
        [
            ({HLV: (5, 1)}, 221, "591d662b130aaede"),
            ({HLV: (5, 1)}, 1007, "6d7235d428c8d623"),
            ({SUB: (4, 0)}, 221, "18daf51bb3690c8b"),
            ({SUB: (4, 0)}, 1007, "536380eeb73a052e"),
        ],
        ids=["hlv-dearer-221", "hlv-dearer-1007", "sub-dearer-221", "sub-dearer-1007"],
    )
    def test_golden_costs_other_prices(self, prices, m, digest):
        # taken on the search from (1,1), which the reversed graph replaced
        search = OptimalSearch(m, CostModel({**CostModel().coeffs, **prices}))
        costs = repr(sorted(search.all_costs().items())).encode()
        assert hashlib.sha256(costs).hexdigest().startswith(digest)

    @staticmethod
    def reference(m: int, model: CostModel, include_neg: bool, unreached: int):
        """Distance rows and all_costs from a heapq Dijkstra over an
        explicit edge list: the graph from (1,1) and from (1,0), and its
        transpose, the reversed graph, from (1,0). A state no path reaches
        reads `unreached`; a start at (1,1) pays FANOUT's price."""
        n = m.bit_length()
        codes = (DBL, HLV, NEG) if include_neg else (DBL, HLV)
        ops = [BlockOp(code, t, s) for code in (ADD, SUB) for t, s in ((R1, R2), (R2, R1))]
        ops += [BlockOp(code, t) for code in codes for t in (R1, R2)]
        edges = [[] for _ in range(m * m)]
        reversed_edges = [[] for _ in range(m * m)]
        for state in range(m * m):
            a, b = divmod(state, m)
            for op in ops:
                na, nb = apply_block(op, a, b, m, (m + 1) // 2)
                w = model.op_cost(op.opcode, n)
                edges[state].append((na * m + nb, w))
                reversed_edges[na * m + nb].append((state, w))
        rows = []
        for source, graph in (((1, 1), edges), ((1, 0), edges), ((1, 0), reversed_edges)):
            dist = [unreached] * (m * m)
            start = source[0] * m + source[1]
            dist[start] = 0
            heap = [(0, start)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u]:
                    continue
                for v, w in graph[u]:
                    if d + w < dist[v]:
                        dist[v] = d + w
                        heapq.heappush(heap, (d + w, v))
            rows.append(dist)
        fanout = model.op_cost(FANOUT, n)
        costs = {
            c: 0 if c == 1 else min(row[i] + f for row, f in zip(rows, (fanout, 0)) for i in (c * m, c))
            for c in range(1, m)
            if gcd(c, m) == 1
        }
        return np.array(rows), costs

    @classmethod
    def assert_matches_reference(cls, m: int, model: CostModel, include_neg: bool):
        search = _search(m, model, include_neg)
        unreached = np.iinfo(search._dist.dtype).max // 2
        rows, costs = cls.reference(m, model, include_neg, unreached)
        from_11, from_10, reversed_10 = rows
        # every model: the (1,1) row's (c, 0) and (0, c) are the reversed
        # row's (c^-1, c^-1), which the FANOUT candidate reads
        for c in costs:
            assert from_11[c * m] == from_11[c] == reversed_10[pow(c, -1, m) * (m + 1)], c
        price = {code: model.op_cost(code, m.bit_length()) for code in (ADD, SUB, DBL, HLV)}
        # every edge with a reverse of equal weight: the reversed graph is
        # the graph, and one row serves both
        reversible = price[ADD] == price[SUB] and price[DBL] == price[HLV]
        assert len(search._dist) == (1 if reversible else 2)
        # state for state, unreached states included, each read at its
        # representative's index when ADD and SUB cost the same
        folded = price[ADD] == price[SUB]
        assert search._dist.shape[1] == m * (m // 2 + 1 if folded else m)
        index = search._state(*np.divmod(np.arange(m * m), m))
        assert np.array_equal(search._dist[0, index], from_10)
        assert np.array_equal(search._dist[-1, index], reversed_10)
        assert search.all_costs() == costs
        assert all(search.cost(c) == cost for c, cost in costs.items())
        return search

    @pytest.mark.parametrize("include_neg", [True, False])
    @pytest.mark.parametrize("m", [21, 33, 35, 77])
    def test_matches_heapq_reference(self, m, include_neg):
        self.assert_matches_reference(m, CostModel(), include_neg)

    @pytest.mark.parametrize(
        "prices",
        [{SUB: (4, 0)}, {HLV: (5, 1)}, {ADD: (1, 1)}],
        ids=["sub-dearer", "hlv-dearer", "add-cheaper"],
    )
    @pytest.mark.parametrize("include_neg", [True, False])
    @pytest.mark.parametrize("m", [21, 33, 35, 77])
    def test_matches_heapq_reference_other_prices(self, m, include_neg, prices):
        # with ADD and SUB priced apart, neither row is folded by (a,b) -> (a,-b)
        model = CostModel({**CostModel().coeffs, **prices})
        self.assert_matches_reference(m, model, include_neg)

    @pytest.mark.parametrize(
        "prices, dtype",
        [
            ({ADD: (1000, 0)}, np.int16),
            ({ADD: (1000, 0), SUB: (1000, 0)}, np.int32),
            ({ADD: (1000, 0), SUB: (1000, 0), HLV: (1000, 0)}, np.int32),
            ({ADD: (1000, 0), SUB: (1000, 0), DBL: (1000, 0), HLV: (1000, 0)}, np.int32),
        ],
        ids=["add-dear", "add-sub-dear", "add-sub-hlv-dear", "all-dear"],
    )
    def test_dear_model_widens_rows(self, prices, dtype):
        # rows are int16 while every distance, plus the dearest edge, stays
        # below 16,383; a model whose distances pass that searches int32 rows
        model = CostModel({**CostModel().coeffs, **prices})
        search = self.assert_matches_reference(21, model, include_neg=True)
        assert search._dist.dtype == dtype

    @pytest.mark.parametrize("fanout", [32_700, 40_000])
    def test_dear_fanout_adds_outside_the_rows(self, fanout):
        # FANOUT's price is added in Python ints: in int16 it would wrap
        # (32,700) or not fit at all (40,000)
        model = CostModel({**CostModel().coeffs, FANOUT: (0, fanout)})
        search = self.assert_matches_reference(221, model, include_neg=True)
        assert search._dist.dtype == np.int16

    def test_model_too_dear_for_int32_refused(self):
        # a single ADD at slope 3e8 passes int32 rows' unreached value
        dear = {code: (300_000_000, 0) for code in (ADD, SUB, DBL, HLV)}
        with pytest.raises(optimal.DistanceOverflow):
            OptimalSearch(21, CostModel({**CostModel().coeffs, **dear}))

    @pytest.mark.parametrize(
        "m, digest",
        [
            (979, "cc8aaf7a77037cd857442f159ae48cacf913fd3dbeb232226fb8297744664ff2"),
            (1007, "36f41e7e73010a65e9130c9c728ac3711e53868496c1e34a4545f83403d78b6e"),
        ],
    )
    def test_distances_pinned_at_bench_sizes(self, m, digest):
        # the heapq reference stops at M = 221; the sweeps search 10-bit moduli
        dist = OptimalSearch(m)._dist
        assert hashlib.sha256(dist.tobytes()).hexdigest() == digest

    def test_twelve_bit_cap_fits(self):
        # folded int16 rows trace about 38.8 MB at the cap (38.1 MB before
        # `compress`, which makes int64 indices, filtered the relaxation);
        # full int16 rows traced 55.5 MB, and full int32 rows 111 MB
        m, c = 4087, 1234  # 61 * 67, the 12-bit cap
        tracemalloc.start()
        try:
            search = OptimalSearch(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert search._dist.dtype == np.int16
        assert peak <= 40 << 20, f"{peak / 2**20:.1f} MB"
        assert hashlib.sha256(search._dist.tobytes()).hexdigest() == (
            "9008fbb3cdc144a216e173b8e09bc40b76327a2dd3904110653863489e59f55b"
        )
        circ = search.circuit(c)
        assert circuit_cost(circ, search.model)[0] == search.cost(c)
        assert verify(circ).passed
