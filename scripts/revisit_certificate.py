#!/usr/bin/env python3
"""Certify that a lookahead round never needs to bar revisited pairs.

A round of depth k from the root (a, b) scores every move sequence of
length <= k, shorter only where it reaches (1, 1), and commits the first
move of the least score, ties going to the least move. Some sequences pass
a pair twice. This script checks, exhaustively and with exact arithmetic,
that no such sequence ever decides a round, at any prices and any cap.

Cases: every coprime root (a, b) != (1, 1) with both values <= 16 << k,
and every move the previous move may forbid (`undo`). A round from a larger
root revisits no pair: every pair on a cycle of at most 5 legal moves has
both values <= 16, and a move at most halves the larger value
(`tests/test_synthesis.py::TestCycleBound`).

Each sequence, together with the binary-GCD completion from its last pair,
becomes (ADD count, HLV count, largest ADD sum). Its score at prices
(ADD, HLV) is linear in the counts, and it is legal under a cap exactly
when its largest sum is below the cap (a sequence without ADD is legal
under every cap). A revisiting sequence S is harmless when, at every pair
of prices >= 0, some sequence T that revisits nothing scores less than S,
or scores no more and has a first move no later than S's; T's largest sum
must be no larger than S's, so that T is legal under every cap S is. Then
no round's least (score, first move) is a revisiting sequence's. Candidates
under every first move count: from (1, 2) at k = 3, ADD_B, ADD_B, HALVE_B
revisits (1, 2), and only HALVE_B matches it.

The prices are checked on the line (1 - t, t) as `Fraction`s: at t = 0 and
t = 1, at every breakpoint of the candidates' lower envelopes, at every
crossing of a candidate's score with S's, and midway between consecutive
such points. At zero prices every score is 0, so one tying candidate
suffices.

Prints one line per depth: the (root, undo) cases, the revisiting
(case, summary) pairs checked, and the harmful ones (must be 0). Exits 0
when none is harmful, 1 otherwise, 2 on invalid input.

Example (depths 1-3 take about 1 s; depth 5 about 1.5 min and 0.5 GB):
    python scripts/revisit_certificate.py --depths 1..3
"""

import argparse
import sys
from fractions import Fraction
from math import gcd

from modmult.cli import parse_bits

CYCLE_MAX = 16
MAX_DEPTH = 5
UNDOS = (-1, 2, 3, 4, 5)  # -1: no move forbidden; else the forbidden move


def completion(a: int, b: int, memo: dict) -> tuple[int, int]:
    """(ADD count, HLV count) of the binary GCD from the coprime pair (a, b):
    halve an even value, else subtract the smaller odd value from the larger."""
    halvings = 0
    while not a & 1:
        a >>= 1
        halvings += 1
    while not b & 1:
        b >>= 1
        halvings += 1
    key = (a, b)
    counts = memo.get(key)
    if counts is None:
        adds = odd_halvings = 0
        while a != b:
            if a < b:
                b -= a
                while not b & 1:
                    b >>= 1
                    odd_halvings += 1
            else:
                a -= b
                while not a & 1:
                    a >>= 1
                    odd_halvings += 1
            adds += 1
        counts = memo[key] = (adds, odd_halvings)
    return counts[0], counts[1] + halvings


def sequences(a: int, b: int, k: int, memo: dict) -> dict[int, tuple[set, set]]:
    """Every move sequence of length <= k from (a, b) under the lookahead's
    rules, without a cap and with no move forbidden at the root, grouped by
    first move: {first: (summaries that revisit no pair, summaries that
    do)}, each summary (ADD count, HLV count, largest ADD sum) with the
    completion's counts included.

    The moves, as `synth.Move` numbers them: 0 and 1 halve an even a or b,
    2 and 3 subtract b from a or a from b (only the smaller from the
    larger), 4 and 5 add b to a or a to b. No move follows the one it
    undoes (an ADD and a SUB on the same side); a sequence stops at (1, 1).
    """
    found: dict[int, tuple[set, set]] = {}

    def walk(a, b, undo, r, adds, halvings, top, path, first, revisits):
        if a == b or r == 0:  # (1, 1), the only equal coprime pair
            ca, ch = completion(a, b, memo)
            found[first][revisits].add((adds + ca, halvings + ch, top))
            return
        children = []
        if not a & 1:
            children.append((0, a >> 1, b, -1, 0, 1, top))
        elif not b & 1:
            children.append((1, a, b >> 1, -1, 0, 1, top))
        if a > b:
            children.append((2, a - b, b, 4, 1, 0, top))
        else:
            children.append((3, a, b - a, 5, 1, 0, top))
        s = a + b
        children.append((4, s, b, 2, 1, 0, max(top, s)))
        children.append((5, a, s, 3, 1, 0, max(top, s)))
        for mv, na, nb, child_undo, da, dh, ntop in children:
            if mv == undo:
                continue
            if first < 0:
                found[mv] = (set(), set())
            walk(
                na, nb, child_undo, r - 1, adds + da, halvings + dh, ntop,
                path + ((na, nb),), mv if first < 0 else first,
                revisits or (na, nb) in path,
            )

    walk(a, b, -1, k, 0, 0, 0, ((a, b),), -1, False)
    return found


def _hull(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The vertices of the lower-left convex hull of the points, by rising
    ADD count: the ones some price pair >= 0 makes least."""
    front = []
    for x, y in sorted(set(points)):
        if front and y >= front[-1][1]:
            continue  # a point with no more ADDs has no more HLVs
        while len(front) >= 2:
            (ox, oy), (px, py) = front[-2], front[-1]
            if (px - ox) * (y - oy) - (py - oy) * (x - ox) > 0:
                break
            front.pop()  # on or above the chord from front[-2] to (x, y)
        front.append((x, y))
    return front


def harmless(summary: tuple[int, int, int], ties: list, beats: list) -> bool:
    """Whether at every pair of prices >= 0 a candidate of `ties` scores no
    more than the summary, or one of `beats` scores less. Only candidates
    legal under every cap the summary is legal under count."""
    adds, halvings, top = summary
    tie = _hull([(x, y) for x, y, t in ties if t <= top])
    beat = _hull([(x, y) for x, y, t in beats if t <= top])
    if not tie:
        return False  # at zero prices every score is 0, and only a tie matches
    if any(x <= adds and y <= halvings for x, y in tie):
        return True  # no more of either move: no more at any price
    if any(x < adds and y < halvings for x, y in beat):
        return True  # fewer of both moves: less at every price but zero
    # prices (1 - t, t): each envelope is linear between its breakpoints, and
    # each of its lines crosses the summary's once at most, so both
    # comparisons keep their truth between consecutive points of `ts`
    ts = {Fraction(0), Fraction(1)}
    for hull in (tie, beat):
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            ts.add(Fraction(x2 - x1, (x2 - x1) + (y1 - y2)))
        for x, y in hull:
            if (x - adds) * (y - halvings) < 0:
                ts.add(Fraction(x - adds, (x - adds) - (y - halvings)))
    ts = sorted(ts)
    ts += [(t1 + t2) / 2 for t1, t2 in zip(ts, ts[1:])]

    def least(hull, t):
        return min(x * (1 - t) + y * t for x, y in hull)

    return all(
        least(tie, t) <= (own := adds * (1 - t) + halvings * t) or beat and least(beat, t) < own
        for t in ts
    )


def certify(k: int) -> tuple[int, int, list]:
    """(cases, revisiting summaries checked, harmful (root, undo, first,
    summary) tuples) at depth k."""
    top = CYCLE_MAX << k
    memo: dict = {}
    cases = checked = 0
    harmful = []
    for a in range(1, top + 1):
        for b in range(1, top + 1):
            if gcd(a, b) != 1 or a == b:
                continue
            found = sequences(a, b, k, memo)
            for undo in UNDOS:
                cases += 1
                firsts = sorted(mv for mv in found if mv != undo)
                for first in firsts:
                    if not found[first][1]:
                        continue
                    ties = [s for mv in firsts if mv <= first for s in found[mv][0]]
                    beats = [s for mv in firsts if mv > first for s in found[mv][0]]
                    for summary in found[first][1]:
                        checked += 1
                        if not harmless(summary, ties, beats):
                            harmful.append(((a, b), undo, first, summary))
    return cases, checked, harmful


def main() -> int:
    """Exit 2 with a one-line message on invalid input, as modmult does."""
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--depths", default="1..3")
    args = ap.parse_args()
    try:
        depths = parse_bits(args.depths)
        for k in depths:
            if not 1 <= k <= MAX_DEPTH:
                raise ValueError(f"depth {k} outside [1, {MAX_DEPTH}]")
    except ValueError as exc:
        print(f"revisit_certificate.py: {exc}", file=sys.stderr)
        return 2
    failed = False
    for k in depths:
        cases, checked, harmful = certify(k)
        print(f"k={k} cases={cases:>6} revisiting={checked:>7} harmful={len(harmful)}", flush=True)
        for root, undo, first, (adds, halvings, top) in harmful[:5]:
            print(f"  root={root} undo={undo} first={first} adds={adds} halvings={halvings} top={top}")
        failed = failed or bool(harmful)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
