"""Output checks: score-table invariants and reference SED distances.

The reference recomputes a sampled pair's raw distance from the scheme
definitions with its own expansion, costs and Dijkstra; it shares no code
with ``sedrec.weighting``, ``sedrec.subgraph`` or ``sedrec.scoring``.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from collections import Counter, defaultdict

TOL = 1e-9


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def csv_digest(table, path) -> str:
    """sha256 of the score CSV body as ``ScoreTable.write_csv`` writes it."""
    table.write_csv(path)
    return file_digest(path)


def check_table(table, method: str, pair_ids) -> list[str]:
    """Every pair once, z zero-mean unit-variance, decision equals z < 0."""
    rows = [r for r in table.rows if r.method == method]
    problems = []
    ids = [r.pair_id for r in rows]
    if len(ids) != len(set(ids)) or set(ids) != set(pair_ids):
        problems.append(f"{method}: pair set differs from the {len(pair_ids)} expected pairs")
    if not rows:
        return problems + [f"{method}: no rows"]
    z = [r.z_score for r in rows]
    mean = sum(z) / len(z)
    std = math.sqrt(sum((v - mean) ** 2 for v in z) / len(z))
    if abs(mean) > 1e-9 or abs(std - 1.0) > 1e-9:
        problems.append(f"{method}: z mean {mean!r}, std {std!r}")
    bad = [r.pair_id for r in rows if r.decision != (r.z_score < 0.0)]
    if bad:
        problems.append(f"{method}: decision differs from z < 0 for {bad[:3]}")
    if not all(math.isfinite(r.raw_distance) for r in rows):
        problems.append(f"{method}: non-finite raw distance")
    return problems


# ------------------------------------------------------ scheme definitions

def _closed(g, node: int) -> frozenset[int]:
    return frozenset([node] + [v for v, _ in g.neighbors(node)])


def _predicate_stats(g):
    counts: Counter = Counter()
    incident = defaultdict(set)
    for (u, v), preds in zip(g.edge_endpoints, g.edge_predicates):
        for p in preds:
            counts[p] += 1
            incident[p].update((u, v))
    return counts, incident


def frequency_table(g, scheme: str) -> list[float]:
    """AF: count/max; IAF: log(n/incident)/max; AF-IAF: product; cost 1 - best."""
    counts, incident = _predicate_stats(g)
    top = max(counts.values())
    af = {p: c / top for p, c in counts.items()}
    iaf_raw = {p: math.log(len(g) / len(incident[p])) for p in counts}
    hi = max(iaf_raw.values())
    iaf = {p: (r / hi if hi > 0 else 0.0) for p, r in iaf_raw.items()}
    score = {"af": af, "iaf": iaf,
             "af-iaf": {p: af[p] * iaf[p] for p in counts}}[scheme]
    return [1.0 - max(score[p] for p in preds) for preds in g.edge_predicates]


def joint_ic_table(g) -> list[float]:
    """1 - min-max normalised max over orientations of IC(p) + IC(obj | p)."""
    counts, _ = _predicate_stats(g)
    total = sum(counts.values())
    deg_p: Counter = Counter()
    for (u, v), preds in zip(g.edge_endpoints, g.edge_predicates):
        for p in preds:
            deg_p[(p, u)] += 1
            deg_p[(p, v)] += 1
    ics = []
    for (u, v), preds in zip(g.edge_endpoints, g.edge_predicates):
        ics.append(max(
            -math.log(counts[p] / total) - math.log(deg_p[(p, x)] / (2 * counts[p]))
            for p in preds for x in (u, v)))
    lo, hi = min(ics), max(ics)
    if hi == lo:
        return [0.0] * len(ics)
    return [1.0 - (ic - lo) / (hi - lo) for ic in ics]


class ReferenceCosts:
    """Directed edge costs of one scheme, from its definition."""

    def __init__(self, g, scheme: str):
        self.g = g
        self.scheme = scheme
        self.table = None
        self.nbhd: dict[int, frozenset[int]] = {}
        if scheme == "jointic":
            self.table = joint_ic_table(g)
        elif scheme in ("af", "iaf", "af-iaf"):
            self.table = frequency_table(g, scheme)

    def __call__(self, source: int, target: int, edge: int) -> float:
        if self.scheme == "unweighted":
            return 1.0
        if self.table is not None:
            return self.table[edge]
        ns = self.nbhd.get(source) or self.nbhd.setdefault(source, _closed(self.g, source))
        nt = self.nbhd.get(target) or self.nbhd.setdefault(target, _closed(self.g, target))
        return 1.0 - len(ns & nt) / len(ns)


# --------------------------------------------------- reference distances

def ball(g, seeds, radius: int) -> tuple[set[int], set[int]]:
    """Members within ``radius`` of a seed, and edges with an endpoint strictly inside."""
    depth = {s: 0 for s in seeds}
    frontier = list(seeds)
    for d in range(radius):
        nxt = []
        for u in frontier:
            for v, _ in g.neighbors(u):
                if v not in depth:
                    depth[v] = d + 1
                    nxt.append(v)
        frontier = nxt
    edges = {e for u, du in depth.items() if du < radius
             for v, e in g.neighbors(u) if v in depth}
    return set(depth), edges


def shortest(adj, cost, source: int, targets: set[int]) -> dict[int, float]:
    """Dijkstra from ``source`` until every reachable target is settled."""
    dist = {source: 0.0}
    done: set[int] = set()
    left = set(targets)
    heap = [(0.0, source)]
    while heap and left:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        left.discard(u)
        for v, e in adj.get(u, ()):
            nd = d + cost(u, v, e)
            if v not in done and nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return {t: dist[t] for t in targets if t in done}


def reference_raw(g, seeds_a, seeds_b, radius: int, cost, cfg, max_finite: float
                  ) -> tuple[float, float]:
    """(raw SED of the pair under ``cfg``, largest finite seed distance seen)."""
    n1, n2 = ([g.node_index(s) if g.has_node(s) else None for s in sorted(ids)]
              for ids in (seeds_a, seeds_b))
    m1, e1 = ball(g, [x for x in n1 if x is not None], radius)
    m2, e2 = ball(g, [x for x in n2 if x is not None], radius)
    members = m1 | m2
    adj = defaultdict(list)
    for e in e1 | e2:
        u, v = g.edge_endpoints[e]
        adj[u].append((v, e))
        adj[v].append((u, e))
    local_max = 0.0

    def matrix(src, dst):
        nonlocal local_max
        want = {t for t in dst if t is not None}
        rows = []
        for s in src:
            dist = shortest(adj, cost, s, want) if s is not None and s in members else {}
            row = [dist.get(t, math.inf) if t is not None else math.inf for t in dst]
            local_max = max([local_max] + [d for d in row if math.isfinite(d)])
            rows.append(row)
        return rows

    def norm(d):
        if not math.isfinite(d):
            return cfg.penalty
        return 0.0 if d == 0.0 else d / max_finite

    def row_mean(mat):
        return sum(min(norm(d) for d in row) for row in mat) / len(mat)

    fwd, bwd = matrix(n1, n2), matrix(n2, n1)
    variant = cfg.variant.value
    if variant == "sym":
        value = (row_mean(fwd) + row_mean(bwd)) / 2.0
    else:
        mat = bwd if cfg.reverse_direction else fwd
        value = row_mean(mat) if variant == "row" else (
            sum(norm(d) for row in mat for d in row) / sum(len(r) for r in mat))
    return value, local_max


def check_sed_sample(g, table, method: str, seeds, cfg, cost, sample) -> list[str]:
    """Compare sampled pairs' raw distances with the reference computation."""
    col = table.column(method)
    max_finite = table.stats[method].max_finite
    problems = []
    for pid, a, b in sample:
        ref, local_max = reference_raw(g, seeds[a], seeds[b], cfg.expansion.radius,
                                       cost, cfg, max_finite)
        got = col[pid].raw_distance
        if abs(ref - got) > TOL:
            problems.append(f"{method} {pid}: raw {got!r}, reference {ref!r}")
        if local_max > max_finite * (1 + TOL):
            problems.append(f"{method} {pid}: distance {local_max!r} above max_finite")
    return problems
