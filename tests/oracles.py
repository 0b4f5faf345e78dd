"""Independent brute-force reference implementations used to check the library.

Everything here deliberately avoids the package's traversal and aggregation
code paths: subgraphs come from a Python breadth-first search, shortest
distances from exhaustive simple-path enumeration or from a full Dijkstra
over the whole union graph, neighborhood overlap costs are recomputed from
raw adjacency sets, the JointIC table is the per-orientation loop of its
definition, the frequency tables are the
per-predicate loops of theirs, the pruned graph is built from a list of
every record with set-based passes, and the article-distance aggregates
follow their definitions directly.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, defaultdict, deque

from sedrec.kg import KnowledgeGraph, PassStats, PruneStats


def enum_shortest_from(n_nodes, directed_cost, adjacency, source):
    """Exact shortest distances from ``source`` by enumerating simple paths.

    ``adjacency`` maps node -> iterable of neighbor nodes; ``directed_cost``
    maps (u, v) -> cost of stepping u->v. Costs accumulate left to right along
    each path, matching the order a traversal would sum them. Returns a dict
    target -> best cost over all simple paths (source included, at 0.0).
    """
    best = {source: 0.0}
    on_path = [False] * n_nodes
    on_path[source] = True

    def walk(u, acc):
        for v in adjacency.get(u, ()):
            if on_path[v]:
                continue
            cost = acc + directed_cost[(u, v)]
            if cost < best.get(v, math.inf):
                best[v] = cost
            on_path[v] = True
            walk(v, cost)
            on_path[v] = False

    walk(source, 0.0)
    return best


def full_dijkstra(adjacency, costs, source):
    """Shortest costs from ``source`` to every reachable node, no early stop.

    ``adjacency`` is ``SubGraph.adjacency()``; ``costs.cost(u, v, e)`` is
    looked up on every relaxation.
    """
    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, e in adjacency[u]:
            nd = d + costs.cost(u, v, e)
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def union_distance_matrix(u, costs, from_ids, to_ids):
    """Directed seed-to-seed distances by one full Dijkstra per source seed.

    Seeds missing from the graph or the union, and unreachable targets, give
    infinity.
    """
    g = u.parent
    adjacency = u.adjacency()
    targets = [g.node_index(t) if g.has_node(t) else None for t in to_ids]
    rows = []
    for m in from_ids:
        if not g.has_node(m) or g.node_index(m) not in u.members:
            rows.append([math.inf] * len(to_ids))
            continue
        dist = full_dijkstra(adjacency, costs, g.node_index(m))
        rows.append([math.inf if t is None else dist.get(t, math.inf) for t in targets])
    return rows


def joint_ic_loop(g):
    """JointIC edge costs by looping over every edge orientation."""
    counts = Counter(p for preds in g.edge_predicates for p in preds)
    if not counts:
        return ()
    total = sum(counts.values())
    deg_p = Counter()
    for (u, v), preds in zip(g.edge_endpoints, g.edge_predicates):
        for p in preds:
            deg_p[(p, u)] += 1
            deg_p[(p, v)] += 1
    ics = []
    for (u, v), preds in zip(g.edge_endpoints, g.edge_predicates):
        best = -math.inf
        for p in preds:
            ic_pred = -math.log(counts[p] / total)
            for obj in (u, v):
                ic_obj = -math.log(deg_p[(p, obj)] / (2 * counts[p]))
                best = max(best, ic_pred + ic_obj)
        ics.append(best)
    lo, hi = min(ics), max(ics)
    if hi == lo:
        return tuple(0.0 for _ in ics)
    return tuple(1.0 - (ic - lo) / (hi - lo) for ic in ics)


def frequency_loop(g, scheme):
    """AF / IAF / AF-IAF per-predicate scores and per-edge costs by looping
    over every edge's predicates; ``scheme`` is "af", "iaf" or "af-iaf"."""
    counts = Counter()
    incident = defaultdict(set)
    for (u, v), preds in zip(g.edge_endpoints, g.edge_predicates):
        for p in preds:
            counts[p] += 1
            incident[p].update((u, v))
    if not counts:
        return {}, ()
    mx = max(counts.values())
    af = {p: c / mx for p, c in counts.items()}
    raw = {p: math.log(len(g) / len(incident[p])) for p in counts}
    mx = max(raw.values())
    iaf = {p: (r / mx if mx > 0.0 else 0.0) for p, r in raw.items()}
    scores = {"af": af, "iaf": iaf,
              "af-iaf": {p: af[p] * iaf[p] for p in af}}[scheme]
    return scores, tuple(1.0 - max(scores[p] for p in preds)
                         for preds in g.edge_predicates)


def _lists_is_english(lang):
    return lang is None or lang.lower() == "en" or lang.lower().startswith("en-")


def _lists_restrict(ts, keep):
    return [t for t in ts if t.subject in keep and (t.is_literal or t.object in keep)]


def _lists_census(ts, name, stats):
    nodes = set()
    node_triples = 0
    for t in ts:
        nodes.add(t.subject)
        if not t.is_literal:
            nodes.add(t.object)
            node_triples += 1
    stats.passes.append(PassStats(name, len(nodes), node_triples, len(ts) - node_triples))
    return nodes


def build_graph_lists(triples, cfg):
    """``kg.build_graph`` over a list of every record, with each pruning pass
    a string keep-set and each census a string node set."""
    ts = list(triples)
    stats = PruneStats()
    nodes = _lists_census(ts, "input", stats)

    if cfg.english_only:
        ts = [t for t in ts if not t.is_literal or _lists_is_english(t.lang)]
    nodes = _lists_census(ts, "english", stats)

    if cfg.stoplist:
        ts = _lists_restrict(ts, nodes - cfg.stoplist)
    nodes = _lists_census(ts, "stoplist", stats)

    if cfg.min_out_degree > 0:
        out_nbrs = defaultdict(set)
        for t in ts:
            out_nbrs[t.subject].add((t.object, t.lang) if t.is_literal else t.object)
        ts = _lists_restrict(ts, {n for n, outs in out_nbrs.items()
                                  if len(outs) >= cfg.min_out_degree})
    nodes = _lists_census(ts, "out-degree", stats)

    if cfg.drop_leaves:
        nbrs = defaultdict(set)
        for t in ts:
            if not t.is_literal and t.subject != t.object:
                nbrs[t.subject].add(t.object)
                nbrs[t.object].add(t.subject)
        queue = [n for n, ns in nbrs.items() if len(ns) <= 1]
        removed = set(queue)
        while queue:
            n = queue.pop()
            for other in nbrs[n]:
                if other in removed:
                    continue
                nbrs[other].discard(n)
                if len(nbrs[other]) <= 1:
                    removed.add(other)
                    queue.append(other)
        ts = _lists_restrict(ts, nbrs.keys() - removed)
    nodes = _lists_census(ts, "leaves", stats)

    ids = tuple(sorted(nodes))
    index = {ident: i for i, ident in enumerate(ids)}
    edge_map = {}
    title_cand = {}
    for seq, t in enumerate(ts):
        if t.is_literal:
            if t.predicate.rsplit("/", 1)[-1].rsplit("#", 1)[-1] != "type.object.name":
                continue
            lang = (t.lang or "").lower()
            if lang == "en":
                prio = 0
            elif lang.startswith("en-"):
                prio = 1
            elif not lang:
                prio = 2
            else:
                prio = 3
            n = index[t.subject]
            cand = (prio, seq, t.object)
            if n not in title_cand or cand < title_cand[n]:
                title_cand[n] = cand
        else:
            u, v = index[t.subject], index[t.object]
            if u == v:
                continue
            key = (u, v) if u < v else (v, u)
            edge_map.setdefault(key, set()).add(t.predicate)

    titles = tuple(
        title_cand[i][2] if i in title_cand else ids[i] for i in range(len(ids))
    )
    endpoints = tuple(sorted(edge_map))
    predicates = tuple(tuple(sorted(edge_map[k])) for k in endpoints)
    stats.collapsed_edges = len(endpoints)
    return KnowledgeGraph(ids, titles, endpoints, predicates, prune_stats=stats)


def expand_bfs(g, seeds, radius):
    """Members and edges of the ``radius``-hop subgraph around the node list
    ``seeds``, by a Python breadth-first search over ``g.neighbors``: an edge
    is kept when its closer endpoint lies strictly inside the radius."""
    depth = {s: 0 for s in seeds}
    frontier = list(depth)
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


def bfs_hops(adjacency, source):
    """Plain breadth-first hop counts from ``source``."""
    dist = {source: 0}
    q = deque([source])
    while q:
        u = q.popleft()
        for v in adjacency.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def overlap_cost(neighbor_sets, u, v):
    """Closed-neighborhood overlap cost of stepping u->v, from raw adjacency."""
    nu = neighbor_sets[u] | {u}
    nv = neighbor_sets[v] | {v}
    return 1.0 - len(nu & nv) / len(nu)


def directional_article_distance(s1, s2, pair_dist, penalty, max_finite):
    """Average minimum row-wise distance from seed set s1 to seed set s2.

    ``pair_dist(m, n)`` returns a finite raw distance or None when there is no
    path (including when either seed is missing from the graph). Finite raw
    values are scaled by ``max_finite``; gaps contribute ``penalty``.
    """
    s1 = sorted(s1)
    s2 = sorted(s2)
    if not s1:
        raise ValueError("empty seed set")
    total = 0.0
    for m in s1:
        candidates = []
        gap = False
        for n in s2:
            d = pair_dist(m, n)
            if d is None:
                gap = True
            else:
                candidates.append(d / max_finite)
        if gap:
            candidates.append(penalty)
        total += min(candidates)
    return total / len(s1)


def all_pairs_article_distance(s1, s2, pair_dist, penalty, max_finite):
    """Mean normalized distance over every (m, n) in s1 x s2."""
    s1 = sorted(s1)
    s2 = sorted(s2)
    total = 0.0
    count = 0
    for m in s1:
        for n in s2:
            d = pair_dist(m, n)
            total += penalty if d is None else d / max_finite
            count += 1
    return total / count


def pearson(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    return sxy / math.sqrt(sxx * syy)
