"""Independent dense/brute-force reference implementations.

Everything here recomputes results from first principles with dense numpy
and explicit loops; no code path is shared with the package internals,
except in the dense reference trainers and the chunked PPR reference. The
trainers reuse the package's seeded initialization, shuffling and batch
ranking loss (checked by their own tests), and pin what the trainers'
row-sparse steps replace: a dense N-row gradient per batch, applied to every
row. The PPR reference reuses the package's D^-1 A, so that its products sum
in the same order, and pins what the live-node iteration replaces: the dense
N x |sources| power iteration, over the same sources or over every endpoint.
The string-keyed split reference reuses the package's rejection sampler
(pinned by its own loop reference), so that it draws the same negatives, and
pins what the union-id split replaces: positives and pairs handled as key
strings.
"""

from __future__ import annotations

import numpy as np


def dense_adjacency(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    return a


def dense_sym_norm(a: np.ndarray) -> np.ndarray:
    degs = a.sum(axis=1)
    inv_sqrt = np.where(degs > 0, 1.0 / np.sqrt(np.maximum(degs, 1e-300)), 0.0)
    return inv_sqrt[:, None] * a * inv_sqrt[None, :]


def chebyshev_weights(alpha: float, rounds: int) -> list:
    """w_1 .. w_rounds of Chebyshev semi-iteration for a spectrum in
    [-alpha, alpha]: 1, then 2/(2 - alpha^2), then 1/(1 - alpha^2*w/4)."""
    out, w = [], 1.0
    for k in range(rounds):
        out.append(w)
        w = 2.0 / (2.0 - alpha * alpha) if k == 0 else 1.0 / (1.0 - alpha * alpha * w / 4.0)
    return out


def chebyshev_bound(alpha: float, rounds: int) -> float:
    """The error after ``rounds`` Chebyshev rounds relative to the initial
    error, at most, for a spectrum in [-alpha, alpha]: 1/T_k(1/alpha) =
    2*rho^k/(1 + rho^(2k)), rho = alpha/(1 + sqrt(1 - alpha^2))."""
    rho = alpha / (1.0 + np.sqrt(1.0 - alpha * alpha))
    return 2.0 * rho**rounds / (1.0 + rho ** (2 * rounds))


def fewest_chebyshev_rounds(alpha: float, tol: float, cap: int) -> int:
    """The fewest rounds k >= 1 with ``chebyshev_bound`` <= tol, counted up
    one round at a time to at most ``cap``; tol 0 runs the cap."""
    k = 1
    while k < cap and (tol == 0 or chebyshev_bound(alpha, k) > tol):
        k += 1
    return k


def dense_diffuse(s: np.ndarray, z0: np.ndarray, g: np.ndarray,
                  alpha: float, rounds: int) -> np.ndarray:
    """Z = alpha*S*Z + (1-alpha)*G by ``rounds`` rounds of the three-term
    Chebyshev recurrence Z_{k+1} = w_{k+1}*(alpha*S*Z_k + (1-alpha)*G -
    Z_{k-1}) + Z_{k-1}, Z_1 the plain step."""
    prev = z = np.array(z0, dtype=np.float64)
    for w in chebyshev_weights(alpha, rounds):
        prev, z = z, w * (alpha * (s @ z) + (1.0 - alpha) * g - prev) + prev
    return z


def brute_line_adjacency(edges) -> np.ndarray:
    """O(E^2) shared-endpoint test over canonical edge pairs."""
    m = len(edges)
    a = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            if set(edges[i]) & set(edges[j]):
                a[i, j] = 1.0
                a[j, i] = 1.0
    return a


def brute_line_edge_count(edges) -> int:
    a = brute_line_adjacency(edges)
    return int(a.sum()) // 2


def dense_logit_lp(n, all_edges, z, train_labels, n_train, alpha, k_max):
    """Full dense mirror of the residual edge propagation pipeline.

    ``all_edges``: canonical (u, v) pairs in manifest order, train block
    first. ``train_labels``: 1/0 labels for the first ``n_train`` edges.
    """
    p = 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=np.float64)))
    adj = brute_line_adjacency(all_edges)
    s = dense_sym_norm(adj)
    g = np.zeros(len(all_edges))
    g[:n_train] = np.asarray(train_labels, dtype=np.float64) - p[:n_train]
    z_final = dense_diffuse(s, g, g, alpha, k_max)
    return np.clip(p + z_final, 0.0, 1.0)


def dense_incidence(n, edges) -> np.ndarray:
    """N x m node-edge incidence matrix B of the edges, in input order."""
    b = np.zeros((n, len(edges)))
    for e, (u, v) in enumerate(edges):
        b[u, e] = b[v, e] = 1.0
    return b


def dense_emb_lp(n, pos_edges, y, alpha, k_max, query_edges):
    """Dense mirror of embedding diffusion on the weighted line graph
    M = B^T*D^-1*B / 2: each positive edge carries (y[u] + y[v]) / 2, that
    is B^T*y/2, and after the diffusion a node takes the mean of its edges'
    rows, D^-1*B; a node with no positive edge keeps its row of y."""
    y = np.asarray(y, dtype=np.float64)
    b = dense_incidence(n, pos_edges)
    degs = b.sum(axis=1)
    inv = np.divide(1.0, degs, out=np.zeros(n), where=degs > 0)
    m_line = 0.5 * b.T @ (inv[:, None] * b)
    feats = 0.5 * b.T @ y
    diffused = dense_diffuse(m_line, feats, feats, alpha, k_max)
    y_upd = y.copy()
    y_upd[degs > 0] = (inv[:, None] * (b @ diffused))[degs > 0]
    return np.array([float(y_upd[u] @ y_upd[v]) for u, v in query_edges])


def dense_xmc(n, edges, y, alpha, k_max, query_edges):
    """Dense mirror of logit-matrix diffusion; reads entry (min, max)."""
    s = dense_sym_norm(dense_adjacency(n, edges))
    z0 = np.asarray(y, dtype=np.float64) @ np.asarray(y, dtype=np.float64).T
    z_final = dense_diffuse(s, z0, z0, alpha, k_max)
    return np.array([z_final[min(u, v), max(u, v)] for u, v in query_edges])


def dense_node_lp(n, graph_edges, all_edges, z, train_labels, n_train, alpha, k_max):
    """Dense mirror of the node-centric residual ablation: each pair gets
    its sigmoid prediction plus the mean diffused node residual of its two
    endpoints."""
    p = 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=np.float64)))
    resid_sum = np.zeros(n)
    resid_cnt = np.zeros(n)
    for idx in range(n_train):
        u, v = all_edges[idx]
        r = train_labels[idx] - p[idx]
        resid_sum[u] += r
        resid_sum[v] += r
        resid_cnt[u] += 1
        resid_cnt[v] += 1
    node_resid = np.where(resid_cnt > 0, resid_sum / np.maximum(resid_cnt, 1), 0.0)
    s = dense_sym_norm(dense_adjacency(n, graph_edges))
    z_final = dense_diffuse(s, node_resid, node_resid, alpha, k_max)
    scores = [
        p[i] + 0.5 * (z_final[u] + z_final[v]) for i, (u, v) in enumerate(all_edges)
    ]
    return np.clip(np.array(scores), 0.0, 1.0)


def dense_ppr(n, edges, source, teleport, rounds):
    """Personalized PageRank pi = t*e_s + (1-t)*(P^T pi + stranded*e_s) by
    ``rounds`` dense Chebyshev rounds (``dense_diffuse``'s recurrence) from
    pi = e_s, with the mass stranded on degree-0 nodes restarting at the
    source."""
    a = dense_adjacency(n, edges)
    degs = a.sum(axis=1)
    p = np.zeros((n, n))
    nz = degs > 0
    p[nz] = a[nz] / degs[nz, None]
    e = np.zeros(n)
    e[source] = 1.0
    alpha = 1.0 - teleport
    prev = pi = e.copy()
    for w in chebyshev_weights(alpha, rounds):
        step = alpha * (p.T @ pi + pi[~nz].sum() * e) + teleport * e
        prev, pi = pi, w * (step - prev) + prev
    return pi


def chunked_ppr_vectors(g, sources, teleport, rounds, chunk: int = 256) -> np.ndarray:
    """Personalized PageRank vectors over all N nodes, one column per source.

    The dense chunked power iteration ``heuristics.ppr_scores`` replaces:
    pi = t*e_s + (1-t)*(P^T pi + dangling_mass*e_s) solved from pi = e_s with
    a dense restart matrix, by ``rounds`` Chebyshev rounds of
    ``propagation.damped_iteration`` written out in the same order of
    operations: the step D <- w*(M*pi + t*E - pi) + (w-1)*D, then pi <- pi + D,
    ``chunk`` sources at a time.
    """
    from linkbridge.graph import mean_aggregator

    sources = np.asarray(sources, dtype=np.int64)
    n = g.num_nodes
    p_t = mean_aggregator(g).T.tocsr()
    dangling = g.degrees() == 0
    t = teleport
    out = np.zeros((n, sources.size))
    for start in range(0, sources.size, chunk):
        cols = sources[start : start + chunk]
        restart = np.zeros((n, cols.size))
        restart[cols, np.arange(cols.size)] = 1.0
        pi = restart.copy()
        step = np.zeros_like(pi)
        for w in chebyshev_weights(1.0 - t, rounds):
            stranded = pi[dangling].sum(axis=0) if dangling.any() else 0.0
            residual = (p_t @ pi + restart * stranded) * (1.0 - t) + t * restart - pi
            step = step * (w - 1.0) + residual * w
            pi = pi + step
        out[:, start : start + cols.size] = pi
    return out


def all_sources_ppr_scores(g, edges, teleport, rounds) -> np.ndarray:
    """pi_u[v] + pi_v[u] per pair, read off the N x |endpoints| matrix whose
    sources are every distinct endpoint of every pair."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    sources, inv = np.unique(edges.ravel(), return_inverse=True)
    pi = chunked_ppr_vectors(g, sources, teleport, rounds)
    inv = inv.reshape(-1, 2)
    return pi[edges[:, 1], inv[:, 0]] + pi[edges[:, 0], inv[:, 1]]


def iterated_endpoints(g, edges):
    """The pairs ``heuristics.ppr_scores`` iterates and, per such pair, the
    endpoint it iterates, by a loop over the pairs.

    A pair is kept when both endpoints have an edge. Its iterated endpoint s
    is the one that more kept pairs contain, the lower id on a tie; w is the
    other. Returns the kept mask and the s and w of each kept pair.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    degs = g.degrees()
    kept = np.array([degs[u] > 0 and degs[v] > 0 for u, v in edges], dtype=bool)
    query_degree = {}
    for u, v in edges[kept]:
        for node in (u, v):
            query_degree[node] = query_degree.get(node, 0) + 1
    s, w = [], []
    for u, v in edges[kept]:
        if (query_degree[u], -u) < (query_degree[v], -v):
            u, v = v, u
        s.append(u)
        w.append(v)
    return kept, np.array(s, dtype=np.int64), np.array(w, dtype=np.int64)


def chunked_ppr_scores(g, edges, teleport, rounds, chunk: int = 256) -> np.ndarray:
    """PPR scores under ``heuristics.ppr_scores``'s source rule.

    Each kept pair of ``iterated_endpoints`` reads pi_s[w] * (1 + d_s/d_w)
    off the dense N-node iteration of the sorted distinct s, ``chunk`` to a
    chunk. Every other pair is scored by the all-sources iteration of its
    own endpoints: what it reads there is a walk's value on a degree-0 node
    or a degree-0 source's column.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    degs = g.degrees()
    kept, s, w = iterated_endpoints(g, edges)
    out = np.zeros(edges.shape[0])
    if kept.any():
        sources, col = np.unique(s, return_inverse=True)
        pi = chunked_ppr_vectors(g, sources, teleport, rounds, chunk)
        out[kept] = pi[w, col] * (1.0 + degs[s] / degs[w])
    if not kept.all():
        out[~kept] = all_sources_ppr_scores(g, edges[~kept], teleport, rounds)
    return out


def dense_common_neighbors(n, edges, queries) -> np.ndarray:
    """Shared-neighbor counts read off the two-step walk counts A @ A."""
    a = dense_adjacency(n, edges)
    a2 = a @ a
    return np.array([a2[u, v] for u, v in queries])


def brute_adamic_adar(n, edges, queries) -> np.ndarray:
    """Sum of 1/ln(k_w) over every w adjacent to both endpoints, by loops."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    out = []
    for u, v in queries:
        total = 0.0
        for w in range(n):
            if w in nbrs[u] and w in nbrs[v]:
                total += 1.0 / np.log(len(nbrs[w]))
        out.append(total)
    return np.array(out)


def _csr_row(g, node):
    return g.indices[g.indptr[node] : g.indptr[node + 1]]


def loop_common_neighbors(g, queries) -> np.ndarray:
    """Per-pair loop reference: the size of each pair's sorted row intersection."""
    return np.array(
        [np.intersect1d(_csr_row(g, u), _csr_row(g, v), assume_unique=True).size
         for u, v in queries],
        dtype=np.int64,
    )


def loop_adamic_adar(g, queries) -> np.ndarray:
    """Per-pair loop reference: ``np.sum`` of 1/ln(deg) over the sorted
    shared neighbours of each pair."""
    degs = g.degrees()
    out = np.zeros(len(queries))
    for i, (u, v) in enumerate(queries):
        shared = np.intersect1d(_csr_row(g, u), _csr_row(g, v), assume_unique=True)
        if shared.size:
            out[i] = float(np.sum(1.0 / np.log(degs[shared])))
    return out


def closed_form_ppr(n, edges, source, teleport) -> np.ndarray:
    """Stationary PPR vector t * (I - (1 - t) P^T)^-1 e_s, P = D^-1 A.

    Needs every node to have an edge (no dangling mass to restart).
    """
    a = dense_adjacency(n, edges)
    p = a / a.sum(axis=1)[:, None]
    e = np.zeros(n)
    e[source] = 1.0
    return teleport * np.linalg.solve(np.eye(n) - (1.0 - teleport) * p.T, e)


def full_sort_recall(scores, labels, k) -> float:
    """Reference recall: stable full sort by descending score."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    n_pos = sum(1 for l in labels if l == 1)
    if n_pos == 0:
        return 0.0
    hits = sum(1 for i in order[:k] if labels[i] == 1)
    return hits / n_pos


def ranking_loss(z_pos, z_neg) -> float:
    """Mean squared pairwise ranking loss (1 - z_pos + z_neg)^2 of matched logits."""
    diff = 1.0 - np.asarray(z_pos, dtype=np.float64) + np.asarray(z_neg, dtype=np.float64)
    return float(np.mean(diff * diff))


# The two starting W of the parametrized scorer tests, named for what the
# embedding Q·W = [X, ĀX]·W reads: "embedding_only" is init_model's [I; 0],
# a node's own feature row alone; "one_hop_mean" is [I; I], the row plus the
# mean of its neighbours' rows
SCORER_STARTS = ["embedding_only", "one_hop_mean"]


def scorer_start(start: str, d: int) -> np.ndarray:
    """The float32 2d x d starting W named ``start`` in ``SCORER_STARTS``."""
    w = np.eye(2 * d, d, dtype=np.float32)
    if start == "one_hop_mean":
        w[d:] = np.eye(d, dtype=np.float32)
    return w


def start_scorer_from(monkeypatch, start: str) -> None:
    """Make ``scorer.init_model``, and so ``train_scorer``, start from the W
    named ``start``."""
    from linkbridge import scorer

    init = scorer.init_model

    def init_model(config, g):
        model = init(config, g)
        model.weights = scorer_start(start, model.weights.shape[1])
        return model

    monkeypatch.setattr(scorer, "init_model", init_model)


def fd_grad(fn, array: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function w.r.t. one array."""
    grad = np.zeros_like(array, dtype=np.float64)
    it = np.nditer(array, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = array[idx]
        array[idx] = orig + eps
        f_plus = fn()
        array[idx] = orig - eps
        f_minus = fn()
        array[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * eps)
        it.iternext()
    return grad


def max_rel_error(analytic: np.ndarray, reference: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(reference))), 1e-12)
    return float(np.max(np.abs(analytic - reference))) / scale


def random_graph_edges(rng, n, m):
    """m distinct canonical edges over n nodes (no self-loops)."""
    seen = set()
    edges = []
    while len(edges) < m:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        pair = (min(u, v), max(u, v))
        if pair in seen:
            continue
        seen.add(pair)
        edges.append(pair)
    return edges


def noisy_keyed_graph_input(rng, names, m):
    """Build-graph input over string keys: ``m`` random pairs of ``names``
    plus a self-loop and a reversed duplicate, three extra (often isolated)
    nodes, and feature and side rows that are a function of the key, so two
    graphs always agree on a shared node."""
    u, v = rng.choice(names, size=m), rng.choice(names, size=m)
    pairs = list(zip(u.tolist(), v.tolist())) + [(u[0], u[0]), (v[1], u[1])]
    extra = rng.choice(names, size=3).tolist()
    nodes = {k for pair in pairs for k in pair} | set(extra)
    features = {k: [float(k[1:]), float(k[1:]) % 7 / 3] for k in nodes}
    sides = {k: int(k[1:]) % 2 for k in nodes}
    return pairs, extra, features, sides


def reference_graph(keys, pairs, feature_rows=None, side_rows=None):
    """A graph's arrays built with loops from string pairs: nodes ``keys`` in
    the given order, self-loops and duplicate pairs dropped, each node's
    neighbors sorted, feature and side rows looked up per key."""
    key_to_id = {k: i for i, k in enumerate(keys)}
    edges = sorted({tuple(sorted((key_to_id[a], key_to_id[b]))) for a, b in pairs if a != b})
    neighbors = [[] for _ in keys]
    for u, v in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    return {
        "keys": tuple(keys),
        "edges": np.array(edges, dtype=np.int64).reshape(-1, 2),
        "indptr": np.cumsum([0] + [len(row) for row in neighbors]),
        "indices": np.array([v for row in neighbors for v in sorted(row)], dtype=np.int64),
        "features": None if feature_rows is None
        else np.array([feature_rows[k] for k in keys], dtype=np.float32),
        "sides": None if side_rows is None
        else np.array([side_rows[k] for k in keys], dtype=np.int8),
    }


def first_seen_keys(pairs, extra=()):
    """Keys in order of first appearance over the pairs' endpoints, then ``extra``."""
    return list(dict.fromkeys([k for pair in pairs for k in pair] + list(extra)))


def graph_mismatches(g, ref) -> list[str]:
    """Names of the arrays where a Graph differs from ``reference_graph``'s:
    keys, edges and CSR by value, features and sides by dtype and bytes."""
    bad = [] if g.keys == ref["keys"] else ["keys"]
    bad += [n for n in ("edges", "indptr", "indices") if not np.array_equal(getattr(g, n), ref[n])]
    for name in ("features", "sides"):
        got, want = getattr(g, name), ref[name]
        if (got is None) != (want is None) or (
            got is not None and (got.dtype != want.dtype or got.tobytes() != want.tobytes())
        ):
            bad.append(name)
    return bad


def dict_training_graph(manifest, universe):
    """The training graph built from strings: nodes first-seen over the
    training pairs, then the universe's keys; rows from ``{key: row}`` dicts."""
    def rows(arr):
        return None if arr is None else {k: arr[i] for i, k in enumerate(universe.keys)}

    keys = first_seen_keys(manifest.train_pos, universe.keys)
    return reference_graph(keys, manifest.train_pos, rows(universe.features), rows(universe.sides))


def loop_union_graph(g1, g2):
    """Per-key union: g1's nodes, then g2-only nodes in g2 order. Each node's
    feature and side rows come from whichever graph has it; a shared node's
    two rows are compared one key at a time and must agree."""
    keys = list(g1.keys) + [k for k in g2.keys if k not in g1.key_to_id]
    merged = {}
    for name in ("features", "sides"):
        a1, a2 = getattr(g1, name), getattr(g2, name)
        assert (a1 is None) == (a2 is None), f"only one graph has {name}"
        if a1 is None:
            merged[name] = None
            continue
        merged[name] = {}
        for key in keys:
            r1 = a1[g1.key_to_id[key]] if key in g1.key_to_id else None
            r2 = a2[g2.key_to_id[key]] if key in g2.key_to_id else None
            assert r1 is None or r2 is None or np.allclose(r1, r2, atol=1e-6), key
            merged[name][key] = r2 if r1 is None else r1
    pairs = g1.edge_keys() + g2.edge_keys()
    return reference_graph(keys, pairs, merged["features"], merged["sides"])


def string_pair_graph(keys, edge_ids, features, members):
    """A synthetic domain built from strings: ``edge_ids`` and ``members``
    index the universe ``keys`` and ``features``; nodes are first-seen over
    the edges, then the members."""
    pairs = [(keys[u], keys[v]) for u, v in edge_ids]
    node_keys = first_seen_keys(pairs, [keys[i] for i in members])
    return reference_graph(node_keys, pairs, {keys[i]: features[i] for i in members})


def unique_lexsort_graph_arrays(n, edges):
    """A graph's edge and CSR arrays as ``graph_from_ids`` built them before
    it sorted int64 codes: ``np.unique(axis=0)`` over the (min, max) rows,
    then ``np.lexsort`` by (row, column). Returns (edges, indptr, indices,
    self-loops dropped, duplicates dropped)."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    loops = edges[:, 0] == edges[:, 1]
    canon = np.sort(edges[~loops], axis=1)
    unique = np.unique(canon, axis=0)
    rows = np.concatenate([unique[:, 0], unique[:, 1]])
    cols = np.concatenate([unique[:, 1], unique[:, 0]])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    indices = cols[np.lexsort((cols, rows))]
    return unique, indptr, indices, int(loops.sum()), canon.shape[0] - unique.shape[0]


def loop_edge_keys(g):
    """A graph's edges as key pairs, one Python lookup per endpoint."""
    return [(g.keys[u], g.keys[v]) for u, v in g.edges.tolist()]


def string_regime_positives(regime, src, tar, union):
    """The pairs a regime draws its positives from, computed on key strings
    as ``selection`` did before it moved to union ids: the target's or the
    union's edge keys, or for the intersection every edge of either graph
    touching a key of both, put in key order and deduplicated in the edge
    order of a graph built from those pairs (``reference_graph`` over
    first-seen keys). Pairs keep the orientation each source gives them."""
    if regime.short == "tar":
        return loop_edge_keys(tar)
    if regime.short == "uni":
        return loop_edge_keys(union)
    shared = set(src.keys) & set(tar.keys)
    kept = [
        tuple(sorted(pair))
        for g in (src, tar)
        for pair in loop_edge_keys(g)
        if pair[0] in shared or pair[1] in shared
    ]
    if not kept:
        return []
    ref = reference_graph(first_seen_keys(kept), kept)
    return [(ref["keys"][u], ref["keys"][v]) for u, v in ref["edges"].tolist()]


def string_make_split(regime, src, tar, union, neg_ratio, train_frac_outside, seed):
    """``make_split``'s six splits computed on key strings, as it did before
    it moved to union ids: the same permutation and negative draws from one
    seeded generator, through the package's ``_rejection_sample_pairs``
    (pinned by its own loop reference), with every pair put in key order."""
    from linkbridge.selection import _rejection_sample_pairs

    def canon(pair):
        return tuple(sorted(pair))

    rng = np.random.default_rng(seed)
    src_keys = set(src.keys)
    pos = [canon(p) for p in string_regime_positives(regime, src, tar, union)]
    inside_pos = [p for p in pos if p[0] in src_keys and p[1] in src_keys]
    outside_pos = [p for p in pos if p[0] not in src_keys or p[1] not in src_keys]
    outside_pos = [outside_pos[i] for i in rng.permutation(len(outside_pos))]
    n_train_out = int(round(train_frac_outside * len(outside_pos)))
    n_valid = (len(outside_pos) - n_train_out + 1) // 2
    valid_pos = outside_pos[n_train_out : n_train_out + n_valid]
    test_pos = outside_pos[n_train_out + n_valid :]

    src_ids = np.array([i for i, k in enumerate(union.keys) if k in src_keys], dtype=np.int64)
    out_ids = np.array([i for i, k in enumerate(union.keys) if k not in src_keys], dtype=np.int64)
    n_in = int(round(neg_ratio * len(inside_pos)))
    n_tr = int(round(neg_ratio * n_train_out))
    n_va = int(round(neg_ratio * len(valid_pos)))
    n_te = int(round(neg_ratio * len(test_pos)))
    inside_neg, taken = _rejection_sample_pairs(union, n_in, rng, src_ids)
    outside_neg, _ = _rejection_sample_pairs(
        union, n_tr + n_va + n_te, rng, src_ids, outside_pool=out_ids, taken=taken)

    def keys(ids):
        return [canon((union.keys[u], union.keys[v])) for u, v in ids.tolist()]

    return {
        "train_pos": tuple(inside_pos + outside_pos[:n_train_out]),
        "train_neg": tuple(keys(inside_neg) + keys(outside_neg[:n_tr])),
        "valid_pos": tuple(valid_pos),
        "valid_neg": tuple(keys(outside_neg[n_tr : n_tr + n_va])),
        "test_pos": tuple(test_pos),
        "test_neg": tuple(keys(outside_neg[n_tr + n_va :])),
    }


def grid_non_edges(n, edges, u_pool, v_pool, outside_only=None, sides=None):
    """Candidate non-edges (u < v) over the full n x n grid, row-major order.

    A pair qualifies when it is not an edge, one endpoint is in ``u_pool``
    and the other in ``v_pool``, at least one is in ``outside_only`` (when
    given), and the two sides differ (when ``sides`` is given).
    """
    adj = dense_adjacency(n, edges) > 0
    u_pool, v_pool = set(int(x) for x in u_pool), set(int(x) for x in v_pool)
    out = []
    for u in range(n):
        for v in range(u + 1, n):
            if adj[u, v]:
                continue
            if not ((u in u_pool and v in v_pool) or (v in u_pool and u in v_pool)):
                continue
            if outside_only is not None and u not in outside_only and v not in outside_only:
                continue
            if sides is not None and sides[u] == sides[v]:
                continue
            out.append((u, v))
    return np.array(out, dtype=np.int64).reshape(-1, 2)


def loop_rejection_sample_pairs(g, count, rng, inside_pool, outside_pool=None, taken=None):
    """Per-pair loop reference of ``selection._rejection_sample_pairs``.

    The same draws from the same RNG stream, accepted one pair at a time
    against a Python set of codes ``lo * N + hi`` (``taken``, updated in
    place); the exhaustive fallback enumerates the full grid with
    ``grid_non_edges``. Returns a list of (lo, hi) tuples in draw order.
    """
    from linkbridge.errors import DataError

    if count == 0:
        return []
    n = g.num_nodes
    edge_codes = {int(u) * n + int(v) for u, v in g.edges}
    taken = taken if taken is not None else set()
    out = []

    if outside_pool is not None:
        o, s = len(outside_pool), len(inside_pool)
        w_oo = o * (o - 1) / 2.0
        w_os = float(o * s)
        p_oo = w_oo / (w_oo + w_os)

    def draw(batch):
        if outside_pool is None:
            u = inside_pool[rng.integers(0, len(inside_pool), size=batch)]
            v = inside_pool[rng.integers(0, len(inside_pool), size=batch)]
            return u, v
        both_out = rng.random(batch) < p_oo
        u = outside_pool[rng.integers(0, len(outside_pool), size=batch)]
        v = np.empty(batch, dtype=np.int64)
        k = int(both_out.sum())
        if k:
            v[both_out] = outside_pool[rng.integers(0, len(outside_pool), size=k)]
        if batch - k:
            v[~both_out] = inside_pool[rng.integers(0, len(inside_pool), size=batch - k)]
        return u, v

    stalls = 0
    while len(out) < count:
        before = len(out)
        u, v = draw(max(1024, 2 * (count - len(out))))
        for a, b in zip(u.tolist(), v.tolist()):
            lo, hi = min(a, b), max(a, b)
            code = lo * n + hi
            if lo == hi or code in edge_codes or code in taken:
                continue
            if g.sides is not None and g.sides[lo] == g.sides[hi]:
                continue
            taken.add(code)
            out.append((lo, hi))
            if len(out) >= count:
                break
        stalls = stalls + 1 if len(out) == before else 0
        if stalls >= 8:
            pool = inside_pool if outside_pool is None else np.concatenate([inside_pool, outside_pool])
            outside = None if outside_pool is None else set(outside_pool.tolist())
            cand = grid_non_edges(n, g.edges.tolist(), pool, pool, outside, g.sides)
            cand = [(u, v) for u, v in cand.tolist() if u * n + v not in taken]
            need = count - len(out)
            if len(cand) < need:
                raise DataError(
                    f"graph too dense: only {len(cand) + len(out)} candidate "
                    f"negative pairs available, {count} requested"
                )
            for i in rng.choice(len(cand), size=need, replace=False):
                taken.add(cand[i][0] * n + cand[i][1])
                out.append(cand[i])
    return out


def loop_hop_features(g) -> np.ndarray:
    """Q = [X, mean of the neighbours' X] in float64, node by node over the
    CSR rows; an isolated node's mean is zero."""
    x = np.asarray(g.features, dtype=np.float64)
    means = np.zeros_like(x)
    for i in range(g.num_nodes):
        nbrs = g.indices[g.indptr[i] : g.indptr[i + 1]]
        if len(nbrs):
            means[i] = x[nbrs].mean(axis=0)
    return np.hstack([x, means])


def dense_train_scorer(config, g, splits, w0=None):
    """Scorer training in float64 on ``loop_hop_features``, with the full
    gradient dW = Qᵀ(C + Cᵀ)QW from the N x N matrix C holding each batch
    logit's loss derivative at its (u, v), and model selection by
    ``full_sort_recall`` from ``w0`` (default W = [I; 0]) on; on the id splits
    (``selection.SplitIds``) of a manifest over ``g``, which needs features.
    It shares only the seeded pair draw (``pair_indices``) with the trainer.

    Returns the selected W (the final one when there is no validation split)
    and the per-epoch mean losses.
    """
    from linkbridge.scorer import pair_indices

    pos, neg, valid_pos, valid_neg = splits[:4]
    q = loop_hop_features(g)
    n, d = g.num_nodes, g.feature_dim
    w = np.eye(2 * d, d) if w0 is None else np.asarray(w0, dtype=np.float64)
    lr = config.learning_rate
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x5C0E]))

    def recall(w):
        y = q @ w
        pairs = np.concatenate([valid_pos, valid_neg])
        scores = [float(y[u] @ y[v]) for u, v in pairs]
        return full_sort_recall(scores, [1] * len(valid_pos) + [0] * len(valid_neg),
                                len(valid_pos))

    best, trace = (recall(w), w.copy()), []
    for _ in range(config.epochs):
        pp, pn = pair_indices(len(pos), len(neg), rng)
        epos, eneg = pos[pp], neg[pn]
        losses = []
        for start in range(0, len(epos), config.batch_size):
            bp = epos[start : start + config.batch_size]
            bn = eneg[start : start + config.batch_size]
            y = q @ w
            z_pos = np.sum(y[bp[:, 0]] * y[bp[:, 1]], axis=1)
            z_neg = np.sum(y[bn[:, 0]] * y[bn[:, 1]], axis=1)
            resid = 1.0 - z_pos + z_neg
            losses.append(float(np.mean(resid * resid)))
            c = np.zeros((n, n))
            np.add.at(c, (bp[:, 0], bp[:, 1]), -2.0 * resid / len(bp))
            np.add.at(c, (bn[:, 0], bn[:, 1]), 2.0 * resid / len(bp))
            w = w - lr * (q.T @ (c + c.T) @ q @ w)
        trace.append(float(np.mean(losses)))
        rec = recall(w)
        if rec > best[0]:
            best = (rec, w.copy())
    return (best[1] if len(valid_pos) and len(valid_neg) else w), trace


def _dense_mlp_step(params, features, rows, d_out_fn, lr):
    """One student SGD step on rows of the full N-row feature input, in
    the dtype of the params."""
    w1, b1, w2, b2 = params
    h = features.astype(w1.dtype)[rows]
    a = h @ w1 + b1
    z1 = np.maximum(a, 0.0)
    loss, d_out = d_out_fn(z1 @ w2 + b2)
    da = (d_out @ w2.T) * (a > 0)
    grads = [h.T @ da, da.sum(axis=0), z1.T @ d_out, d_out.sum(axis=0)]
    for p, gr in zip(params, grads):
        p -= lr * gr
    return loss


def _dense_student_embed(params, features):
    """Every node's output in the dtype of the params, as a float64 table."""
    w1, b1, w2, b2 = params
    out = np.maximum(features.astype(w1.dtype) @ w1 + b1, 0.0) @ w2 + b2
    return out.astype(np.float64)


def dense_imitate(teacher_y, g, config):
    """Student imitation with full-input steps, in float32 from float64
    draws, against the float64 teacher rows cast to float32.

    Returns ((w1, b1, w2, b2), final mse).
    """
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xD157]))
    d_in = g.feature_dim
    params = [
        rng.normal(0.0, np.sqrt(2.0 / d_in), size=(d_in, config.hidden)),
        np.zeros(config.hidden),
        rng.normal(0.0, np.sqrt(2.0 / config.hidden),
                   size=(config.hidden, teacher_y.shape[1])),
        np.zeros(teacher_y.shape[1]),
    ]
    params = [p.astype(np.float32) for p in params]
    trace = []
    for _ in range(config.max_epochs):
        perm = rng.permutation(g.num_nodes)
        losses = []
        for start in range(0, g.num_nodes, config.batch_size):
            rows = perm[start : start + config.batch_size]

            def mse_grad(out, rows=rows):
                err = out - teacher_y[rows].astype(out.dtype)
                return float(np.sum(err * err) / err.size), 2.0 * err / err.size

            loss = _dense_mlp_step(params, g.features, rows, mse_grad,
                                   config.learning_rate)
            losses.append(loss)
        trace.append(float(np.mean(losses)))
        if len(trace) > config.plateau_epochs:
            past = trace[-config.plateau_epochs - 1]
            if past > 0 and (past - trace[-1]) / past < config.plateau_tol:
                break
    err = _dense_student_embed(params, g.features) - teacher_y
    return params, float(np.sum(err * err) / err.size)


def dense_finetune(params, splits, g, config):
    """Student fine-tuning with full-input steps and validation over every
    node's embedding, on the id splits of a manifest over ``g``.

    Returns the selected (w1, b1, w2, b2).
    """
    from linkbridge.scorer import batch_rows, pair_indices, pair_loss, pair_recall

    params = [p.copy() for p in params]
    pos, neg, valid_pos, valid_neg = splits[:4]
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xF17E]))

    def recall():
        y = _dense_student_embed(params, g.features)
        return pair_recall(y, valid_pos, valid_neg)

    best = (recall(), [p.copy() for p in params])
    for _ in range(config.finetune_epochs):
        pp, pn = pair_indices(len(pos), len(neg), rng)
        epos, eneg = pos[pp], neg[pn]
        for start in range(0, len(epos), config.finetune_batch_size):
            bp = epos[start : start + config.finetune_batch_size]
            bn = eneg[start : start + config.finetune_batch_size]
            rows, inv = batch_rows(bp, bn)

            def rank_grad(out, inv=inv, b=len(bp)):
                return pair_loss(out, inv, b)

            _dense_mlp_step(params, g.features, rows, rank_grad, config.finetune_lr)
        rec = recall()
        if rec > best[0]:
            best = (rec, [p.copy() for p in params])
    return best[1]
