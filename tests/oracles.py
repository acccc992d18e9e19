"""Independent dense/brute-force reference implementations.

Everything here recomputes results from first principles with dense numpy
and explicit loops; no code path is shared with the package internals,
except in the dense reference trainers and the chunked PPR reference. The
trainers reuse the package's seeded initialization, shuffling and batch
ranking loss (checked by their own tests), and pin what the trainers'
row-sparse steps replace: a dense N-row gradient per batch, applied to every
row. The PPR reference reuses the package's D^-1 A, so that its products sum
in the same order, and pins what the live-node iteration replaces: the dense
N x |sources| power iteration.
"""

from __future__ import annotations

import warnings

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


def dense_diffuse(s: np.ndarray, z0: np.ndarray, g: np.ndarray,
                  alpha: float, k_max: int, tol: float = 0.0) -> np.ndarray:
    z = np.array(z0, dtype=np.float64)
    for _ in range(k_max):
        z_next = alpha * (s @ z) + (1.0 - alpha) * g
        delta = np.max(np.abs(z_next - z)) if z.size else 0.0
        z = z_next
        if delta < tol:
            break
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
    z_final = dense_diffuse(s, g, g, alpha, k_max, tol=0.0)
    return np.clip(p + z_final, 0.0, 1.0)


def dense_emb_lp(n, pos_edges, y, alpha, k_max, query_edges):
    """Dense mirror of embedding diffusion + split/average readout."""
    y = np.asarray(y, dtype=np.float64)
    d = y.shape[1]
    pos = [(min(u, v), max(u, v)) for u, v in pos_edges]
    feats = np.array([np.concatenate([y[u], y[v]]) for u, v in pos])
    adj = brute_line_adjacency(pos)
    s = dense_sym_norm(adj)
    diffused = dense_diffuse(s, feats, feats, alpha, k_max, tol=0.0)
    isolated = adj.sum(axis=1) == 0
    diffused[isolated] = feats[isolated]
    y_upd = y.copy()
    sums = np.zeros_like(y)
    counts = np.zeros(y.shape[0])
    for idx, (u, v) in enumerate(pos):
        sums[u] += diffused[idx, :d]
        sums[v] += diffused[idx, d:]
        counts[u] += 1
        counts[v] += 1
    for node in range(y.shape[0]):
        if counts[node]:
            y_upd[node] = sums[node] / counts[node]
    return np.array([float(y_upd[u] @ y_upd[v]) for u, v in query_edges])


def dense_xmc(n, edges, y, alpha, k_max, query_edges):
    """Dense mirror of logit-matrix diffusion; reads entry (min, max)."""
    s = dense_sym_norm(dense_adjacency(n, edges))
    z0 = np.asarray(y, dtype=np.float64) @ np.asarray(y, dtype=np.float64).T
    z_final = dense_diffuse(s, z0, z0, alpha, k_max, tol=0.0)
    return np.array([z_final[min(u, v), max(u, v)] for u, v in query_edges])


def dense_node_lp(n, graph_edges, all_edges, z, train_labels, n_train, alpha, k_max):
    """Dense mirror of the node-centric residual ablation."""
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
    z_final = dense_diffuse(s, node_resid, node_resid, alpha, k_max, tol=0.0)
    inc = z_final - node_resid
    scores = [
        p[i] + 0.5 * (inc[u] + inc[v]) for i, (u, v) in enumerate(all_edges)
    ]
    return np.clip(np.array(scores), 0.0, 1.0)


def dense_ppr(n, edges, source, teleport, iterations):
    """Personalized PageRank by dense power iteration with dangling restart."""
    a = dense_adjacency(n, edges)
    degs = a.sum(axis=1)
    p = np.zeros((n, n))
    nz = degs > 0
    p[nz] = a[nz] / degs[nz, None]
    pi = np.zeros(n)
    pi[source] = 1.0
    e = np.zeros(n)
    e[source] = 1.0
    for _ in range(iterations):
        stranded = pi[~nz].sum()
        pi = teleport * e + (1.0 - teleport) * (p.T @ pi + stranded * e)
    return pi


def chunked_ppr_vectors(g, sources, cfg, chunk: int = 256) -> np.ndarray:
    """Personalized PageRank vectors over all N nodes, one column per source.

    The dense chunked power iteration ``heuristics.ppr_scores`` replaces:
    pi <- t*e_s + (1-t)*(P^T pi + dangling_mass*e_s) with a dense restart
    matrix, stopping each chunk of ``chunk`` sources once its max-abs step
    drops below ``tol`` and warning at ``iterations``.
    """
    from linkbridge.graph import mean_aggregator

    cfg.validate()
    sources = np.asarray(sources, dtype=np.int64)
    n = g.num_nodes
    p_t = mean_aggregator(g).T.tocsr()
    dangling = g.degrees() == 0
    t = cfg.teleport
    out = np.zeros((n, sources.size))
    for start in range(0, sources.size, chunk):
        cols = sources[start : start + chunk]
        restart = np.zeros((n, cols.size))
        restart[cols, np.arange(cols.size)] = 1.0
        pi = restart.copy()
        converged = False
        for _ in range(cfg.iterations):
            stranded = pi[dangling].sum(axis=0) if dangling.any() else 0.0
            nxt = t * restart + (1.0 - t) * (p_t @ pi + restart * stranded)
            delta = float(np.max(np.abs(nxt - pi)))
            pi = nxt
            if delta < cfg.tol:
                converged = True
                break
        if not converged:
            warnings.warn(
                f"personalized PageRank did not converge within {cfg.iterations} "
                "iterations; using the last iterate",
                RuntimeWarning,
                stacklevel=2,
            )
        out[:, start : start + cols.size] = pi
    return out


def chunked_ppr_scores(g, edges, cfg) -> np.ndarray:
    """pi_u[v] + pi_v[u] per pair, read off the N x |sources| matrix."""
    edges = np.asarray(edges, dtype=np.int64)
    sources, inv = np.unique(edges.ravel(), return_inverse=True)
    pi = chunked_ppr_vectors(g, sources, cfg)
    inv = inv.reshape(-1, 2)
    return pi[edges[:, 1], inv[:, 0]] + pi[edges[:, 0], inv[:, 1]]


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


def dense_train_scorer(config, g, manifest):
    """Scorer training with the dense N-row X' gradient and full-table update.

    Returns the selected (x_prime, encoder_weights).
    """
    from linkbridge.graph import mean_aggregator
    from linkbridge.scorer import (
        batch_rows, init_model, node_inputs, pair_indices, pair_loss, pair_recall,
    )

    model = init_model(config, g)
    pos, neg = g.pair_ids(manifest.train_pos), g.pair_ids(manifest.train_neg)
    valid_pos, valid_neg = g.pair_ids(manifest.valid_pos), g.pair_ids(manifest.valid_neg)
    d_x = g.feature_dim
    h = node_inputs(model.features, model.x_prime).copy()
    w = None if model.encoder_weights is None else model.encoder_weights.copy()
    agg = mean_aggregator(g) if config.encoder == "one_hop_mean" else None
    lr = config.learning_rate
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x5C0E]))
    best = None
    for _ in range(config.epochs):
        pp, pn = pair_indices(len(pos), len(neg), rng)
        epos, eneg = pos[pp], neg[pn]
        for start in range(0, len(epos), config.batch_size):
            bp = epos[start : start + config.batch_size]
            bn = eneg[start : start + config.batch_size]
            rows, inv = batch_rows(bp, bn)
            dh = np.zeros(h.shape)
            if agg is None:
                _, dy = pair_loss(h[rows], inv, len(bp))
                np.add.at(dh, rows, dy)
            else:
                agg_rows = agg[rows, :]
                p_rows = h[rows] + agg_rows @ h
                _, dy = pair_loss(p_rows @ w, inv, len(bp))
                w_grad = p_rows.T @ dy
                dp = dy @ w.T
                np.add.at(dh, rows, dp)
                dh += agg_rows.T @ dp
                w -= lr * w_grad
            h[:, d_x:] -= lr * dh[:, d_x:]
        y = h if agg is None else (h + agg @ h) @ w
        rec = pair_recall(y, valid_pos, valid_neg)
        if best is None or rec > best[0]:
            best = (rec, h[:, d_x:].copy(), None if w is None else w.copy())
    return best[1], best[2]


def _dense_mlp_step(params, x_prime, features, rows, d_out_fn, train_xprime, lr):
    """One student SGD step built from the full N-row input [X, X']."""
    w1, b1, w2, b2 = params
    h_full = x_prime if features is None else np.concatenate(
        [features.astype(np.float64), x_prime], axis=1)
    h = h_full[rows]
    a = h @ w1 + b1
    z1 = np.maximum(a, 0.0)
    loss, d_out = d_out_fn(z1 @ w2 + b2)
    da = (d_out @ w2.T) * (a > 0)
    grads = [h.T @ da, da.sum(axis=0), z1.T @ d_out, d_out.sum(axis=0)]
    if train_xprime:
        d_x = 0 if features is None else features.shape[1]
        dxp = np.zeros_like(x_prime)
        np.add.at(dxp, rows, (da @ w1.T)[:, d_x:])
        x_prime = x_prime - lr * dxp
    for p, gr in zip(params, grads):
        p -= lr * gr
    return loss, x_prime


def _dense_student_embed(params, x_prime, features):
    w1, b1, w2, b2 = params
    h = x_prime if features is None else np.concatenate(
        [features.astype(np.float64), x_prime], axis=1)
    return np.maximum(h @ w1 + b1, 0.0) @ w2 + b2


def dense_imitate(teacher_y, g, config, x_prime):
    """Student imitation with full-input steps and a dense X' update.

    Returns ((w1, b1, w2, b2), x_prime, final mse).
    """
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xD157]))
    d_in = g.feature_dim + x_prime.shape[1]
    params = [
        rng.normal(0.0, np.sqrt(2.0 / d_in), size=(d_in, config.hidden)),
        np.zeros(config.hidden),
        rng.normal(0.0, np.sqrt(2.0 / config.hidden),
                   size=(config.hidden, teacher_y.shape[1])),
        np.zeros(teacher_y.shape[1]),
    ]
    x_prime = np.array(x_prime, dtype=np.float64, copy=True)
    trace = []
    for _ in range(config.max_epochs):
        perm = rng.permutation(g.num_nodes)
        losses = []
        for start in range(0, g.num_nodes, config.batch_size):
            rows = perm[start : start + config.batch_size]

            def mse_grad(out, rows=rows):
                err = out - teacher_y[rows]
                return float(np.sum(err * err) / err.size), 2.0 * err / err.size

            loss, x_prime = _dense_mlp_step(params, x_prime, g.features, rows,
                                            mse_grad, config.train_xprime,
                                            config.learning_rate)
            losses.append(loss)
        trace.append(float(np.mean(losses)))
        if len(trace) > config.plateau_epochs:
            past = trace[-config.plateau_epochs - 1]
            if past > 0 and (past - trace[-1]) / past < config.plateau_tol:
                break
    err = _dense_student_embed(params, x_prime, g.features) - teacher_y
    return params, x_prime, float(np.sum(err * err) / err.size)


def dense_finetune(params, x_prime, manifest, g, config):
    """Student fine-tuning with full-input steps, a dense X' update and
    validation over every node's embedding.

    Returns the selected ((w1, b1, w2, b2), x_prime).
    """
    from linkbridge.scorer import batch_rows, pair_indices, pair_loss, pair_recall

    params = [p.copy() for p in params]
    x_prime = x_prime.copy()
    pos, neg = g.pair_ids(manifest.train_pos), g.pair_ids(manifest.train_neg)
    valid_pos, valid_neg = g.pair_ids(manifest.valid_pos), g.pair_ids(manifest.valid_neg)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xF17E]))

    def recall():
        y = _dense_student_embed(params, x_prime, g.features)
        return pair_recall(y, valid_pos, valid_neg)

    best = (recall(), [p.copy() for p in params], x_prime.copy())
    for _ in range(config.finetune_epochs):
        pp, pn = pair_indices(len(pos), len(neg), rng)
        epos, eneg = pos[pp], neg[pn]
        for start in range(0, len(epos), config.finetune_batch_size):
            bp = epos[start : start + config.finetune_batch_size]
            bn = eneg[start : start + config.finetune_batch_size]
            rows, inv = batch_rows(bp, bn)

            def rank_grad(out, inv=inv, b=len(bp)):
                return pair_loss(out, inv, b)

            _, x_prime = _dense_mlp_step(params, x_prime, g.features, rows,
                                         rank_grad, config.train_xprime,
                                         config.finetune_lr)
        rec = recall()
        if rec > best[0]:
            best = (rec, [p.copy() for p in params], x_prime.copy())
    return best[1], best[2]
