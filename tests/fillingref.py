"""Reference deciders that tests compare ``schubitope.filling_or_cut`` against.

``enumerate_tab`` lists every filling by backtracking: ground truth for
small diagrams.  ``edmonds_karp_cut`` builds the filling network as an
explicit graph and runs a plain Edmonds-Karp on it, sharing no code with
the package's flow; with the 2^n subset scan capped at 20 rows, it is the
only reference at larger ranks.
"""

import collections
import itertools

from schubvanish.schubitope import Filling


def _column_label_options(rows, max_label):
    """Strictly increasing label tuples x with x_t <= min(rows_t, max_label)."""
    z = len(rows)
    options = []
    for combo in itertools.combinations(range(1, max_label + 1), z):
        if all(x <= r for x, r in zip(combo, rows)):
            options.append(combo)
    return options


def enumerate_tab(d, alpha):
    """All fillings of D with column-strict labels, label <= row, content alpha.

    Backtracking over columns, most constrained first.
    """
    if len(alpha) != d.n_rows:
        raise ValueError("content vector length must equal n_rows")
    if any(a < 0 for a in alpha):
        raise ValueError("content entries must be nonnegative")
    if sum(alpha) != d.cell_count:
        return []
    n = d.n_rows
    cols = [(c, rows) for c, rows in enumerate(d.columns, start=1) if rows]
    per_col = [(c, rows, _column_label_options(rows, n)) for c, rows in cols]
    if any(not options for _, _, options in per_col):
        return []
    per_col.sort(key=lambda item: (len(item[2]), item[0]))

    remaining = list(alpha)
    labels = {}
    found = []

    def backtrack(k):
        if k == len(per_col):
            if all(x == 0 for x in remaining):
                found.append(Filling.from_dict(d, dict(labels)))
            return
        c, rows, options = per_col[k]
        for combo in options:
            taken = []
            ok = True
            for x in combo:
                if remaining[x - 1] == 0:
                    ok = False
                    break
                remaining[x - 1] -= 1
                taken.append(x)
            if ok:
                for r, x in zip(rows, combo):
                    labels[(r, c)] = x
                backtrack(k + 1)
                for r in rows:
                    del labels[(r, c)]
            for x in taken:
                remaining[x - 1] += 1

    backtrack(0)
    return found


def edmonds_karp_cut(d, alpha):
    """(flow value, labels reachable from the source in the final residual).

    The network: source -> label i with capacity alpha_i -> pair (i, c)
    with capacity 1 -> cell (r, c) for each cell with r >= i, capacity 1 ->
    sink with capacity 1.  Shortest augmenting paths, one unit at a time.
    The flow value is #D exactly when a filling exists; otherwise the
    reachable labels are the inclusion-minimal min cut.
    """
    n = d.n_rows
    columns = [c for c, rows in enumerate(d.columns, start=1) if rows]
    node = {"source": 0, "sink": 1}
    for i in range(1, n + 1):
        node[("label", i)] = len(node)
        for c in columns:
            node[("pair", i, c)] = len(node)
    for cell in d.cells:
        node[cell] = len(node)
    # edge e runs head[e ^ 1] -> head[e]; e ^ 1 is its reverse
    head, cap = [], []
    adj = [[] for _ in node]

    def edge(u, v, c):
        for a, b, k in ((u, v, c), (v, u, 0)):
            adj[node[a]].append(len(head))
            head.append(node[b])
            cap.append(k)

    for i in range(1, n + 1):
        edge("source", ("label", i), alpha[i - 1])
        for c in columns:
            edge(("label", i), ("pair", i, c), 1)
            for r in d.columns[c - 1]:
                if r >= i:
                    edge(("pair", i, c), (r, c), 1)
    for cell in d.cells:
        edge(cell, "sink", 1)

    def residual_tree():
        # node -> edge it was reached by; the source maps to None
        via = {0: None}
        queue = collections.deque([0])
        while queue:
            u = queue.popleft()
            for e in adj[u]:
                v = head[e]
                if v not in via and cap[e] > 0:
                    via[v] = e
                    if v == 1:
                        return via
                    queue.append(v)
        return via

    flow = 0
    while True:
        via = residual_tree()
        if 1 not in via:
            break
        e = via[1]
        while e is not None:
            cap[e] -= 1
            cap[e ^ 1] += 1
            e = via[head[e ^ 1]]
        flow += 1
    return flow, tuple(i for i in range(1, n + 1) if node[("label", i)] in via)
