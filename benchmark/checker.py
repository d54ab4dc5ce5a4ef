"""Independent re-computation of what the benchmark's solver calls return.

Nothing here imports netvax.  Inputs are plain data: the node count, the
infected seeds, the budget and, per sampled topology, its live edges as
(source, destination) pairs.  Reachability runs on scipy's compressed sparse
graph routines over one block-diagonal graph that holds every topology; the
sampled LP/BLP is assembled directly as ``scipy.sparse`` rows and solved with
scipy's HiGHS interfaces (``linprog`` and ``milp``).

The LP layout follows the one the netvax model documents, so a solution
vector that netvax returns can be checked row by row:

* ``x(t, i)`` at index ``t * n + i``: node i infected on topology t;
* ``I(j)`` at index ``s * n + j``: node j vaccinated.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import breadth_first_order

# Absolute tolerance for LP rows, bounds and objective comparisons.
TOL = 1e-6


class Instance:
    """One sampled instance as plain arrays: n, infected seeds, budget, live edges."""

    def __init__(self, n: int, infected, k: int, live_edges):
        self.n = int(n)
        self.infected = np.array(sorted(int(i) for i in infected), dtype=np.int64)
        self.k = int(k)
        self.edges = [np.asarray(e, dtype=np.int64).reshape(-1, 2) for e in live_edges]
        self.s = len(self.edges)
        if self.s == 0:
            raise ValueError("an instance needs at least one topology")
        for e in self.edges:
            if e.size and (e.min() < 0 or e.max() >= self.n):
                raise ValueError("live edge endpoint outside 0..n-1")
        # Block-diagonal graph: node (t, i) is t * n + i; a super-source at
        # s * n feeds the seeds of every topology.
        n, s = self.n, self.s
        src = np.concatenate([e[:, 0] + t * n for t, e in enumerate(self.edges)])
        dst = np.concatenate([e[:, 1] + t * n for t, e in enumerate(self.edges)])
        seed_dst = (np.arange(s, dtype=np.int64)[:, None] * n + self.infected[None, :]).ravel()
        self._root = s * n
        self._src = np.concatenate([src, np.full(len(seed_dst), self._root, dtype=np.int64)])
        self._dst = np.concatenate([dst, seed_dst])
        self._dst_node = self._dst % n

    # -- reachability ---------------------------------------------------

    def per_topology_saved(self, S) -> np.ndarray:
        """n minus the nodes reachable from the seeds when S is removed, per topology."""
        n, s = self.n, self.s
        blocked = np.zeros(n, dtype=bool)
        nodes = np.fromiter((int(v) for v in S), dtype=np.int64)
        if nodes.size:
            blocked[nodes] = True
        keep = ~blocked[self._dst_node]
        size = s * n + 1
        graph = csr_matrix(
            (np.ones(int(keep.sum()), dtype=np.int8), (self._src[keep], self._dst[keep])),
            shape=(size, size),
        )
        order = breadth_first_order(graph, self._root, directed=True, return_predecessors=False)
        reached = order[order != self._root]
        infected = np.bincount(reached // n, minlength=s)
        return n - infected

    def avg_saved(self, S) -> float:
        """Uniform mean of the per-topology saved counts (sampled topologies)."""
        per = self.per_topology_saved(S)
        return float(int(per.sum())) / self.s

    # -- sampled LP / BLP -----------------------------------------------

    @cached_property
    def _lp_arrays(self):
        n, s = self.n, self.s
        nv = s * n + n
        rows, cols, vals = [], [], []
        r = 0
        for t, e in enumerate(self.edges):
            m = len(e)
            if not m:
                continue
            idx = np.arange(r, r + m)
            j, i = e[:, 0], e[:, 1]
            # x(t,j) - x(t,i) - I(i) <= 0: infection passes a live edge
            # unless its head is vaccinated.
            rows += [idx, idx, idx]
            cols += [t * n + j, t * n + i, s * n + i]
            vals += [np.ones(m), -np.ones(m), -np.ones(m)]
            r += m
        candidates = np.setdiff1d(np.arange(n), self.infected)
        rows.append(np.full(len(candidates), r))
        cols.append(s * n + candidates)
        vals.append(np.ones(len(candidates)))
        r += 1
        A = coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(r, nv)
        ).tocsr()
        ub = np.zeros(r)
        ub[-1] = self.k
        lower = np.zeros(nv)
        upper = np.ones(nv)
        for t in range(s):
            lower[t * n + self.infected] = 1.0
        upper[s * n + self.infected] = 0.0
        c = np.zeros(nv)
        c[: s * n] = 1.0 / s
        return c, A, ub, lower, upper

    def lp_optimum(self) -> float:
        """Optimal relaxed objective: the fewest expected infections, fractional I."""
        c, A, ub, lower, upper = self._lp_arrays
        res = linprog(c, A_ub=A, b_ub=ub, bounds=np.column_stack([lower, upper]), method="highs")
        if res.status != 0:
            raise RuntimeError(f"relaxed LP not solved: {res.message}")
        return float(res.fun)

    def blp_optimum(self) -> float:
        """Optimal binary objective; only I is integral, x follows from the rows."""
        c, A, ub, lower, upper = self._lp_arrays
        integrality = np.zeros(len(c))
        integrality[self.s * self.n :] = 1
        res = milp(
            c,
            constraints=LinearConstraint(A, -np.inf, ub),
            integrality=integrality,
            bounds=Bounds(lower, upper),
            options={"mip_rel_gap": 0.0},
        )
        if res.status != 0:
            raise RuntimeError(f"binary LP not solved: {res.message}")
        return float(res.fun)

    def lp_violation(self, values) -> float:
        """Largest violation of any live-edge row, the budget row, a pin or a bound."""
        c, A, ub, lower, upper = self._lp_arrays
        values = np.asarray(values, dtype=float)
        if values.shape != c.shape:
            return float("inf")
        rows = float(np.max(A @ values - ub, initial=0.0))
        bounds = float(max(np.max(lower - values, initial=0.0), np.max(values - upper, initial=0.0)))
        return max(rows, bounds)

    def lp_objective(self, values) -> float:
        c = self._lp_arrays[0]
        return float(c @ np.asarray(values, dtype=float))
