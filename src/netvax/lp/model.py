"""Sampled infection-minimization LP construction.

Variables (fixed ordering, which the rounding procedures rely on):

* ``x(t, i)`` at index ``t * n + i`` — infection indicator of node i on
  topology t;
* ``I(j)`` at index ``s * n + j`` — vaccination indicator of node j.

The objective minimizes the weighted infected count over topologies.  For
every live edge (j -> i) of topology t, infection propagates unless i is
vaccinated: ``x(t, i) >= x(t, j) - I(i)``.  Seeds are pinned infected and
unvaccinatable, and the vaccination total is capped by the budget.

The model is held as arrays that every engine reads directly: one CSR
matrix ``A`` (column indices sorted within each row), a right-hand side
``rhs``, and a per-row ``eq`` mask; a row is ``A[r] @ x == rhs[r]`` where
``eq[r]`` and ``A[r] @ x <= rhs[r]`` otherwise.  Rows come in build order:

1. one row ``x(t, j) - x(t, i) - I(i) <= 0`` per live edge, topology by
   topology, each in the topology's edge order;
2. ``x(t, i) = 1`` for every topology t and infected i (ascending);
3. ``I(i) = 0`` for every infected i (ascending);
4. ``I(c) = 1`` for every ``pinned_ones`` entry, in the given order;
5. the budget row ``sum of I(j) over non-infected j <= k``.

The model also keeps what it was built from: ``live``, the
``TopologySet.stacked_edges()`` array itself, whose row r is the live edge
of edge row r; ``infected``, the seeds in ascending order; and ``pins``,
the ``pinned_ones`` nodes in the given order.  ``pruned_view`` reads those
to pick out the columns and rows that can matter at an optimum, for the
solves that run on a smaller model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.sparse import csr_matrix

from ..errors import ParameterError
from ..spread import ProblemInstance
from ..topology import flowgraph
from ..util import fmt_float


@dataclass(frozen=True, eq=False)
class LpModel:
    objective: np.ndarray
    A: csr_matrix
    rhs: np.ndarray
    eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integral: frozenset[int]
    n: int
    s: int
    budget: int
    live: np.ndarray
    infected: np.ndarray
    pins: np.ndarray

    @property
    def num_vars(self) -> int:
        return self.A.shape[1]

    @property
    def constraints(self) -> range:
        # One entry per row.  Only benchmark/tracing.py reads it, as
        # ``len(model.constraints)``; everything else uses ``A`` directly.
        return range(self.A.shape[0])

    def x_index(self, t: int, i: int) -> int:
        return t * self.n + i

    def i_index(self, j: int) -> int:
        return self.s * self.n + j

    def var_name(self, idx: int) -> str:
        """``x[t=..,i=..]`` or ``I[j]`` for a variable index."""
        if idx < self.s * self.n:
            t, i = divmod(idx, self.n)
            return f"x[t={t},i={i}]"
        return f"I[{idx - self.s * self.n}]"

    def i_values(self, values) -> np.ndarray:
        """Slice the vaccination-indicator block out of a solution vector."""
        values = np.asarray(values)
        return values[self.s * self.n : self.s * self.n + self.n]


@dataclass(frozen=True)
class LpSolution:
    status: str  # optimal | infeasible | capacity
    values: tuple[float, ...]
    objective: float


def build_model(
    instance: ProblemInstance, relaxed: bool, pinned_ones: Iterable[int] = ()
) -> LpModel:
    """Assemble the LP/BLP for an instance.

    ``relaxed`` drops the integrality marks on the vaccination variables.
    ``pinned_ones`` adds I(c) = 1 equality rows, used by iterative rounding.
    """
    s = len(instance.topologies)
    if s == 0:
        raise ParameterError("cannot build a model over an empty topology set")
    n = instance.n
    infected = np.array(sorted(instance.infected), dtype=np.int64)
    pins = [int(c) for c in pinned_ones]
    for c in pins:
        if not 0 <= c < n:
            raise ParameterError(f"cannot pin node {c}: nodes lie in 0..{n - 1}")
        if c in instance.infected:
            raise ParameterError(f"cannot pin infected node {c} to vaccinated")
    pins = np.array(pins, dtype=np.int64)
    candidates = np.array(instance.candidates(), dtype=np.int64)
    i_base = n * s
    num_vars = i_base + n

    # edge rows: x(t,j) - x(t,i) - I(i) <= 0 for each live edge (j -> i)
    # the stacked rows t*n+j and t*n+i are already the x(t, j) and x(t, i) columns
    live = instance.topologies.stacked_edges()
    x_src, x_dst = live.astype(np.int64).T
    num_edges = len(x_src)
    edge_cols = np.column_stack([x_src, x_dst, i_base + x_dst % n]).ravel()
    edge_vals = np.tile([1.0, -1.0, -1.0], num_edges)

    # singleton equality rows: seed x pins, seed I pins, pinned_ones
    seed_x = (np.arange(s, dtype=np.int64)[:, None] * n + infected[None, :]).ravel()
    pin_cols = np.concatenate([seed_x, i_base + infected, i_base + pins])
    pin_rhs = np.concatenate([np.ones(len(seed_x)), np.zeros(len(infected)), np.ones(len(pins))])
    num_pins = len(pin_cols)

    num_rows = num_edges + num_pins + 1
    rows = np.concatenate(
        [
            np.repeat(np.arange(num_edges), 3),
            np.arange(num_edges, num_edges + num_pins),
            np.full(len(candidates), num_rows - 1),
        ]
    )
    cols = np.concatenate([edge_cols, pin_cols, i_base + candidates])
    vals = np.concatenate([edge_vals, np.ones(num_pins), np.ones(len(candidates))])
    A = csr_matrix((vals, (rows, cols)), shape=(num_rows, num_vars))
    rhs = np.concatenate([np.zeros(num_edges), pin_rhs, [float(instance.k)]])
    eq = np.zeros(num_rows, dtype=bool)
    eq[num_edges : num_edges + num_pins] = True

    weights = instance.topologies.weights()
    objective = np.concatenate([np.repeat(weights, n), np.zeros(n)])
    integral = frozenset() if relaxed else frozenset(range(i_base, num_vars))
    return LpModel(
        objective=objective,
        A=A,
        rhs=rhs,
        eq=eq,
        lower=np.zeros(num_vars),
        upper=np.ones(num_vars),
        integral=integral,
        n=n,
        s=s,
        budget=instance.k,
        live=live,
        infected=infected,
        pins=pins,
    )


def pruned_view(model: LpModel, vaccinated: Iterable[int] = ()) -> tuple[np.ndarray, np.ndarray]:
    """The kept columns and kept rows of a model, as ascending index arrays.

    An ``x(t, i)`` column is kept when some seed reaches node i in topology t
    along live edges that enter no ``vaccinated`` node.  Any other ``x`` has a
    positive weight and nothing that pushes it up, so it is 0 at every
    optimum, and an edge row leaving it cannot bind.  Every ``I(j)`` column is
    kept.  The kept rows are the edge rows whose source column is kept, every
    pin row and the budget row.  The levels of ``topology.flowgraph`` over
    the model's ``live`` edges and ``infected`` seeds give the kept columns.
    """
    n, x_end = model.n, model.s * model.n
    vaccinated = [int(v) for v in vaccinated]
    outside = [v for v in vaccinated if not 0 <= v < n]
    if outside:
        raise ParameterError(f"cannot vaccinate node {outside[0]}: nodes lie in 0..{n - 1}")
    _, _, level = flowgraph(model.live, model.s, n, model.infected, vaccinated)
    reached = level[:x_end] >= 0
    cols = np.concatenate([np.flatnonzero(reached), np.arange(x_end, model.num_vars)])
    edge_rows = len(model.live)
    rows = np.concatenate([np.flatnonzero(reached[model.live[:, 0]]), np.arange(edge_rows, model.A.shape[0])])
    return cols, rows


# ``verify_solution``'s slack on a row and on a variable bound
_CON_TOL = 1e-6
_BOUND_TOL = 1e-9


def verify_solution(model: LpModel, values) -> list[str]:
    """Residual feasibility check, independent of whichever solver produced values."""
    values = np.asarray(values, dtype=float)
    if values.shape != (model.num_vars,):
        return [f"expected {model.num_vars} values, got {values.size}"]
    problems = [
        f"{model.var_name(idx)} = {float(values[idx])!r} is not finite"
        for idx in np.flatnonzero(~np.isfinite(values))
    ]
    outside = (values < model.lower - _BOUND_TOL) | (values > model.upper + _BOUND_TOL)
    problems.extend(
        f"{model.var_name(idx)} = {float(values[idx])!r} outside [{model.lower[idx]}, {model.upper[idx]}]"
        for idx in np.flatnonzero(outside)
    )
    lhs = model.A @ values
    excess = np.where(model.eq, np.abs(lhs - model.rhs), lhs - model.rhs)
    problems.extend(
        f"row {r}: {float(lhs[r])!r} {'!=' if model.eq[r] else '>'} {float(model.rhs[r])!r}"
        for r in np.flatnonzero(excess > _CON_TOL)
    )
    return problems


def write_lp_file(model: LpModel, path) -> None:
    """Dump in the industry LP text layout for cross-checks with other solvers.

    Each row lists its positive terms, then its negative ones, each by
    ascending variable index, so an edge row reads ``x(t,j) - x(t,i) - I(i)``.
    """

    def name(idx: int) -> str:
        return model.var_name(idx).replace("[", "_").replace("]", "").replace(",", "_").replace("=", "")

    def terms(cols, coefs) -> str:
        parts = []
        for idx, coef in zip(cols, coefs):
            mag = fmt_float(abs(coef))
            if coef < 0:
                parts.append(f"- {mag} {name(idx)}" if parts else f"-{mag} {name(idx)}")
            else:
                parts.append(f"+ {mag} {name(idx)}" if parts else f"{mag} {name(idx)}")
        return " ".join(parts)

    nonzero = np.flatnonzero(model.objective)
    lines = ["Minimize", " obj: " + (terms(nonzero, model.objective[nonzero]) or "0")]
    lines.append("Subject To")
    A = model.A
    for r in range(A.shape[0]):
        cols = A.indices[A.indptr[r] : A.indptr[r + 1]]
        coefs = A.data[A.indptr[r] : A.indptr[r + 1]]
        order = np.argsort(coefs < 0, kind="stable")
        rel = "=" if model.eq[r] else "<="
        lines.append(f" c{r}: {terms(cols[order], coefs[order])} {rel} {fmt_float(model.rhs[r])}")
    lines.append("Bounds")
    for idx in range(model.num_vars):
        lines.append(f" {fmt_float(model.lower[idx])} <= {name(idx)} <= {fmt_float(model.upper[idx])}")
    if model.integral:
        lines.append("Binary")
        lines.append(" " + " ".join(name(idx) for idx in sorted(model.integral)))
    lines.append("End")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
