"""Self-contained dense linear-programming kernel with duality certificates.

The solver is a revised simplex on the standard-form problem
``min c't  s.t.  At = b, t >= 0`` derived from the general-form input.  One
start basis (``_start``: slacks plus artificials, whose inverse is exact,
and at most one crash column entering by a first pivot) and one
``_Simplex`` carry each solve; phase 1 runs only when the start holds
artificials, and phase 2 continues on its basis.  A pivot updates only the
columns of the basis inverse that its pivot row touches, and only
structural and slack columns are priced.  Each variable is nonnegative (one
column) or free (two columns); two arrays carry the whole transformation --
``source`` (the variable behind each column) and ``flip`` (the column's
sign) -- so both directions are array operations.  The entering variable is
the one with the largest reduced-cost violation (ties broken by lowest
index); whenever the objective stalls the rule switches to Bland's
anti-cycling rule, which guarantees finite termination.  Everything is
deterministic for a fixed input.

Every optimal solution carries dual multipliers.  The ``verify_certificate``
routine derives the reduced costs from them and recomputes all four
certificate residuals -- primal feasibility, dual feasibility, complementary
slackness, and the objective gap -- independently of the solver's internals.
Residuals are scaled by ``max(1, |reference|)`` so the stated tolerances
behave uniformly across problem scales.

Sign conventions (minimization): inequality rows are ``A_ub x <= b_ub`` with
multipliers ``y_ub <= 0``; equality multipliers are free; the reduced cost of
variable ``j`` is ``r_j = c_j - A_eq'y_eq - A_ub'y_ub`` with ``r_j >= 0``
required, and ``r_j = 0`` when the variable is free.  For maximization all
dual signs flip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalBreakdown, ValidationError

__all__ = [
    "LinearProgram",
    "LpSolution",
    "CertificateReport",
    "solve",
    "verify_certificate",
]

FEAS_TOL = 1e-9
DUAL_TOL = 1e-9
CS_TOL = 1e-8
GAP_TOL = 1e-8
PIVOT_TOL = 1e-9

_SENSES = {"minimize": 1.0, "maximize": -1.0}


def _as_matrix(a, ncols: int, name: str) -> np.ndarray:
    if a is None:
        return np.zeros((0, ncols))
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a.reshape(1, -1) if a.size else a.reshape(0, ncols)
    if a.ndim != 2 or (a.shape[0] and a.shape[1] != ncols):
        raise ValidationError(f"{name} has shape {a.shape}, expected (*, {ncols})")
    return a if a.shape[0] else np.zeros((0, ncols))


@dataclass(frozen=True)
class LinearProgram:
    """General-form LP: optimize ``c'x`` under equality rows and ``<=`` rows.

    ``objective_sense`` is ``"minimize"`` or ``"maximize"``.  Each variable
    is nonnegative (``lower`` 0, the default) or free (``lower`` ``-inf``);
    ``upper`` is ``+inf``, its default, everywhere.  Any other bound is a
    ``ValidationError`` naming the variable: state it as a row.  ``names``
    are optional labels; the solver does not read them.
    """

    c: np.ndarray
    objective_sense: str = "minimize"
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    A_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValidationError("c must be a nonempty vector")
        n = c.size
        if self.objective_sense not in _SENSES:
            raise ValidationError(f"unknown objective sense {self.objective_sense!r}")
        A_eq = _as_matrix(self.A_eq, n, "A_eq")
        A_ub = _as_matrix(self.A_ub, n, "A_ub")
        b_eq = np.zeros(0) if self.b_eq is None else np.atleast_1d(np.asarray(self.b_eq, dtype=float))
        b_ub = np.zeros(0) if self.b_ub is None else np.atleast_1d(np.asarray(self.b_ub, dtype=float))
        if b_eq.size != A_eq.shape[0]:
            raise ValidationError("b_eq length does not match A_eq")
        if b_ub.size != A_ub.shape[0]:
            raise ValidationError("b_ub length does not match A_ub")
        lower = np.zeros(n) if self.lower is None else np.asarray(self.lower, dtype=float).copy()
        upper = np.full(n, np.inf) if self.upper is None else np.asarray(self.upper, dtype=float).copy()
        if lower.shape != (n,) or upper.shape != (n,):
            raise ValidationError("bounds must match the variable count")
        for name, arr in (("c", c), ("A_eq", A_eq), ("b_eq", b_eq), ("A_ub", A_ub), ("b_ub", b_ub)):
            if not np.isfinite(arr).all():
                raise ValidationError(f"{name} must be finite")
        for bad, name, arr, kinds in (
            ((lower != 0.0) & (lower != -np.inf), "lower", lower, "0 (nonnegative) or -inf (free)"),
            (upper != np.inf, "upper", upper, "+inf"),
        ):
            if bad.any():
                j = int(np.argmax(bad))
                raise ValidationError(f"variable {j} has {name} bound {float(arr[j])!r}; it must be {kinds}")
        names = self.names
        if names is not None:
            names = tuple(str(s) for s in names)
            if len(names) != n:
                raise ValidationError("names length does not match variable count")
        for key, val in (
            ("c", c), ("A_eq", A_eq), ("b_eq", b_eq), ("A_ub", A_ub), ("b_ub", b_ub),
            ("lower", lower), ("upper", upper), ("names", names),
        ):
            object.__setattr__(self, key, val)

    @property
    def n_vars(self) -> int:
        return self.c.size


@dataclass
class LpSolution:
    """Solver output.  When ``status == "optimal"`` the certificate fields are
    populated and ``certificate`` is the passing ``verify_certificate`` report
    that ``solve`` checked them with."""

    status: str
    x: np.ndarray | None = None
    objective: float = float("nan")
    y_eq: np.ndarray | None = None
    y_ub: np.ndarray | None = None
    iterations: int = 0
    certificate: CertificateReport | None = None


@dataclass(frozen=True)
class CertificateReport:
    ok: bool
    residuals: dict
    failures: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# standard-form transformation


@dataclass
class _StandardForm:
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    n_eq: int
    slack_of_row: np.ndarray   # column index of the slack for each ub row, -1 for eq
    source: np.ndarray         # original variable behind each structural column
    flip: np.ndarray           # +1 or -1 per structural column

    def recover(self, t: np.ndarray) -> np.ndarray:
        """Map a standard-form point back to the original variables."""
        return np.bincount(self.source, self.flip * t[: self.source.size])


def _standard_form(lp: LinearProgram, sign: float) -> _StandardForm:
    """Rewrite as min (sign*c)'t, At = b, t >= 0.

    A nonnegative variable is one column ``t = x``; a free variable is two
    adjacent columns with ``x = t+ - t-``.  Two arrays record the
    transformation: ``source`` (the variable behind each structural column,
    in variable order) and ``flip`` (-1 for a free variable's second column,
    else +1), so that ``x = sum over its columns of flip * t``.  Rows are the
    equalities, then the inequalities with one slack each; the slacks follow
    the structural columns.
    """
    width = np.where(lp.lower == -np.inf, 2, 1)
    source = np.repeat(np.arange(lp.n_vars), width)
    flip = np.ones(source.size)
    flip[np.cumsum(width)[width == 2] - 1] = -1.0

    n_eq, n_ub, n_struct = lp.A_eq.shape[0], lp.A_ub.shape[0], source.size
    m = n_eq + n_ub
    slack_of_row = np.concatenate([np.full(n_eq, -1), n_struct + np.arange(n_ub)])
    A = np.zeros((m, n_struct + n_ub))
    # gather each block straight into A: no stacked copy of [A_eq; A_ub]
    np.multiply(lp.A_eq[:, source], flip, out=A[:n_eq, :n_struct])
    np.multiply(lp.A_ub[:, source], flip, out=A[n_eq:, :n_struct])
    A[np.arange(n_eq, m), slack_of_row[n_eq:]] = 1.0
    c = np.zeros(A.shape[1])
    c[:n_struct] = (sign * lp.c)[source] * flip
    return _StandardForm(A, np.concatenate([lp.b_eq, lp.b_ub]), c, n_eq, slack_of_row, source, flip)


# ---------------------------------------------------------------------------
# simplex core


class _Simplex:
    """Revised simplex with an explicit, periodically refactorized basis inverse.

    One object carries a solve from its start basis to its verdict: phase 1
    (when the start holds artificial columns) and phase 2 run on the same
    basis and pivot count.  The start basis is slacks and artificials, one
    ``±1`` per column on its own row: a signed identity, which is its own
    inverse, so nothing is factorized before the first pivot.  ``Binv`` is
    kept in Fortran order, so each of its columns is a contiguous row of
    ``Binv.T``.  Only the first ``n`` columns (structural, then slack) may
    enter; their reduced costs come from one product with a contiguous copy
    of the structural block, and each slack's is read off its row's
    multiplier.  ``pivot`` is the only writer of the basis and the mask of
    basic columns; ``pivot`` and ``refactorize`` are the only writers of the
    basis inverse.
    """

    REFACTOR_EVERY = 128

    def __init__(self, A: np.ndarray, b: np.ndarray, basis: np.ndarray, n_struct: int, n: int):
        self.A = A
        self.b = b
        self.m = A.shape[0]
        self.n = n
        self.basis = basis.copy()
        self.in_basis = np.zeros(A.shape[1], dtype=bool)
        self.in_basis[basis] = True
        diag = np.arange(self.m)
        self.Binv = np.zeros((self.m, self.m), order="F")
        self.Binv[diag, diag] = A[diag, basis]
        self.A_struct = np.ascontiguousarray(A[:, :n_struct])
        self.slack_rows = slice(self.m - (n - n_struct), self.m)
        self.iterations = 0

    def refactorize(self) -> None:
        """Invert the basis afresh into ``Binv``."""
        B = self.A[:, self.basis]
        try:
            Binv = np.linalg.solve(B, np.eye(self.m))
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdown(f"singular basis: {exc}") from exc
        err = np.abs(B @ Binv - np.eye(self.m)).max() if self.m else 0.0
        if not np.isfinite(err) or err > 1e-6:
            raise NumericalBreakdown(f"basis inverse residual {err:.2e}")
        self.Binv = np.asfortranarray(Binv)

    def pivot(self, p: int, j: int, d: np.ndarray) -> None:
        """Column ``j`` replaces the basic column of row ``p``; ``d = B⁻¹A_j``.
        The inverse takes a rank-one update, in place, on the columns where
        the new row ``p`` is nonzero: the others would subtract zeros."""
        self.in_basis[self.basis[p]] = False
        self.in_basis[j] = True
        self.basis[p] = j
        row_p = self.Binv[p] / d[p]
        nz = np.flatnonzero(row_p)
        self.Binv.T[nz] -= np.multiply.outer(row_p[nz], d)
        self.Binv[p] = row_p

    def reduced_costs(self, c: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``c - y'A`` over the first ``n`` columns: a slack column is the
        unit vector of its row."""
        r = np.empty(self.n)
        n_struct = self.A_struct.shape[1]
        np.subtract(c[:n_struct], y @ self.A_struct, out=r[:n_struct])
        np.subtract(c[n_struct : self.n], y[self.slack_rows], out=r[n_struct:])
        return r

    def run(self, c: np.ndarray, max_iter: int) -> str:
        """Minimize c'x from the current basic feasible solution.

        Returns "optimal" or "unbounded"; the latter only from the ratio
        test, which then holds the entering column ``j`` and ``d = B⁻¹A_j``.
        """
        A, b, m = self.A, self.b, self.m
        bland = False
        stall = 0
        stall_limit = max(200, 2 * m)
        prev_obj = np.inf
        since_refactor = 0
        cb = c[self.basis]
        while True:
            if self.iterations >= max_iter:
                raise NumericalBreakdown(f"iteration limit {max_iter} exceeded")
            x_B = self.Binv @ b
            obj = float(cb @ x_B)
            if obj < prev_obj - 1e-12 * (1.0 + abs(prev_obj)):
                stall = 0
            else:
                stall += 1
                if stall > stall_limit:
                    bland = True  # anti-cycling: switch to Bland's rule
            prev_obj = obj
            r = self.reduced_costs(c, cb @ self.Binv)
            idx = np.flatnonzero((r < -PIVOT_TOL) & ~self.in_basis[: self.n])
            if not idx.size:
                return "optimal"
            j = int(idx[0]) if bland else int(idx[np.argmin(r[idx])])
            d = self.Binv @ A[:, j]
            p = self._leaving_row(x_B, d, bland)
            if p is not None and abs(d[p]) < 1e-7:
                # the update would amplify error by 1/|pivot|; retry from a
                # fresh factorization before accepting such a step
                self.refactorize()
                since_refactor = 0
                x_B = self.Binv @ b
                d = self.Binv @ A[:, j]
                p = self._leaving_row(x_B, d, bland)
            if p is None:
                return "unbounded"
            self.pivot(p, j, d)
            cb[p] = c[j]
            self.iterations += 1
            since_refactor += 1
            if since_refactor >= self.REFACTOR_EVERY:
                self.refactorize()
                since_refactor = 0

    def _leaving_row(self, x_B, d, bland: bool):
        """Minimum-ratio row among those with ``d > PIVOT_TOL``; ties go to the
        largest pivot for stability, or to the smallest basic index in Bland
        mode (the termination guarantee)."""
        rows = np.flatnonzero(d > PIVOT_TOL)
        if not rows.size:
            return None
        ratios = np.maximum(x_B[rows], 0.0) / d[rows]
        theta = ratios.min()
        ties = rows[ratios <= theta + 1e-9 * (1.0 + abs(theta))]
        if bland:
            return int(ties[np.argmin(self.basis[ties])])
        return int(ties[np.argmax(d[ties])])


def _phase(sx: _Simplex, c: np.ndarray) -> str:
    """Run the simplex from ``sx``'s basis under the costs ``c``."""
    return sx.run(c, 200000 + 100 * (sx.m + sx.n))


def _start(sf: _StandardForm) -> tuple[np.ndarray, np.ndarray, int, tuple[int, int] | None]:
    """The start ``(A, basis, n_art, crash)``: ``A`` is ``sf.A`` with
    ``n_art`` artificial columns appended, when phase 1 must run, and
    ``basis`` is slacks and artificials, a signed identity.

    Bixby's one-column crash comes first: when every row has a slack and
    some ``b_r < 0``, the lowest-index structural column ``j`` negative on
    all such rows enters at the row ``p`` of the largest ``b_p / a_pj``.  It
    is kept, as ``crash = (p, j)``, the first pivot from the slack basis,
    when the slacks ``b - A_j b_p / a_pj`` (no factorization) are all
    nonnegative; for the hedging LP's all ``-1`` endowment column they are
    ``b_r - b_p``, exact.  Otherwise slacks start where ``b_r >= 0``, and an
    artificial column signed like ``b_r`` on every other row.
    """
    A, b = sf.A, sf.b
    basis = sf.slack_of_row.copy()
    short = np.flatnonzero(b < 0)
    negative = (A[short, : sf.source.size] < 0).all(axis=0)
    if short.size and (basis >= 0).all() and negative.any():
        j = int(np.argmax(negative))
        p = short[np.argmax(b[short] / A[short, j])]
        slack = b - A[:, j] * (b[p] / A[p, j])
        slack[p] = 0.0
        if (slack >= 0).all():
            return A, basis, 0, (int(p), j)
    art_rows = np.flatnonzero((basis < 0) | (b < 0))
    n_art = art_rows.size
    basis[art_rows] = A.shape[1] + np.arange(n_art)
    art = np.zeros((A.shape[0], n_art))
    art[art_rows, np.arange(n_art)] = np.where(b[art_rows] < 0, -1.0, 1.0)
    return (np.hstack([A, art]) if n_art else A), basis, n_art, None


def _solve_standard(sf: _StandardForm) -> tuple[str, np.ndarray | None, np.ndarray | None, int]:
    """Simplex from ``_start``'s basis on one ``_Simplex``.  Returns
    (status, t, y, iterations), with a multiplier for every row.

    A crash column enters first, by one pivot that is not counted as an
    iteration.  Phase 1 runs only when the start holds artificial columns;
    it minimizes their sum, and a positive optimum means "infeasible".  Each
    artificial left basic is then pivoted out by any column with a nonzero
    entry in its row; one that no column can replace sits on a redundant row
    and stays basic at zero.  Phase 2 continues from that basis,
    refactorized; artificials never enter.  A program without rows needs no
    special case: its basis is empty, and the first column with a negative
    cost fails the ratio test.
    """
    A, basis, n_art, crash = _start(sf)
    b, n = sf.b, sf.c.size
    sx = _Simplex(A, b, basis, sf.source.size, n)
    if crash is not None:
        p, j = crash
        sx.pivot(p, j, sx.Binv @ A[:, j])
    if n_art:
        c1 = np.concatenate([np.zeros(n), np.ones(n_art)])
        if _phase(sx, c1) != "optimal":
            raise NumericalBreakdown("phase-1 objective reported unbounded")
        if c1[sx.basis] @ (sx.Binv @ b) > 1e-8 * max(1.0, np.abs(b).max()):
            return "infeasible", None, None, sx.iterations
        for p in np.flatnonzero(sx.basis >= n):
            row = sx.Binv[p, :] @ sf.A
            for j in np.flatnonzero(np.abs(row) > 1e-7):
                if not sx.in_basis[j]:
                    d = sx.Binv @ A[:, j]
                    if abs(d[p]) > 1e-7:
                        sx.pivot(p, j, d)
                        break
        sx.refactorize()  # phase 2 counts its updates from a fresh inverse

    c = np.concatenate([sf.c, np.zeros(n_art)])
    if _phase(sx, c) == "unbounded":
        return "unbounded", None, None, sx.iterations
    sx.refactorize()  # clean final residuals
    t = np.zeros(A.shape[1])
    t[sx.basis] = sx.Binv @ b
    return "optimal", t[:n], c[sx.basis] @ sx.Binv, sx.iterations


def solve(lp: LinearProgram) -> LpSolution:
    """Solve the LP and return a certified solution.

    Deterministic for a fixed input.  For ``status == "optimal"`` the returned
    point and duals pass ``verify_certificate``; when they do not (numerical
    loss of control) the solver raises ``NumericalBreakdown`` rather than
    returning a silently wrong answer.
    """
    sign = _SENSES[lp.objective_sense]
    sf = _standard_form(lp, sign)
    status, t, y, iters = _solve_standard(sf)
    if status != "optimal":
        return LpSolution(status=status, iterations=iters)
    x = sf.recover(t)
    y_eq = sign * y[: sf.n_eq]
    y_ub = sign * y[sf.n_eq :]

    objective = float(lp.c @ x)
    sol = LpSolution(
        status="optimal",
        x=x,
        objective=objective,
        y_eq=y_eq,
        y_ub=y_ub,
        iterations=iters,
    )
    sol.certificate = verify_certificate(lp, sol)
    if not sol.certificate.ok:
        raise NumericalBreakdown(
            "optimal basis failed its own certificate: " + ", ".join(sol.certificate.failures)
        )
    return sol


def _worst(*terms: np.ndarray) -> float:
    """The largest residual term, 0.0 when there is none, NaN when any term is
    NaN (Python's ``max(0.0, nan)`` is 0.0).  Adding 0.0 turns -0.0 into 0.0."""
    return float(np.max(np.concatenate(terms), initial=0.0)) + 0.0


def verify_certificate(lp: LinearProgram, sol: LpSolution) -> CertificateReport:
    """Recompute the four optimality residuals from scratch.

    The reduced costs ``r = c - A_eq'y_eq - A_ub'y_ub`` are derived from the
    multipliers, so multipliers off stationarity fail dual feasibility.
    A nonnegative variable adds ``x >= 0`` to primal feasibility and pairs
    ``x`` with its reduced cost in complementary slackness; a free variable's
    reduced cost must vanish.  Residuals are scaled by ``max(1,
    |reference|)`` (right-hand side, cost, or objective).  Returns a report
    with the worst residual per family and the list of failed families; a
    NaN residual fails its family.
    """
    if sol.status != "optimal":
        return CertificateReport(False, {}, ("status_not_optimal",))
    x, y_eq, y_ub = sol.x, sol.y_eq, sol.y_ub
    r = lp.c - lp.A_eq.T @ y_eq - lp.A_ub.T @ y_ub
    sign = _SENSES[lp.objective_sense]
    nonneg = lp.lower == 0.0

    # primal feasibility
    primal = _worst(
        np.abs(lp.A_eq @ x - lp.b_eq) / np.maximum(1.0, np.abs(lp.b_eq)),
        np.maximum(lp.A_ub @ x - lp.b_ub, 0.0) / np.maximum(1.0, np.abs(lp.b_ub)),
        np.maximum(-x[nonneg], 0.0),
    )

    # dual feasibility: multiplier signs (sign * y_ub <= 0) plus reduced-cost
    # signs, >= 0 and, for a free variable, <= 0 too
    cscale = np.maximum(1.0, np.abs(lp.c))
    sr = sign * r
    dual = _worst(
        np.maximum(sign * y_ub, 0.0) / np.maximum(1.0, np.abs(y_ub)),
        np.maximum(sr[~nonneg], 0.0) / cscale[~nonneg],
        np.maximum(-sr, 0.0) / cscale,
    )

    # complementary slackness
    slack = lp.b_ub - lp.A_ub @ x
    r_lo = np.maximum(sr, 0.0)  # pairs with x >= 0
    gap_lo = np.where(nonneg, x, 0.0)
    cs = _worst(
        np.abs(y_ub * slack) / np.maximum(1.0, np.maximum(np.abs(y_ub), np.abs(slack))),
        np.abs(r_lo * gap_lo) / np.maximum(1.0, np.maximum(r_lo, np.abs(gap_lo))),
    )

    # strong duality, against the objective recomputed from x
    primal_obj = float(lp.c @ x)
    dual_obj = float(lp.b_eq @ y_eq) + float(lp.b_ub @ y_ub)
    gap = _worst(
        np.abs([primal_obj - dual_obj, sol.objective - primal_obj])
    ) / max(1.0, abs(primal_obj))

    res = {
        "primal_feasibility": primal,
        "dual_feasibility": dual,
        "complementary_slackness": cs,
        "objective_gap": gap,
    }
    tols = (FEAS_TOL, DUAL_TOL, CS_TOL, GAP_TOL)
    failures = tuple(name for (name, val), tol in zip(res.items(), tols) if not (val <= tol))
    return CertificateReport(not failures, res, failures)
