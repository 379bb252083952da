import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadhedge import (
    AdmissibilityCap,
    ClaimSpec,
    LinearProgram,
    ValidationError,
    solve,
    verify_certificate,
)
from spreadhedge.lp import _SENSES, _standard_form
from spreadhedge.superhedge import build_dual, build_primal
from tests.oracles import brute_force_vertices

INF = float("inf")


def two_var_hedge_lp():
    """minimize B + 100*D subject to B + 108*D >= 20, B + 72*D >= 0, both free."""
    return LinearProgram(
        c=[1.0, 100.0],
        A_ub=[[-1.0, -108.0], [-1.0, -72.0]],
        b_ub=[-20.0, 0.0],
        lower=[-INF, -INF],
        names=("B", "D"),
    )


def random_box_lp(seed: int) -> LinearProgram:
    """Bounded-feasible random LP: inequalities slackened around a random
    interior point of a box, sometimes one equality through it, then the box
    as rows.  A variable whose box starts below 0 is free, with a row
    ``-x_j <= -lower_j``; every variable has a row ``x_j <= upper_j``."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    lower = np.where(rng.random(n) < 0.5, 0.0, -rng.uniform(1, 5, n))
    upper = lower + rng.uniform(1, 10, n)
    x_hat = lower + rng.uniform(0.2, 0.8, n) * (upper - lower)
    m = int(rng.integers(1, 5))
    A_ub = rng.normal(size=(m, n))
    b_ub = A_ub @ x_hat + rng.uniform(0.1, 3.0, m)
    A_eq = b_eq = None
    if rng.random() < 0.4:
        A_eq = rng.normal(size=(1, n))
        b_eq = A_eq @ x_hat
    c = rng.normal(size=n)
    sense = "minimize" if rng.random() < 0.5 else "maximize"
    free = lower < 0.0
    return LinearProgram(
        c=c, objective_sense=sense, A_eq=A_eq, b_eq=b_eq,
        A_ub=np.vstack([A_ub, -np.eye(n)[free], np.eye(n)]),
        b_ub=np.concatenate([b_ub, -lower[free], upper]),
        lower=np.where(free, -INF, 0.0),
    )


BOUND_KINDS = ("boxed", "lower", "upper", "free", "fixed")


def mixed_bound_lp(seed: int) -> LinearProgram:
    """Bounded-feasible random LP over free variables holding every bound
    kind at once, each stated as rows: boxed, lower-only, upper-only, free
    and fixed (an equality row), with positive and negative bounds.  Two
    kinds of inequality row through a random point close the open sides:
    ``-x_j <= .`` bounds each unbounded variable below, so that every term
    of ``sum(lower-only, unbounded) - sum(upper-only) <= .`` is bounded below
    and hence above, and an optimal vertex exists."""
    rng = np.random.default_rng(seed)
    kinds = rng.permutation(BOUND_KINDS + tuple(rng.choice(BOUND_KINDS, int(rng.integers(0, 2)))))
    n = kinds.size
    lower = np.full(n, -INF)
    upper = np.full(n, INF)
    x_hat = rng.uniform(-5.0, 5.0, n)
    width = rng.uniform(1.0, 6.0, n)
    for j, kind in enumerate(kinds):
        if kind in ("boxed", "lower"):
            lower[j] = x_hat[j] - rng.uniform(0.2, 0.8) * width[j]
        if kind in ("boxed", "upper"):
            upper[j] = x_hat[j] + rng.uniform(0.2, 0.8) * width[j]
        if kind == "fixed":
            lower[j] = upper[j] = x_hat[j]
    opening = np.select([np.isin(kinds, ("lower", "free")), kinds == "upper"], [1.0, -1.0], 0.0)
    m = int(rng.integers(1, 3))
    A_ub = np.vstack([rng.normal(size=(m, n)), opening, -np.eye(n)[kinds == "free"]])
    b_ub = A_ub @ x_hat + rng.uniform(0.1, 3.0, A_ub.shape[0])
    A_eq = np.eye(n)[kinds == "fixed"]
    if rng.random() < 0.4:
        A_eq = np.vstack([A_eq, rng.normal(size=(1, n))])
    sense = "minimize" if rng.random() < 0.5 else "maximize"
    lo = np.flatnonzero(np.isin(kinds, ("boxed", "lower")))
    up = np.flatnonzero(np.isin(kinds, ("boxed", "upper")))
    return LinearProgram(
        c=rng.normal(size=n), objective_sense=sense, A_eq=A_eq, b_eq=A_eq @ x_hat,
        A_ub=np.vstack([A_ub, -np.eye(n)[lo], np.eye(n)[up]]),
        b_ub=np.concatenate([b_ub, -lower[lo], upper[up]]),
        lower=np.full(n, -INF),
    )


class TestSolveBasics:
    def test_lower_bound_only(self):
        # x >= 3 is a row over a nonnegative variable
        lp = LinearProgram(c=[1.0], A_ub=[[-1.0]], b_ub=[-3.0])
        sol = solve(lp)
        assert sol.status == "optimal"
        assert abs(sol.x[0] - 3.0) < 1e-12
        assert abs(sol.objective - 3.0) < 1e-12

    def test_two_var_hedge(self):
        sol = solve(two_var_hedge_lp())
        assert sol.status == "optimal"
        assert abs(sol.objective - 140.0 / 9.0) < 1e-9
        assert abs(sol.x[0] + 40.0) < 1e-9
        assert abs(sol.x[1] - 5.0 / 9.0) < 1e-9

    def test_unbounded(self):
        lp = LinearProgram(c=[1.0], objective_sense="maximize", lower=[0.0], upper=[INF])
        assert solve(lp).status == "unbounded"

    def test_infeasible(self):
        lp = LinearProgram(
            c=[1.0], A_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0], lower=[-INF], upper=[INF]
        )
        assert solve(lp).status == "infeasible"

    def test_redundant_equality_rows(self):
        lp = LinearProgram(
            c=[1.0, 1.0],
            A_eq=[[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]],
            b_eq=[3.0, 3.0, 6.0],
        )
        sol = solve(lp)
        assert sol.status == "optimal"
        assert abs(sol.objective - 3.0) < 1e-9
        assert verify_certificate(lp, sol).ok

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            LinearProgram(c=[1.0], A_ub=[[1.0]], b_ub=[np.nan])
        with pytest.raises(ValidationError):
            LinearProgram(c=[np.nan])
        with pytest.raises(ValidationError):
            LinearProgram(c=[1.0], lower=[2.0], upper=[1.0])

    @pytest.mark.parametrize("sense", ["min", "max"])
    def test_sense_is_spelt_out(self, sense):
        # "min" and "max" used to be accepted as aliases
        with pytest.raises(ValidationError, match=f"^unknown objective sense '{sense}'$"):
            LinearProgram(c=[1.0], objective_sense=sense)

    @pytest.mark.parametrize(
        "lower, upper, message",
        [
            # fixed, shifted, mirrored and boxed variables: state these as rows
            (2.0, 2.0, "lower bound 2.0"),
            (3.0, INF, "lower bound 3.0"),
            (-2.0, INF, "lower bound -2.0"),
            (-INF, 4.0, "upper bound 4.0"),
            (0.0, 1.0, "upper bound 1.0"),
            (np.nan, INF, "lower bound nan"),
            (0.0, np.nan, "upper bound nan"),
            # read as a free variable, such a program once solved as "unbounded"
            (INF, INF, "lower bound inf"),
            (-INF, -INF, "upper bound -inf"),
        ],
        ids=[
            "fixed", "shift", "negative-shift", "mirror", "boxed",
            "lower-nan", "upper-nan", "lower-inf", "upper-minus-inf",
        ],
    )
    def test_bound_other_than_nonnegative_or_free_rejected(self, lower, upper, message):
        must = "0 (nonnegative) or -inf (free)" if message.startswith("lower") else "+inf"
        with pytest.raises(ValidationError, match=f"^{re.escape(f'variable 1 has {message}; it must be {must}')}$"):
            LinearProgram(c=[1.0, 1.0], lower=[0.0, lower], upper=[INF, upper])

    @pytest.mark.parametrize("name", ["c", "A_eq", "A_ub"])
    @pytest.mark.parametrize("value", [INF, -INF, np.nan])
    def test_non_finite_coefficient_rejected(self, name, value):
        # an infinite coefficient used to reach the simplex and end in a
        # NumericalBreakdown on the objective gap
        arrays = {"c": [1.0, 1.0], "A_eq": [[1.0, 1.0]], "A_ub": [[1.0, -1.0]]}
        arrays[name] = np.array(arrays[name])
        arrays[name].flat[0] = value
        with pytest.raises(ValidationError, match=f"^{name} must be finite$"):
            LinearProgram(**arrays, b_eq=[1.0], b_ub=[0.0])

    def test_rows_all_redundant(self):
        # the empty row's artificial stays basic at zero after phase 1; phase
        # 2's verdicts come from the same ratio test as any other
        for c, status in (([1.0, 2.0], "optimal"), ([1.0, -2.0], "unbounded")):
            sol = solve(LinearProgram(c=c, A_eq=[[0.0, 0.0]], b_eq=[0.0]))
            assert (sol.status, sol.iterations) == (status, 0)
        sol = solve(LinearProgram(c=[1.0, 2.0], A_eq=[[0.0, 0.0]], b_eq=[0.0]))
        assert sol.x.tolist() == [0.0, 0.0] and sol.y_eq.tolist() == [0.0]

    def test_determinism_bitwise(self):
        lp = random_box_lp(7)
        a = solve(lp)
        b = solve(lp)
        assert a.x.tobytes() == b.x.tobytes()
        assert a.y_eq.tobytes() == b.y_eq.tobytes()
        assert a.y_ub.tobytes() == b.y_ub.tobytes()


class TestCertificate:
    def test_solve_output_passes(self):
        sol = solve(two_var_hedge_lp())
        report = verify_certificate(two_var_hedge_lp(), sol)
        assert report.ok
        assert set(report.residuals) == {
            "primal_feasibility",
            "dual_feasibility",
            "complementary_slackness",
            "objective_gap",
        }

    def test_perturbed_solution_fails_with_named_residual(self):
        lp = two_var_hedge_lp()
        sol = solve(lp)
        sol.x = sol.x.copy()
        sol.x[1] += 1e-3  # steps off the binding budget rows
        report = verify_certificate(lp, sol)
        assert not report.ok
        assert "complementary_slackness" in report.failures
        assert "objective_gap" in report.failures

    def test_wrong_dual_sign_detected(self):
        lp = two_var_hedge_lp()
        sol = solve(lp)
        sol.y_ub = np.abs(sol.y_ub)  # inequality duals must be <= 0 for a min
        report = verify_certificate(lp, sol)
        assert not report.ok

    def test_multipliers_off_stationarity_fail(self):
        # the reduced costs used to be the solver's own vector, so these
        # multipliers passed with every residual 0.0
        lp = two_var_hedge_lp()
        sol = solve(lp)
        sol.y_ub = sol.y_ub.copy()
        sol.y_ub[1] = -5.0
        report = verify_certificate(lp, sol)
        assert not report.ok and "dual_feasibility" in report.failures

    @pytest.mark.parametrize(
        "field, families",
        [
            ("x", {"primal_feasibility", "complementary_slackness", "objective_gap"}),
            ("y_ub", {"dual_feasibility", "complementary_slackness", "objective_gap"}),
            ("objective", {"objective_gap"}),
        ],
    )
    def test_nan_residual_fails_its_family(self, field, families):
        # Python's max(0.0, nan) is 0.0: these families used to read 0.0,
        # and a NaN objective passed the certificate
        lp = two_var_hedge_lp()
        sol = solve(lp)
        if field == "objective":
            sol.objective = float("nan")
        else:
            setattr(sol, field, getattr(sol, field).copy())
            getattr(sol, field)[0] = np.nan
        report = verify_certificate(lp, sol)
        nan = {name for name, val in report.residuals.items() if np.isnan(val)}
        assert nan == families
        assert set(report.failures) == families

    def test_solve_carries_the_report_it_checked(self):
        from tests.test_acceptance import suite_instance  # that module imports this one

        for seed in range(1, 11):
            tree, claim, lam = suite_instance(seed)
            for cap in (AdmissibilityCap.unbounded(), AdmissibilityCap.numeraire_based(100.0)):
                lp = build_primal(tree, lam, claim, cap)
                sol = solve(lp)
                assert sol.status == "optimal" and sol.certificate.ok, seed
                assert sol.certificate == verify_certificate(lp, sol), seed
        assert solve(LinearProgram(c=[-1.0], lower=[0.0])).certificate is None

class TestBruteForce:
    def test_two_var_hedge_vertex(self):
        out = brute_force_vertices(two_var_hedge_lp())
        assert len(out) == 1
        x, obj = out[0]
        assert abs(obj - 140.0 / 9.0) < 1e-9
        assert np.allclose(x, [-40.0, 5.0 / 9.0], atol=1e-9)

    def test_infeasible_gives_empty(self):
        lp = LinearProgram(
            c=[1.0], A_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0], lower=[-INF], upper=[INF]
        )
        assert brute_force_vertices(lp) == []

    def test_duplicate_vertices_deduplicated(self):
        # three constraints meet at the same corner of the unit box
        lp = LinearProgram(
            c=[-1.0, -1.0],
            A_ub=[[1.0, 1.0], [2.0, 2.0], [1.0, 0.0], [0.0, 1.0]],
            b_ub=[2.0, 4.0, 1.0, 1.0],
        )
        out = brute_force_vertices(lp)
        assert len(out) == 1
        assert np.allclose(out[0][0], [1.0, 1.0], atol=1e-9)

    def test_too_large(self):
        with pytest.raises(ValueError, match="at most 8 variables"):
            brute_force_vertices(LinearProgram(c=np.ones(9)))


class TestOracleAgreement:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(1, 100_000))
    def test_solve_matches_vertex_enumeration(self, seed):
        for lp in (random_box_lp(seed), mixed_bound_lp(seed)):
            sol = solve(lp)
            assert sol.status == "optimal"
            vertices = brute_force_vertices(lp)
            assert vertices, "bounded LP must have an optimal vertex"
            assert abs(sol.objective - vertices[0][1]) < 1e-9 * (1 + abs(sol.objective))
            assert verify_certificate(lp, sol).ok


def count_phases(monkeypatch) -> list:
    """Record each call of ``lp._phase``, which runs one simplex phase."""
    import spreadhedge.lp as lp_module

    calls = []
    phase = lp_module._phase

    def counted(*args):
        calls.append(args)
        return phase(*args)

    monkeypatch.setattr(lp_module, "_phase", counted)
    return calls


def crash_lp() -> LinearProgram:
    """A small hedging-like program: a free endowment x0 on every row, two
    budgets short of it, one floor, and y <= 2; minimize x0 + 2y + z."""
    return LinearProgram(
        c=[1.0, 2.0, 1.0],
        A_ub=[[-1.0, -3.0, 1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, -1.0], [0.0, 1.0, 0.0]],
        b_ub=[-4.0, -1.0, 5.0, 2.0],
        lower=[-INF, 0.0, 0.0],
    )


class TestCrash:
    @pytest.mark.parametrize("make", [two_var_hedge_lp, crash_lp])
    def test_free_endowment_column_skips_phase_1(self, make, monkeypatch):
        calls = count_phases(monkeypatch)
        lp = make()
        sol = solve(lp)
        assert len(calls) == 1
        vertices = brute_force_vertices(lp)
        assert abs(sol.objective - vertices[0][1]) < 1e-9 * (1 + abs(sol.objective))
        assert sol.certificate.ok

    def test_hedging_lp_starts_from_the_no_trade_hedge(self, monkeypatch):
        from tests.test_acceptance import suite_instance  # that module imports this one

        calls = count_phases(monkeypatch)
        for seed in range(1, 11):
            tree, claim, lam = suite_instance(seed)
            for cap in (
                AdmissibilityCap.unbounded(),
                AdmissibilityCap.numeraire_free(1.0),
                AdmissibilityCap.numeraire_based(0.0),
                AdmissibilityCap.numeraire_based(10.0),
                AdmissibilityCap.numeraire_free(0.1),
            ):
                calls.clear()
                assert solve(build_primal(tree, lam, claim, cap)).status == "optimal"
                assert len(calls) == 1, (seed, cap)

    @pytest.mark.parametrize(
        "lp, status, objective",
        [
            # entering x at its row makes the slack of x <= 0.5 negative
            (LinearProgram(c=[1.0, 2.0], A_ub=[[-1.0, -1.0], [1.0, 0.0]], b_ub=[-1.0, 0.5]), "optimal", 1.5),
            (LinearProgram(c=[1.0], A_ub=[[-1.0], [1.0]], b_ub=[-1.0, 0.5]), "infeasible", None),
            # no column is negative on both short rows
            (LinearProgram(c=[1.0, 1.0], A_ub=[[-1.0, 0.0], [0.0, -1.0]], b_ub=[-1.0, -2.0]), "optimal", 3.0),
            # an equality row has no slack
            (
                LinearProgram(c=[1.0, 1.0], A_eq=[[1.0, -1.0]], b_eq=[0.5], A_ub=[[-1.0, -1.0]], b_ub=[-2.0]),
                "optimal",
                2.0,
            ),
        ],
    )
    def test_programs_the_crash_cannot_start_run_phase_1(self, lp, status, objective, monkeypatch):
        calls = count_phases(monkeypatch)
        sol = solve(lp)
        assert sol.status == status
        assert len(calls) == (2 if status == "optimal" else 1)
        if objective is not None:
            assert abs(sol.objective - objective) < 1e-9
            assert abs(brute_force_vertices(lp)[0][1] - objective) < 1e-9


class TestOneSimplexPerSolve:
    @pytest.mark.parametrize(
        "make, status",
        [
            (lambda b1, c1: build_primal(b1, 0.1, c1, AdmissibilityCap.unbounded()), "optimal"),  # crash
            (  # has_cps's program: every right-hand side is 0, so slacks start
                lambda b1, c1: build_primal(b1, 0.1, ClaimSpec({1: 0.0, 2: 0.0}), AdmissibilityCap.unbounded()),
                "optimal",
            ),
            (lambda b1, c1: build_dual(b1, 0.1, c1), "optimal"),  # phase 1
            (
                lambda b1, c1: LinearProgram(
                    c=[1.0, 1.0], A_eq=[[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]], b_eq=[3.0, 3.0, 6.0]
                ),
                "optimal",
            ),
            (
                lambda b1, c1: LinearProgram(
                    c=[1.0], A_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0], lower=[-INF], upper=[INF]
                ),
                "infeasible",
            ),
            (lambda b1, c1: LinearProgram(c=[1.0]), "optimal"),  # no rows
        ],
        ids=["hedging", "zero-claim", "dual", "redundant-rows", "infeasible", "no-rows"],
    )
    def test_one_simplex_carries_both_phases(self, make, status, b1, c1, monkeypatch):
        # phase 1 used to build a throwaway crash basis and a second simplex
        # for phase 2 after deleting redundant rows
        import spreadhedge.lp as lp_module

        built = []
        init = lp_module._Simplex.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(lp_module._Simplex, "__init__", counted)
        assert solve(make(b1, c1)).status == status
        assert len(built) == 1


class TestDriveOut:
    @pytest.mark.parametrize(
        "lp, y_eq",
        [
            # phase 1 ends at once, its artificial basic at zero
            (LinearProgram(c=[1.0, 1.0], A_eq=[[-1.0, -1.0]], b_eq=[0.0]), [-1.0]),
            (LinearProgram(c=[1.0, -1.0], A_eq=[[-1.0, -1.0], [1.0, -1.0]], b_eq=[0.0, 0.0]), [0.0, 1.0]),
        ],
        ids=["one-artificial", "two-artificials"],
    )
    def test_artificials_left_basic_at_zero_are_pivoted_out(self, lp, y_eq, monkeypatch):
        import spreadhedge.lp as lp_module

        events = []
        phase, pivot = lp_module._phase, lp_module._Simplex.pivot

        def recorded_phase(sx, c):
            events.append(("phase", sx.basis.copy(), c))
            status = phase(sx, c)
            events.append(("end", sx.iterations))
            return status

        def recorded_pivot(sx, p, j, d):
            events.append(("pivot", int(p), int(j)))
            pivot(sx, p, j, d)

        monkeypatch.setattr(lp_module, "_phase", recorded_phase)
        monkeypatch.setattr(lp_module._Simplex, "pivot", recorded_pivot)
        sol = solve(lp)
        assert sol.status == "optimal" and sol.objective == 0.0 and sol.iterations == 0
        assert sol.certificate.ok
        assert np.array_equal(sol.x, [0.0, 0.0]) and np.array_equal(sol.y_eq, y_eq)
        # phase 1 pivots nothing; one drive-out pivot per artificial enters
        # a structural column at its row; phase 2 starts with no artificial basic
        rows = len(y_eq)
        (_, start, c1), (_, phase1_iterations), *pivots, (_, basis, _), _ = events
        assert phase1_iterations == 0
        artificials = np.flatnonzero(c1 == 1.0)
        assert np.array_equal(start, artificials) and artificials.size == rows
        assert sorted(p for _, p, _ in pivots) == list(range(rows))
        assert all(j < lp.n_vars for _, _, j in pivots)
        assert not np.isin(basis, artificials).any()


def kernel_corpus(b1, c1):
    """Hedging LPs of suite 1-10 under three caps, the dual LP of ``b1``
    (equality rows first, then phase 1) and ``random_box_lp(7)``."""
    from tests.test_acceptance import suite_instance  # that module imports this one

    for seed in range(1, 11):
        tree, claim, lam = suite_instance(seed)
        for cap in (
            AdmissibilityCap.unbounded(),
            AdmissibilityCap.numeraire_based(0.0),
            AdmissibilityCap.numeraire_free(1.0),
        ):
            yield build_primal(tree, lam, claim, cap)
    yield build_dual(b1, 0.1, c1)
    yield random_box_lp(7)


class TestPivotKernel:
    def test_column_sparse_update_matches_dense_formula(self):
        import spreadhedge.lp as lp_module

        rng = np.random.default_rng(3)
        m = 8
        # diagonally dominant: column j may replace the slack of row j
        A = np.hstack([rng.normal(size=(m, m)) + 4.0 * np.eye(m), np.eye(m)])
        sx = lp_module._Simplex(A, np.ones(m), np.arange(m, 2 * m), m, 2 * m)
        for j in (2, 5, 0, 7, 3):
            before = sx.Binv.copy()
            d = sx.Binv @ A[:, j]
            row_p = before[j] / d[j]
            sx.pivot(j, j, d)
            dense = before - np.outer(d, row_p)
            dense[j] = row_p
            moved = row_p != 0
            assert moved.any() and not moved.all()
            assert sx.Binv[:, moved].tobytes() == dense[:, moved].tobytes()
            rest = np.arange(m) != j
            assert sx.Binv[np.ix_(rest, ~moved)].tobytes() == before[np.ix_(rest, ~moved)].tobytes()
            assert (sx.Binv[j, ~moved] == 0.0).all()
        assert sx.Binv.flags.f_contiguous
        assert np.abs(A[:, sx.basis] @ sx.Binv - np.eye(m)).max() <= 1e-12

    def test_start_basis_is_inverted_exactly_without_factorizing(self, b1, c1, monkeypatch):
        # the start is slacks and artificials, a signed identity, plus at
        # most one crash column entering by a pivot: no LU factorization
        # is needed before the first run
        import spreadhedge.lp as lp_module

        events = []
        refactorize, run = lp_module._Simplex.refactorize, lp_module._Simplex.run

        def counted(self):
            events.append("refactorize")
            refactorize(self)

        def checked(self, *args):
            if not events:
                assert (self.A[:, self.basis] @ self.Binv == np.eye(self.m)).all()
            events.append("run")
            return run(self, *args)

        monkeypatch.setattr(lp_module._Simplex, "refactorize", counted)
        monkeypatch.setattr(lp_module._Simplex, "run", checked)
        for lp in kernel_corpus(b1, c1):
            events.clear()
            assert solve(lp).status == "optimal"
            assert events[0] == "run"

    def test_slack_reduced_costs_read_off_the_multipliers(self, b1, c1, monkeypatch):
        import spreadhedge.lp as lp_module

        priced = []
        reduced_costs = lp_module._Simplex.reduced_costs

        def checked(self, c, y):
            r = reduced_costs(self, c, y)
            full = c - y @ self.A
            k = self.A_struct.shape[1]
            assert r.size == self.n
            # equal up to the sign of zero
            assert (r[k:] == full[k : self.n]).all()
            bound = 1e-12 * (np.abs(c[:k]) + np.abs(y) @ np.abs(self.A_struct))
            assert (np.abs(r[:k] - full[:k]) <= bound).all()
            priced.append(self.n - k)
            return r

        monkeypatch.setattr(lp_module._Simplex, "reduced_costs", checked)
        for lp in kernel_corpus(b1, c1):
            assert solve(lp).status == "optimal"
        assert sum(priced) > 0


class TestAntiCycling:
    def test_kuhns_cycling_example_ends_under_blands_rule(self, monkeypatch):
        # Kuhn's example: under the largest-violation rule the simplex stalls
        # at the degenerate origin, so the stall switch to Bland's rule must
        # end it, at the optimum -2 with x = (2, 0, 2, 0)
        import spreadhedge.lp as lp_module

        modes = []
        leaving_row = lp_module._Simplex._leaving_row

        def recorded(self, x_B, d, bland):
            modes.append(bland)
            return leaving_row(self, x_B, d, bland)

        monkeypatch.setattr(lp_module._Simplex, "_leaving_row", recorded)
        lp = LinearProgram(
            c=[-2.0, -3.0, 1.0, 12.0],
            A_ub=[[-2.0, -9.0, 1.0, 9.0], [1.0 / 3.0, 1.0, -1.0 / 3.0, -2.0], [2.0, 3.0, -1.0, -12.0]],
            b_ub=[0.0, 0.0, 2.0],
        )
        sol = solve(lp)
        assert sol.status == "optimal"
        assert abs(sol.objective + 2.0) <= 1e-12
        assert np.abs(sol.x - [2.0, 0.0, 2.0, 0.0]).max() <= 1e-12
        assert sol.certificate.ok and verify_certificate(lp, sol).ok
        assert modes[0] is False and True in modes


def per_column_standard_form(lp: LinearProgram, sign: float):
    """The standard form built one variable at a time, each variable kept as
    a ``(kind, columns)`` record: the reference for the array build.
    Returns ``(A, b, c, slack_of_row, records)``."""
    rows = np.vstack([lp.A_eq, lp.A_ub])
    cobj = sign * lp.c
    col_data, cost, records = [], [], []
    for j in range(lp.n_vars):
        k = len(col_data)
        if lp.lower[j] == 0.0:
            records.append(("nonnegative", (k,)))
            col_data.append(rows[:, j])
            cost.append(cobj[j])
        else:
            records.append(("split", (k, k + 1)))
            col_data += [rows[:, j], -rows[:, j]]
            cost += [cobj[j], -cobj[j]]
    n_eq, n_ub, n_struct = lp.A_eq.shape[0], lp.A_ub.shape[0], len(col_data)
    A = np.zeros((n_eq + n_ub, n_struct + n_ub))
    for k, vec in enumerate(col_data):
        A[:, k] = vec
    slack_of_row = np.full(n_eq + n_ub, -1, dtype=np.int64)
    for i in range(n_ub):
        A[n_eq + i, n_struct + i] = 1.0
        slack_of_row[n_eq + i] = n_struct + i
    b = np.concatenate([lp.b_eq, lp.b_ub])
    c = np.concatenate([np.array(cost), np.zeros(n_ub)])
    return A, b, c, slack_of_row, records


def per_kind_recover(records, t: np.ndarray) -> np.ndarray:
    return np.array([t[cols[0]] if kind == "nonnegative" else t[cols[0]] - t[cols[1]] for kind, cols in records])


def standard_form_corpus():
    """The random corpora, and the programs the library solves: the hedging
    LPs of suite 1-10 under four caps and their dual LPs."""
    from tests.test_acceptance import suite_instance  # that module imports this one

    for seed in range(100):
        yield f"box {seed}", random_box_lp(seed)
        yield f"mixed {seed}", mixed_bound_lp(seed)
    for seed in range(1, 11):
        tree, claim, lam = suite_instance(seed)
        for cap in (
            AdmissibilityCap.unbounded(),
            AdmissibilityCap.numeraire_based(0.0),
            AdmissibilityCap.numeraire_based(100.0),
            AdmissibilityCap.numeraire_free(1.0),
        ):
            yield f"primal {seed} {cap.kind} {cap.bound}", build_primal(tree, lam, claim, cap)
        yield f"dual {seed}", build_dual(tree, lam, claim)


class TestStandardForm:
    def test_matches_per_column_construction_byte_for_byte(self):
        for name, lp in standard_form_corpus():
            sign = _SENSES[lp.objective_sense]
            sf = _standard_form(lp, sign)
            A, b, c, slack_of_row, _ = per_column_standard_form(lp, sign)
            for field, ref in (("A", A), ("b", b), ("c", c), ("slack_of_row", slack_of_row)):
                got = getattr(sf, field)
                assert got.shape == ref.shape and got.dtype == ref.dtype, (name, field)
                assert got.tobytes() == ref.tobytes(), (name, field)

    def test_recover_matches_per_kind_rules(self):
        rng = np.random.default_rng(0)
        kinds = set()
        for name, lp in standard_form_corpus():
            sf = _standard_form(lp, _SENSES[lp.objective_sense])
            records = per_column_standard_form(lp, 1.0)[4]
            kinds |= {kind for kind, _ in records}
            t = rng.uniform(0.0, 10.0, sf.A.shape[1])
            assert np.array_equal(sf.recover(t), per_kind_recover(records, t)), name
        assert kinds == {"nonnegative", "split"}
