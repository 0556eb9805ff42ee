"""Foundational q-arithmetic: products, theta, the truncation rule and the
series kernel, and the Jackson grid sums that run on it."""

import cmath
import io
import itertools
import math
import sys
import threading
import time
from decimal import Decimal, getcontext

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import _Tail, rand_complex, ref_row_plan, ref_termination_order
from qhyp import cli, qcore
from qhyp.errors import (
    BudgetExceededError,
    DomainError,
    NonDecayingSumError,
    PoleError,
    UnsupportedCaseError,
)
from qhyp.qcore import (
    _BATCH_BYTES,
    _CHUNK,
    _MIN_CHUNK,
    QContext,
    _by_blocks,
    _one,
    _pochhammer_product,
    _ratio_sum,
    _termination_orders,
    qpoch_fin,
    qpoch_inf,
    qpoch_ratio,
    theta,
)
from qhyp.qseries import _phi_rows, _w87_rows, appell_phi1
from qhyp.solutions import _grid_sum

# (q; q)_inf at q = 1/2, computed with a 220-digit Decimal product of 714
# factors (truncation tail < 1e-215); first 30 digits frozen here.
QQ_INF_HALF = 0.288788095086602421278899721929


class TestContext:
    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            QContext(1.2)
        with pytest.raises(ValueError):
            QContext(0.0)

    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            QContext(0.5, tail_tol=1e-8, eq_tol=1e-10)
        with pytest.raises(ValueError):
            QContext(0.5, eq_tol=1e-3)


class TestQpochInf:
    def test_zero_argument(self, ctx):
        assert qpoch_inf(0.0, ctx) == 1.0

    def test_peel_one_factor(self, ctx, rng):
        for _ in range(20):
            a = rand_complex(rng)
            lhs = qpoch_inf(a, ctx)
            rhs = (1 - a) * qpoch_inf(a * ctx.q, ctx)
            assert abs(lhs - rhs) <= ctx.eq_tol * abs(rhs)

    def test_high_precision_oracle(self):
        ctx = QContext(0.5)
        # independent live recomputation of the frozen constant
        getcontext().prec = 220
        q = Decimal("0.5")
        prod, w = Decimal(1), q
        while w > Decimal(10) ** -215:
            prod *= 1 - w
            w *= q
        assert abs(float(prod) - QQ_INF_HALF) < 1e-15
        assert abs(qpoch_inf(0.5, ctx) - QQ_INF_HALF) < 1e-12

    def test_budget_exceeded(self):
        ctx = QContext(0.999, max_terms=64)
        with pytest.raises(BudgetExceededError):
            qpoch_inf(1.5, ctx)


class TestQpochFin:
    def test_empty_product(self, ctx, rng):
        assert qpoch_fin(rand_complex(rng), 0, ctx) == 1.0

    def test_direct_product(self):
        ctx = QContext(0.5)
        assert abs(qpoch_fin(0.5, 2, ctx) - 0.375) < 1e-15

    def test_negative_index_inverse(self, ctx, rng):
        for m in (1, 2, 3):
            a = rand_complex(rng)
            prod = qpoch_fin(a, -m, ctx) * qpoch_fin(a * ctx.q ** (-m), m, ctx)
            assert abs(prod - 1) < 1e-12

    def test_index_addition(self, ctx, rng):
        for _ in range(10):
            a = rand_complex(rng)
            m = int(rng.integers(-3, 4))
            n = int(rng.integers(-3, 4))
            lhs = qpoch_fin(a, m + n, ctx)
            rhs = qpoch_fin(a, m, ctx) * qpoch_fin(a * ctx.q**m, n, ctx)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    def test_negative_index_pole(self):
        ctx = QContext(0.5)
        with pytest.raises(PoleError):
            qpoch_fin(ctx.q**2, -3, ctx)


class TestTheta:
    def test_zero_rejected(self, ctx):
        with pytest.raises(DomainError):
            theta(0.0, ctx)

    def test_vanishes_at_q(self):
        ctx = QContext(0.5)
        assert theta(ctx.q, ctx) == 0.0

    def test_quasi_periodicity(self, ctx, rng):
        for _ in range(100):
            t = rand_complex(rng, 0.3, 2.0)
            lhs = theta(ctx.q * t, ctx) + theta(t, ctx) / t
            assert abs(lhs) <= 1e-12 * max(1.0, abs(theta(t, ctx)))

    def test_theta_ratio_pseudo_constant(self, ctx, rng):
        alpha, beta = 0.37 + 0.11j, -0.52 + 0.2j
        qa, qb = cmath.exp(alpha * cmath.log(ctx.q)), cmath.exp(beta * cmath.log(ctx.q))

        def C(t):
            return t ** (alpha - beta) * theta(qa * t, ctx) / theta(qb * t, ctx)

        for _ in range(10):
            t = rng.uniform(0.2, 1.5)
            assert abs(C(ctx.q * t) - C(t)) <= 1e-10 * abs(C(t))


class TestJackson:
    def test_geometric(self):
        ctx = QContext(0.5)
        assert _grid_sum([1.0], [[0.0]], [[0.0]], ctx) == [1 + 0j]

    def test_non_decaying(self, ctx):
        (value,) = _grid_sum([1.0], [[0.0]], [[0.0]], ctx, weighted=False)
        assert isinstance(value, NonDecayingSumError)

    def test_degree2_series_representation(self, ctx, rng):
        # int_0^{q/a2} t^alpha prod(...)dq t/t against its 3phi2 form
        from qhyp.qseries import PhiSpec, phi
        from qhyp.sampling import draw_params2

        p = draw_params2(rng, ctx)
        q = complex(ctx.q)
        x = 0.2 * min(abs(p.a1), abs(p.a2)) / (abs(q) * abs(p.B))
        alpha = p.alpha
        lhs = _one(_grid_sum([q / p.a2], [[p.A * x, p.a1, p.a2]], [[p.B * x, p.b1, p.b2]],
                             ctx, alpha=alpha, weighted=False))
        qa = cmath.exp(alpha * cmath.log(q))
        ser = qpoch_ratio([q * p.A * x / p.a2], [q * p.B * x / p.a2], ctx) * phi(
            PhiSpec(
                [q * p.b1 / p.a2, q * p.b2 / p.a2, q * p.B * x / p.a2],
                [q * p.a1 / p.a2, q * p.A * x / p.a2],
                qa,
            ),
            ctx,
        )
        const = (
            (1 - q)
            * qpoch_ratio([q, q * p.a1 / p.a2], [q * p.b1 / p.a2, q * p.b2 / p.a2], ctx)
            * cmath.exp(alpha * cmath.log(q / p.a2))
        )
        assert abs(lhs - const * ser) <= 1e-10 * abs(lhs)


class TestJacksonBilateral:
    def test_reduces_to_onesided_at_vanishing_endpoint(self, ctx, rng):
        """From tau = q / a1 the descending grid meets the zero of (a1 t)_inf
        at its first point, so the n < 0 tail adds nothing."""
        a1 = rand_complex(rng)
        nums, dens = [[a1, 0.3]], [[5.0, 4.0 + 1.0j]]
        two_sided = _one(_grid_sum([ctx.q / a1], nums, dens, ctx, bilateral=True))
        one_sided = _one(_grid_sum([ctx.q / a1], nums, dens, ctx))
        assert abs(two_sided - one_sided) <= 1e-12 * max(1.0, abs(one_sided))

    def test_non_decaying(self, ctx):
        """dq t of 1: the ascending side converges, the descending one grows."""
        (value,) = _grid_sum([1.0], [[0.5]], [[0.5]], ctx, bilateral=True)
        assert isinstance(value, NonDecayingSumError)


class TestTailRule:
    def test_stops_at_third_consecutive_small_term(self, ctx):
        tail = _Tail(ctx)
        mags = [1.0, 5.0, 1e-17, 1e-17, 2.0, 1e-16, 1e-18, 0.0, 1.0]
        assert [tail.done(m) for m in mags[:8]] == [False] * 7 + [True]

    def test_floor_ends_a_sum_of_tiny_terms_after_three(self, ctx):
        """The running maximum is floored at 1, so terms that all lie below
        tail_tol (1e-16) end a sum after three of them, whatever its size:
        here 3e-20 of a true 1e-17."""
        tail = _Tail(ctx)
        assert [tail.done(1e-20 * 0.999**n) for n in range(3)] == [False, False, True]
        got = _one(_ratio_sum([1e-20], lambda rows, ns: np.full((1, len(ns)), 0.999 + 0j), ctx,
                              ([0.999], [0.0], None, None), "tiny"))
        assert got == pytest.approx(1e-20 * (1 + 0.999 + 0.999**2), rel=1e-15)

    @given(
        mags=st.lists(
            st.one_of(st.integers(-30, 6).map(lambda e: 10.0**e),
                      st.sampled_from([0.0, np.inf, np.nan])),
            min_size=1, max_size=80,
        ),
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=20),
    )
    def test_scalar_and_chunked_stop_at_the_same_term(self, mags, sizes):
        ctx = QContext(0.5, tail_tol=1e-12)
        scalar = _Tail(ctx)
        expected = next((i for i, m in enumerate(mags) if scalar.done(m)), None)
        chunked = _Tail(ctx)
        bounds = np.cumsum(sizes)
        got, start = None, 0
        for end in [int(b) for b in bounds if b < len(mags)] + [len(mags)]:
            hit = chunked.first_stop(np.array(mags[start:end]))
            if hit is not None:
                got = start + hit
                break
            start = end
        assert got == expected


class TestBatchedSeriesKernel:
    """The series kernel sums many rows in one batch.  Here the rows cross
    chunk boundaries and leave the batch at different chunks: terminating
    rows whose first chunk is read off a fast rate while their ratios decay
    slowly, beside rows that close their tail in closed form."""

    row = st.tuples(st.floats(0.3, 0.95), st.floats(-math.pi, math.pi),
                    st.one_of(st.none(), st.integers(0, 700)))

    @staticmethod
    def loop(t0, ratio, last, ctx):
        """The row summed term by term, stopped by the tail rule or at ``last``."""
        total, t, tail = 0.0 + 0.0j, complex(t0), _Tail(ctx)
        for n in range(ctx.max_terms):
            total += t
            if n == last or tail.done(abs(t)):
                return total
            t *= complex(ratio(np.array([n]))[0])
        raise NonDecayingSumError("budget")

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(row, min_size=1, max_size=6))
    def test_rows_are_the_same_alone_and_match_the_loop(self, rows):
        ctx = QContext(0.5, max_terms=4096)
        zs = [u * cmath.exp(1j * phase) for u, phase, _ in rows]
        lasts = [last for _, _, last in rows]

        def ratios(r, ns):  # z (1 + 0.3 q^n): the limit is z, the reach 0.3 |z|
            return zs[r] * (1.0 + 0.3 * 0.5**ns)

        def step(live, ns):
            return np.array([ratios(r, ns) for r in live])

        # a terminating row's first chunk is read off a fast rate
        rates = [0.1 if last is not None else z for z, last in zip(zs, lasts)]
        reaches = [0.3 * abs(z) for z in zs]
        t0s = [1.0 + 0.5j] * len(rows)
        ends = [ctx.max_terms if last is None else last for last in lasts]
        batch = _ratio_sum(t0s, step, ctx, (rates, reaches, ends, None), "row")
        for r, got in enumerate(batch):
            alone = _ratio_sum([t0s[r]], lambda live, ns, r=r: ratios(r, ns)[None], ctx,
                               ([rates[r]], [reaches[r]], [ends[r]], None), "row")[0]
            assert got == alone
            want = self.loop(t0s[r], lambda ns, r=r: ratios(r, ns), lasts[r], ctx)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)) / (1 - abs(zs[r]))

    def test_run_of_small_terms_across_a_chunk_boundary(self):
        """Terms 0-29 are 1, terms 30-32 are 1e-20 and the terms after are 1
        again.  The first chunk of this terminating row holds 32 terms, so
        the rule's third small term in a row is the first of the second
        chunk: the row stops there, as the loop does, alone or in a batch."""
        ctx = QContext(0.5)
        jumps = {29: 1e-20, 32: 1e20}

        def ratios(ns):
            return np.array([jumps.get(int(n), 1.0) for n in ns], dtype=complex)

        want = self.loop(1.0, ratios, 100, ctx)
        assert want == 30.0
        for rows in (1, 3):
            got = _ratio_sum([1.0] * rows, lambda live, ns: np.array([ratios(ns)] * len(live)),
                             ctx, ([0.1] * rows, [0.0] * rows, [100] * rows, None), "row")
            assert got == [want] * rows


def batch_plans(keys, ctx, what):
    """The plans of the rows (rate, reach, last, pole) ``keys`` (None: none)
    as one batch of the series kernel makes them: the array plans
    (qcore._plans) row by row, and a row whose pole comes before its end the
    PoleError that qcore._ratio_sum gives it."""
    rates, reaches, lasts, poles = zip(*keys)
    lasts = np.array([ctx.max_terms if v is None else v for v in lasts])
    poles = np.array([ctx.max_terms if v is None else v for v in poles])
    plans = qcore._plans(np.array(rates, dtype=complex), np.array(reaches, dtype=float), lasts, ctx)
    return [PoleError(f"{what}: a denominator factor vanishes at n = {pole}") if pole < last
            else tuple(col[r].item() for col in plans)
            for r, (last, pole) in enumerate(zip(lasts, poles))]


def outcome_of_plan(plan):
    return (type(plan), str(plan)) if isinstance(plan, Exception) else plan


def row_orders(rows, ctx):
    """The termination order of each row of ``rows`` (lists of values) from
    one scan of all their values: the least of its values', None for none."""
    orders = _termination_orders([v for row in rows for v in row], ctx).tolist()
    out, k = [], 0
    for row in rows:
        best = min(orders[k:k + len(row)], default=ctx.max_terms)
        out.append(None if best == ctx.max_terms else best)
        k += len(row)
    return out


class TestBatchOrders:
    """A batch scans all its parameter values at once and plans all its
    rows at once; both give what the scalar loops kept in conftest give row
    by row, also at the edge of the zero test."""

    # c = q^-n (1 + delta), |delta| about 1e-12, where 1 - c q^n is zero or
    # not by a hair; values drawn from a small pool, so rows share them
    near = st.tuples(st.integers(0, 60), st.floats(0.3, 3.0), st.floats(-math.pi, math.pi))

    @settings(max_examples=150, deadline=None)
    @given(q=st.floats(0.3, 0.7), pool=st.lists(near, min_size=1, max_size=6),
           picks=st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=4),
                          min_size=1, max_size=10))
    def test_batch_orders_equal_row_scans(self, q, pool, picks):
        ctx = QContext(q)
        values = [q**-n * (1 + 1e-12 * r * cmath.exp(1j * t)) for n, r, t in pool]
        rows = [[values[k % len(values)] for k in pick] for pick in picks]
        assert row_orders(rows, ctx) == [ref_termination_order(row, ctx) for row in rows]
        keys = [(0.5, abs(row[0]), ref_termination_order(row, ctx),
                 ref_termination_order(row[1:], ctx)) for row in rows]
        assert ([outcome_of_plan(plan) for plan in batch_plans(keys, ctx, "row")]
                == [outcome_of_plan(ref_row_plan(*key, ctx, "row")) for key in keys])

    # a value q^-n (1 + delta) at complex q, |delta| about 1e-12 on both
    # sides of the zero test; or a value the loop treats apart
    value = st.one_of(
        st.tuples(st.integers(0, 80), st.floats(0.0, 3.0), st.floats(-math.pi, math.pi)),
        st.sampled_from([complex("nan"), complex(1.0, float("nan")), complex("inf"),
                         complex(float("inf"), float("nan")), complex(1e300, -3e299), 0.0,
                         0.49999999999999994, 0.5, -0.5j, 1.0]))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(q=st.tuples(st.floats(0.3, 0.9), st.floats(-math.pi, math.pi)),
           drawn=st.lists(value, min_size=1, max_size=12), budget=st.integers(1, 600))
    @example(q=(0.5, 0.0), drawn=[(1, 1.0, 0.0), (3, 0.5, 2.0)], budget=512)
    @example(q=(0.5, 0.3), drawn=[complex("nan"), complex("inf"), complex(1e300, -3e299)],
             budget=512)
    @example(q=(0.45, 2.0), drawn=[(60, 2.0, 1.0), (61, 1.0, -1.0)], budget=30)
    @example(q=(0.99, 0.0), drawn=[complex(1e300, -3e299), (20, 1.0, 0.5)], budget=600)
    def test_scan_is_the_loop_value_by_value(self, q, drawn, budget):
        """Each order of one scan is the kept loop's for its value alone: at
        complex q, a hair either side of the zero test, NaN, infinite and
        huge values, and budgets that end a scan early."""
        q = q[0] * cmath.exp(1j * q[1])
        ctx = QContext(q, max_terms=budget)
        values = [q**-v[0] * (1 + 1e-12 * v[1] * cmath.exp(1j * v[2])) if isinstance(v, tuple)
                  else v for v in drawn]
        got = _termination_orders(values, ctx).tolist()
        want = [ref_termination_order([v], ctx) for v in values]
        assert got == [ctx.max_terms if w is None else w for w in want]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(q=st.floats(0.3, 0.7), k=st.integers(1, 80), nudge=st.integers(-8, 8),
           rate=st.one_of(st.floats(0.0, 1.2), st.sampled_from([1.0, float("nan")])),
           last=st.one_of(st.none(), st.integers(0, 511)),
           pole=st.one_of(st.none(), st.integers(0, 511)))
    @example(q=0.5, k=40, nudge=0, rate=0.5, last=None, pole=None)
    @example(q=0.5, k=40, nudge=1, rate=0.0, last=None, pole=None)
    @example(q=0.45, k=12, nudge=-1, rate=0.9, last=2, pole=None)
    @example(q=0.45, k=12, nudge=0, rate=0.9, last=5, pole=3)
    def test_array_plans_are_the_row_plans(self, q, k, nudge, rate, last, pole):
        """The array plans of a batch are the kept scalar plans row by row,
        where the quotient that fixes the closure index lies within 1e-15
        of an integer k too (the reach is chosen so that it does, nudged by
        a few ulps), and for rates that do not decay.  Orders are below the
        budget of 512 terms, as a scan gives them."""
        ctx = QContext(q)
        lq = -math.log(q)
        reach = math.exp(k * lq) * (1.0 - q) * ctx.tail_tol / 16.0 * (1.0 + nudge * 2.0**-52)
        quotient = math.log(16.0 * reach / ((1.0 - q) * ctx.tail_tol)) / lq
        assert abs(quotient - k) <= 1e-15 * k * 20
        keys = [(rate, reach, last, pole), (0.5 * rate, 2.0 * reach, None, None),
                (rate, float("inf"), last, None), (rate, float("nan"), None, pole)]
        assert ([outcome_of_plan(plan) for plan in batch_plans(keys, ctx, "row")]
                == [outcome_of_plan(ref_row_plan(*key, ctx, "row")) for key in keys])


# the itemsizes the callers of _by_blocks pass: complex grid and Pochhammer
# blocks, extended-precision series blocks (32 bytes on x86-64, 16 where
# long double is plain double)
ITEMSIZES = sorted({np.dtype(complex).itemsize, np.dtype(np.clongdouble).itemsize})


class TestBlocks:
    """_by_blocks takes rows narrowest first and fills each block while rows
    x factors x its widest first chunk x itemsize stay within _BATCH_BYTES;
    a batch within the budget is one block."""

    @staticmethod
    def blocked(widths, factors, itemsize):
        """The blocks _by_blocks makes of rows 0, 1, ..., and its entries."""
        blocks = []

        def kernel(block):
            blocks.append(list(block))
            return [10 * row for row in block]

        return blocks, _by_blocks(kernel, list(range(len(widths))), factors * itemsize, widths)

    def test_blocks_are_full_and_entries_keep_input_order(self):
        rng = np.random.default_rng(5)
        for _ in range(400):
            widths = rng.integers(1, 3000, int(rng.integers(0, 300))).tolist()
            factors = int(rng.integers(1, 20))
            itemsize = int(rng.choice(ITEMSIZES))
            blocks, out = self.blocked(widths, factors, itemsize)
            assert out == [10 * row for row in range(len(widths))]
            assert sorted(row for block in blocks for row in block) == list(range(len(widths)))
            if len(blocks) > 1:  # else the batch is one block, in input order
                order = [row for block in blocks for row in block]
                assert [widths[row] for row in order] == sorted(widths)
            for block, after in zip(blocks, blocks[1:] + [None]):
                cost = len(block) * factors * max(widths[row] for row in block) * itemsize
                assert len(block) == 1 or cost <= _BATCH_BYTES
                if after is not None:  # the next row would not have fitted
                    assert (len(block) + 1) * factors * widths[after[0]] * itemsize > _BATCH_BYTES

    def test_the_budget_counts_bytes(self):
        """A batch whose first chunk is the budget exactly at 16 bytes an
        element is one block at 16 and two at 32; one more row makes it two
        at 16."""
        factors, width = 8, 64
        rows = _BATCH_BYTES // (factors * width * 16)
        for itemsize, count in ((16, 1), (32, 2)):
            blocks, _ = self.blocked([width] * rows, factors, itemsize)
            assert len(blocks) == count
        blocks, _ = self.blocked([width] * (rows + 1), factors, 16)
        assert len(blocks) == 2

    def test_widths_are_read_for_every_batch_of_rows(self):
        """Widths given as a function are asked for by every batch of two
        rows or more, not by an empty or one-row batch, and cut it as the
        list would."""
        asked = []

        def widths():
            asked.append(True)
            return [_CHUNK] * 40

        for rows in ([], [0]):
            assert _by_blocks(lambda block: list(block), rows, 16 * 16, widths) == rows
        assert not asked
        assert _by_blocks(lambda block: list(block), [0, 1], 16 * 16, widths) == [0, 1]
        assert len(asked) == 1  # a batch this small is one block, but still asks
        for itemsize in ITEMSIZES:
            blocks, _ = self.blocked([_CHUNK] * 40, 16, itemsize)
            cut = []
            _by_blocks(lambda block: cut.append(list(block)) or list(block), list(range(40)),
                       16 * itemsize, widths)
            assert cut == blocks

    def test_pochhammer_widths_are_first_chunks(self, ctx, monkeypatch):
        """The width _pochhammer_product hands _by_blocks for a row is its
        most factors of any argument, at most _CHUNK: the columns it builds
        for the row alone, in one chunk."""
        args = [[0.5, 2.0], [1e-20, 0.0], [1e9, 0.1], [float("nan"), 1.0], [1e30, 1.0]]
        counts = [max(sum(abs(a) * abs(ctx.q) ** k >= ctx.tail_tol for k in range(400))
                      for a in row) for row in args]
        assert counts[2] < _CHUNK < counts[4]
        handed, by_blocks = [], qcore._by_blocks

        def recorded(kernel, rows, column, widths):
            handed.append(widths() if callable(widths) else widths)
            return by_blocks(kernel, rows, column, widths)

        monkeypatch.setattr(qcore, "_by_blocks", recorded)
        _pochhammer_product(args, 1, ctx)
        assert handed == [[min(c, _CHUNK) for c in counts]]

    def test_equal_widths_give_consecutive_blocks(self):
        """At width _CHUNK for every row, as the Pochhammer prefactors pass it,
        the blocks are consecutive runs of max(1, budget // (factors x _CHUNK
        x itemsize))."""
        for (rows, factors), itemsize in itertools.product(
                ((300, 16), (100, 4), (5, 400)), ITEMSIZES):
            size = max(1, _BATCH_BYTES // (factors * _CHUNK * itemsize))
            blocks, _ = self.blocked([_CHUNK] * rows, factors, itemsize)
            assert blocks == [list(range(lo, min(lo + size, rows))) for lo in range(0, rows, size)]


def phi_batch(rng, rows):
    """3phi2 rows of modulus-0.4-1.6 parameters, |z| in [0.2, 0.9]: enough
    of them fill blocks of _BATCH_BYTES."""
    return [([rand_complex(rng) for _ in range(3)], [rand_complex(rng) for _ in range(2)],
             rand_complex(rng, 0.2, 0.9)) for _ in range(rows)]


class TestChunks:
    """The kernels' large chunks: each stays within _BATCH_BYTES, and no
    value depends on what ran before it, beside it or in another thread."""

    def test_every_chunk_stays_within_the_budget(self):
        """Rows of ratio 0.999 that end after terms 400-3000 run in many
        chunks; every chunk's step factors (rows still summing x columns x
        the column's bytes) stay within _BATCH_BYTES, wider as rows end, and
        each row is what it is alone, whose chunks differ.  The rows are
        planned off a fast rate, so their first chunks are _MIN_CHUNK wide
        and all 27 share one block."""
        ctx = QContext(0.5, max_terms=4096)
        column = 14 * np.dtype(np.clongdouble).itemsize
        lasts = [400 + 100 * k for k in range(27)]
        chunks = []

        def step(rows, ns):
            chunks.append((len(rows), len(ns)))
            return np.full((len(rows), len(ns)), 0.999 + 0.001j, dtype=np.clongdouble)

        batch = _ratio_sum([1.0] * len(lasts), step, ctx, ([0.1] * 27, [0.0] * 27, lasts, None), "row",
                           column=column)
        assert len(chunks) > 10 and len({width for _, width in chunks}) > 2
        for rows, width in chunks:
            assert width <= _MIN_CHUNK or rows * width * column <= _BATCH_BYTES
        for last, got in zip(lasts, batch):
            alone = _ratio_sum([1.0], lambda rows, ns: np.full(
                (len(rows), len(ns)), 0.999 + 0.001j, dtype=np.clongdouble),
                ctx, ([0.1], [0.0], [last], None), "row", column=column)
            assert repr(got) == repr(alone[0])

    def test_batches_between_leave_no_trace(self):
        """A series batch, then other batches of every kernel, then the first
        batch again: the same bits, so no array is read before it is
        written, whatever the heap held."""
        rng = np.random.default_rng(31)
        ctx = QContext(0.5)
        first = phi_batch(rng, 200)
        before = [repr(v) for v in _phi_rows(first, ctx)]
        _w87_rows([[rand_complex(rng) for _ in range(6)] + [rand_complex(rng, 0.2, 0.8)]
                   for _ in range(150)], ctx)
        _phi_rows(phi_batch(rng, 300), QContext(0.45))
        _pochhammer_product([[rand_complex(rng, 0.1, 3.0) for _ in range(8)] for _ in range(100)],
                            4, ctx)
        _grid_sum([rand_complex(rng) for _ in range(100)],
                  [[rand_complex(rng) for _ in range(4)] for _ in range(100)],
                  [[rand_complex(rng) for _ in range(4)] for _ in range(100)], ctx)
        assert [repr(v) for v in _phi_rows(first, ctx)] == before

    def test_rows_that_fail_get_their_own_outcomes(self):
        """Batches of several blocks, with rows that end in PoleError,
        NonDecayingSumError, BudgetExceededError and UnsupportedCaseError
        among rows that succeed: each row still gets its outcome."""
        rng = np.random.default_rng(32)
        q = 0.5
        ctx = QContext(q, max_terms=40)
        rows = phi_batch(rng, 120)
        rows[7] = ([0.3, 0.5, 0.2], [q**-3, 0.6], 0.4)  # a pole at n = 3
        rows[50] = ([0.3, 0.5, 0.2], [0.7, 0.6], 0.999)  # 40 terms do not reach the tail
        got = _phi_rows(rows, ctx)
        assert isinstance(got[7], PoleError) and isinstance(got[50], NonDecayingSumError)
        args = [[rand_complex(rng) for _ in range(8)] for _ in range(60)]
        args[3][0], args[9][5] = 300.0, q**-2  # 61 factors, past the budget; a pole
        got = _pochhammer_product(args, 4, QContext(q, max_terms=60))
        assert isinstance(got[3], BudgetExceededError) and isinstance(got[9], PoleError)
        taus = [rand_complex(rng) for _ in range(80)]
        nums = [[rand_complex(rng) for _ in range(4)] for _ in range(80)]
        nums[11][0] = 1 / taus[11]  # the integrand vanishes at the grid start
        got = _grid_sum(taus, nums, [[rand_complex(rng) for _ in range(4)] for _ in range(80)],
                        QContext(q))
        assert isinstance(got[11], UnsupportedCaseError)

    def test_errors_raised_inside_a_chunk_propagate(self):
        """An error raised inside a large chunk, by its step or by an inner
        series of appell_phi1's weights, leaves the kernel as it is raised."""
        ctx = QContext(0.5, max_terms=4096)
        def step(rows, ns):
            if ns[0] > 1000:
                raise ZeroDivisionError("a step that fails")
            return np.full((len(rows), len(ns)), 0.999 + 0j, dtype=np.clongdouble)

        with pytest.raises(ZeroDivisionError):
            _ratio_sum([1.0] * 8, step, ctx, ([0.999] * 8, [0.0] * 8, [3000] * 8, None), "row")
        # the outer chunk of 0.9^m terms is ~300 wide; its inner
        # 2phi1 rows at x2 = 0.995 need more than 200 terms
        with pytest.raises(NonDecayingSumError):
            appell_phi1(0.3, 0.5, 0.7, 0.8, 0.9, 0.995, QContext(0.9, max_terms=200))

    def test_threads_print_what_one_thread_prints(self):
        """Two threads verifying the seed-0 heine catalogue at once print the
        same bytes as one thread alone."""
        job = {"equation": "heine", "solutions": "heine.all", "seed": 0}

        def run(outs, i):
            out = io.StringIO()
            cli.run_job("verify", job, out)
            outs[i] = out.getvalue()

        alone = [None]
        run(alone, 0)
        both = [None, None]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(both, i)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert both == alone * 2


def scalar_qpoch_ratio(nums, dens, ctx):
    """Reference for qpoch_ratio, factor by factor: column k multiplies the
    numerator factors 1 - n_i q^k, then divides by the denominator factors,
    each while |arg q^k| >= tail_tol."""
    nums = [complex(v) for v in nums]
    dens = [complex(v) for v in dens]
    q = complex(ctx.q)
    result = 1.0 + 0.0j
    wn = nums[:]
    wd = dens[:]
    for _ in range(ctx.max_terms):
        if all(abs(w) < ctx.tail_tol for w in wn) and all(
            abs(w) < ctx.tail_tol for w in wd
        ):
            return result
        for i, w in enumerate(wn):
            if abs(w) >= ctx.tail_tol:
                result *= 1.0 - w
                wn[i] = w * q
        for i, w in enumerate(wd):
            if abs(w) >= ctx.tail_tol:
                factor = 1.0 - w
                if abs(factor) <= 1e-12 * (1.0 + abs(w)):
                    raise PoleError(f"denominator q-Pochhammer factor vanishes: arg={w}")
                result /= factor
                wd[i] = w * q
    raise BudgetExceededError("q-Pochhammer ratio did not converge within budget")


def scalar_scan(args, ctx):
    """(columns the scalar loop runs, condition number kappa of the product).

    kappa sums (k + 1) |w| / |1 - w| over the factors 1 - w, w = a q^k: the
    loops round q^k differently (k successive products against binary
    powers), and kappa bounds how much the product amplifies a relative
    error of order k eps in q^k.
    """
    need, kappa = 0, 0.0
    for a in args:
        w, k = complex(a), 0
        while abs(w) >= ctx.tail_tol and k <= 4096:
            kappa += (k + 1) * abs(w) / max(abs(1 - w), 1e-300)
            w, k = w * ctx.q, k + 1
        need = max(need, k)
    return need, kappa


@st.composite
def ratio_cases(draw):
    """(q, nums, dens, max_terms): zeros, NaN and infinities, magnitudes up to
    1e300, denominators within 1e-13 of q^-k, budgets around the need."""
    q = draw(st.floats(0.2, 0.95)) * cmath.exp(1j * draw(st.sampled_from([0.0, 0.3, -2.0])))
    phase = st.floats(-math.pi, math.pi).map(lambda t: cmath.exp(1j * t))
    finite = st.builds(lambda e, u: 10.0**e * u, st.floats(-20, 300), phase)
    special = st.sampled_from([0j, complex(math.nan, 0), complex(math.inf, 0),
                               complex(-math.inf, 1), complex(0, math.inf)])
    near_pole = st.builds(lambda k, d: q**-k * (1 + d), st.integers(0, 12),
                          st.builds(lambda m, u: m * u, st.floats(0, 1e-13), phase))
    # a numerator near q^-k is a near-zero of the ratio, known only to rounding
    nums = draw(st.lists(st.one_of(finite, finite, special), max_size=4))
    dens = draw(st.lists(st.one_of(finite, finite, special, near_pole), max_size=4))
    need, _ = scalar_scan(nums + dens, QContext(q))
    max_terms = draw(st.one_of(st.just(512), st.integers(-2, 2).map(lambda d: max(1, need + d))))
    return q, nums, dens, max_terms


def outcome(fn, nums, dens, ctx):
    try:
        return fn(nums, dens, ctx)
    except (PoleError, BudgetExceededError) as exc:
        return type(exc)


class TestQpochRatio:
    @settings(max_examples=300, deadline=None)
    @given(case=ratio_cases())
    # a pole at k = 2 lies before the budget that the large numerator overruns
    @example(case=(0.5, [1e30], [4.0], 3)).via("pole before budget")
    @example(case=(0.5, [1e30], [4.0], 2)).via("budget before pole")
    def test_matches_scalar_loop(self, case):
        q, nums, dens, max_terms = case
        ctx = QContext(q, max_terms=max_terms)
        # the draws overflow on purpose; both versions must then agree
        with np.errstate(all="ignore"):
            got = outcome(qpoch_ratio, nums, dens, ctx)
            ref = outcome(scalar_qpoch_ratio, nums, dens, ctx)
        if isinstance(ref, type):
            assert got is ref
            return
        assert not isinstance(got, type)
        # kappa eps bounds the rounding of each version; ill-conditioned draws
        # (huge arguments, factors near 0) still check the exception class above
        if scalar_scan(nums + dens, ctx)[1] <= 200:
            assert abs(got - ref) <= 1e-13 * abs(ref)

    def test_matches_direct_quotient(self, ctx, rng):
        nums = [rand_complex(rng) for _ in range(3)]
        dens = [rand_complex(rng) for _ in range(3)]
        lhs = qpoch_ratio(nums, dens, ctx)
        rhs = np.prod([qpoch_inf(v, ctx) for v in nums]) / np.prod(
            [qpoch_inf(v, ctx) for v in dens]
        )
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_stable_for_large_arguments(self, ctx):
        big = 1e6
        val = qpoch_ratio([1.3 * big], [0.9 * big], ctx)
        assert np.isfinite(val.real) and np.isfinite(val.imag)

    def test_denominator_pole(self):
        ctx = QContext(0.5)
        with pytest.raises(PoleError):
            qpoch_ratio([0.3], [ctx.q**-2], ctx)

    def test_nan_argument_exhausts_the_budget_at_once(self):
        """A NaN argument never falls below tail_tol, so no budget suffices;
        the kernel builds only the other arguments' columns before it says
        so, not every column up to max_terms."""
        ctx = QContext(0.5, max_terms=10**8)
        nan = complex(math.nan, 0)
        start = time.perf_counter()
        for nums, dens in (([nan], []), ([0.3], [nan]), ([nan, 2.0], [0.7 + 0.2j])):
            with pytest.raises(BudgetExceededError):
                qpoch_ratio(nums, dens, ctx)
        with pytest.raises(BudgetExceededError):
            qpoch_inf(nan, ctx)
        assert time.perf_counter() - start < 1.0
        # a pole of another argument still comes before the budget error
        with pytest.raises(PoleError):
            qpoch_ratio([nan], [ctx.q**-3], ctx)


def mp_qpoch(a, q):
    return mpmath.qp(mpmath.mpc(a), mpmath.mpc(q), maxterms=10**5)


class TestQpochOracle:
    """qpoch_ratio and qpoch_inf against mpmath at 40 digits.  Arguments keep
    |1 - a q^k| away from 0, where any double-precision product loses digits."""

    args = st.builds(lambda r, t: r * cmath.exp(1j * t), st.floats(1e-3, 10.0),
                     st.one_of(st.floats(0.3, math.pi), st.floats(-math.pi, -0.3)))

    @settings(max_examples=60, deadline=None)
    @given(q=st.floats(0.1, 0.8), nums=st.lists(args, max_size=4), dens=st.lists(args, max_size=4))
    def test_ratio(self, q, nums, dens):
        ctx = QContext(q)
        with mpmath.workdps(40):
            exact = mpmath.fprod(mp_qpoch(a, q) for a in nums) / mpmath.fprod(
                mp_qpoch(d, q) for d in dens)
            got = qpoch_ratio(nums, dens, ctx)
            assert abs(got - exact) <= 1e-13 * abs(exact)

    @settings(max_examples=60, deadline=None)
    @given(q=st.floats(0.1, 0.8), a=args)
    def test_inf(self, q, a):
        with mpmath.workdps(40):
            exact = mp_qpoch(a, q)
            assert abs(qpoch_inf(a, QContext(q)) - exact) <= 1e-13 * abs(exact)

    def test_many_column_chunks(self):
        # at q = 0.99 an argument of modulus 0.5 needs ~3,600 factors
        ctx = QContext(0.99, max_terms=8192)
        nums, dens = [0.5 + 0.2j, -0.3j], [0.7 - 0.1j]
        with mpmath.workdps(40):
            first, second, third = (mp_qpoch(a, 0.99) for a in nums + dens)
            exact = first * second / third
            assert abs(qpoch_ratio(nums, dens, ctx) - exact) <= 1e-13 * abs(exact)
            assert abs(qpoch_inf(nums[0], ctx) - first) <= 1e-13 * abs(first)
