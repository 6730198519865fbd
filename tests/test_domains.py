"""Tests for domains and the closed-form overlap matrix."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from superosc import (
    Context,
    Domain,
    DomainError,
    overlap_matrix,
    parse_domain_spec,
    symmetrize_domain,
)

from oracles import quad_overlap_entry

CTX = Context(15)


class TestDomain:
    def test_canonicalization_sorts_and_merges(self):
        d = Domain(((0.5, 1.0), (-1.0, 0.5)))
        assert len(d.intervals) == 1
        assert abs(d.intervals[0][0] + 1) < 1e-15
        assert abs(d.intervals[0][1] - 1) < 1e-15

    def test_overlapping_intervals_rejected(self):
        with pytest.raises(DomainError):
            Domain(((0, 1), (0.5, 2)))

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            Domain(((-4, 1),))

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(DomainError):
            Domain(((1, 0.5),))

    def test_measure(self):
        d = Domain(((-1, -0.5), (0.5, 1)))
        assert abs(d.measure - 1) < 1e-15


class TestSymmetrize:
    def test_annulus(self):
        d = symmetrize_domain("0.5", 1)
        assert len(d.intervals) == 2
        assert abs(d.intervals[0][0] + 1) < 1e-15
        assert abs(d.intervals[0][1] + mpf("0.5")) < 1e-15
        assert abs(d.intervals[1][0] - mpf("0.5")) < 1e-15

    def test_zero_inner_radius_degenerates(self):
        d = symmetrize_domain(0, 1)
        assert len(d.intervals) == 1

    def test_outer_radius_pi(self):
        d = symmetrize_domain("0.1", mp.pi)
        assert len(d.intervals) == 2

    def test_bad_radii_rejected(self):
        with pytest.raises(ValueError):
            symmetrize_domain(1, 0.5)


class TestParse:
    def test_two_intervals(self):
        d = parse_domain_spec("-1,-0.5;0.5,1")
        assert len(d.intervals) == 2

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_domain_spec("1;2;3")


class TestOverlapMatrix:
    def test_full_period_gives_identity(self):
        d = Domain(((-mp.pi, mp.pi),))
        delta = overlap_matrix(d, 8, CTX)
        for i in range(9):
            for j in range(9):
                expected = 1 if i == j else 0
                assert abs(delta[i, j] - expected) < 1e-12

    def test_corner_entry_single_interval(self):
        a = mpf("0.8")
        delta = overlap_matrix(symmetrize_domain(0, a), 4, CTX)
        assert abs(delta[0, 0] - a / mp.pi) < 1e-14

    def test_corner_entry_annulus(self):
        a, b = mpf("0.5"), mpf("1.25")
        delta = overlap_matrix(symmetrize_domain(a, b), 4, CTX)
        assert abs(delta[0, 0] - (b - a) / mp.pi) < 1e-14

    def test_entries_match_quadrature_oracle(self):
        rng = random.Random(3)
        d = Domain(((-2.0, -0.7), (0.3, 1.9)))
        delta = overlap_matrix(d, 9, CTX)
        for _ in range(8):
            m = rng.randrange(10)
            k = rng.randrange(10)
            reference = quad_overlap_entry(d.intervals, m, k)
            assert abs(delta[m, k] - reference) <= 1e-12 * max(abs(reference), mpf("1e-6"))

    def test_symmetric_exactly(self):
        delta = overlap_matrix(Domain(((-0.3, 1.1),)), 6, CTX)
        for i in range(7):
            for j in range(7):
                assert delta[i, j] == delta[j, i]

    def test_band_limit_zero_rejected(self):
        with pytest.raises(ValueError):
            overlap_matrix(symmetrize_domain(0, 1), 0, CTX)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_quadratic_form_contracts(self, seed):
        rng = random.Random(seed)
        lo = rng.uniform(-3, 2)
        hi = rng.uniform(lo + 0.05, 3)
        lo, hi = max(lo, -float(mp.pi) + 1e-9), min(hi, float(mp.pi) - 1e-9)
        if hi - lo < 0.05:
            return
        delta = overlap_matrix(Domain(((lo, hi),)), 6, CTX)
        x = mp.matrix([rng.uniform(-1, 1) for _ in range(7)])
        form = (x.T * (delta.entries * x))[0]
        norm = (x.T * x)[0]
        assert -1e-13 * norm <= form <= norm * (1 + 1e-13)

    def test_contraction_on_100_random_vectors(self):
        rng = random.Random(11)
        delta = overlap_matrix(symmetrize_domain("0.4", "1.7"), 8, CTX)
        for _ in range(100):
            x = mp.matrix([rng.uniform(-1, 1) for _ in range(9)])
            form = (x.T * (delta.entries * x))[0]
            norm = (x.T * x)[0]
            assert -1e-13 * norm <= form <= norm * (1 + 1e-13)

    def test_additive_over_disjoint_pieces(self):
        d1 = Domain(((-1.5, -0.9),))
        d2 = Domain(((0.2, 0.8),))
        union = Domain(((-1.5, -0.9), (0.2, 0.8)))
        a = overlap_matrix(d1, 5, CTX)
        b = overlap_matrix(d2, 5, CTX)
        u = overlap_matrix(union, 5, CTX)
        for i in range(6):
            for j in range(6):
                assert abs(u[i, j] - (a[i, j] + b[i, j])) < 1e-14

    def test_trace_full_period(self):
        delta = overlap_matrix(Domain(((-mp.pi, mp.pi),)), 7, CTX)
        trace = sum(delta[i, i] for i in range(8))
        assert abs(trace - 8) < 1e-12

    @pytest.mark.parametrize("domain, most", [
        (symmetrize_domain(0, 1), 80),        # one interval: 2N moments, 2 sines each
        (symmetrize_domain("0.5", 1), 160),   # two intervals
    ])
    def test_sine_calls_scale_with_moments_not_entries(self, monkeypatch,
                                                       domain, most):
        calls = []
        sin = mp.sin

        def counting_sin(x):
            calls.append(x)
            return sin(x)

        monkeypatch.setattr(mp, "sin", counting_sin)
        overlap_matrix(domain, 20, CTX)
        assert 0 < len(calls) <= most
