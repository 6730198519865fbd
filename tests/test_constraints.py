"""Tests for constraint sets, rank reduction, and the rotated frame."""

import ast
import pathlib
import random

import pytest
from mpmath import mp, mpf

from superosc import constraints
from superosc import (
    ConstraintMatrix,
    ConstraintSet,
    Context,
    FourierCosineSignal,
    InfeasibleConstraints,
    OverlapMatrix,
    RankDeficientConstraints,
    RotatedFrame,
    alternating_constraints,
    constraint_matrix,
    evaluate,
    orthonormal_frame,
    overlap_matrix,
    reduce_rank,
    symmetrize_domain,
)

from oracles import min_norm_interpolant

CTX = Context(15)


class TestAlternating:
    def test_unit_interval_five_points(self):
        cs = alternating_constraints(0, 1, 5)
        expected = [0, mpf("0.2"), mpf("0.4"), mpf("0.6"), mpf("0.8")]
        assert all(abs(p - e) < 1e-15 for p, e in zip(cs.points, expected))
        assert cs.values == (1, -1, 1, -1, 1)

    def test_shifted_interval(self):
        cs = alternating_constraints("0.5", 1, 6)
        for j, p in enumerate(cs.points):
            assert abs(p - (mpf("0.5") + mpf(j) / 12)) < 1e-15
        assert cs.values[:2] == (1, -1)

    def test_single_point(self):
        cs = alternating_constraints("0.25", 2, 1)
        assert cs.points == (mpf("0.25"),)
        assert cs.values == (mpf(1),)

    def test_zero_points_rejected(self):
        with pytest.raises(ValueError):
            alternating_constraints(0, 1, 0)


@pytest.mark.parametrize("build, message", [
    (lambda: ConstraintSet(points=(0, 1), values=(1,)), "equal length"),
    (lambda: ConstraintSet(points=(), values=()), "at least one constraint"),
    (lambda: ConstraintSet(points=(0.5, 0.5), values=(1, -1)), "pairwise distinct"),
    (lambda: alternating_constraints(1, 1, 3), "need lo < hi"),
    (lambda: alternating_constraints(1, 0, 3), "need lo < hi"),
    (lambda: constraint_matrix(alternating_constraints(0, 1, 2), 0, CTX),
     "band limit must be >= 1"),
], ids=["unequal-lengths", "no-points", "repeated-point", "empty-interval",
        "reversed-interval", "band-limit-0"])
def test_invalid_input_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestConstraintMatrix:
    def test_row_at_origin(self):
        cs = alternating_constraints(0, 1, 1)
        cm = constraint_matrix(cs, 6, CTX)
        with CTX.workprec():
            assert abs(cm.entries[0][0] - 1 / mp.sqrt(2 * mp.pi)) < 1e-15
            for m in range(1, 7):
                assert abs(cm.entries[0][m] - 1 / mp.sqrt(mp.pi)) < 1e-15

    def test_row_against_evaluate(self):
        rng = random.Random(5)
        cs = alternating_constraints("0.3", "1.1", 4)
        cm = constraint_matrix(cs, 9, CTX)
        coeffs = mp.matrix([rng.uniform(-2, 2) for _ in range(10)])
        signal = FourierCosineSignal(band_limit=9, coeffs=tuple(coeffs))
        for j in range(4):
            dot = (mp.matrix([cm.entries[j]]) * coeffs)[0]
            assert abs(dot - evaluate(signal, cs.points[j], CTX)) < 1e-13

    def test_half_pi_sign_pattern(self):
        cs = alternating_constraints(0, 2, 1)
        with CTX.workprec():
            cm = constraint_matrix(
                type(cs)(points=(mp.pi / 2,), values=(mpf(1),)), 8, CTX)
            sign = 1
            for m in range(2, 9, 2):
                sign = -sign
                assert abs(cm.entries[0][m] - sign / mp.sqrt(mp.pi)) < 1e-14
            for m in range(1, 9, 2):
                assert abs(cm.entries[0][m]) < 1e-14


class TestReduceRank:
    def _duplicated(self, contradictory):
        cs = alternating_constraints(0, 1, 3)
        cm = constraint_matrix(cs, 5, CTX)
        dup = ConstraintMatrix(n=5, entries=cm.entries + cm.entries[:1],
                               points=cs.points + (cs.points[0],))
        values = list(cs.values) + [-1 if contradictory else 1]
        return dup, values

    def test_duplicate_row_removed(self):
        dup, values = self._duplicated(contradictory=False)
        reduced, kept_values = reduce_rank(dup, values, mpf("1e-10"), CTX)
        assert reduced.m == 3
        assert len(kept_values) == 3

    def test_contradictory_duplicate_rejected(self):
        dup, values = self._duplicated(contradictory=True)
        with pytest.raises(InfeasibleConstraints):
            reduce_rank(dup, values, mpf("1e-10"), CTX)

    def test_full_rank_unchanged(self):
        import numpy as np
        cs = alternating_constraints(0, "1.3", 5)
        cm = constraint_matrix(cs, 8, CTX)
        reduced, values = reduce_rank(cm, cs.values, mpf("1e-10"), CTX)
        assert reduced is cm
        assert values == cs.values
        as_float = np.array([[float(cm.entries[i][j]) for j in range(9)]
                             for i in range(5)])
        assert np.linalg.matrix_rank(as_float, tol=1e-10) == 5

    def test_tolerance_below_rank_tolerance(self):
        # rows 1 and 2 are 1e-12 apart, nearly dependent but kept at
        # tol=1e-20 < CTX.rank_tolerance; the duplicate of row 0 is dropped
        with CTX.workprec():
            points = (mpf(0), mpf("0.5"), mpf("0.5") + mpf("1e-12"))
        cm = constraint_matrix(ConstraintSet(points=points, values=(1, -1, -1)), 5, CTX)
        entries = tuple(cm.entries[j % 3] for j in range(4))
        dup = ConstraintMatrix(n=5, entries=entries, points=points + (points[0],))
        reduced, kept_values = reduce_rank(dup, [1, -1, -1, 1], mpf("1e-20"), CTX)
        assert reduced.points == points
        assert kept_values == (1, -1, -1)

    @pytest.mark.parametrize("values", [(1, -1, 1, 7), (1, -1)])
    def test_target_count_must_match_rows(self, values):
        cm = constraint_matrix(alternating_constraints(0, 1, 3), 5, CTX)
        with pytest.raises(ValueError, match="3 constraint rows"):
            reduce_rank(cm, values, mpf("1e-10"), CTX)

    def test_nonpositive_tolerance_rejected(self):
        cs = alternating_constraints(0, 1, 2)
        cm = constraint_matrix(cs, 4, CTX)
        with pytest.raises(ValueError):
            reduce_rank(cm, cs.values, 0, CTX)


class TestFrame:
    def test_single_constraint_mu_tilde(self):
        # one constraint f(0)=1 at N=10: the fixed coordinate is 1/||row||
        cs = alternating_constraints(0, 1, 1)
        cm = constraint_matrix(cs, 10, CTX)
        frame = orthonormal_frame(cm, cs.values, ctx=CTX)
        with CTX.workprec():
            expected = 1 / mp.sqrt(1 / (2 * mp.pi) + 10 / mp.pi)
        assert abs(frame.mu_tilde[0] - expected) < 1e-14

    def test_rotation_is_orthogonal(self):
        cs = alternating_constraints(0, "1.7", 6)
        cm = constraint_matrix(cs, 11, CTX)
        frame = orthonormal_frame(cm, cs.values, ctx=CTX)
        with CTX.workprec():
            rotation = mp.matrix(frame.rotation)
            product = rotation * rotation.T
            worst = max(abs(product[i, j] - (1 if i == j else 0))
                        for i in range(12) for j in range(12))
        assert worst < 1e-12

    def test_particular_solution_interpolates(self):
        cs = alternating_constraints("0.2", "1.5", 5)
        cm = constraint_matrix(cs, 9, CTX)
        frame = orthonormal_frame(cm, cs.values, ctx=CTX)
        coeffs = frame.particular_solution()
        signal = FourierCosineSignal(band_limit=9, coeffs=tuple(coeffs))
        for t, v in zip(cs.points, cs.values):
            assert abs(evaluate(signal, t, CTX) - v) < 1e-10

    def test_any_free_part_satisfies_constraints(self):
        rng = random.Random(2)
        cs = alternating_constraints(0, 1, 4)
        cm = constraint_matrix(cs, 7, CTX)
        frame = orthonormal_frame(cm, cs.values, ctx=CTX)
        with CTX.workprec():
            free = mp.matrix([rng.uniform(-5, 5) for _ in range(frame.free_dim)])
            coeffs = frame.assemble(free)
        signal = FourierCosineSignal(band_limit=7, coeffs=tuple(coeffs))
        for t, v in zip(cs.points, cs.values):
            assert abs(evaluate(signal, t, CTX) - v) < 1e-11

    def test_mu_tilde_norm_is_min_energy(self):
        cs = alternating_constraints(0, 1, 4)
        cm = constraint_matrix(cs, 8, CTX)
        frame = orthonormal_frame(cm, cs.values, ctx=CTX)
        reference = min_norm_interpolant(cm.entries, cs.values)
        with CTX.workprec():
            mu_tilde = mp.matrix(frame.mu_tilde)
            norm_sq = (mu_tilde.T * mu_tilde)[0]
            ref_energy = (reference.T * reference)[0]
        assert abs(norm_sq - ref_energy) / ref_energy < 1e-12

    def test_square_system_unique_solution(self):
        cs = alternating_constraints(0, "0.9", 6)
        cm = constraint_matrix(cs, 5, CTX)  # M = N+1 = 6
        frame = orthonormal_frame(cm, cs.values, ctx=CTX)
        assert frame.free_dim == 0
        with CTX.workprec():
            direct = mp.lu_solve(cm.entries, mp.matrix(cs.values))
            ours = frame.particular_solution()
            worst = max(abs(direct[i] - ours[i]) for i in range(6))
        assert worst < 1e-9 * (1 + max(abs(direct[i]) for i in range(6)))

    def test_rank_deficient_frame_rejected(self):
        dup, values = TestReduceRank()._duplicated(contradictory=False)
        with pytest.raises(RankDeficientConstraints):
            orthonormal_frame(dup, values, ctx=CTX)

    def test_too_many_constraints_rejected(self):
        cs = alternating_constraints(0, 1, 7)
        cm = constraint_matrix(cs, 5, CTX)  # M=7 > N+1
        with pytest.raises(ValueError, match="no solution"):
            orthonormal_frame(cm, cs.values, ctx=CTX)

    @pytest.mark.parametrize("values", [(1, -1, 1, 7), (1, -1)])
    def test_target_count_must_match_rows(self, values):
        cm = constraint_matrix(alternating_constraints(0, 1, 3), 5, CTX)
        with pytest.raises(ValueError, match="3 constraint rows"):
            orthonormal_frame(cm, values, ctx=CTX)

    def test_containers_are_immutable(self):
        # Delta, C, the rotation and mu~ are tuples: no entry can change
        # under frame.int_rows' cache or under another holder of the object
        cs = alternating_constraints(0, 1, 3)
        cm = constraint_matrix(cs, 6, CTX)
        frame = orthonormal_frame(cm, cs.values, ctx=CTX)
        delta = overlap_matrix(symmetrize_domain(0, 1), 6, CTX)
        for rows in (delta.entries, cm.entries, frame.rotation):
            assert type(rows) is tuple and all(type(row) is tuple for row in rows)
            with pytest.raises(TypeError):
                rows[0] = rows[1]
            with pytest.raises(TypeError):
                rows[-1][0] *= 2
        assert type(frame.mu_tilde) is tuple
        with pytest.raises(TypeError):
            frame.mu_tilde[0] = mpf(2)

    @pytest.mark.parametrize("cls, fields", [
        (OverlapMatrix, {"n": 1, "domain": None}),
        (ConstraintMatrix, {"n": 1, "points": (mpf(0), mpf(1))}),
    ])
    def test_matrix_entries_become_row_tuples_at_construction(self, cls, fields):
        # lists of rows are copied into tuples of row tuples, and an
        # mp.matrix, which iterates over its entries, fails here and not
        # later inside yield_of or orthonormal_frame
        rows = [[mpf(1), mpf(2)], [mpf(3), mpf(4)]]
        held = cls(entries=rows, **fields)
        rows[0][0] = mpf(5)
        assert type(held.entries) is tuple and all(type(row) is tuple for row in held.entries)
        assert held.entries == ((1, 2), (3, 4))
        with pytest.raises(TypeError):
            cls(entries=mp.matrix(rows), **fields)

    def test_row_space_rows_are_gram_schmidt_of_constraints(self):
        # the trailing rotation rows are the rows of C orthonormalized in
        # order: each has a positive inner product with its own row and is
        # orthogonal to the earlier ones; the leading rows are orthogonal to all
        cs = alternating_constraints(0, 1, 4)
        cm = constraint_matrix(cs, 8, CTX)
        frame = orthonormal_frame(cm, cs.values, ctx=CTX)
        with CTX.workprec():
            inner = mp.matrix(frame.rotation) * mp.matrix(cm.entries).T
        for i in range(frame.free_dim):
            assert all(abs(inner[i, j]) < 1e-13 for j in range(4))
        for i in range(4):
            assert inner[frame.free_dim + i, i] > 0
            assert all(abs(inner[frame.free_dim + i, j]) < 1e-13 for j in range(i))


def _random_orthogonal(size, rng):
    """Product of size Householder reflections of random vectors."""
    q = mp.eye(size)
    for _ in range(size):
        w = mp.matrix([mpf(rng.uniform(-1, 1)) for _ in range(size)])
        q = q * (mp.eye(size) - 2 * w * w.T / mp.fdot(w, w))
    return q


class TestIntegerFrame:
    """The frame layer on ints: _factor's QR of C^T and assemble."""

    def test_qr_runs_on_ints(self, monkeypatch):
        # only converting C, mu and the tolerance in and Q and mu~ out may
        # touch mpf, and none of those is an mpf operator
        ctx = Context(100)
        cs = alternating_constraints(0, 1, 6)
        cm = constraint_matrix(cs, 20, ctx)
        tol = ctx.rank_tolerance
        calls = []
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__", "__pow__", "__abs__", "__neg__"):
            method = getattr(mp.mpf, name)
            monkeypatch.setattr(mp.mpf, name, lambda *a, _m=method, _n=name:
                                calls.append(_n) or _m(*a))
        with ctx.workprec():
            calls.clear()
            rotation, mu_tilde, misfits = constraints._factor(cm, cs.values, tol, drop=False)
            assert calls == []
            assert (len(rotation), len(rotation[0]), len(mu_tilde), misfits) == (21, 21, 6, [])
            assert abs(mp.fdot(rotation[0], rotation[0]) - 1) < mp.eps
            assert calls  # the guard sees the operators the check above used

    def test_src_calls_no_mp_qr(self):
        # no QR of an mp.matrix, and no mp.matrix at all: every matrix in
        # src/ is a tuple of row tuples, and no call builds or unpacks another
        refused = {"qr", "matrix", "zeros", "eye", "diag", "tolist"}
        src = pathlib.Path(constraints.__file__).parent
        for path in sorted(src.glob("*.py")):
            calls = {node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
                     for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Call)
                     and isinstance(node.func, (ast.Attribute, ast.Name))}
            assert not calls & refused, (path.name, sorted(calls & refused))

    @pytest.mark.parametrize("digits", [15, 40, 100])
    def test_assemble_matches_matrix_product(self, digits):
        # each coefficient is one integer dot product rounded once: within
        # eps of the product at twice the digits, plus 2^-32 eps of sum |b_i|
        # for the truncation of b to p + 64 bits
        rng = random.Random(digits)
        ctx = Context(digits)
        cs = alternating_constraints(0, "1.3", 5)
        cm = constraint_matrix(cs, 12, ctx)
        with ctx.workprec():
            frame = orthonormal_frame(cm, cs.values, ctx=ctx)
            turned = mp.matrix(frame.rotation)
            turned[0:8, :] = _random_orthogonal(8, rng) * turned[0:8, :]
            frames = [RotatedFrame(rotation=rotation.tolist(), free_dim=8,
                                   mu_tilde=frame.mu_tilde)
                      for rotation in (_random_orthogonal(13, rng), turned)]
            for frame in frames:
                for scale in (mpf("1e-30"), 1, mpf("1e30")):
                    free = [scale * mpf(rng.uniform(-1, 1)) for _ in range(8)]
                    coeffs = frame.assemble(free)
                    b = free + list(frame.mu_tilde)
                    with mp.workdps(2 * ctx.work_dps):
                        reference = mp.matrix([b]) * mp.matrix(frame.rotation)
                        slack = mp.ldexp(mp.fsum(b, absolute=True), -32)
                    for c, ref in zip(coeffs, reference):
                        assert abs(c - ref) <= mp.eps * (abs(ref) + slack)
