import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import eval_jacobi

import projbound.cubature
from projbound import (
    Field,
    NumericalError,
    PointSet,
    circle_design,
    gram_matrix,
    load_point_set,
    moment_test,
    orthonormal_design,
    parse_point_set,
    verify,
)

from projbound.cubature import _BLOCK_ELEMENTS, _exact_row_sums, _features

from helpers import (
    Quaternion,
    deadline,
    e8_root_lines,
    embedding_constant,
    embedding_defect,
    field_alpha_beta,
    frozen_features,
    frozen_gram_pass,
    fsum_moments,
    haar_point_set,
    hesse_sic,
    loop_coefficients,
    mub_octahedron,
    projective_cos,
    sic_tetrahedron,
    simplex_hp1,
    unitary_image,
)

BASIS_H_M2 = Path(__file__).resolve().parent.parent / "demos" / "data" / "basis_h_m2.json"


def random_point_set(rng, field, m, n, equal_weights=False):
    d = field.delta
    nodes = np.zeros((n, m, 4))
    raw = rng.standard_normal((n, m, d))
    raw /= np.sqrt((raw**2).sum(axis=(1, 2)))[:, None, None]
    nodes[:, :, :d] = raw
    if equal_weights:
        return PointSet(field, m, nodes)
    w = rng.uniform(0.2, 1.0, size=n)
    w /= w.sum()
    w[-1] = 1.0 - math.fsum(w[:-1])  # force fsum-exact normalization
    return PointSet(field, m, nodes, w)


def random_unit_scalar(rng, field):
    v = rng.standard_normal(field.delta)
    v /= np.linalg.norm(v)
    out = np.zeros(4)
    out[: field.delta] = v
    return Quaternion(*out)


class TestQuaternion:
    def test_multiplication_table(self):
        i = Quaternion(0, 1, 0, 0)
        j = Quaternion(0, 0, 1, 0)
        k = Quaternion(0, 0, 0, 1)
        assert i * j == k
        assert j * i == Quaternion(0, 0, 0, -1)
        assert i * i == Quaternion(-1, 0, 0, 0)

    def test_associativity_and_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b, c = (Quaternion(*rng.standard_normal(4)) for _ in range(3))
            lhs = (a * b) * c
            rhs = a * (b * c)
            assert lhs.as_array() == pytest.approx(rhs.as_array(), abs=1e-12)
            assert abs(a * b) == pytest.approx(abs(a) * abs(b), rel=1e-12)

    def test_conjugate(self):
        q = Quaternion(1.0, 2.0, -3.0, 0.5)
        qc = q.conjugate()
        prod = q * qc
        assert prod.as_array() == pytest.approx([abs(q) ** 2, 0, 0, 0], rel=1e-14)


class TestProjectiveCos:
    def test_self_is_one(self):
        ps = orthonormal_design(Field.H, 3)
        assert projective_cos(ps.nodes[0], ps.nodes[0]) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_is_minus_one(self):
        ps = orthonormal_design(Field.C, 4)
        assert projective_cos(ps.nodes[0], ps.nodes[2]) == pytest.approx(-1.0, abs=1e-14)

    @pytest.mark.parametrize("field", list(Field), ids=lambda f: f.name)
    def test_gauge_invariance(self, field):
        rng = np.random.default_rng(17)
        ps = random_point_set(rng, field, 3, 2)
        x, y = ps.nodes[0], ps.nodes[1]
        base = projective_cos(x, y)
        for _ in range(20):
            a = random_unit_scalar(rng, field)
            xa = np.array([(Quaternion(*coord) * a).as_array() for coord in x])
            assert projective_cos(xa, y) == pytest.approx(base, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            projective_cos(np.zeros((2, 4)), np.zeros((3, 4)))


class TestPointSetValidation:
    def test_rejects_non_unit_nodes(self):
        nodes = np.zeros((1, 2, 4))
        nodes[0, 0, 0] = 1.1
        with pytest.raises(ValueError, match="unit-norm"):
            PointSet(Field.R, 2, nodes)

    def test_rejects_bad_weights(self):
        ps_nodes = np.zeros((2, 2, 4))
        ps_nodes[0, 0, 0] = 1.0
        ps_nodes[1, 1, 0] = 1.0
        with pytest.raises(ValueError, match="positive"):
            PointSet(Field.R, 2, ps_nodes, np.array([1.5, -0.5]))
        with pytest.raises(ValueError, match="sum to 1"):
            PointSet(Field.R, 2, ps_nodes, np.array([0.6, 0.6]))

    def test_rejects_field_rule_violations(self):
        nodes = np.zeros((1, 2, 4))
        nodes[0, 0, 0] = 1.0 / math.sqrt(2.0)
        nodes[0, 0, 3] = 1.0 / math.sqrt(2.0)  # quaternionic component in a C set
        with pytest.raises(ValueError, match="scalar dimension"):
            PointSet(Field.C, 2, nodes)

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3, 4), (2, 2, 2), (2, 2, 4, 1)])
    def test_rejects_bad_node_shape(self, shape):
        with pytest.raises(ValueError) as exc:
            PointSet(Field.R, 2, np.zeros(shape))
        assert str(exc.value) == f"nodes must have shape (n, 2, 4), got {shape}"

    def test_rejects_no_nodes(self):
        with pytest.raises(ValueError, match="point set must contain at least one node"):
            PointSet(Field.R, 2, np.zeros((0, 2, 4)))

    @pytest.mark.parametrize("weights", [[1.0], [0.25] * 4, [[0.5, 0.5]]])
    def test_rejects_bad_weight_shape(self, weights):
        nodes = np.zeros((2, 2, 4))
        nodes[0, 0, 0] = nodes[1, 1, 0] = 1.0
        with pytest.raises(ValueError, match=r"weights must have shape \(2,\), got \("):
            PointSet(Field.R, 2, nodes, weights)

    @pytest.mark.parametrize("what", ["node", "weight"])
    def test_rejects_non_finite(self, what):
        nodes = np.zeros((2, 2, 4))
        nodes[0, 0, 0] = nodes[1, 1, 0] = 1.0
        weights = np.array([0.5, 0.5])
        if what == "node":
            nodes[1, 0, 0] = math.nan  # passes the unit-norm test: nan > tol is False
        else:
            weights[1] = math.nan  # passes the positivity and sum tests
        with pytest.raises(ValueError, match="finite"):
            PointSet(Field.R, 2, nodes, weights)

    def test_duplicates_warn_not_error(self):
        nodes = np.zeros((2, 2, 4))
        nodes[0, 0, 0] = 1.0
        nodes[1, 0, 0] = -1.0  # projectively the same line
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # building the set runs no duplicate scan
            ps = PointSet(Field.R, 2, nodes)
        with pytest.warns(UserWarning, match=r"coincident node pairs: \[\(0, 1\)\]"):
            moment_test(ps, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # verify reports the pairs, it does not warn
            assert verify(ps, 2).duplicates == ((0, 1),)

    def test_keeps_read_only_copies(self):
        nodes = np.zeros((2, 2, 4))
        nodes[0, 0, 0] = nodes[1, 1, 0] = 1.0
        weights = np.array([0.5, 0.5])
        ps = PointSet(Field.R, 2, nodes, weights)
        nodes[1] = nodes[0]  # the caller's arrays stay the caller's
        weights[:] = 0.0
        assert verify(ps, 2).duplicates == () and ps.weights.tolist() == [0.5, 0.5]
        assert ps.nodes[1, 1, 0] == 1.0
        for derived in (ps.nodes, ps.weights):
            with pytest.raises(ValueError, match="read-only"):
                derived[0] = 0.0

    # with 3 rows per block (30 Gram entries for n = 10) most pairs span two blocks
    @pytest.mark.parametrize(
        "field, block_rows",
        [(f, None) for f in Field] + [(f, 3) for f in Field],
        ids=[f.name for f in Field] + [f"{f.name}-3-rows" for f in Field],
    )
    def test_duplicate_pairs_match_pairwise_scan(self, field, block_rows, monkeypatch):
        rng = np.random.default_rng(53)
        base = random_point_set(rng, field, 3, 6)
        a = random_unit_scalar(rng, field)
        moved = np.array([(Quaternion(*coord) * a).as_array() for coord in base.nodes[4]])
        nodes = np.concatenate([base.nodes, base.nodes[[1, 1]], moved[None], base.nodes[:1]])
        ps = PointSet(field, 3, nodes)
        if block_rows is not None:
            monkeypatch.setattr(projbound.cubature, "_BLOCK_ELEMENTS", block_rows * ps.n)
        duplicates = verify(ps, 2).duplicates
        want = [
            (i, j)
            for i in range(ps.n)
            for j in range(i + 1, ps.n)
            if projective_cos(nodes[i], nodes[j]) >= 1.0 - 1e-12
        ]
        assert want == [(0, 9), (1, 6), (1, 7), (4, 8), (6, 7)]
        assert duplicates == tuple(want)
        assert all(type(k) is int for pair in duplicates for k in pair)

    # 700 rows make blocks of 46, 50, 54, ... rows, so pairs straddle block edges
    @pytest.mark.parametrize("field", list(Field), ids=lambda f: f.name)
    def test_planted_duplicates_in_the_full_square_order(self, field):
        rng = np.random.default_rng(89)
        base = random_point_set(rng, field, 3, 700)
        nodes = base.nodes.copy()
        planted = [(5, 6), (5, 400), (45, 46), (45, 47), (300, 699), (520, 521), (690, 3)]
        for i, j in planted:  # node j becomes node i times a unit scalar
            a = random_unit_scalar(rng, field)
            nodes[j] = [(Quaternion(*coord) * a).as_array() for coord in nodes[i]]
        ps = PointSet(field, 3, nodes, base.weights)
        want = [(3, 690), (5, 6), (5, 400), (6, 400), (45, 46), (45, 47), (46, 47),
                (300, 699), (520, 521)]
        assert frozen_gram_pass(ps, 2)[1] == want
        assert verify(ps, 2).duplicates == tuple(want)


class TestDuplicateScan:
    """The scan finds rows and columns only in a block with a hit off its diagonal."""

    @staticmethod
    def planted(field, n, pairs, seed=61):
        """A random (field, m=3) set whose node j is node i times a unit scalar, per (i, j)."""
        rng = np.random.default_rng(seed)
        nodes = random_point_set(rng, field, 3, n).nodes.copy()
        for i, j in pairs:
            a = random_unit_scalar(rng, field)
            nodes[j] = [(Quaternion(*coord) * a).as_array() for coord in nodes[i]]
        return nodes

    # n = 12: one block of every pair, or blocks of 2 rows with pairs inside and across them
    @pytest.mark.parametrize("block_rows", [None, 2], ids=["one-block", "2-rows"])
    @pytest.mark.parametrize("field", list(Field), ids=lambda f: f.name)
    def test_planted_pairs_in_one_block_and_across_blocks(self, field, block_rows, monkeypatch):
        nodes = self.planted(field, 12, [(0, 1), (2, 3), (4, 11), (7, 10)])
        ps = PointSet(field, 3, nodes)
        if block_rows is not None:
            monkeypatch.setattr(projbound.cubature, "_BLOCK_ELEMENTS", block_rows * ps.n)
        want = frozen_gram_pass(ps, 2)[1]
        assert want == [(0, 1), (2, 3), (4, 11), (7, 10)]
        report = verify(ps, 2)
        assert report.duplicates == tuple(want) and report.duplicate_count == len(want)

    @pytest.mark.parametrize("block_rows", [None, 3], ids=["one-block", "3-rows"])
    @pytest.mark.parametrize("field", list(Field), ids=lambda f: f.name)
    def test_diagonal_miss_beside_a_pair_off_the_diagonal(self, field, block_rows, monkeypatch):
        # node 4 is short by 9e-13, inside the 1e-12 norm tolerance, so cos_44 < 1 - 1e-12:
        # with the pair (2, 5) the block has as many hits as rows, none at (4, 4)
        nodes = self.planted(field, 8, [(2, 5)])
        nodes[4] *= 1.0 - 9e-13
        ps = PointSet(field, 3, nodes)
        cos = gram_matrix(ps)
        assert cos[4, 4] < 1.0 - 1e-12 <= cos[2, 5]
        assert np.count_nonzero(np.triu(cos >= 1.0 - 1e-12)) == ps.n
        if block_rows is not None:
            monkeypatch.setattr(projbound.cubature, "_BLOCK_ELEMENTS", block_rows * ps.n)
        assert frozen_gram_pass(ps, 2)[1] == [(2, 5)]
        assert verify(ps, 2).duplicates == ((2, 5),)

    def test_keeps_the_first_pairs_and_counts_all(self):
        nodes = np.zeros((1000, 2, 4))
        nodes[:, 0, 0] = 1.0  # 1000 copies of one line: 499500 pairs
        ps = PointSet(Field.R, 2, nodes)
        report = verify(ps, 2)
        assert report.duplicates == tuple((0, j) for j in range(1, 101))  # row 0 comes first
        assert report.duplicate_count == 499500
        with pytest.warns(UserWarning) as caught:
            moment_test(ps, 2)
        message = str(caught[0].message)
        assert message.startswith(
            "point set has 499500 projectively coincident node pairs, the first 100: [(0, 1), "
        )
        assert message.endswith(", (0, 100)]")

    def test_pairs_kept_across_blocks_in_scan_order(self, monkeypatch):
        nodes = np.zeros((16, 2, 4))
        nodes[:, 0, 0] = 1.0  # 120 pairs
        ps = PointSet(Field.R, 2, nodes)
        monkeypatch.setattr(projbound.cubature, "_BLOCK_ELEMENTS", 3 * ps.n)
        report = verify(ps, 2)
        want = [(i, j) for i in range(16) for j in range(i + 1, 16)]
        assert report.duplicates == tuple(want[:100]) and report.duplicate_count == 120


class TestMomentTest:
    @pytest.mark.parametrize("field", list(Field), ids=lambda f: f.name)
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_orthonormal_basis_is_index_two(self, field, m):
        ps = orthonormal_design(field, m)
        (m1,) = moment_test(ps, 2)
        assert abs(m1) < 1e-12

    @pytest.mark.parametrize("p", [2, 6, 10, 16, 20])
    def test_circle_design_passes(self, p):
        ps = circle_design(p)
        moments = moment_test(ps, p)
        assert max(abs(v) for v in moments) < 1e-10

    def test_perturbed_circle_fails(self):
        p = 10
        ps = circle_design(p)
        nodes = ps.nodes.copy()
        theta = math.atan2(nodes[1, 1, 0], nodes[1, 0, 0]) + 0.01
        nodes[1, 0, 0], nodes[1, 1, 0] = math.cos(theta), math.sin(theta)
        perturbed = PointSet(Field.R, 2, nodes)
        assert max(abs(v) for v in moment_test(perturbed, p)) > 1e-5

    def test_generic_points_fail(self):
        rng = np.random.default_rng(5)
        ps = random_point_set(rng, Field.R, 4, 4)
        assert max(abs(v) for v in moment_test(ps, 4)) > 1e-3

    def test_nonnegativity_on_random_sets(self):
        rng = np.random.default_rng(29)
        fields = list(Field)
        for trial in range(1000):
            field = fields[trial % 3]
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2, 7))
            ps = random_point_set(rng, field, m, n)
            for m_k in moment_test(ps, 12):
                assert m_k >= -1e-9

    def test_weight_consistency_m0(self):
        rng = np.random.default_rng(31)
        ps = random_point_set(rng, Field.C, 3, 5)
        pair_w = np.outer(ps.weights, ps.weights)
        m0 = math.fsum(pair_w.ravel())  # P_0 == 1 on the whole Gram matrix
        assert m0 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("field", list(Field), ids=lambda f: f.name)
    def test_gauge_invariance_of_moments(self, field):
        rng = np.random.default_rng(41)
        ps = random_point_set(rng, field, 3, 4)
        base = moment_test(ps, 8)
        nodes = ps.nodes.copy()
        a = random_unit_scalar(rng, field)
        nodes[2] = np.array([(Quaternion(*coord) * a).as_array() for coord in nodes[2]])
        moved = PointSet(field, 3, nodes, ps.weights)
        for got, want in zip(moment_test(moved, 8), base):
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("field", list(Field), ids=lambda f: f.name)
    def test_permutation_invariance_is_exact(self, field):
        rng = np.random.default_rng(43)
        for n in (6, 700):
            ps = random_point_set(rng, field, 2, n)
            perm = rng.permutation(n)
            shuffled = PointSet(field, 2, ps.nodes[perm], ps.weights[perm])
            # exact extraction makes each moment the correctly rounded sum, and
            # the kernel gives cos_ij and cos_ji the same double, so reordering
            # the nodes, which moves pairs between blocks and swaps i and j in
            # about half of them, changes nothing, bit for bit
            assert moment_test(shuffled, 10) == moment_test(ps, 10)

    @pytest.mark.parametrize("field", list(Field), ids=lambda f: f.name)
    @pytest.mark.parametrize("n, equal_weights", [(1, True), (5, False), (200, True), (700, False)])
    def test_against_the_full_square_pass(self, field, n, equal_weights):
        rng = np.random.default_rng(97)
        ps = random_point_set(rng, field, 3, n, equal_weights)
        p = 12
        moments = moment_test(ps, p)
        frozen = frozen_gram_pass(ps, p)[0]
        if field is Field.R:
            assert moments == frozen  # the same kernel, summed once per unordered pair
            return
        # The cosines move by a few ulps (at most 1.8e-15, 8 eps, seen) and the pair
        # weights sum to 1, so M_k moves by at most max|P_k'| max|d cos| <= 8 eps P_k'(1),
        # plus the rounding of P_k at the moved cosines: allow 16 eps P_k'(1) (0.1 seen).
        alpha, beta = field_alpha_beta(field.delta, 3)
        for k, (got, want) in enumerate(zip(moments, frozen), start=1):
            slope = (k + alpha + beta + 1) / 2 * eval_jacobi(k - 1, alpha + 1, beta + 1, 1.0)
            assert abs(got - want) <= 16 * np.finfo(float).eps * slope

    # the first block of 512 rows is 64 rows against 512 columns, of 511 rows 64 against 511;
    # later blocks take more rows as their columns r0..n-1 shrink
    @pytest.mark.parametrize(
        "field, n, equal_weights",
        [(f, n, eq) for f in Field for n in (1, 511, 512) for eq in (True, False)]
        + [(Field.H, 2500, True), (Field.R, 2500, False)],
        ids=lambda v: v.name if isinstance(v, Field) else str(v),
    )
    def test_matches_full_matrix_fsum_bit_for_bit(self, field, n, equal_weights):
        assert _BLOCK_ELEMENTS // 511 == _BLOCK_ELEMENTS // 512 == 64
        rng = np.random.default_rng(59)
        ps = random_point_set(rng, field, 3, n, equal_weights)
        p = 8 if n > 1000 else 16
        assert moment_test(ps, p) == fsum_moments(ps, p)

    # circle_design(218) is 110 nodes, one block of 6105 pairs, 5 degrees a group; C, m=2,
    # n=300 is blocks of 109, 171 and 20 rows, one degree a group but all 32 in the last.
    # With 2000 values a block they make 4 and 26 blocks, the last with 2 and 32 a group.
    @pytest.mark.parametrize("block", [None, 2000], ids=["default-blocks", "small-blocks"])
    @pytest.mark.parametrize("case", ["circle-p218", "C-m2-n300-p64"])
    def test_degree_groups_match_full_matrix_fsum_bit_for_bit(self, case, block, monkeypatch):
        if case == "circle-p218":
            ps, p = circle_design(218), 218
        else:
            ps, p = random_point_set(np.random.default_rng(101), Field.C, 2, 300), 64
        if block is not None:
            monkeypatch.setattr(projbound.cubature, "_BLOCK_ELEMENTS", block)
        moments = moment_test(ps, p)
        assert len(moments) == p // 2
        assert moments == fsum_moments(ps, p)

    @pytest.mark.parametrize("run", [moment_test, verify], ids=["moment_test", "verify"])
    def test_terms_past_the_float_range_raise_instead_of_hanging(self, run):
        # two orthogonal H nodes, m = 300: cos is 1 on the diagonal, where a term is
        # P_k(1) / 4, and -1 off it, where P_k(-1) = k + 1; 3 pairs leave room below 2^1020
        nodes = np.zeros((2, 300, 4))
        nodes[0, 0, 0] = nodes[1, 1, 0] = 1.0
        ps = PointSet(Field.H, 300, nodes)
        p_prev, p_k = 0.0, 1.0
        for k, (c1, c2, c3, c4) in enumerate(loop_coefficients(*field_alpha_beta(4, 300), 600), 1):
            p_k, p_prev = ((c2 + c3 * 1.0) * p_k - c4 * p_prev) / c1, p_k
            if not p_k / 4 < 2.0**1020:
                break
        assert 400 < k < 600
        with deadline(60), pytest.raises(NumericalError, match=rf"^moment M_{k} = nan is "):
            run(ps, 1200)

    def test_streams_without_an_n_by_n_temporary(self):
        rng = np.random.default_rng(67)
        ps = random_point_set(rng, Field.H, 2, 2000, equal_weights=True)
        tracemalloc.start()
        try:
            moment_test(ps, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20  # one (2000, 2000) float array is 30.5 MiB

    def test_validation(self):
        ps = circle_design(4)
        with pytest.raises(ValueError):
            moment_test(ps, 3)


class TestExactRowSums:
    CASES = ["cancellation", "wide", "ties", "subnormal", "zeros", "single", "residuals"]
    ANCHORS = [1.0, 1e-20, 1e20]

    @staticmethod
    def adversarial(case):
        rng = np.random.default_rng(71)
        if case == "cancellation":
            x = rng.standard_normal(3000) * 10.0 ** rng.uniform(-8, 8, 3000)
            return rng.permutation(np.concatenate([x, -x, [1e-3, 2.0**-60, -(2.0**-90)]]))
        if case == "wide":
            return rng.standard_normal(5000) * np.exp(rng.uniform(-60, 60, 5000))
        if case == "ties":
            # 1 + 2^-53 is halfway between two doubles: rounds to even, then up
            return np.array([1.0, 2.0**-53, 1e100, -1e100, 2.0**-200])
        if case == "subnormal":
            return rng.integers(-1000, 1000, 4000) * 5e-324
        if case == "zeros":
            return np.zeros(1000)
        if case == "residuals":
            # below half a first-rung ulp of 1.9 at 6005 columns (shift 13), with full
            # mantissas: all of them reach the second rung at nearly its largest size
            return np.concatenate([[1.9], 2.0**-39 * rng.uniform(0.9, 1.0, 5000)])
        return np.array([-math.pi])

    def rows(self):
        """One row per (case, anchor), then an all-zero row and one of +-1e100 and 2^-200.

        A leading pair [b, -b] with b = anchor * max|x| moves the largest magnitude, which
        anchors the row's ladder, far above the data (1e20), onto it (1) or leaves it (1e-20).
        """
        rows = []
        for case in self.CASES:
            x = self.adversarial(case)
            for anchor in self.ANCHORS:
                b = anchor * (float(np.abs(x).max()) or 1.0)
                rows.append(np.concatenate([[b, -b], x]))
        rows += [np.zeros(3), np.array([1e100, 2.0**-200, -1e100])]
        x = np.zeros((len(rows), max(map(len, rows))))  # zero padding leaves each sum alone
        for row, values in zip(x, rows):
            row[: len(values)] = values
        return x

    @pytest.mark.parametrize("pieces", [1, 7, 64, 4000])
    def test_matches_fsum_in_any_chunks(self, pieces):
        x = self.rows()
        want = [math.fsum(row) for row in x]
        parts = [[] for _ in x]
        for chunk in np.array_split(x, pieces, axis=1):  # each chunk anchors its own ladders
            for part, sums in zip(parts, _exact_row_sums(chunk.copy()).tolist()):
                part += sums
        assert [math.fsum(part) for part in parts] == want
        # the partials are exact, not only their rounded total: partials minus row is 0
        assert all(math.fsum(part + (-row).tolist()) == 0.0 for part, row in zip(parts, x))
        assert want[-2:] == [0.0, 2.0**-200] and all(len(part) > 0 for part in parts[:-2])

    def test_each_row_sums_alone(self):
        # every row anchors its own ladder, so no row's partials depend on another row
        x = self.rows()
        together = _exact_row_sums(x.copy()).tolist()
        alone = [_exact_row_sums(row[None].copy()).tolist()[0] for row in x]
        assert [[v for v in part if v] for part in together] == [
            [v for v in part if v] for part in alone
        ]

    def test_overwrites_x_with_zeros(self):
        x = self.rows()
        _exact_row_sums(x)
        assert not x.any()

    def test_all_zero_rows_have_no_rungs(self):
        assert _exact_row_sums(np.zeros((3, 5))).shape == (3, 0)

    def test_near_the_top_of_the_float_range(self):
        # 3 columns: shift 3, so a row must stay below 2^1020 for its first sigma
        top = 1.5 * 2.0**1019
        x = np.array([[top, top, -(2.0**-100)], [-top, 2.0**-1074, 0.0]])
        sums = _exact_row_sums(x.copy()).tolist()
        assert [math.fsum(part) for part in sums] == [math.fsum(row) for row in x]

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 2.0**1020])
    def test_a_row_past_the_float_range_sums_to_nan(self, bad):
        # 3 columns: shift 3, so 2^1020 leaves no double for the row's first sigma
        x = np.full((4, 3), 0.75)
        x[2, 1] = x[3, 0] = bad
        sums = [math.fsum(part) for part in _exact_row_sums(x).tolist()]
        assert sums[:2] == [2.25, 2.25] and all(map(math.isnan, sums[2:]))
        assert not x.any()


class TestVerify:
    def test_circle_tight_against_both_bounds(self):
        report = verify(circle_design(10), 10)
        assert report.passed
        assert report.n == 6 == report.lp_bound == report.yudin_bound
        assert report.tight_lp and report.tight_yudin

    def test_orthonormal_complex_m3(self):
        report = verify(orthonormal_design(Field.C, 3), 2)
        assert report.passed
        assert report.n == 3 == report.lp_bound
        assert report.tight_lp

    def test_perturbed_fails(self):
        ps = circle_design(8)
        nodes = ps.nodes.copy()
        theta = 0.01
        nodes[0, 0, 0], nodes[0, 1, 0] = math.cos(theta), math.sin(theta)
        report = verify(PointSet(Field.R, 2, nodes), 8)
        assert not report.passed
        assert report.max_abs_moment > 1e-6

    def test_a_failing_set_is_not_tight(self):
        nodes = np.zeros((2, 2, 4))
        nodes[:, 0, 0] = 1.0  # two equal nodes: n = 2 is both bounds at p = 2
        report = verify(PointSet(Field.R, 2, nodes), 2)
        assert not report.passed and report.n == report.lp_bound == report.yudin_bound == 2
        assert not report.tight_lp and not report.tight_yudin

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            verify(circle_design(4), 4, tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # a NaN tolerance failed every set and an infinite one passed every set
        with pytest.raises(ValueError, match="finite and positive"):
            verify(circle_design(4), 4, tol=tol)

    def test_point_set_and_verify_make_no_n_by_n_array(self):
        rng = np.random.default_rng(83)
        nodes = np.zeros((2000, 2, 4))
        nodes[...] = rng.standard_normal(nodes.shape)
        nodes /= np.sqrt((nodes**2).sum(axis=(1, 2)))[:, None, None]
        tracemalloc.start()
        try:
            verify(PointSet(Field.H, 2, nodes), 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (2000, 2000) float array is 30.5 MiB, a block of 2^15 pairs 256 KiB
        assert peak < 4 * 2**20

    def test_icosahedron_diagonals(self):
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        lines = [(0, 1, phi), (0, 1, -phi), (1, phi, 0), (1, -phi, 0), (phi, 0, 1), (-phi, 0, 1)]
        nodes = np.zeros((6, 3, 4))
        nodes[:, :, 0] = np.array(lines) / math.sqrt(1.0 + phi**2)
        ps = PointSet(Field.R, 3, nodes)
        report = verify(ps, 4)
        assert report.passed
        assert report.n == 6 == report.lp_bound == report.yudin_bound
        assert report.tight_lp and report.tight_yudin
        # every pair has |(x, y)|^2 = 1/5, and P_3^(0,-1/2)(-3/5) = P_6(1/sqrt 5) = 41/125,
        # so M_3 = (6 + 30 * 41/125) / 36 = 11/25
        report = verify(ps, 6)
        assert not report.passed
        assert report.moments[2] == pytest.approx(11 / 25, abs=1e-12)


class TestTightDesigns:
    """Tight R, C and H designs: verify meets the LP bound, and the embedding identity agrees.

    The identity sum_i w_i |(x, x_i)|^p = c |x|^p is computed from Quaternion
    products, the moments from the package's Gram features: the two routes
    share no code.  At p+2 each set has one nonzero moment, the last, whose
    exact value follows from its inner products |(x_i, x_j)|^2 (1/3 in the
    SIC, 0 or 1/2 in the MUB, 1/4 in the Hesse SIC, 2/5 in the simplex, 0 or
    1/4 in E8).  E8 meets the LP bound but not the Yudin bound.
    """

    DESIGNS = [
        # constructor, p, lp_bound, yudin_bound, last moment at p+2
        (sic_tetrahedron, 4, 4, 4, 5 / 9),
        (mub_octahedron, 6, 6, 6, 7 / 12),
        (hesse_sic, 4, 9, 8, 7 / 8),
        (simplex_hp1, 4, 6, 5, 28 / 25),
        (e8_root_lines, 6, 120, 101, 63 / 128),
    ]
    NAMES = [d[0].__name__ for d in DESIGNS]

    @pytest.mark.parametrize("make,p,lp,yudin,last", DESIGNS, ids=NAMES)
    def test_tight_at_p_and_failing_at_p_plus_2(self, make, p, lp, yudin, last):
        # the unitary image has no real coordinate, so every feature of the Gram kernel counts
        for ps in (make(), unitary_image(make(), np.random.default_rng(29))):
            report = verify(ps, p)
            assert report.passed and report.max_abs_moment <= 2e-15
            assert (report.n, report.lp_bound, report.yudin_bound) == (lp, lp, yudin)
            assert report.tight_lp and report.tight_yudin == (lp == yudin)
            report = verify(ps, p + 2)
            assert not report.passed
            assert report.moments[-1] == pytest.approx(last, abs=1e-12)
            assert max(abs(m_k) for m_k in report.moments[:-1]) <= 2e-15

    @pytest.mark.parametrize("make,p", [d[:2] for d in DESIGNS], ids=NAMES)
    def test_isometric_embedding_identity(self, make, p):
        rng = np.random.default_rng(29)
        built = make()
        # a defect scales with c, from 1/3 (the SIC at p=4) down to 1/128 (E8 at p=8)
        c_p, c_next = (embedding_constant(built.field, built.m, q) for q in (p, p + 2))
        for ps in (built, unitary_image(make(), rng)):
            assert embedding_defect(ps, p, rng) <= 2e-15
            assert embedding_defect(ps, p + 2, rng) > 0.01 * c_next  # the identity pins the index
        for _ in range(5):  # Haar-random sets of the same size miss by far more
            haar = haar_point_set(ps.field, ps.m, ps.n, rng)
            assert embedding_defect(haar, p, rng) > 0.2 * c_p


class TestPointSetIO:
    def circle_doc(self, p):
        ps = circle_design(p)
        return {
            "field": "R",
            "m": 2,
            "p": p,
            "nodes": [[[float(coord[0])] for coord in node] for node in ps.nodes],
            "weights": [float(w) for w in ps.weights],
        }

    def test_round_trip(self):
        doc = self.circle_doc(6)
        ps, p = parse_point_set(doc)
        assert p == 6 and ps.n == 4 and ps.field is Field.R
        assert verify(ps, p).passed

    def test_weights_optional(self):
        doc = self.circle_doc(6)
        del doc["weights"]
        ps, _ = parse_point_set(doc)
        assert ps.weights == pytest.approx(np.full(4, 0.25))

    def test_complex_components(self):
        doc = {
            "field": "C",
            "m": 2,
            "p": 2,
            "nodes": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]],
        }
        ps, p = parse_point_set(doc)
        assert verify(ps, p).passed

    def test_component_count_mismatch(self):
        doc = self.circle_doc(4)
        doc["nodes"][0][0] = [1.0, 0.0]  # two components in a real set
        with pytest.raises(ValueError, match=r"nodes\[0\]\[0\]"):
            parse_point_set(doc)

    @pytest.mark.parametrize(
        "key, value",
        [("m", 2.9), ("m", 2.0), ("m", True), ("m", "2"), ("p", 10.5), ("p", "10"), ("p", False)],
    )
    def test_m_and_p_must_be_json_integers(self, key, value):
        doc = self.circle_doc(10)
        doc[key] = value
        with pytest.raises(ValueError, match=f"'{key}' must be a JSON integer"):
            parse_point_set(doc)

    @pytest.mark.parametrize("m, nodes", [(0, [[]]), (1, [[[1.0]]])])
    def test_small_m_is_the_point_sets_error(self, m, nodes):
        with pytest.raises(ValueError, match=f"m must be >= 2, got {m}"):
            parse_point_set({"field": "R", "m": m, "p": 2, "nodes": nodes})

    @pytest.mark.parametrize("value", ["1.0", True, None, [1.0]])
    def test_components_must_be_json_numbers(self, value):
        doc = self.circle_doc(4)
        doc["nodes"][1][0] = [value]
        doc["nodes"][2][1] = ["later"]  # only the first bad entry is named
        with pytest.raises(ValueError) as info:
            parse_point_set(doc)
        assert str(info.value) == f"nodes[1][0]: expected a JSON number, got {value!r}"

    @pytest.mark.parametrize("value", ["0.25", True, None, [0.25]])
    def test_weights_must_be_json_numbers(self, value):
        doc = self.circle_doc(6)
        doc["weights"][2] = value
        doc["weights"][3] = "later"
        with pytest.raises(ValueError) as info:
            parse_point_set(doc)
        assert str(info.value) == f"weights[2]: expected a JSON number, got {value!r}"

    @pytest.mark.parametrize("p", [7, 0, -2])
    def test_p_must_be_positive_and_even(self, p):
        doc = self.circle_doc(6)
        doc["p"] = p
        with pytest.raises(ValueError, match=f"p must be a positive even integer, got {p}"):
            parse_point_set(doc)

    def test_weights_must_be_a_list(self):
        doc = self.circle_doc(6)
        doc["weights"] = 0.25
        with pytest.raises(ValueError, match="'weights' must be a list"):
            parse_point_set(doc)

    def test_integer_components_are_numbers(self):
        doc = self.circle_doc(2)  # nodes (1, 0) and (0, 1)
        doc["nodes"] = [[[1], [0]], [[0], [1]]]
        ps, p = parse_point_set(doc)
        assert verify(ps, p).passed

    def test_integer_beyond_float_range_is_a_value_error(self):
        doc = self.circle_doc(2)
        doc["nodes"][0][0] = [10**400]
        with pytest.raises(ValueError, match=r"nodes\[0\]\[0\]: .* outside the float range"):
            parse_point_set(doc)
        doc = self.circle_doc(2)
        doc["weights"][1] = 10**400
        with pytest.raises(ValueError, match=r"weights\[1\]: .* outside the float range"):
            parse_point_set(doc)

    # each goes through the array pass first, which rejects the document
    @pytest.mark.parametrize(
        "where, value, message",
        [
            ((2, 1), [0.5, 0.5], "nodes[2][1]: expected 1 real components, got [0.5, 0.5]"),
            ((2, 1), 0.5, "nodes[2][1]: expected 1 real components, got 0.5"),
            ((3, None), [[1.0]], "nodes[3]: expected 2 coordinates, got [[1.0]]"),
            ((3, None), [[1.0], [0.0], [0.0]],
             "nodes[3]: expected 2 coordinates, got [[1.0], [0.0], [0.0]]"),
        ],
    )
    def test_node_shape_errors_name_the_first_bad_entry(self, where, value, message):
        doc = self.circle_doc(10)
        i, j = where
        if j is None:
            doc["nodes"][i] = value
        else:
            doc["nodes"][i][j] = value
        doc["nodes"][4][0] = ["later"]  # only the first bad entry is named
        with pytest.raises(ValueError) as info:
            parse_point_set(doc)
        assert str(info.value) == message

    def test_deep_nesting_is_a_value_error(self):
        deep = [1.0]
        for _ in range(100):  # numpy makes a 64-dimensional object array of it
            deep = [deep]
        doc = {"field": "R", "m": 2, "p": 2, "nodes": deep}
        with pytest.raises(ValueError, match=r"nodes\[0\]: expected 2 coordinates"):
            parse_point_set(doc)
        doc = self.circle_doc(2)
        doc["weights"] = deep
        with pytest.raises(ValueError, match=r"weights\[0\]: expected a JSON number"):
            parse_point_set(doc)

    def test_integers_read_as_float_does(self, monkeypatch):
        big = [2**60, 2**60 + 1, 2**60 + 128, 2**60 + 129, -(2**60 + 384), 2**53 + 1, 3, -7]
        doc = {"field": "C", "m": 2, "p": 2, "nodes": [[[a, b], [0, 0]] for a, b in
                                                       zip(big[::2], big[1::2])]}
        doc["weights"] = [1, 0, 0, 0]
        seen = {}
        monkeypatch.setattr(projbound.cubature, "PointSet",
                            lambda field, m, nodes, weights: seen.update(nodes=nodes, w=weights))
        parse_point_set(doc)
        want = np.zeros((4, 2, 4))
        want[:, 0, :2] = np.reshape([float(v) for v in big], (4, 2))
        assert seen["nodes"].tobytes() == want.tobytes()
        assert [float(v) for v in seen["w"]] == [1.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("doc", [[], ["R"], "R", None, 3])
    def test_document_must_be_an_object(self, doc):
        with pytest.raises(ValueError, match="point set document must be an object, got "):
            parse_point_set(doc)

    def test_rejects_empty_nodes(self):
        doc = self.circle_doc(2)
        doc["nodes"] = []
        with pytest.raises(ValueError, match="^'nodes' must be a nonempty list$"):
            parse_point_set(doc)

    def test_missing_key(self):
        with pytest.raises(ValueError, match="missing required key"):
            parse_point_set({"field": "R", "m": 2, "nodes": [[[1.0], [0.0]]]})

    def test_malformed_json_has_location(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"field": "R", "m": 2,\n  "p": }')
        with pytest.raises(ValueError, match="line 2"):
            load_point_set(bad)

    def test_load_file_round_trip(self, tmp_path):
        path = tmp_path / "circle.json"
        path.write_text(json.dumps(self.circle_doc(10)))
        ps, p = load_point_set(path)
        report = verify(ps, p)
        assert report.passed and report.tight_yudin


class TestGramMatrix:
    @pytest.mark.parametrize("field", list(Field), ids=lambda f: f.name)
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_features_match_the_frozen_builder_bit_for_bit(self, field, m):
        rng = np.random.default_rng(97 + m)
        nodes = random_point_set(rng, field, m, 40).nodes.copy()
        zeros = rng.random(nodes.shape) < 0.2  # exact zeros of both signs past coordinate 0
        zeros[:, 0] = False
        nodes[zeros] = np.where(rng.random(nodes.shape) < 0.5, 0.0, -0.0)[zeros]
        nodes[:, :, field.delta :] = 0.0
        nodes[:4] = 0.0
        nodes[:4, 0, 0] = [1.0, -1.0, 1.0, -1.0]  # coordinate vectors: mostly signed zeros
        nodes[2:4, 1:, : field.delta] = -0.0
        nodes /= np.sqrt((nodes**2).sum(axis=(1, 2)))[:, None, None]
        ps = PointSet(field, m, nodes)
        assert np.signbit(ps.nodes[ps.nodes == 0.0]).any()
        for got, want in zip(_features(ps), frozen_features(ps)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("field", list(Field), ids=lambda f: f.name)
    @pytest.mark.parametrize("m", [2, 3, 8])
    def test_matches_pairwise_kernel(self, field, m):
        rng = np.random.default_rng(47)
        ps = random_point_set(rng, field, m, 5)
        g = gram_matrix(ps)
        for i in range(5):
            for j in range(5):
                assert g[i, j] == pytest.approx(
                    projective_cos(ps.nodes[i], ps.nodes[j]), abs=1e-13
                )
        assert np.allclose(np.diag(g), 1.0, atol=1e-12)

    # 700 rows make 16 blocks of 46 rows, the last one 10 rows
    @pytest.mark.parametrize("field", list(Field), ids=lambda f: f.name)
    def test_row_blocks_match_one_block_bit_for_bit(self, field, monkeypatch):
        rng = np.random.default_rng(73)
        ps = random_point_set(rng, field, 3, 700)
        blocked = gram_matrix(ps)
        monkeypatch.setattr(projbound.cubature, "_BLOCK_ELEMENTS", ps.n * ps.n)
        assert blocked.tobytes() == gram_matrix(ps).tobytes()

    # 700 rows make several blocks; the reversed set forms each pair (i, j) as (j, i)
    @pytest.mark.parametrize("field", list(Field), ids=lambda f: f.name)
    def test_bitwise_symmetric(self, field):
        rng = np.random.default_rng(101)
        ps = random_point_set(rng, field, 3, 700)
        g = gram_matrix(ps)
        assert g.tobytes() == g.T.tobytes(order="C")
        reversed_set = PointSet(field, 3, ps.nodes[::-1], ps.weights[::-1])
        assert gram_matrix(reversed_set)[::-1, ::-1].tobytes() == g.tobytes()

    def test_result_is_its_only_n_by_n_array(self):
        rng = np.random.default_rng(79)
        ps = random_point_set(rng, Field.H, 2, 2000, equal_weights=True)
        tracemalloc.start()
        try:
            gram_matrix(ps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 36 * 2**20  # the (2000, 2000) float result is 30.5 MiB

    def test_computed_once_per_verify(self, monkeypatch):
        passes = []
        original = projbound.cubature._gram_pairs

        def counting(ps):
            passes.append(ps.n)
            return original(ps)

        monkeypatch.setattr(projbound.cubature, "_gram_pairs", counting)
        ps, p = load_point_set(BASIS_H_M2)
        assert passes == []
        assert verify(ps, p).passed
        assert passes == [ps.n]
