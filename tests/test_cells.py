import dataclasses
import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhatkit.cells import (
    BruhatFactorization,
    Flag,
    _reconstructs,
    borel_order,
    bruhat_cell_rank_profile,
    bruhat_decompose,
    c_positive_roots,
    c_root_element,
    cell_order,
    enumerate_cell,
    gl_borel_matrices,
    gl_free_positions,
    inverted_roots,
    relative_position,
    sp_borel_matrices,
    sp_bruhat_decompose,
    sp_torus_matrix,
    sp_weyl_matrix,
    symplectic_form,
    symplectic_membership,
)
from bruhatkit.errors import BudgetError, IntegrityError, SingularMatrixError
from bruhatkit.exact import GF, QQ, ExactMatrix, enumerate_matrices, random_invertible
from bruhatkit.weyl import GroupSpec, WeylElement


def invertible_matrices(field, n):
    for m in enumerate_matrices(field, n):
        if m.det() != field.zero:
            yield m


def test_decompose_basic_examples():
    up = ExactMatrix(QQ, [[1, 2, 3], [0, 4, 5], [0, 0, 6]])
    fact = bruhat_decompose(up)
    assert fact.w.is_identity()
    anti = ExactMatrix.permutation(QQ, (3, 2, 1))
    assert bruhat_decompose(anti).w.window == (3, 2, 1)
    lower = ExactMatrix(GF(2), [[1, 0], [1, 1]])
    assert bruhat_decompose(lower).w.window == (2, 1)


def test_decompose_witnesses_are_borel():
    rng = random.Random(6)
    for field in (QQ, GF(7)):
        for _ in range(25):
            g = random_invertible(field, 4, rng)
            fact = bruhat_decompose(g)
            assert fact.b1.is_upper_triangular()
            assert fact.b2.is_upper_triangular()
            assert all(fact.b1[i, i] != field.zero for i in range(4))
            assert all(fact.b2[i, i] != field.zero for i in range(4))
            assert fact.product() == g


def test_decompose_factors_are_pinned():
    # the SHA-256 of the JSON (w, b1, b2) of 200 seeded factorizations: a
    # rewrite of the elimination must give the same factors byte for byte
    rng = random.Random(7)
    records = []
    for field, n in [(QQ, 6)] * 100 + [(GF(7), 5)] * 100:
        fact = bruhat_decompose(random_invertible(field, n, rng))
        records.append([list(fact.w.window), fact.b1.to_json(), fact.b2.to_json()])
    blob = json.dumps(records, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "b143759447e53ee3f9526252552e88109837e202c9f053e2f78df33157bbb9a3")


def test_decompose_rejects_singular():
    with pytest.raises(SingularMatrixError) as info:
        bruhat_decompose(ExactMatrix(QQ, [[1, 2], [2, 4]]))
    assert info.value.column == 2
    with pytest.raises(SingularMatrixError):
        bruhat_cell_rank_profile(ExactMatrix(GF(3), [[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        bruhat_decompose(ExactMatrix(QQ, [[1, 2, 3], [4, 5, 6]]))


def test_exhaustive_partition_small_gl():
    # every invertible matrix lies in exactly one cell, of the right size
    for n, q in [(2, 2), (2, 3), (3, 2)]:
        field = GF(q)
        counts = Counter()
        for g in invertible_matrices(field, n):
            fact = bruhat_decompose(g)
            assert fact.product() == g
            assert bruhat_cell_rank_profile(g) == fact.w
            counts[fact.w] += 1
        spec = GroupSpec("A", n - 1)
        assert set(counts) == set(spec.elements())
        for w, size in counts.items():
            assert size == cell_order(w, q)


def test_rank_profile_identity_and_random_agreement():
    assert bruhat_cell_rank_profile(ExactMatrix.identity(GF(5), 4)).is_identity()
    rng = random.Random(7)
    for field in (GF(7), QQ):
        for _ in range(100):
            g = random_invertible(field, 5, rng)
            assert bruhat_cell_rank_profile(g) == bruhat_decompose(g).w


def _random_upper(field, n, rng, pool):
    # invertible upper triangular, with some zero entries above the diagonal
    nonzero = [x for x in pool if x]
    return ExactMatrix(field, [[rng.choice(nonzero) if i == j else rng.choice(pool) if j > i else 0
                                for j in range(n)] for i in range(n)])


def test_rank_profile_mixed_denominators_every_cell():
    # rows scaled by very different denominators; scaling a row keeps every
    # submatrix rank, so the rank profile must still find the cell of w
    rng = random.Random(11)
    pool = [Fraction(a, b) for a in range(-4, 5) for b in (1, 2, 3)] + [0] * 8
    scales = [Fraction(1, 97), Fraction(1, 1009), Fraction(7, 3), Fraction(-5, 65537), 1]
    for w in GroupSpec("A", 4).elements():
        w_rep = ExactMatrix.permutation(QQ, w.window)
        g = _random_upper(QQ, 5, rng, pool) * w_rep * _random_upper(QQ, 5, rng, pool)
        rng.shuffle(scales)
        g = ExactMatrix(QQ, [[c * x for x in row] for c, row in zip(scales, g.entries)])
        assert len({x.denominator for row in g.entries for x in row}) > 3
        assert bruhat_cell_rank_profile(g) == bruhat_decompose(g).w == w
    field = GF(7)
    for w in GroupSpec("A", 4).elements():
        w_rep = ExactMatrix.permutation(field, w.window)
        g = _random_upper(field, 5, rng, range(7)) * w_rep * _random_upper(field, 5, rng, range(7))
        assert bruhat_cell_rank_profile(g) == bruhat_decompose(g).w == w


def test_rank_profile_rejects_singular():
    for field in (GF(2), GF(7), QQ):
        rows = [[1, 2, 0, 1, 3], [0, 1, 1, 0, 2], [1, 0, 0, 1, 1], [2, 1, 3, 0, 1], [1, 2, 0, 1, 3]]
        zero_column = [row[:2] + (0,) + row[3:] for row in random_invertible(field, 5, random.Random(2)).entries]
        for entries in (rows, zero_column):
            with pytest.raises(SingularMatrixError):
                bruhat_cell_rank_profile(ExactMatrix(field, entries))


def test_relative_position_examples():
    field = GF(5)
    std = Flag.standard(field, 3)
    assert relative_position(std, std).is_identity()
    anti = Flag(ExactMatrix.permutation(field, (3, 2, 1)))
    assert relative_position(std, anti).window == (3, 2, 1)
    with pytest.raises(SingularMatrixError):
        Flag(ExactMatrix(GF(5), [[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        relative_position(std, Flag.standard(GF(7), 3))
    with pytest.raises(ValueError):
        relative_position(std, Flag.standard(field, 4))


def test_relative_position_properties():
    rng = random.Random(8)
    field = GF(7)
    n = 4
    for _ in range(50):
        f1 = Flag(random_invertible(field, n, rng))
        f2 = Flag(random_invertible(field, n, rng))
        w12 = relative_position(f1, f2)
        # antisymmetry
        assert relative_position(f2, f1) == w12.inverse()
        # invariance under a common change of frame
        g = random_invertible(field, n, rng)
        assert relative_position(Flag(g * f1.basis), Flag(g * f2.basis)) == w12
        # invariance under flag-preserving column operations
        b1 = _random_borel(field, n, rng)
        b2 = _random_borel(field, n, rng)
        assert relative_position(Flag(f1.basis * b1), Flag(f2.basis * b2)) == w12


def _random_borel(field, n, rng):
    entries = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        entries[i][i] = rng.randrange(1, field.p)
        for j in range(i + 1, n):
            entries[i][j] = rng.randrange(field.p)
    return ExactMatrix(field, entries)


def test_enumerate_cell_gl():
    spec = GroupSpec("A", 1)
    total = 0
    for w in spec.elements():
        cells = list(enumerate_cell(w, 2))
        assert len(cells) == cell_order(w, 2)
        assert len({c.entries for c in cells}) == len(cells)
        total += len(cells)
    assert total == 6  # |GL_2(F_2)|
    spec3 = GroupSpec("A", 2)
    seen = set()
    for w in spec3.elements():
        count = 0
        for g in enumerate_cell(w, 2):
            assert bruhat_decompose(g).w.window == w.window
            assert g.entries not in seen
            seen.add(g.entries)
            count += 1
        assert count == (2 ** w.length()) * borel_order("A", 2, 2)
    assert len(seen) == 168


def _cell_elements(w, q):
    # as the benchmark's exact task counts them: every yielded element, flattened
    return [tuple(int(x) for row in m.entries for x in row) for m in enumerate_cell(w, q)]


def test_enumerate_cell_bc2_w0_q3_is_pinned():
    w0 = GroupSpec("BC", 2).element([-1, -2])
    elements = _cell_elements(w0, 3)
    assert len(elements) == len(set(elements)) == cell_order(w0, 3) == 26244
    digest = hashlib.sha256(json.dumps(sorted(set(elements))).encode()).hexdigest()
    assert digest == "096754128d1377fb13c31739d4407af51ad9125d52c5bdcfb1123095256989fd"


def test_enumerate_cell_a2_w0_q3():
    w0 = GroupSpec("A", 2).longest_element()
    elements = _cell_elements(w0, 3)
    # q^3 * |B| = 27 * 2^3 * 3^3
    assert len(elements) == len(set(elements)) == cell_order(w0, 3) == 5832
    # the cell of w0 is where the lower-left entry and 2x2 minor are nonzero
    for g in elements:
        assert g[6] % 3 and (g[3] * g[7] - g[4] * g[6]) % 3


def test_enumerate_cell_budget():
    w0 = GroupSpec("A", 3).longest_element()
    with pytest.raises(BudgetError) as info:
        list(enumerate_cell(w0, 5, budget=10))
    assert info.value.required == cell_order(w0, 5)
    assert str(info.value) == "cell of [4,3,2,1] over GF(5) has 62500000000 elements, over budget 10"
    with pytest.raises(ValueError):
        next(enumerate_cell(GroupSpec("D", 2).identity(), 2))


def test_symplectic_form_and_membership():
    field = GF(3)
    j = symplectic_form(field, 2)
    assert symplectic_membership(ExactMatrix.identity(field, 4))
    assert not symplectic_membership(ExactMatrix(field, [[1, 1, 0, 0], [0, 1, 0, 0],
                                                         [0, 0, 1, 0], [0, 0, 0, 1]]))
    assert j.transpose() == j.scaled(-1)
    # Sp_2 is SL_2: a determinant-2 matrix is not symplectic
    with pytest.raises(ValueError):
        sp_bruhat_decompose(ExactMatrix(field, [[2, 0], [0, 1]]))
    with pytest.raises(ValueError):
        sp_bruhat_decompose(ExactMatrix(field, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]))  # odd size


def test_symplectic_representatives_and_cells():
    spec = GroupSpec("BC", 2)
    for q in (2, 3):
        field = GF(q)
        for w in spec.elements():
            rep = sp_weyl_matrix(w, field)
            assert symplectic_membership(rep)
            assert sp_bruhat_decompose(rep) == w
    w0 = spec.longest_element()
    rep = sp_weyl_matrix(w0, GF(3))
    # antidiagonal with signs matching the form
    assert rep[0, 3] != 0 and rep[3, 0] != 0


def test_c_root_machinery():
    assert len(c_positive_roots(2)) == 4
    assert len(c_positive_roots(3)) == 9
    field = GF(5)
    for n in (2, 3):
        for root in c_positive_roots(n):
            x = c_root_element(field, n, root, 1)
            assert symplectic_membership(x)
            assert x.is_upper_triangular()
    for spec in [GroupSpec("BC", 2), GroupSpec("BC", 3)]:
        for w in spec.elements():
            assert len(inverted_roots(w)) == w.length()


def test_inverted_roots_match_a_coefficient_vector_oracle():
    # alpha is inverted by w when w^-1(alpha), as a vector in the e-basis,
    # has a negative first nonzero coefficient
    def vector(root, n):
        v = [0] * n
        if root[0] == "l":
            v[root[1] - 1] = 2
        else:
            kind, i, j = root
            v[i - 1], v[j - 1] = 1, (1 if kind == "s" else -1)
        return v

    for n in range(1, 5):
        roots = c_positive_roots(n)
        for w in GroupSpec("BC", n).elements():
            inv = w.inverse().window
            expected = []
            for root in roots:
                image = [0] * n
                for i, c in enumerate(vector(root, n)):
                    image[abs(inv[i]) - 1] += c if inv[i] > 0 else -c
                if next(c for c in image if c) < 0:
                    expected.append(root)
            assert inverted_roots(w) == expected, w


def test_sp_cells_partition_sp4_f2():
    # the eight symplectic cells tile Sp_4(F_2) with sizes q^l * |B|
    spec = GroupSpec("BC", 2)
    seen = set()
    for w in spec.elements():
        count = 0
        for g in enumerate_cell(w, 2):
            assert symplectic_membership(g)
            assert sp_bruhat_decompose(g) == w
            assert g.entries not in seen
            seen.add(g.entries)
            count += 1
        assert count == cell_order(w, 2)
    assert len(seen) == 720  # |Sp_4(F_2)|


def test_point_count_law():
    # sum over W of q^l(w) * |B| is the whole group order
    from bruhatkit.weyl import gl_order, chevalley_order, poincare_polynomial

    for n in (2, 3, 4):
        spec = GroupSpec("A", n - 1)
        poincare = poincare_polynomial(spec)
        for q in (2, 3, 5):
            assert poincare(q) * borel_order("A", n - 1, q) == gl_order(n, q)
    for rank in (1, 2, 3):
        spec = GroupSpec("BC", rank)
        poincare = poincare_polynomial(spec)
        for q in (2, 3, 5):
            assert poincare(q) * borel_order("BC", rank, q) == chevalley_order(spec, q)


def test_sp_cell_spot_checks_q3():
    spec = GroupSpec("BC", 2)
    for w in spec.elements():
        if w.length() > 2:
            continue
        for g in itertools.islice(enumerate_cell(w, 3), 0, None, 7):
            assert symplectic_membership(g)
            assert sp_bruhat_decompose(g) == w


# ---------------------------------------------------------------------------
# reference oracles: the Fraction-by-Fraction column pass and the plain
# product loop of the cell enumerator, kept as they were before the pass
# moved to integer columns and the enumerator to shared row products


def _reference_decompose(g: ExactMatrix) -> BruhatFactorization:
    if not g.is_square():
        raise ValueError("Bruhat decomposition needs a square matrix")
    f = g.field
    n = g.rows
    cols = [list(col) for col in zip(*g.entries)]
    b2 = [list(row) for row in ExactMatrix.identity(f, n).entries]
    used = [False] * n
    window = [0] * n
    for j, col in enumerate(cols):
        piv = next((i for i in range(n - 1, -1, -1) if not used[i] and col[i] != f.zero), None)
        if piv is None:
            raise SingularMatrixError(
                f"matrix is singular: no unused nonzero pivot in column {j + 1}",
                column=j + 1,
            )
        used[piv] = True
        window[j] = piv + 1
        # row j of b2 is scaled by the pivot, then gains c * (row j2) for each
        # c = a[piv][j2] cleared below; each row j2 > j is still e_j2
        b2[j][j:] = [cols[j2][piv] for j2 in range(j, n)]
        inv = f.inv(col[piv])
        cols[j] = col = [f.mul(x, inv) for x in col]
        for j2 in range(j + 1, n):
            c = cols[j2][piv]
            if c != f.zero:
                cols[j2] = [f.sub(x, f.mul(c, y)) for x, y in zip(cols[j2], col)]
    w = WeylElement(GroupSpec("A", n - 1), tuple(window))
    w_rep = ExactMatrix.permutation(f, window)
    # b1 = a * w_rep^-1 moves column j of a to column window[j]
    b1 = ExactMatrix(f, list(zip(*(cols[j] for j in sorted(range(n), key=window.__getitem__)))))
    fact = BruhatFactorization(w, w_rep, b1, ExactMatrix(f, b2))
    if fact.product() != g:
        raise IntegrityError("factorization failed to reconstruct the input")
    return fact


def _rebuilt_sp_borel(field, n):
    # the symplectic Borel with every root element rebuilt for each element
    roots = c_positive_roots(n)
    for diag in itertools.product(range(1, field.p), repeat=n):
        torus = sp_torus_matrix(field, n, diag)
        for params in itertools.product(range(field.p), repeat=len(roots)):
            b = torus
            for root, t in zip(roots, params):
                if t:
                    b = b * c_root_element(field, n, root, t)
            yield b


def _built_gl_borel(field, n):
    # the GL Borel with each element built through the coercing constructor
    uppers = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for diag in itertools.product(range(1, field.p), repeat=n):
        for strict in itertools.product(range(field.p), repeat=len(uppers)):
            mat = [[0] * n for _ in range(n)]
            for i, d in enumerate(diag):
                mat[i][i] = d
            for (i, j), v in zip(uppers, strict):
                mat[i][j] = v
            yield ExactMatrix(field, mat)


def _reference_cell(w, q):
    field = GF(q)
    if w.spec.family == "A":
        n = w.spec.degree
        w_rep = ExactMatrix.permutation(field, w.window)
        free = gl_free_positions(w.window)
        prefixes = []
        for params in itertools.product(range(q), repeat=len(free)):
            mat = [list(row) for row in ExactMatrix.identity(field, n).entries]
            for (i, j), t in zip(free, params):
                mat[i][j] = t
            prefixes.append(ExactMatrix(field, mat) * w_rep)
        borel = _built_gl_borel(field, n)
    else:
        n = w.spec.rank
        w_rep = sp_weyl_matrix(w, field)
        free = inverted_roots(w)
        prefixes = []
        for params in itertools.product(range(q), repeat=len(free)):
            u = ExactMatrix.identity(field, 2 * n)
            for root, t in zip(free, params):
                if t:
                    u = u * c_root_element(field, n, root, t)
            prefixes.append(u * w_rep)
        borel = _rebuilt_sp_borel(field, n)
    return (uw * b for b in borel for uw in prefixes)


def _outcome(decompose, g):
    """What a decomposition gives: the factors and their JSON, or the column
    and message of the singular-matrix error."""
    try:
        fact = decompose(g)
    except SingularMatrixError as err:
        return "singular", err.column, str(err)
    return (fact.w, fact.w_rep, fact.b1, fact.b2,
            json.dumps([fact.b1.to_json(), fact.b2.to_json()], sort_keys=True))


def _assert_matches_reference(g):
    got, expected = _outcome(bruhat_decompose, g), _outcome(_reference_decompose, g)
    assert got == expected
    if got[0] != "singular":
        # the factors hold exactly the reduced entries the reference built
        for ours, ref in zip(got[2:4], expected[2:4]):
            assert [list(map(type, row)) for row in ours.entries] == \
                [list(map(type, row)) for row in ref.entries]


_RATIONALS = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**20)),
)


@st.composite
def _rational_matrices(draw):
    n = draw(st.integers(2, 7))
    rows = draw(st.lists(st.lists(_RATIONALS, min_size=n, max_size=n), min_size=n, max_size=n))
    return ExactMatrix(QQ, rows)


@settings(max_examples=150, deadline=None)
@given(_rational_matrices())
def test_decompose_matches_the_fraction_pass_over_q(g):
    _assert_matches_reference(g)


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 101]), n=st.integers(2, 7), seed=st.integers(0, 2**32))
def test_decompose_matches_the_fraction_pass_over_gf_p(p, n, seed):
    g = random_invertible(GF(p), n, random.Random(seed))
    _assert_matches_reference(g)


def test_decompose_matches_the_fraction_pass_on_hilbert_8():
    # entries of the reduced columns grow fast here, and the gcd step has
    # something to divide out at almost every clearing
    hilbert = ExactMatrix(QQ, [[Fraction(1, i + j + 1) for j in range(8)] for i in range(8)])
    _assert_matches_reference(hilbert)
    assert bruhat_decompose(hilbert).product() == hilbert


def test_decompose_singular_at_column_k_matches_the_reference():
    # column k a combination of the earlier columns reduces to zero in the
    # column pass, so the pass stops at column k and not before
    rng = random.Random(12)
    for field in (QQ, GF(2), GF(5), GF(101)):
        for n in range(2, 7):
            for k in range(1, n + 1):
                g = random_invertible(field, n, rng)
                coeffs = [rng.randrange(-3, 4) for _ in range(k - 1)]
                rows = [list(row) for row in g.entries]
                for row in rows:
                    row[k - 1] = sum(c * x for c, x in zip(coeffs, row))
                singular = ExactMatrix(field, rows)
                with pytest.raises(SingularMatrixError) as info:
                    bruhat_decompose(singular)
                assert info.value.column == k
                with pytest.raises(SingularMatrixError) as ref:
                    _reference_decompose(singular)
                assert str(info.value) == str(ref.value)


def _bumped(m, i, j, delta):
    """m with delta added to entry (i, j)."""
    rows = [list(row) for row in m.entries]
    rows[i][j] += delta
    return ExactMatrix(m.field, rows)


def test_decompose_raises_when_the_factors_do_not_reconstruct(monkeypatch):
    # bruhat_decompose checks the factors it returns, so a factorization that
    # comes out with one upper entry of b1 or b2 off must be rejected
    for field, delta in ((QQ, Fraction(1, 7)), (GF(7), 1)):
        g = random_invertible(field, 4, random.Random(13))
        for factor in ("b1", "b2"):
            def corrupted(w, w_rep, b1, b2, factor=factor, delta=delta):
                fact = BruhatFactorization(w, w_rep, b1, b2)
                return dataclasses.replace(fact, **{factor: _bumped(getattr(fact, factor), 0, 3, delta)})

            monkeypatch.setattr("bruhatkit.cells.BruhatFactorization", corrupted)
            with pytest.raises(IntegrityError, match="factorization failed to reconstruct the input"):
                bruhat_decompose(g)
        monkeypatch.undo()
        assert bruhat_decompose(g).product() == g


@pytest.mark.parametrize("seed", range(4))
def test_reconstruction_check_agrees_with_the_product(seed):
    # the check cross-multiplies the fields' integer vectors; the matrix
    # product is its oracle, on the factorizations and on mutants of one entry
    rng = random.Random(seed)
    for field, delta in ((QQ, Fraction(1, 7)), (GF(2), 1), (GF(7), 1)):
        for _ in range(10):
            g = random_invertible(field, 5, rng)
            fact = bruhat_decompose(g)
            columns = [field.integers(col) for col in zip(*g.entries)]
            assert _reconstructs(fact, columns) and fact.product() == g
            factor = rng.choice(("b1", "b2"))
            i = rng.randrange(5)
            mutant = dataclasses.replace(fact, **{factor: _bumped(getattr(fact, factor), i,
                                                                   rng.randrange(i, 5), delta)})
            assert not _reconstructs(mutant, columns)
            assert mutant.product() != g


@pytest.mark.parametrize("family, rank, q", [("A", 1, 2), ("A", 1, 3), ("A", 2, 2), ("A", 2, 3),
                                             ("BC", 2, 2), ("BC", 2, 3)])
def test_enumerate_cell_matches_the_product_loop(family, rank, q):
    for w in GroupSpec(family, rank).elements():
        got = enumerate_cell(w, q)
        expected = _reference_cell(w, q)
        for k, (ours, ref) in enumerate(itertools.zip_longest(got, expected)):
            assert ours == ref, (w, k)


@pytest.mark.parametrize("rank, q", [(1, 2), (1, 3), (1, 5), (2, 2), (2, 3), (3, 2)])
def test_sp_borel_stream_matches_the_per_element_rebuild(rank, q):
    field = GF(q)
    got = list(sp_borel_matrices(field, rank))
    assert got == list(_rebuilt_sp_borel(field, rank))
    assert len(got) == len(set(got)) == borel_order("BC", rank, q)


@pytest.mark.parametrize("n, q", [(2, 3), (3, 2), (3, 3)])
def test_gl_borel_stream_matches_the_per_element_build(n, q):
    field = GF(q)
    got = list(gl_borel_matrices(field, n))
    assert got == list(_built_gl_borel(field, n))
    assert len(got) == len(set(got)) == borel_order("A", n - 1, q)


def _definitional_rank_profile(g):
    # the window off the rank of every lower-left block, each block's rank
    # from ExactMatrix.rank: w(j) = i where the second difference is 1
    n = g.rows
    ranks = [[g.submatrix(range(i - 1, n), range(j)).rank() if i <= n and j else 0
              for j in range(n + 1)] for i in range(n + 2)]
    if ranks[1][n] != n:
        raise SingularMatrixError("matrix is singular")
    window = []
    for j in range(1, n + 1):
        (i,) = [i for i in range(1, n + 1)
                if ranks[i][j] - ranks[i + 1][j] - ranks[i][j - 1] + ranks[i + 1][j - 1] == 1]
        window.append(i)
    return WeylElement(GroupSpec("A", n - 1), tuple(window))


def _rank_profile_cases():
    yield from invertible_matrices(GF(2), 3)
    yield from invertible_matrices(GF(3), 2)
    rng = random.Random(8)
    for field, n in [(QQ, 6)] * 300 + [(GF(7), 5)] * 300:
        yield random_invertible(field, n, rng)


def test_rank_profile_matches_the_block_ranks_and_the_column_pass():
    cases = 0
    for g in _rank_profile_cases():
        w = bruhat_cell_rank_profile(g)
        assert w == _definitional_rank_profile(g) == bruhat_decompose(g).w
        cases += 1
    assert cases == 168 + 48 + 600


def test_rank_profile_rejects_every_singular_2x2_over_gf3():
    singular = [m for m in enumerate_matrices(GF(3), 2) if m.det() == 0]
    assert len(singular) == 81 - 48
    for g in singular:
        with pytest.raises(SingularMatrixError):
            bruhat_cell_rank_profile(g)
        with pytest.raises(SingularMatrixError):
            _definitional_rank_profile(g)
