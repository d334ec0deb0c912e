import gc
import itertools
import math
import operator
import random
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from bruhatkit import fflab
from bruhatkit.errors import BudgetError, IntegrityError, SingularMatrixError
from bruhatkit.exact import GF, ExactMatrix
from bruhatkit.fflab import (
    GroupKind,
    _cell_windows,
    _class_by_commutant,
    _class_by_orbit,
    _classes_met,
    _column_pivots,
    _codes,
    _commutant,
    _decode,
    _det_mod_p,
    _jordan_types_mod_p,
    _partition_into_orbits,
    _root_family,
    _roots,
    _slice_borel_generators,
    _slice_unipotents,
    _torus,
    _weyl_rep,
    borel_centralizer_order,
    borel_generators,
    borel_grid,
    centralizer_order,
    conjugation_orbit,
    count_unipotents,
    enumerate_group,
    group_generators,
    jordan_type,
    parse_kind,
    property_d_report,
    scan_property_d,
    verify_property_d,
    verify_theorem_a,
)
from bruhatkit.partitions import Partition, partitions_of
from bruhatkit.weyl import GroupSpec, gl_order, signed_window_from_symmetric
from bruhatkit.cells import (
    bruhat_decompose,
    c_positive_roots,
    c_root_element,
    c_root_positions,
    cell_order,
    enumerate_cell,
    gl_borel_matrices,
    sp_borel_matrices,
)


def test_kind_parsing_and_validation():
    assert parse_kind("gl", 3) == GroupKind("GL", 3)
    assert parse_kind("SP", 4).weyl_spec == GroupSpec("BC", 2)
    assert parse_kind("sl", 3).weyl_spec == GroupSpec("A", 2)
    with pytest.raises(ValueError):
        parse_kind("so", 5)
    with pytest.raises(ValueError):
        GroupKind("Sp", 5)
    assert GroupKind("Sp", 4).bad_primes == (2,)
    assert GroupKind("GL", 3).bad_primes == ()


def test_enumerate_group_orders():
    # derived by direct enumeration / determinant filters elsewhere
    for name, n, q, expected in [
        ("gl", 2, 2, 6), ("gl", 2, 3, 48), ("gl", 3, 2, 168),
        ("sl", 2, 2, 6), ("sl", 2, 3, 24), ("sl", 2, 5, 120), ("sl", 3, 2, 168),
    ]:
        table = enumerate_group(parse_kind(name, n), q)
        assert len(table) == expected
    with pytest.raises(ValueError):
        enumerate_group(parse_kind("gl", 2), 4)  # q must be prime


def test_enumerate_group_budget():
    with pytest.raises(BudgetError) as info:
        enumerate_group(parse_kind("gl", 3), 3, budget=100)
    assert info.value.required == 11232
    assert str(info.value) == "GL(3) over GF(3) has 11232 elements, over budget 100"


def test_table_matrices_and_cells():
    # oracle: the field-generic column reduction on ExactMatrix, not the kernel
    for name, n, q in [("gl", 2, 3), ("gl", 3, 3), ("sp", 4, 3)]:
        table = enumerate_group(parse_kind(name, n), q)
        for i in range(len(table)):
            m = table.matrix(i)
            assert isinstance(m, ExactMatrix)
            window = bruhat_decompose(m).w.window
            if name == "sp":
                window = signed_window_from_symmetric(window)
            assert window == table.cell_windows[i]


def _count_window_rows(monkeypatch, name="_cell_windows"):
    # the number of matrices each call hands to the window function ``name``
    real = getattr(fflab, name)
    rows = []

    def counted(kind, stack, q):
        rows.append(len(stack))
        return real(kind, stack, q)

    monkeypatch.setattr(fflab, name, counted)
    return rows


def test_table_windows_are_computed_on_demand(monkeypatch):
    rows = _count_window_rows(monkeypatch)
    table = enumerate_group(parse_kind("sp", 4), 3)
    assert rows == []
    picked = [0, 17, 51839, 17]
    assert table.windows_of(picked) == [table.cell_windows[i] for i in picked]
    # windows_of sends its 4 rows; cell_windows all 51,840 once, then caches
    assert rows == [4, 51840]
    assert len(table.cell_windows) == len(table) and rows == [4, 51840]


def test_table_route_windows_only_the_unipotents_and_the_samples(monkeypatch):
    # SL_3(F_3) has 5,616 elements, 729 of them unipotent; the report reads
    # the windows of those and of the 20 spot-check samples and their moves.
    # Every window passes through _distinct_cell_windows
    rows = _count_window_rows(monkeypatch, "_distinct_cell_windows")
    report = verify_theorem_a(parse_kind("sl", 3), 3, seed=0)
    assert report["method"] == "table" and report["ok"]
    assert report["integrity"]["unipotent_count_check"]["found"] == 729
    assert 729 <= sum(rows) <= 729 + 2 * 20


def test_table_route_decodes_only_the_trace_survivors(monkeypatch):
    # SL_3(F_5) has 372,000 elements, 74,500 of them of trace 3; the table
    # decodes those and the spot-check rows, not the whole group
    real = fflab._decode
    rows = []

    def counted(codes, p, n):
        rows.append(len(codes))
        return real(codes, p, n)

    monkeypatch.setattr(fflab, "_decode", counted)
    report = verify_theorem_a(parse_kind("sl", 3), 5, seed=1)
    assert report["method"] == "table" and report["ok"]
    assert 74_500 <= sum(rows) < 100_000


@pytest.mark.parametrize("name,n,q", [("gl", 3, 3), ("sl", 3, 3), ("sp", 4, 3)])
def test_table_matches_the_full_stack_computation(name, n, q):
    # oracle: the whole group decoded, every element put to the plain
    # (g - 1)^n = 0 test, and the windows of every element
    kind = parse_kind(name, n)
    table = enumerate_group(kind, q)
    mats = _decode(fflab._group_codes(group_generators(kind, q), q, 10**6, kind.order(q)), q, n)
    assert len(table) == len(mats) == kind.order(q)
    assert np.array_equal(table.mats, mats)
    assert np.array_equal(table.rows([7, 0, 7]), mats[[7, 0, 7]])
    unipotent = np.flatnonzero(_nilpotent_mask(mats, q))
    assert table.unipotent.tolist() == unipotent.tolist()
    expected = dict(zip(unipotent.tolist(), _jordan_types_mod_p(mats[unipotent], q)))
    assert list(table.unipotent_types.items()) == list(expected.items())
    met = {}
    for i, jt in expected.items():
        met.setdefault(table.cell_windows[i], set()).add(jt)
    assert table.types_by_window() == met


@pytest.mark.parametrize("name,n,q", [("gl", 2, 7), ("sl", 3, 2), ("sp", 4, 3), ("gl", 4, 2)])
def test_code_traces_match_the_decoded_traces(name, n, q):
    kind = parse_kind(name, n)
    codes = fflab._group_codes(group_generators(kind, q), q, 10**6, kind.order(q))
    traces = np.trace(_decode(codes, q, n), axis1=1, axis2=2) % q
    assert np.array_equal(fflab._code_traces(codes, q, n), traces)


def test_table_type_census_catches_a_moved_element(monkeypatch):
    # one table element moved to another Jordan type: the census of both
    # types is off its class size
    real = fflab._distinct_jordan_types

    def moved(stack, p):
        types, inverse = real(stack, p)
        inverse = inverse.copy()
        inverse[0] = (inverse[0] + 1) % len(types)
        return types, inverse

    monkeypatch.setattr(fflab, "_distinct_jordan_types", moved)
    with pytest.raises(IntegrityError, match="unipotent census of SL\\(3\\)/GF\\(3\\)"):
        verify_theorem_a(parse_kind("sl", 3), 3, method="table")


@pytest.mark.parametrize("name,n,q", [("gl", 3, 3), ("sp", 4, 3)])
def test_table_jordan_types_match_exact_oracle(name, n, q):
    table = enumerate_group(parse_kind(name, n), q)
    assert table.unipotent_count() == q ** (2 * table.kind.num_positive_roots())
    for i, jt in table.unipotent_types.items():
        assert jordan_type(table.matrix(i)) == jt


@pytest.mark.parametrize("name,n,q", [("gl", 2, 3), ("sl", 3, 3), ("gl", 4, 2)])
def test_distinct_jordan_types_match_the_exact_oracle(name, n, q):
    # every unipotent element, found by the plain power test, against
    # jordan_type on ExactMatrix; then one element that is not unipotent,
    # put in the middle of them, must make the whole stack raise
    kind = parse_kind(name, n)
    mats = _decode(fflab._group_codes(group_generators(kind, q), q, 10**6, kind.order(q)), q, n)
    mask = _nilpotent_mask(mats, q)
    stack = mats[mask]
    assert len(stack) == q ** (n * (n - 1))
    types, inverse = fflab._distinct_jordan_types(stack, q)
    assert len(set(types)) == len(types)
    assert [types[i] for i in inverse.tolist()] == [
        jordan_type(ExactMatrix(GF(q), g.tolist())) for g in stack]
    mixed = np.insert(stack, len(stack) // 2, mats[~mask][-1], axis=0)
    with pytest.raises(ValueError, match="not unipotent"):
        fflab._distinct_jordan_types(mixed, q)


@pytest.mark.parametrize("p", [2, 3, 1048573])
@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_kernel_ranks_match_exact_rank(p, n):
    rng = np.random.default_rng(1000 * n + p % 1000)
    stack = rng.integers(0, p, size=(120, n, n))
    # make most of them singular: a row becomes a combination of two others,
    # or zero, in some matrices more than once
    for _ in range(3):
        picks = rng.random(len(stack)) < 0.6
        i, a, b = rng.integers(0, n, size=(3, len(stack)))
        ca, cb = rng.integers(0, p, size=(2, len(stack)))
        combo = (ca[:, None] * stack[np.arange(len(stack)), a]
                 + cb[:, None] * stack[np.arange(len(stack)), b]) % p
        stack[picks, i[picks]] = combo[picks]
    stack[0] = 0
    ranks = (_column_pivots(stack, p) >= 0).sum(axis=1)
    expected = [ExactMatrix(GF(p), m.tolist()).rank() for m in stack]
    assert ranks.tolist() == expected
    assert min(expected) == 0 and max(expected) == n and len(set(expected)) > 2


def _pivots_oracle(matrix, p):
    """Pure-Python column reduction over GF(p) with field inverses: each
    column is cleared by the earlier pivot columns, then its pivot is its
    lowest nonzero entry in a row no earlier column used."""
    n = len(matrix)
    cols = [[matrix[i][j] % p for i in range(n)] for j in range(n)]
    pivots = []
    for j in range(n):
        col = cols[j]
        for k, r in enumerate(pivots):
            if r >= 0 and col[r]:
                scale = col[r] * pow(cols[k][r], -1, p) % p
                col[:] = [(x - scale * y) % p for x, y in zip(col, cols[k])]
        free = [i for i in range(n) if col[i] and i not in pivots]
        pivots.append(max(free) if free else -1)
    return pivots


@pytest.mark.parametrize("p", [2, 3, 1048573])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_kernel_pivots_match_a_column_reduction(p, n):
    rng = np.random.default_rng(100 * n + p % 97)
    stack = rng.integers(0, p, size=(60, n, n))
    # rows replaced by combinations of two others, or by zeros, in half of them
    for _ in range(2):
        picks = rng.random(len(stack)) < 0.5
        i, a, b = rng.integers(0, n, size=(3, len(stack)))
        ca, cb = rng.integers(0, p, size=(2, len(stack)))
        combo = (ca[:, None] * stack[np.arange(len(stack)), a]
                 + cb[:, None] * stack[np.arange(len(stack)), b]) % p
        stack[picks, i[picks]] = combo[picks]
    stack[1] = 0
    expected = [_pivots_oracle(m.tolist(), p) for m in stack]
    assert _column_pivots(stack, p).tolist() == expected
    ranks = [n - x.count(-1) for x in expected]
    assert n in ranks and min(ranks) < n
    # invertible stacks, every cell window: lower unitriangular, times a
    # permutation, times upper triangular with a nonzero diagonal
    perms = np.array([rng.permutation(n) for _ in range(40)])
    lower = np.tril(rng.integers(0, p, size=(40, n, n)), -1) + np.eye(n, dtype=np.int64)
    upper = np.triu(rng.integers(0, p, size=(40, n, n)), 1)
    upper[:, np.arange(n), np.arange(n)] = rng.integers(1, p, size=(40, n))
    invertible = (lower @ np.eye(n, dtype=np.int64)[perms] % p) @ upper % p
    pivots = _column_pivots(invertible, p)
    assert pivots.tolist() == [_pivots_oracle(m.tolist(), p) for m in invertible]
    assert (np.sort(pivots, axis=1) == np.arange(n)).all()
    # a stack of one matrix and an empty stack
    assert _column_pivots(stack[:1], p).tolist() == expected[:1]
    assert _column_pivots(stack[:0], p).shape == (0, n)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 7), (3, 3), (5, 3), (7, 2), (13, 4)])
def test_decode_inverts_codes(p, n):
    rng = np.random.default_rng(p * n)
    stack = rng.integers(0, p, size=(50, n, n))
    stack[0] = 0
    stack[1] = p - 1
    codes = _codes(stack, p)
    assert np.array_equal(_decode(codes, p, n), stack)
    assert len(np.unique(codes)) == len(np.unique(stack.reshape(50, -1), axis=0))
    assert _decode(codes[:0], p, n).shape == (0, n, n)


def test_kernel_rejects_singular_windows_and_non_unipotent_types():
    kind = parse_kind("gl", 3)
    good = np.eye(3, dtype=np.int64)[::-1]
    singular = np.array([[1, 2, 0], [2, 4, 0], [0, 0, 1]], dtype=np.int64)
    assert _cell_windows(kind, good[None], 5) == [(3, 2, 1)]
    with pytest.raises(SingularMatrixError):
        _cell_windows(kind, np.stack([good, singular]), 5)
    unipotent = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=np.int64)
    assert _jordan_types_mod_p(unipotent[None], 5) == [Partition([3])]
    with pytest.raises(ValueError):
        _jordan_types_mod_p(np.stack([unipotent, np.diag([2, 1, 1])]), 5)


def test_jordan_type_examples():
    field = GF(3)
    assert jordan_type(ExactMatrix.identity(field, 4)) == Partition([1, 1, 1, 1])
    block = ExactMatrix(field, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    assert jordan_type(block) == Partition([3])
    two_one = ExactMatrix(field, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert jordan_type(two_one) == Partition([2, 1])
    with pytest.raises(ValueError):
        jordan_type(ExactMatrix(field, [[2, 0], [0, 1]]))


def test_regular_unipotent_of_sp4():
    # the product of the two simple root elements is regular: (g-1)^3 != 0
    field = GF(3)
    g = c_root_element(field, 2, ("d", 1, 2), 1) * c_root_element(field, 2, ("l", 2), 1)
    nil = g - ExactMatrix.identity(field, 4)
    assert any(x != 0 for row in (nil * nil * nil).entries for x in row)
    assert jordan_type(g) == Partition([4])


def test_jordan_type_is_conjugation_invariant():
    rng = random.Random(9)
    table = enumerate_group(parse_kind("gl", 3), 3)
    unipotent = sorted(table.unipotent_types)
    picked, conjugates = [], []
    for _ in range(50):
        i = unipotent[rng.randrange(len(unipotent))]
        h = table.mats[rng.randrange(len(table))]
        h_inv = ExactMatrix(GF(3), h.tolist()).inverse()
        picked.append(i)
        conjugates.append((h @ table.mats[i] % 3) @ np.array(
            [[int(x) for x in row] for row in h_inv.entries], dtype=np.int64
        ) % 3)
    types = _jordan_types_mod_p(np.stack(conjugates), 3)
    assert types == [table.unipotent_types[i] for i in picked]


def test_steinberg_unipotent_counts():
    for name, n, qs in [("gl", 2, (2, 3)), ("gl", 3, (2, 3)),
                        ("sl", 2, (2, 3)), ("sl", 3, (2, 3))]:
        kind = parse_kind(name, n)
        for q in qs:
            table = enumerate_group(kind, q)
            expected = q ** (2 * kind.num_positive_roots())
            assert table.unipotent_count() == expected
            assert count_unipotents(kind, q) == expected


def test_steinberg_count_sp4():
    kind = parse_kind("sp", 4)
    for q in (3, 5):
        assert count_unipotents(kind, q) == q**8


def _no_work_before_the_budget_checks(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work began before the budget checks")

    for name in ("_slice_unipotents", "conjugacy_classes", "borel_grid", "enumerate_group"):
        monkeypatch.setattr(fflab, name, no_work)


def test_census_budget_is_checked_before_any_slice_scan(monkeypatch):
    # |W| * |B| = 120 * 2^4 * 3^10 = 113,374,080 for SL_5(F_3), over the
    # default 10^8: the cells run must stop before it lists the classes,
    # builds a grid or scans a slice
    _no_work_before_the_budget_checks(monkeypatch)
    kind = GroupKind("SL", 5)
    with pytest.raises(BudgetError) as before_scan:
        verify_theorem_a(kind, 3, method="cells")
    with pytest.raises(BudgetError) as census:
        count_unipotents(kind, 3)
    assert str(before_scan.value) == str(census.value) == (
        "unipotent census of SL(5)/GF(3) scans |W| * |B| = 113374080 matrices, "
        "over budget 100000000")
    assert before_scan.value.required == 113374080
    assert before_scan.value.budget == 10**8
    # SL_8(F_2): the 22 classes of S_8 are not listed first
    with pytest.raises(BudgetError) as info:
        verify_theorem_a(GroupKind("SL", 8), 2)
    assert str(info.value) == (
        "unipotent census of SL(8)/GF(2) scans |W| * |B| = 10823317585920 matrices, "
        "over budget 100000000")


def test_grid_budget_is_checked_before_any_work(monkeypatch):
    # |B| = 324 for Sp_4(F_3) is in the budget, 10,000 for Sp_4(F_5) is not:
    # property D checks every prime before it scans the first, and the
    # cells run checks |B| before it lists the classes
    _no_work_before_the_budget_checks(monkeypatch)
    kind = parse_kind("sp", 4)
    message = "Borel grid of Sp(4)/GF(5) holds |B| = 10000 matrices, over budget 1000"
    with pytest.raises(BudgetError) as info:
        scan_property_d(kind, [3, 5], cell_budget=1000)
    assert str(info.value) == message
    assert info.value.required == 10000 and info.value.budget == 1000
    with pytest.raises(BudgetError) as info:
        verify_theorem_a(kind, 5, cell_budget=1000)
    assert str(info.value) == message
    # the table run's spot checks build a grid too: SL_3(F_5) is enumerated
    # outright, and its |B| = 2000 is checked before the group closure
    with pytest.raises(BudgetError) as info:
        verify_theorem_a(parse_kind("sl", 3), 5, cell_budget=1000)
    assert str(info.value) == "Borel grid of SL(3)/GF(5) holds |B| = 2000 matrices, over budget 1000"


def test_drivers_build_one_grid_per_prime_and_free_it(monkeypatch):
    # each grid is built by the driver, once per prime, only after the one
    # before it is freed, and none outlives its driver call
    built = []
    build = fflab.borel_grid

    def tracked(kind, q):
        assert all(ref() is None for _, ref in built), "two grids alive at once"
        grid = build(kind, q)
        built.append(((str(kind), q), weakref.ref(grid)))
        return grid

    monkeypatch.setattr(fflab, "borel_grid", tracked)
    assert verify_theorem_a(parse_kind("sp", 4), 5, seed=1)["ok"]
    scan_property_d(parse_kind("sp", 4), [3, 5])
    assert count_unipotents(parse_kind("sl", 3), 5) == 5 ** 6
    assert [key for key, _ in built] == [("Sp(4)", 5), ("Sp(4)", 3), ("Sp(4)", 5), ("SL(3)", 5)]
    gc.collect()
    assert all(ref() is None for _, ref in built)


def _nilpotent_mask(stack, q):
    # oracle: (g - 1)^n = 0 by n - 1 plain products, no trace test
    n = stack.shape[1]
    nil = (stack - np.eye(n, dtype=np.int64)) % q
    power = nil
    for _ in range(n - 1):
        power = power @ nil % q
    return (power == 0).all(axis=(1, 2))


@pytest.mark.parametrize("name,n,qs", [("gl", 2, (2,)), ("gl", 3, (3, 5)), ("sl", 3, (3, 5)),
                                       ("sp", 4, (3, 5))])
def test_trace_prefilter_keeps_every_unipotent_in_grid_order(name, n, qs):
    # oracle: the dense product w_rep @ B, filtered by nilpotence alone
    # and the walk over W: its census, and for every window kept, the types
    # met and the first hit in grid order
    kind = parse_kind(name, n)
    for q in qs:
        borel = borel_grid(kind, q)
        elements = list(kind.weyl_spec.elements())
        census, type_sets, first_hits = fflab._walk(kind, q, borel, {w.window for w in elements})
        expected_census = 0
        for w in elements:
            dense = _weyl_rep(kind, w, q) @ borel % q
            expected = dense[_nilpotent_mask(dense, q)]
            found = np.concatenate(list(_slice_unipotents(kind, w, q, borel)))
            assert np.array_equal(found, expected), (q, w)
            expected_census += q ** w.length() * len(expected)
            assert type_sets[w.window] == set(_jordan_types_mod_p(expected, q) if len(expected) else [])
            if len(expected):
                assert np.array_equal(first_hits[w.window], expected[0])
            else:
                assert w.window not in first_hits
        assert census == expected_census == q ** (2 * kind.num_positive_roots())
        # the power test is exact on any input: the whole grid, mostly not unipotent
        assert np.array_equal(fflab._unipotent_mask(borel, q), _nilpotent_mask(borel, q))


def _principal_minor_sum(stack):
    # e2: the sum of the principal 2 x 2 minors, over the integers
    n = stack.shape[1]
    return sum(stack[:, i, i] * stack[:, j, j] - stack[:, i, j] * stack[:, j, i]
               for i, j in itertools.combinations(range(n), 2))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_unipotent_mask_matches_the_power_oracle(n, p):
    rng = np.random.default_rng(100 * n + p)
    count = 400
    uniform = rng.integers(0, p, size=(count, n, n))
    # unipotent: upper unitriangular matrices under a permutation similarity
    upper = np.triu(rng.integers(0, p, size=(count, n, n)), 1) + np.eye(n, dtype=np.int64)
    perms = np.array([rng.permutation(n) for _ in range(count)])
    unipotent = upper[np.arange(count)[:, None, None], perms[:, :, None], perms[:, None, :]]
    # companion matrices of x^n - n x^(n-1) + C(n, 2) x^(n-2) + ..., the
    # lower coefficients random: each passes the trace and e2 tests, and is
    # unipotent only when its polynomial is (x - 1)^n
    companion = np.zeros((count, n, n), dtype=np.int64)
    companion[:, np.arange(1, n), np.arange(n - 1)] = 1
    coeffs = rng.integers(0, p, size=(count, n))  # a_0 .. a_(n-1)
    coeffs[:, n - 1] = -n
    coeffs[:, n - 2] = math.comb(n, 2)
    companion[:, :, n - 1] = -coeffs
    stack = np.concatenate([uniform, unipotent, companion]) % p
    stack = stack[rng.permutation(len(stack))]
    expected = _nilpotent_mask(stack, p)
    assert np.array_equal(fflab._unipotent_mask(stack, p), expected)
    assert expected.sum() >= count
    passed = ((np.trace(stack, axis1=1, axis2=2) - n) % p == 0) & (
        (_principal_minor_sum(stack) - math.comb(n, 2)) % p == 0)
    assert not (expected & ~passed).any()
    if n >= 3:
        assert (passed & ~expected).any()
    # the one e2 kernel against the minor-sum oracle: w_rep the identity (the
    # table) and a random signed monomial (a grid slice)
    monomials = [(np.arange(n), np.ones(n, dtype=np.int64)),
                 (rng.permutation(n), rng.choice([-1, 1], size=n))]
    for cols, signs in monomials:
        rep = np.zeros((n, n), dtype=np.int64)
        rep[np.arange(n), cols] = signs
        e2 = (_principal_minor_sum(rep @ stack) - math.comb(n, 2)) % p == 0
        assert np.array_equal(fflab._e2_mask(stack.transpose(1, 2, 0), cols, signs, p), e2)


def test_power_test_sees_only_trace_and_e2_survivors(monkeypatch):
    # both routes, the table and the walk (theorem A's cells and property
    # D's slices), hand the power test only matrices with trace n and
    # e2 = C(n, 2) mod p
    power_test = fflab._unipotent_mask
    handed = []

    def checked(batch, p):
        n = batch.shape[1]
        assert ((np.trace(batch, axis1=1, axis2=2) - n) % p == 0).all()
        assert ((_principal_minor_sum(batch) - math.comb(n, 2)) % p == 0).all()
        handed.append(len(batch))
        return power_test(batch, p)

    monkeypatch.setattr(fflab, "_unipotent_mask", checked)
    sp4 = parse_kind("sp", 4)
    for route in (lambda: enumerate_group(parse_kind("sl", 3), 5),
                  lambda: verify_theorem_a(sp4, 3, method="table", seed=1),
                  lambda: verify_theorem_a(sp4, 3, method="cells", seed=1),
                  lambda: scan_property_d(sp4, [3])):
        handed.clear()
        route()
        assert sum(handed) > 0


def test_weyl_rep_must_be_monomial():
    with pytest.raises(IntegrityError):
        fflab._monomial(np.array([[1, 1], [0, 1]]))
    with pytest.raises(IntegrityError):
        fflab._monomial(np.array([[0, 1], [0, 2]]))
    cols, signs = fflab._monomial(np.array([[0, 0, 2], [1, 0, 0], [0, 1, 0]]))
    assert cols.tolist() == [2, 0, 1] and signs.tolist() == [2, 1, 1]


@pytest.mark.parametrize("name,n,q", [("gl", 3, 3), ("sp", 4, 3), ("sp", 4, 5)])
def test_cells_run_scans_each_slice_once(name, n, q, monkeypatch):
    # one walk over W per prime: the minimal slices are not scanned again
    # for the census
    calls = Counter()
    scan = fflab._slice_unipotents

    def counted(kind, w, q, borel):
        calls[q] += 1
        return scan(kind, w, q, borel)

    monkeypatch.setattr(fflab, "_slice_unipotents", counted)
    kind = parse_kind(name, n)
    report = verify_theorem_a(kind, q, method="cells", seed=1)
    assert report["ok"]
    assert calls == {q: kind.weyl_spec.order()}


@pytest.mark.parametrize("name,n,q", [("gl", 2, 5), ("gl", 3, 3), ("sl", 3, 3), ("gl", 3, 5),
                                      ("sl", 4, 3)])
def test_type_census_matches_the_class_sizes(name, n, q):
    kind = parse_kind(name, n)
    if kind.order(q) <= 10**6:
        # oracle for the class-size formula: the whole-group table
        table = enumerate_group(kind, q)
        fflab._check_type_census(kind, q, Counter(table.unipotent_types.values()))
    # the walk checks its own per-type census and raises on a mismatch
    assert count_unipotents(kind, q) == q ** (2 * kind.num_positive_roots())


def _drop_one_hit(monkeypatch):
    scan = fflab._slice_unipotents
    dropped = []

    def lossy(kind, w, q, borel):
        for hits in scan(kind, w, q, borel):
            if len(hits) and not dropped:
                dropped.append(w)
                hits = hits[1:]
            yield hits

    monkeypatch.setattr(fflab, "_slice_unipotents", lossy)
    return dropped


@pytest.mark.parametrize("name,n,q", [("gl", 3, 3), ("sl", 3, 5)])
def test_type_census_catches_a_dropped_hit(name, n, q, monkeypatch):
    kind = parse_kind(name, n)
    dropped = _drop_one_hit(monkeypatch)
    with pytest.raises(IntegrityError, match="unipotent census"):
        verify_theorem_a(kind, q, method="cells")
    assert dropped
    dropped.clear()
    with pytest.raises(IntegrityError, match="unipotent census"):
        count_unipotents(kind, q)


def test_dropped_hit_fails_the_sp_census_count(monkeypatch):
    # Sp has no per-type check; the Steinberg count still fails the report
    _drop_one_hit(monkeypatch)
    report = verify_theorem_a(parse_kind("sp", 4), 3, method="cells")
    assert not report["integrity"]["unipotent_count_check"]["ok"] and not report["ok"]


@pytest.mark.parametrize("name,n,q,method", [
    pytest.param("gl", 3, 3, "cells", id="gl-3-3"), pytest.param("sl", 3, 5, "cells", id="sl-3-5"),
    pytest.param("sp", 4, 3, "cells", id="sp-4-3"),
    ("gl", 3, 3, "table"), ("sl", 3, 5, "table"), ("sp", 4, 3, "table")])
def test_census_catches_an_e2_prefilter_that_drops_a_unipotent(name, n, q, method, monkeypatch):
    # a mutant e2 prefilter that rejects the first unipotent w_rep b it
    # sees, on the walk or the table: the type census fails for GL and SL,
    # the Steinberg count for Sp
    e2_mask = fflab._e2_mask
    dropped = []

    def lossy(b, cols, signs, q):
        mask = e2_mask(b, cols, signs, q)
        products = b[cols].transpose(2, 0, 1).astype(np.int64) * signs[:, None] % q
        hits = np.flatnonzero(mask & _nilpotent_mask(products, q))
        if len(hits) and not dropped:
            mask[hits[0]] = False
            dropped.append(hits[0])
        return mask

    monkeypatch.setattr(fflab, "_e2_mask", lossy)
    kind = parse_kind(name, n)
    if name == "sp":
        report = verify_theorem_a(kind, q, method=method)
        assert not report["integrity"]["unipotent_count_check"]["ok"] and not report["ok"]
    else:
        with pytest.raises(IntegrityError, match="unipotent census"):
            verify_theorem_a(kind, q, method=method)
    assert len(dropped) == 1


def test_borel_grid_sizes():
    for name, n, q in [("gl", 2, 3), ("gl", 3, 2), ("sl", 2, 5), ("sp", 4, 3)]:
        kind = parse_kind(name, n)
        grid = borel_grid(kind, q)
        assert len(grid) == kind.borel_order(q)
        assert len({g.tobytes() for g in grid}) == len(grid)


@pytest.mark.parametrize("name,n,oracle", [
    ("gl", 3, lambda f: gl_borel_matrices(f, 3)),
    ("sl", 3, lambda f: (b for b in gl_borel_matrices(f, 3) if b.det() == 1)),
    ("sp", 4, lambda f: sp_borel_matrices(f, 2)),
])
def test_borel_grid_matches_exact_borel(name, n, oracle):
    grid = borel_grid(parse_kind(name, n), 3)
    expected = {np.array(b.entries, dtype=np.int64).tobytes() for b in oracle(GF(3))}
    assert len(grid) == len(expected)
    assert {g.astype(np.int64).tobytes() for g in grid} == expected


def _int64_borel_grid(kind, q):
    # oracle: the torus times the root families, one int64 (|B|, n, n)
    # product per root
    grid = _torus(kind, q)
    for root in _roots(kind):
        grid = (grid[:, None] @ _root_family(kind.n, root, q)[None]).reshape(-1, kind.n, kind.n) % q
    return grid


@pytest.mark.parametrize("name,n,q", [("gl", 2, 2), ("gl", 3, 5), ("sl", 4, 3), ("sp", 4, 5),
                                      ("sp", 6, 3)])
def test_borel_grid_is_narrow_entry_major_and_in_product_order(name, n, q):
    kind = parse_kind(name, n)
    grid = borel_grid(kind, q)
    assert grid.dtype == np.int8
    assert all(grid[:, r, c].flags["C_CONTIGUOUS"] for r in range(n) for c in range(n))
    assert np.array_equal(grid, _int64_borel_grid(kind, q))


@pytest.mark.parametrize("q,dtype", [(127, np.int8), (131, np.int16)])
def test_borel_grid_dtype_holds_q_minus_1(q, dtype):
    # int8 holds residues up to 127; past that the grid widens, and the
    # walk's sums widen with it
    kind = parse_kind("sl", 2)
    grid = borel_grid(kind, q)
    assert grid.dtype == dtype
    assert np.array_equal(grid, _int64_borel_grid(kind, q))
    assert count_unipotents(kind, q) == q ** 2


@pytest.mark.parametrize("name,n,q", [("gl", 3, 2), ("gl", 3, 5), ("sl", 4, 3), ("sp", 4, 5),
                                      ("sp", 6, 3)])
def test_upper_inverse_matches_the_exact_inverse(name, n, q):
    # the cells route's spot checks invert their Borel conjugators in one batch
    grid = borel_grid(parse_kind(name, n), q)
    rows = grid[np.random.default_rng(10 * n + q).integers(0, len(grid), 50)]
    expected = np.stack([fflab._inv_mod_p(b, q) for b in rows])
    assert np.array_equal(fflab._upper_inverse_mod_p(rows, q), expected)


def test_borel_grid_builds_no_int64_grid():
    # the int8 grid of SL_4(F_5) holds 16 MB; an int64 (|B|, n, n) build
    # would need 128 MB
    tracemalloc.start()
    try:
        grid = borel_grid(parse_kind("sl", 4), 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.nbytes == 16 * 10**6
    assert peak < 2 * grid.nbytes, peak


@pytest.mark.parametrize("n", [4, 6])
def test_sp_root_elements_match_exact_root_elements(n):
    m = n // 2
    kind = parse_kind("sp", n)
    simples = [("d", i, i + 1) for i in range(1, m)] + [("l", m)]
    for q in (3, 5):
        field = GF(q)
        exact = [np.array(c_root_element(field, m, root, 1).entries, dtype=np.int64)
                 for root in simples]
        gens = group_generators(kind, q)
        assert len(gens) == 2 * m
        for x, pos, neg in zip(exact, gens[::2], gens[1::2]):
            assert np.array_equal(pos, x) and np.array_equal(neg, x.T)
        # B is generated by its m torus generators and x_b(1) for every
        # positive root b, in the order of c_positive_roots
        borel = borel_generators(kind, q)
        roots = [np.array(c_root_element(field, m, root, 1).entries, dtype=np.int64)
                 for root in c_positive_roots(m)]
        assert len(borel) == m + m * m
        assert all(np.array_equal(g, x) for g, x in zip(borel[m:], roots))


@pytest.mark.parametrize("name,n", [("gl", 2), ("gl", 3), ("gl", 5), ("sl", 4),
                                    ("sp", 2), ("sp", 4), ("sp", 6), ("sp", 8)])
def test_simple_roots_are_the_listed_ones(name, n):
    # oracle: the simple roots listed outright, e_i - e_(i+1) for GL and SL,
    # and for Sp the roots ("d", i, i + 1) and then the long root ("l", m)
    if name == "sp":
        m = n // 2
        simples = [("d", i, i + 1) for i in range(1, m)] + [("l", m)]
        listed = [tuple(c_root_positions(root, m)) for root in simples]
    else:
        listed = [((i, i + 1, 1),) for i in range(n - 1)]
    assert fflab._simple_roots(parse_kind(name, n)) == listed


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("name,n", [("gl", 3), ("sl", 3), ("sp", 4), ("sp", 6)])
def test_borel_generators_generate_the_borel(name, n, q):
    # at q = 2 the torus is trivial, and the simple root elements alone give
    # a proper subgroup for Sp (8 of the 16 elements of B in Sp_4(F_2))
    kind = parse_kind(name, n)
    grid = borel_grid(kind, q)
    closure = _decode(fflab._group_codes(borel_generators(kind, q), q, len(grid),
                                         kind.borel_order(q)), q, n)
    assert {g.tobytes() for g in closure} == {g.astype(np.int64).tobytes() for g in grid}


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("name,n", [("gl", 3), ("sl", 3), ("sp", 4)])
def test_slice_borel_generators_generate_the_slice_borel(name, n, q):
    # scan_property_d reads |Z_B| = |B_w| / |orbit| off the B_w-orbits, so
    # the generators must give all of B_w = B ∩ w_rep B w_rep^-1, of order
    # |B| / q^length(w), and nothing outside it
    kind = parse_kind(name, n)
    for w in kind.weyl_spec.elements():
        gens = _slice_borel_generators(kind, w, q)
        rep = _weyl_rep(kind, w, q)
        order = kind.borel_order(q) // q ** w.length()
        group = (_decode(fflab._group_codes(gens, q, kind.borel_order(q), order), q, n) if gens
                 else np.eye(n, dtype=np.int64)[None])
        assert len(group) == order
        assert not np.tril(group, -1).any()
        assert not np.tril(fflab._inv_mod_p(rep, q) @ group @ rep % q, -1).any()


def _bfs_oracle(seed, moves):
    """The closure one element at a time, in pure Python on entry tuples: a
    level's images are taken move by move, each over the whole level, and
    an image joins the list the first time it is met.  Sorted, these tuples
    are in code order: a code reads the entries row by row as base-p
    digits."""
    found, seen, level = [seed], {seed}, [seed]
    while level:
        new = []
        for move in moves:
            for x in level:
                y = move(x)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        found += new
        level = new
    return found


def _tuple_mul(a, b, n, p):
    rows = [a[i * n:(i + 1) * n] for i in range(n)]
    cols = [b[j::n] for j in range(n)]
    return tuple(sum(map(operator.mul, r, c)) % p for r in rows for c in cols)


@pytest.mark.parametrize("name,n,q", [("gl", 3, 3), ("sl", 2, 5), ("sp", 4, 3), ("gl", 2, 7),
                                      ("gl", 4, 2), ("sp-borel", 4, 2)])
def test_mulclose_set_matches_the_one_at_a_time_bfs(name, n, q):
    # "-borel": the Borel subgroup, whose generators at q = 2 are the root
    # elements alone
    kind = parse_kind(name.removesuffix("-borel"), n)
    borel = name.endswith("-borel")
    gens = (borel_generators if borel else group_generators)(kind, q)
    order = kind.borel_order(q) if borel else kind.order(q)
    moves = [lambda x, g=tuple(g.ravel().tolist()): _tuple_mul(x, g, n, q) for g in gens]
    expected = _bfs_oracle(tuple(np.eye(n, dtype=int).ravel().tolist()), moves)
    mats = _decode(fflab._group_codes(gens, q, 10**6, order), q, n)
    assert [tuple(m.ravel().tolist()) for m in mats] == sorted(expected)


def test_group_codes_skip_a_repeated_generator_and_the_identity():
    # a generator already in the subgroup listed so far adds no coset: the
    # identity, and a generator given twice, leave SL_2(F_5) as it was
    gens = group_generators(parse_kind("sl", 2), 5)
    eye = np.eye(2, dtype=np.int64)
    listed = [gens[0], eye, gens[0], gens[1], gens[0], eye]
    moves = [lambda x, g=tuple(g.ravel().tolist()): _tuple_mul(x, g, 2, 5) for g in listed]
    expected = _bfs_oracle((1, 0, 0, 1), moves)
    mats = _decode(fflab._group_codes(listed, 5, 10**6, 120), 5, 2)
    assert len(expected) == 120
    assert [tuple(m.ravel().tolist()) for m in mats] == sorted(expected)


def test_conjugation_orbit_set_matches_the_one_at_a_time_bfs():
    # the regular unipotent class of SL_3(F_3): 5616 / 9 = 624 elements
    gens = group_generators(parse_kind("sl", 3), 3)
    u = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=np.int64)
    pairs = [(tuple(g.ravel().tolist()),
              tuple(int(x) for row in ExactMatrix(GF(3), g.tolist()).inverse().entries for x in row))
             for g in gens]
    moves = [lambda x, g=g, h=h: _tuple_mul(_tuple_mul(g, x, 3, 3), h, 3, 3) for g, h in pairs]
    expected = _bfs_oracle(tuple(u.ravel().tolist()), moves)
    orbit = conjugation_orbit(u, gens, 3)
    assert len(expected) == 624
    assert [tuple(x.ravel().tolist()) for x in _decode(orbit, 3, 3)] == sorted(expected)
    assert orbit.shape == (624,) and orbit.dtype == np.int64


def test_closures_hand_back_codes():
    # a group closure is told its order, and an orbit comes back as codes
    gens = group_generators(parse_kind("sl", 2), 5)
    with pytest.raises(TypeError):
        fflab._group_codes(gens, 5, 10**6)
    with pytest.raises(TypeError):
        fflab._mulclose(gens, 5, 10**6)
    codes = fflab._group_codes(gens, 5, 10**6, 120)
    assert np.array_equal(fflab._mulclose(gens, 5, 10**6, 120), _decode(codes, 5, 2))
    u = np.array([[1, 1], [0, 1]], dtype=np.int64)
    orbit = conjugation_orbit(u, gens, 5)
    assert orbit.shape == (12,) and orbit.dtype == np.int64
    assert (orbit[1:] > orbit[:-1]).all() and _codes(u[None], 5)[0] in orbit


@pytest.mark.parametrize("name,n,q", [("sl", 3, 3), ("sp", 4, 3), ("gl", 3, 3)])
def test_group_codes_do_not_depend_on_the_order_of_the_generators(name, n, q):
    # a closure returns the set it found, ascending: the group alone fixes it
    kind = parse_kind(name, n)
    gens = group_generators(kind, q)
    codes = fflab._group_codes(gens, q, 10**6, kind.order(q))
    assert np.array_equal(fflab._group_codes(gens[::-1], q, 10**6, kind.order(q)), codes)


def test_conjugation_orbit_does_not_depend_on_the_order_of_the_generators():
    # the regular unipotent class of SL_3(F_3)
    gens = group_generators(parse_kind("sl", 3), 3)
    u = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=np.int64)
    assert np.array_equal(conjugation_orbit(u, gens[::-1], 3), conjugation_orbit(u, gens, 3))


def test_table_report_does_not_depend_on_the_order_of_the_generators(monkeypatch):
    # the spot checks sample the table by index, so the whole transcript
    # rests on the table's order being the group's code order
    kind = parse_kind("sp", 4)
    report = verify_theorem_a(kind, 3, seed=1, method="table")
    listed = fflab.group_generators
    monkeypatch.setattr(fflab, "group_generators", lambda kind, q: listed(kind, q)[::-1])
    assert verify_theorem_a(kind, 3, seed=1, method="table") == report


def test_sorted_closure_peak_stays_near_its_codes():
    # Sp_4(F_3): 3^16 codes are more than 8 * 51,840, so the closure keeps a
    # sorted seen array, which each chunk of cosets is sorted into; no coset
    # is made twice but for those met twice in one chunk
    kind = parse_kind("sp", 4)
    gens = group_generators(kind, 3)
    tracemalloc.start()
    try:
        codes = fflab._group_codes(gens, 3, 10**6, kind.order(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(codes) == kind.order(3)
    assert peak < 3.5 * codes.nbytes, peak / codes.nbytes


def test_map_closure_peak_stays_near_its_codes():
    # SL_3(F_5): the byte map of 5^9 codes, one chunk of cosets and the row
    # codes of the subgroup they are cosets of, and the codes listed at the
    # end; no per-level images of every element
    kind = parse_kind("sl", 3)
    gens = group_generators(kind, 5)
    tracemalloc.start()
    try:
        codes = fflab._group_codes(gens, 5, 10**6, kind.order(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(codes) == kind.order(5)
    assert peak < 2.25 * codes.nbytes, peak / codes.nbytes


def test_group_codes_make_each_code_about_once(monkeypatch):
    # the coset walk makes the codes of its candidates and of each coset
    # once, except the cosets met twice in one chunk: for SL_3(F_5) at most
    # 1.3 |G| codes, where a BFS makes |gens| = 4 images of every element
    made = []
    real = fflab._right_multiplication_step

    def counted(gens, p, n):
        step = real(gens, p, n)

        def counted_step(rows):
            images = step(rows)
            made.append(images.size)
            return images

        return counted_step

    monkeypatch.setattr(fflab, "_right_multiplication_step", counted)
    kind = parse_kind("sl", 3)
    assert len(fflab._group_codes(group_generators(kind, 5), 5, 10**6, kind.order(5))) == 372000
    assert 372000 <= sum(made) <= 1.3 * 372000, sum(made)


def test_closure_codes_must_fit_int64():
    # 2^64 codes for 8x8 matrices over GF(2); 7x7 (2^49) still fits, with a
    # limit that admits its row tables of 2^7 entries
    with pytest.raises(ValueError, match=r"8x8 matrices over GF\(2\)"):
        fflab._group_codes([np.eye(8, dtype=np.int64)], 2, 10, 1)
    assert len(fflab._group_codes([np.eye(7, dtype=np.int64)], 2, 2 ** 7, 1)) == 1


def test_mulclose_row_tables_count_against_the_limit():
    # the tables of GL_3(F_5) hold 5^3 = 125 row codes each; past them, the
    # 120 elements of <x_a, x_-a> = SL_2(F_5) are listed, and the limit is
    # overrun by the first coset of it that x_b gives
    kind = parse_kind("gl", 3)
    gens = group_generators(kind, 5)
    with pytest.raises(BudgetError) as info:
        fflab._group_codes(gens, 5, 124, kind.order(5))
    assert str(info.value) == "group closure row tables hold 5^3 = 125 entries, over budget 124"
    assert info.value.required == 125 and info.value.budget == 124
    with pytest.raises(BudgetError) as info:
        fflab._group_codes(gens, 5, 125, kind.order(5))
    assert str(info.value) == "group closure reached 240 elements, over budget 125"


def test_mulclose_holds_no_stack_per_level():
    # the closure keeps codes, here in its sorted seen array (told order 1,
    # which only picks the seen set), and they are decoded once: the traced
    # peak stays near the size of the decoded stack, 372,000 3x3 int64
    # matrices
    gens = group_generators(parse_kind("sl", 3), 5)
    tracemalloc.start()
    try:
        codes = fflab._group_codes(gens, 5, 10**6, order=1)
        mats = _decode(codes, 5, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(mats) == 372000
    assert peak < 1.5 * mats.nbytes, (peak, mats.nbytes)


def test_enumerate_group_peak_stays_near_its_codes():
    # the closure's byte map and one chunk of cosets, the traces of 2^16
    # codes at a time, and the Jordan ranks of 4,096 matrices at a time: the
    # traced peak of the whole table build of SL_3(F_5) stays under 16 MiB
    tracemalloc.start()
    try:
        table = enumerate_group(parse_kind("sl", 3), 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 372000 and table.unipotent_count() == 5 ** 6
    assert peak < 16 * 2 ** 20, peak


@pytest.fixture
def closure_paths(monkeypatch):
    """Counts the membership tests of fflab._group_codes on each seen set,
    the byte map ("map") or the sorted code array ("sorted"), and records
    the byte size of the map each "map" test reads."""
    calls = Counter()
    calls.maps = []
    real = fflab._marked

    def counted(seen, codes):
        path = "map" if seen.dtype == bool else "sorted"
        calls[path] += 1
        if path == "map":
            calls.maps.append(seen.nbytes)
        return real(seen, codes)

    monkeypatch.setattr(fflab, "_marked", counted)
    return calls


@pytest.mark.parametrize("name,n,q", [("gl", 3, 3), ("sl", 2, 5), ("sp", 4, 3), ("gl", 4, 2)])
def test_closure_bitmap_path_lists_the_sorted_path_codes(closure_paths, name, n, q):
    # the order a group closure is told only picks its seen set: told q^(n^2)
    # it keeps a map, here for Sp_4(F_3) one of 3^16 bytes that its true
    # order would not ask for (3^16 > 8 * 51,840); told 1, a sorted array
    kind = parse_kind(name, n)
    gens = group_generators(kind, q)
    by_map = fflab._group_codes(gens, q, 10**6, order=q ** (n * n))
    assert closure_paths["map"] > 0 and closure_paths["sorted"] == 0
    by_sort = fflab._group_codes(gens, q, 10**6, order=1)
    assert closure_paths["sorted"] > 0
    assert len(by_map) == kind.order(q)
    assert np.array_equal(by_map, by_sort)


def test_borel_closure_bitmap_path_lists_the_sorted_path_codes(closure_paths):
    # a proper subgroup, the Borel of SL_3(F_3): 108 of the 3^9 codes, on
    # the map path and on the sorted path its order picks
    kind = parse_kind("sl", 3)
    gens = borel_generators(kind, 3)
    by_map = fflab._group_codes(gens, 3, 1000, order=3 ** 9)
    assert closure_paths["map"] > 0 and closure_paths["sorted"] == 0
    by_sort = fflab._group_codes(gens, 3, 1000, order=kind.borel_order(3))
    assert closure_paths["sorted"] > 0
    assert len(by_map) == kind.borel_order(3) == 108
    assert np.array_equal(by_map, by_sort)


def test_group_codes_takes_the_map_path_only_within_8_codes_per_element(closure_paths):
    # the swap generates a group of order 2 in GL_2(F_2), whose 2^4 codes
    # are exactly 8 per element: the map path.  The identity alone
    # generates the trivial group, 16 codes per element: the sorted path,
    # which finds the identity listed and walks no coset
    swap = np.array([[0, 1], [1, 0]], dtype=np.int64)
    eye = np.eye(2, dtype=np.int64)
    assert fflab._group_codes([swap], 2, limit=4, order=2).tolist() == [6, 9]
    assert closure_paths == {"map": 4} and closure_paths.maps == [16] * 4
    assert fflab._group_codes([eye], 2, limit=4, order=1).tolist() == [9]
    assert closure_paths == {"map": 4, "sorted": 1}


@pytest.mark.parametrize("name,n,q,path", [("sp", 4, 3, "sorted"), ("sl", 3, 5, "map")])
def test_enumerate_group_sizes_its_seen_map_by_the_group_order(closure_paths, name, n, q, path):
    # Sp_4(F_3): 3^16 codes are more than 8 * 51,840, so no map; SL_3(F_5):
    # 5^9 codes are at most 8 * 372,000, a map of 5^9 bytes
    kind = parse_kind(name, n)
    assert len(enumerate_group(kind, q)) == kind.order(q)
    assert set(closure_paths) == {path}
    assert all(size <= 8 * kind.order(q) for size in closure_paths.maps)
    assert set(closure_paths.maps) == ({q ** (n * n)} if path == "map" else set())


def test_mulclose_of_the_sp6_borel_at_q2_takes_the_sorted_path(closure_paths):
    # a map of these 2^36 codes would hold far more than 8 per element of
    # |B| = 512
    kind = parse_kind("sp", 6)
    order = kind.borel_order(2)
    assert len(fflab._group_codes(borel_generators(kind, 2), 2, order, order)) == 512
    assert closure_paths["map"] == 0 and closure_paths["sorted"] > 0


def test_mulclose_budget_error_is_the_same_on_both_paths(closure_paths):
    # 3^9 = 19,683 codes <= 8 * |SL_3(F_3)| = 44,928, so _group_codes takes
    # the map path; told order 1, the sorted one
    gens = group_generators(parse_kind("sl", 3), 3)
    with pytest.raises(BudgetError) as by_map:
        fflab._group_codes(gens, 3, limit=1000, order=5616)
    assert closure_paths["map"] > 0 and closure_paths["sorted"] == 0
    with pytest.raises(BudgetError) as by_sort:
        fflab._group_codes(gens, 3, limit=1000, order=1)
    assert closure_paths["sorted"] > 0
    assert str(by_map.value) == str(by_sort.value)
    assert str(by_map.value).startswith("group closure reached ")
    assert str(by_map.value).endswith(" elements, over budget 1000")
    assert by_map.value.required == by_sort.value.required > 1000
    assert by_map.value.budget == by_sort.value.budget == 1000


def test_closure_bitmap_path_refuses_a_singular_move(closure_paths):
    # diag(1, 2) generates H = {I, diag(1, 2)}, and x -> x e11 sends both to
    # e11: the coset "H e11" lists e11 twice.  The map marks it once, and the
    # sorted array holds it once when its repeats are dropped
    e11 = np.array([[1, 0], [0, 0]], dtype=np.int64)
    gens = [np.diag([1, 2]), e11]
    for order in (3 ** 4, 1):
        with pytest.raises(IntegrityError, match="group closure listed 4 codes but marked 3"):
            fflab._group_codes(gens, 3, limit=100, order=order)
    assert closure_paths["map"] > 0 and closure_paths["sorted"] > 0


@pytest.mark.parametrize("name,n,q", [("gl", 3, 3), ("sl", 3, 3), ("gl", 4, 2)])
def test_table_type_counts_match_the_class_sizes(name, n, q):
    # the unipotent class of type lam in GL_n(F_q) has |GL_n| / |Z(u_lam)|
    # elements, |Z(u_lam)| = q^(sum lam'_i^2 - sum m_i^2) prod |GL_{m_i}(q)|
    # with m_i the multiplicity of the part i; each has det 1, so SL_n has
    # the same classes
    table = enumerate_group(parse_kind(name, n), q)
    found = Counter(table.unipotent_types.values())
    expected = {}
    for lam in partitions_of(n):
        mults = [lam.multiplicity(i) for i in set(lam.parts)]
        exponent = sum(c * c for c in lam.conjugate().parts) - sum(m * m for m in mults)
        centralizer = q ** exponent
        for m in mults:
            centralizer *= gl_order(m, q)
        expected[lam] = gl_order(n, q) // centralizer
    assert found == expected


def _key_set(stack):
    return {x.tobytes() for x in stack}


def _slice_keys(kind, w, q):
    return _key_set(_weyl_rep(kind, w, q) @ borel_grid(kind, q) % q)


def _scaled_slice_types(kind, w, q):
    # q^length(w) times the Jordan types of the slice w_rep * B
    found = Counter()
    for hits in _slice_unipotents(kind, w, q, borel_grid(kind, q)):
        found.update(_jordan_types_mod_p(hits, q))
    return Counter({jt: q ** w.length() * count for jt, count in found.items()})


@pytest.mark.parametrize("name,n", [("gl", 3), ("sl", 3), ("sp", 4)])
def test_slices_match_the_table(name, n):
    # oracle: the whole-group table, cell by cell; in SL the odd-length
    # slices need the det-1 representative to lie in the group at all
    kind, q = parse_kind(name, n), 3
    table = enumerate_group(kind, q)
    cells, types = {}, {}
    for mat, window in zip(table.mats, table.cell_windows):
        cells.setdefault(window, set()).add(mat.tobytes())
    for i, jt in table.unipotent_types.items():
        types.setdefault(table.cell_windows[i], Counter())[jt] += 1
    census = Counter()
    for w in kind.weyl_spec.elements():
        keys = _slice_keys(kind, w, q)
        assert len(keys) == kind.borel_order(q) and keys <= cells[w.window]
        found = _scaled_slice_types(kind, w, q)
        assert found == types.get(w.window, Counter())
        census += found
    # the census per Jordan type: the class sizes of G(F_3)
    assert census == Counter(table.unipotent_types.values())
    assert count_unipotents(kind, q) == table.unipotent_count() == q ** (2 * kind.num_positive_roots())


@pytest.mark.parametrize("name,n", [("gl", 3), ("sp", 4)])
def test_slices_match_exact_cells_f2(name, n):
    # oracle: the ExactMatrix cell enumerator and jordan_type
    kind, q = parse_kind(name, n), 2
    for w in kind.weyl_spec.elements():
        cell = list(enumerate_cell(w, q))
        keys = {np.array(g.entries, dtype=np.int64).tobytes() for g in cell}
        assert len(keys) == cell_order(w, q)
        assert _slice_keys(kind, w, q) <= keys
        expected = Counter()
        for g in cell:
            try:
                expected[jordan_type(g)] += 1
            except ValueError:  # not unipotent
                pass
        assert _scaled_slice_types(kind, w, q) == expected


@pytest.mark.parametrize("name,n,q", [("sl", 3, 3), ("sp", 4, 3), ("sl", 2, 2), ("sp", 4, 2)])
def test_property_d_slice_records_match_full_cell_orbits(name, n, q):
    # oracle: gamma ∩ BwB taken whole from the table, split into B-orbits;
    # B is generated by its torus and x_b(1) for every positive root b (at
    # q = 2 the simple ones do not generate U of Sp_4).  At q = 2 the slice
    # group B_w of w0 has no generators at all
    kind = parse_kind(name, n)
    borel_gens = list(_torus(kind, q)) + [_root_family(n, root, q)[1] for root in _roots(kind)]
    table = enumerate_group(kind, q)
    gens = group_generators(kind, q)
    scan = scan_property_d(kind, [q], allow_bad_prime=True)
    assert scan.cells
    for cell in scan.cells:
        members = table.mats[[i for i, jt in table.unipotent_types.items()
                              if jt == cell.target and table.cell_windows[i] == cell.w.window]]
        orbits = _partition_into_orbits(members, borel_gens, q)
        # each orbit starts at its least member
        assert all(orbit.min() == orbit[0] for orbit in orbits)
        reps = _decode(np.array([orbit[0] for orbit in orbits], dtype=np.int64), q, n)
        expected = {
            "q": q,
            "intersection_size": len(members),
            "orbit_count": len(orbits),
            "orbit_sizes": sorted(len(orbit) for orbit in orbits),
            "zg": sorted(centralizer_order(kind, q, conjugation_orbit(r, gens, q)) for r in reps),
            "zb": sorted(borel_centralizer_order(kind, q, r) for r in reps),
        }
        assert cell.per_q == [expected]


def test_verify_theorem_a_gl2():
    report = verify_theorem_a(parse_kind("gl", 2), 3, seed=1)
    assert report["ok"] and report["all_match"]
    by_label = {tuple(r["class_label"]): r for r in report["classes"]}
    assert by_label[(1, 1)]["cells"][0]["minimum"] == [1, 1]
    assert by_label[(2,)]["cells"][0]["minimum"] == [2]
    assert report["spot_checks"]["ok"]
    assert report["integrity"]["order_check"]["ok"]
    assert report["integrity"]["unipotent_count_check"]["ok"]


def test_verify_theorem_a_sl3_f2():
    report = verify_theorem_a(parse_kind("sl", 3), 2)
    assert report["all_match"]
    minima = [r["cells"][0]["minimum"] for r in report["classes"]]
    assert sorted(map(tuple, minima)) == [(1, 1, 1), (2, 1), (3,)]


def test_verify_theorem_a_cells_mode_matches_table_mode():
    kind = parse_kind("sp", 4)
    by_table = verify_theorem_a(kind, 3)
    by_cells = verify_theorem_a(kind, 3, method="cells")
    assert by_table["method"] == "table" and by_cells["method"] == "cells"
    assert by_table["classes"] == by_cells["classes"]
    assert by_cells["integrity"]["unipotent_count_check"]["ok"]


def test_verify_theorem_a_sp4_f5_via_cells():
    # the large-prime run the cell parametrization exists for (about 0.1 s)
    report = verify_theorem_a(parse_kind("sp", 4), 5, seed=3)
    assert report["method"] == "cells"
    assert report["all_match"] and report["ok"]
    assert report["integrity"]["unipotent_count_check"]["found"] == 5**8
    assert report["spot_checks"]["ok"]


def test_verify_theorem_a_seed_reproducible():
    a = verify_theorem_a(parse_kind("sl", 2), 3, seed=42)
    b = verify_theorem_a(parse_kind("sl", 2), 3, seed=42)
    assert a == b


def test_bad_prime_guard():
    with pytest.raises(ValueError):
        verify_theorem_a(parse_kind("sp", 4), 2)
    report = verify_theorem_a(parse_kind("sp", 4), 2, allow_bad_prime=True)
    assert report["advisory"]
    # reported but not asserted: integrity still matters, match does not
    assert report["ok"] == all(c["ok"] for c in report["integrity"].values())
    with pytest.raises(ValueError):
        verify_property_d(parse_kind("sp", 4), [2, 3])


def test_bad_prime_message_is_the_same_in_both_drivers():
    message = "q = 2 is a bad prime for Sp(4); pass allow_bad_prime to explore anyway"
    kind = parse_kind("sp", 4)
    for refused in (lambda: verify_theorem_a(kind, 2), lambda: scan_property_d(kind, [3, 2]),
                    lambda: verify_property_d(kind, [2, 3])):
        with pytest.raises(ValueError) as info:
            refused()
        assert str(info.value) == message


@pytest.mark.parametrize("method, spot_checks", [("table", "_spot_checks"),
                                                 ("cells", "_spot_checks_from_cells")])
def test_theorem_a_ok_covers_the_spot_checks(monkeypatch, method, spot_checks):
    real = getattr(fflab, spot_checks)

    def failing(*args, **kwargs):
        return {**real(*args, **kwargs), "ok": False}

    monkeypatch.setattr(fflab, spot_checks, failing)
    report = verify_theorem_a(parse_kind("sl", 2), 3, seed=1, method=method)
    assert report["method"] == method and report["all_match"]
    assert all(c["ok"] for c in report["integrity"].values())
    assert report["spot_checks"]["ok"] is False
    assert report["ok"] is False


def test_property_d_needs_semisimple_and_two_primes():
    with pytest.raises(ValueError):
        verify_property_d(parse_kind("gl", 2), [3, 5])
    with pytest.raises(ValueError):
        verify_property_d(parse_kind("sl", 2), [3])
    with pytest.raises(ValueError):
        property_d_report(scan_property_d(parse_kind("sl", 2), [3]))


def test_property_d_counts_distinct_primes():
    # a prime given twice is one prime: [3, 3] is too few, not a zero log
    kind = parse_kind("sl", 2)
    with pytest.raises(ValueError, match="two primes"):
        verify_property_d(kind, [3, 3])
    assert scan_property_d(kind, [5, 3, 5]).qs == [3, 5]
    assert verify_property_d(kind, [5, 3, 5]) == verify_property_d(kind, [3, 5])


def test_property_d_sl2():
    kind = parse_kind("sl", 2)
    scan = scan_property_d(kind, [3, 5])
    report = property_d_report(scan)
    assert report == verify_property_d(kind, [3, 5])
    assert report["all_match"]
    (row,) = report["classes"]
    assert row["class_label"] == [2]
    assert row["d_C"] == 1
    assert row["orbit_count_stable"]
    assert row["zb_stable"]
    assert row["exponents_within_tolerance"]
    assert all(round(e) == 1 for e in row["growth_exponents"])
    # |Z_SL2(u)(F_q)| = 2q for odd q
    per_q = {r["q"]: r for r in row["per_q"]}
    assert per_q[3]["zg"] == [6, 6]
    assert per_q[5]["zg"] == [10, 10]
    # two regular unipotent classes of SL_2(F_q), each with |Z| = 2q, so M = 1/q
    (cell,) = scan.cells
    assert cell.class_sizes == [[4, 4], [12, 12]]
    assert scan.masses(cell) == [Fraction(1, 3), Fraction(1, 5)]
    assert scan.mass_exponents(cell) == [1.0]


def test_property_d_classes_met_cover_gamma_sp4_f3():
    # the G(F_3)-classes met by gamma ∩ BwB make up all of gamma(F_3), so every
    # rational form of gamma meets the cell; oracle: the whole-group table
    kind = parse_kind("sp", 4)
    scan = scan_property_d(kind, [3])
    type_counts = Counter(enumerate_group(kind, 3).unipotent_types.values())
    found = {}
    for cell in scan.cells:
        (sizes,) = cell.class_sizes
        assert sum(sizes) == type_counts[cell.target]
        (mass,) = scan.masses(cell)
        found[cell.w.window] = (cell.target.parts, sorted(sizes), mass)
    assert found == {
        (-2, 1): ((4,), [2880, 2880], Fraction(1, 9)),
        (2, -1): ((4,), [2880, 2880], Fraction(1, 9)),
        (-1, -2): ((2, 2), [240, 480], Fraction(1, 72)),
    }


def test_partition_into_orbits_rejects_an_unstable_set():
    kind = parse_kind("sl", 2)
    u = np.array([[1, 1], [0, 1]], dtype=np.int64)
    # the B-orbit of u in SL_2(F_5) is u and [[1, 4], [0, 1]]; G moves it further
    codes = conjugation_orbit(u, borel_generators(kind, 5), 5)
    b_orbit = _decode(codes, 5, 2)
    keys = set(codes.tolist())
    assert len(keys) == 2
    assert [set(o.tolist()) for o in _partition_into_orbits(b_orbit, borel_generators(kind, 5), 5)
            ] == [keys]
    # no generators: every matrix is its own orbit
    assert [o.tolist() for o in _partition_into_orbits(b_orbit, [], 5)] == [
        [key] for key in sorted(keys)]
    with pytest.raises(IntegrityError):
        _partition_into_orbits(b_orbit, group_generators(kind, 5), 5)


def test_partition_into_orbits_rejects_a_repeated_matrix():
    kind = parse_kind("sl", 2)
    u = np.array([[1, 1], [0, 1]], dtype=np.int64)
    b_orbit = _decode(conjugation_orbit(u, borel_generators(kind, 5), 5), 5, 2)
    for gens in (borel_generators(kind, 5), []):
        with pytest.raises(IntegrityError, match="listed twice"):
            _partition_into_orbits(np.concatenate([b_orbit, b_orbit[1:]]), gens, 5)


def test_conjugation_orbit_limit():
    kind = parse_kind("sl", 2)
    gens = group_generators(kind, 5)
    u = np.array([[1, 1], [0, 1]], dtype=np.int64)
    # a regular unipotent class of SL_2(F_5) has 12 elements
    assert len(conjugation_orbit(u, gens, 5, limit=12)) == 12
    with pytest.raises(BudgetError) as info:
        conjugation_orbit(u, gens, 5, limit=5)
    assert info.value.budget == 5 and info.value.required == 7
    assert str(info.value) == "conjugation orbit reached 7 elements, over budget 5"


def test_echelon_nullspace_matches_brute_force_2x2_f3():
    # oracle: every X in M_2(F_3) tried against X a = b X, for all a and b
    q = 3
    every = np.array(list(itertools.product(range(q), repeat=4)), dtype=np.int64).reshape(-1, 2, 2)
    digits = np.array(list(itertools.product(range(q), repeat=4)), dtype=np.int64)
    dims = Counter()
    for a in every:
        for b in every:
            solved = {x.tobytes() for x in every[((every @ a - b @ every) % q == 0).all(axis=(1, 2))]}
            basis = _commutant(a, b, q)
            k = len(basis)
            span = np.tensordot(digits[:q ** k, 4 - k:], basis, axes=1) % q if k else every[:1] * 0
            assert {x.tobytes() for x in span} == solved and len(solved) == q ** k
            dims[k] += 1
    assert set(dims) == {0, 1, 2, 4}
    # the reduced pass leaves rank and det alone
    rng = random.Random(5)
    for _ in range(200):
        rows = [[rng.randrange(q) for _ in range(4)] for _ in range(rng.choice([3, 4, 5]))]
        rank, det, pivots = GF(q).echelon(rows)
        assert GF(q).reduced_echelon(rows)[:3] == (rank, det, pivots)
        basis = GF(q).nullspace(rows)
        assert rank + len(basis) == 4
        assert all(sum(r * x for r, x in zip(row, vec)) % q == 0 for row in rows for vec in basis)


def test_det_mod_p_matches_exact_det():
    rng = np.random.default_rng(11)
    for n, p in [(2, 3), (3, 5), (4, 7), (5, 3)]:
        stack = rng.integers(0, p, size=(60, n, n))
        expected = [ExactMatrix(GF(p), m.tolist()).det() for m in stack]
        assert _det_mod_p(stack, p).tolist() == expected


def _code(mat, q):
    return int(_codes(mat[None], q)[0])


def _captured_reps(kind, q, monkeypatch):
    # the representatives scan_property_d hands to _classes_met, per cell
    captured = []

    def spy(kind, q, reps, limit=None):
        captured.append(reps)
        return _classes_met(kind, q, reps, limit)

    monkeypatch.setattr(fflab, "_classes_met", spy)
    scan_property_d(kind, [q])
    return captured


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("name,n", [("sl", 2), ("sl", 3), ("sp", 4)])
def test_centralizer_routes_agree(name, n, q, monkeypatch):
    # both routes forced on every representative, whatever the rule picks:
    # |Z_G| and the class partition from the commutant equal those from the
    # conjugation orbit, which is the orbit-stabilizer oracle
    kind = parse_kind(name, n)
    gens = group_generators(kind, q)
    captured = _captured_reps(kind, q, monkeypatch)
    assert captured
    for reps in captured:
        orbits = []  # (orbit codes, their set)
        for rep in reps:
            orbit, keys = next(((o, k) for o, k in orbits if _code(rep, q) in k), (None, None))
            if orbit is None:
                orbit = conjugation_orbit(rep, gens, q)
                keys = set(orbit.tolist())
                orbits.append((orbit, keys))
            expected_z = centralizer_order(kind, q, orbit)
            basis = _commutant(rep, rep, q)
            by_commutant = _class_by_commutant(kind, q, rep, basis)
            by_orbit = _class_by_orbit(kind, q, rep)
            assert by_commutant[0] == by_orbit[0] == expected_z
            for b in reps:
                assert by_commutant[1](b) == by_orbit[1](b) == (_code(b, q) in keys)
        zg, sizes = _classes_met(kind, q, reps)
        assert sizes == [len(o) for o, _ in orbits]
        assert zg == [centralizer_order(kind, q, next(o for o, k in orbits if _code(r, q) in k))
                      for r in reps]


def test_property_d_sp4_at_three_primes():
    # new reach: the commutant gives the Coxeter classes of Sp_4(F_7)
    # (about 2.8 * 10^6 elements each) without building them
    kind = parse_kind("sp", 4)
    scan = scan_property_d(kind, [3, 5, 7])
    report = property_d_report(scan)
    assert report["all_match"] and report["ok"]
    for cell, row in zip(scan.cells, report["classes"]):
        assert row["orbit_count_stable"] and row["zb_stable"]
        if cell.cls.min_length == 2:
            # Coxeter: |Z_G| = 2q^2, per-form exponents exactly 2, M = 1/q^2
            assert [r["zg"] for r in row["per_q"]] == [[2 * q * q] * 2 for q in (3, 5, 7)]
            assert scan.masses(cell) == [Fraction(1, q * q) for q in (3, 5, 7)]
        else:
            # w0: 2q^3(q -+ 1), M = 1/(q^2(q^2 - 1))
            assert [r["zg"] for r in row["per_q"]] == [
                [2 * q ** 3 * (q - 1)] * 2 + [2 * q ** 3 * (q + 1)] * 2 for q in (3, 5, 7)]
            assert scan.masses(cell) == [Fraction(1, q * q * (q * q - 1)) for q in (3, 5, 7)]
        assert all(abs(e - cell.cls.min_length) <= 0.25 for e in scan.mass_exponents(cell))


def test_class_bfs_is_bounded_by_the_cell_budget():
    # the w0 classes of Sp_4(F_3) (k = 8, so by orbit) have 240 and 480
    # elements; |B| = 324 fits the budget, the larger class does not
    kind = parse_kind("sp", 4)
    assert scan_property_d(kind, [3], cell_budget=480).cells
    with pytest.raises(BudgetError) as info:
        scan_property_d(kind, [3], cell_budget=400)
    assert info.value.budget == 400 and info.value.required > 400
    assert "conjugation orbit" in str(info.value)
