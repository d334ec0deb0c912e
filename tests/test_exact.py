import itertools
import random
import sys
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhatkit.errors import SingularMatrixError
from bruhatkit.exact import (
    GF,
    QQ,
    ExactMatrix,
    PrimeField,
    enumerate_matrices,
    integer_root,
    is_prime,
    matrix_from_json,
    random_invertible,
)


def test_is_prime():
    primes = [2, 3, 5, 7, 11, 101, 7919, 2**31 - 1, 2**61 - 1]
    # strong pseudoprimes to the bases 2..7 and 2..23
    composites = [1, 0, 4, 9, 91, 561, 1105, 2**20, 3215031751, 3825123056546413051]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_integer_root():
    for n in list(range(300)) + [3**40 - 1, 3**40, 3**40 + 1, (2**61 - 1) ** 3]:
        for k in range(1, 8):
            r = integer_root(n, k)
            assert r**k <= n < (r + 1) ** k


def test_prime_field_validation():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(ValueError):
        GF(2**31 + 11)  # beyond the supported range
    f = GF(7)
    assert f.coerce(-1) == 6
    assert f.inv(3) == 5
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_rational_field_coercion():
    assert QQ.coerce("2/4") == Fraction(1, 2)
    assert QQ.coerce(3) == 3
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    with pytest.raises(TypeError):
        QQ.coerce(0.5)
    # stored rationals are always in lowest terms with positive denominator
    m = ExactMatrix(QQ, [["2/4", Fraction(-3, -6)], ["-6/8", Fraction(7, -1)]])
    for row in m.entries:
        for x in row:
            assert x.denominator > 0
            assert gcd(x.numerator, x.denominator) == 1
    assert m[0, 1] == Fraction(1, 2)
    assert m[1, 0] == Fraction(-3, 4)
    assert m[1, 1] == -7


def test_matrix_basics():
    m = ExactMatrix(QQ, [[1, 1], [1, 2]])
    assert m.det() == 1
    assert m.rank() == 2
    assert ExactMatrix.identity(QQ, 3).rank() == 3
    ones = ExactMatrix(GF(2), [[1, 1, 1]] * 3)
    assert ones.rank() == 1
    assert ones.det() == 0
    with pytest.raises(ValueError):
        ExactMatrix(QQ, [[1, 2], [3]])
    with pytest.raises(ValueError):
        m * ExactMatrix(GF(5), [[1, 0], [0, 1]])


def test_inverse_round_trip():
    rng = random.Random(3)
    for field in (QQ, GF(7)):
        for n in (2, 3, 4):
            for _ in range(20):
                m = random_invertible(field, n, rng)
                assert m * m.inverse() == ExactMatrix.identity(field, n)
    singular = ExactMatrix(QQ, [[1, 2], [2, 4]])
    with pytest.raises(SingularMatrixError) as info:
        singular.inverse()
    assert info.value.column == 2


def _fraction_det(m):
    # naive Fraction elimination oracle, independent of the Bareiss path
    a = [[Fraction(x) for x in row] for row in m.entries]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for i in range(col + 1, n):
            f = a[i][col] / a[col][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return det


def test_rational_det_and_rank_against_fraction_oracle():
    rng = random.Random(4)
    pool = [Fraction(a, b) for a in range(-4, 5) for b in (1, 2, 3)]
    for n in (2, 3, 4, 5):
        for _ in range(25):
            entries = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
            m = ExactMatrix(QQ, entries)
            assert m.det() == _fraction_det(m)
    # rank of a product of a random column times a random row is 1
    for _ in range(10):
        col = [rng.choice(pool) for _ in range(4)]
        row = [rng.choice(pool) for _ in range(4)]
        if all(x == 0 for x in col) or all(x == 0 for x in row):
            continue
        m = ExactMatrix(QQ, [[c * r for r in row] for c in col])
        assert m.rank() == 1


def test_int_det_and_rank():
    assert QQ.echelon([[2, 0], [0, 3]])[1] == 6
    assert QQ.echelon([[1, 2], [2, 4]])[1] == 0
    assert QQ.echelon([[0, 1], [1, 0]])[1] == -1
    assert QQ.echelon([[1, 2], [2, 4]])[0] == 1
    assert QQ.echelon([[0, 0], [0, 0]])[0] == 0
    rng = random.Random(5)
    for n in (3, 4, 5):
        for _ in range(25):
            rows = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)]
            rank, det, pivots = QQ.echelon(rows)
            assert det == _fraction_det(ExactMatrix(QQ, rows))
            # every minor is below (6 sqrt 5)^5 < 5 * 10^5 in absolute value,
            # so the rank mod a larger prime is the rank over Q
            assert rank == ExactMatrix(GF(1048573), rows).rank() == len(pivots)
            # and the rank of each leading column block is the pivots before it
            assert [sum(c < j for c in pivots) for j in range(1, n + 1)] == [
                ExactMatrix(GF(1048573), [row[:j] for row in rows]).rank()
                for j in range(1, n + 1)]


def test_gf3_2x2_det_and_rank_exhaustive():
    field = GF(3)
    seen = 0
    for m in enumerate_matrices(field, 2):
        (a, b), (c, d) = m.entries
        det = (a * d - b * c) % 3
        assert m.det() == det
        assert m.rank() == (2 if det else 1 if any((a, b, c, d)) else 0)
        seen += 1
    assert seen == 81


def test_triangularity_predicate():
    up = ExactMatrix(QQ, [[1, 5], [0, 2]])
    assert up.is_upper_triangular()
    assert not up.transpose().is_upper_triangular()


def test_json_round_trip():
    m = ExactMatrix(QQ, [["1/2", 3], [-2, "7/3"]])
    back = matrix_from_json(m.to_json())
    assert back == m
    assert m.to_json()["entries"][0] == ["1/2", 3]
    g = ExactMatrix(GF(5), [[4, 0], [1, 3]])
    assert matrix_from_json(g.to_json()) == g
    assert g.to_json()["field"] == {"p": 5}


def test_json_validation_errors():
    with pytest.raises(ValueError):
        matrix_from_json({"field": "R", "rows": 1, "cols": 1, "entries": [[1]]})
    with pytest.raises(ValueError):
        matrix_from_json({"field": "Q", "rows": 2, "cols": 2, "entries": [[1, 2]]})
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 1, "cols": 1, "entries": [[1]]})
    with pytest.raises(ValueError):
        matrix_from_json([[1, 2]])


def test_prime_field_equality_semantics():
    assert GF(5) == PrimeField(5)
    assert GF(5) != GF(7)
    assert QQ != GF(5)
    assert hash(GF(5)) == hash(PrimeField(5))


# ---------------------------------------------------------------------------
# matrix arithmetic against naive plain-number oracles

PRODUCT_FIELDS = (GF(2), GF(7), GF(2**31 - 1), QQ)
# large coprime denominators next to small ones; Fraction reduces each draw
DENOMINATORS = st.sampled_from([1, 2, 3, 7, 97, 1009, 65537, 2**31 - 1, 10**9 + 7])


def _entries(field):
    small = st.integers(-3, 3)
    if field == QQ:
        return st.builds(Fraction, small | st.integers(-(10**9), 10**9), DENOMINATORS)
    # raw integers, reduced by the constructor
    return small | st.integers(-(2**40), 2**40)


def _grid(entry, rows, cols):
    return st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def operands(draw):
    """A field, a k x m matrix a, an m x n matrix b and a k x m matrix c, as
    plain nested lists of ints or Fractions."""
    field = draw(st.sampled_from(PRODUCT_FIELDS))
    k, m, n = (draw(st.integers(1, 4)) for _ in range(3))
    entry = _entries(field)
    return field, draw(_grid(entry, k, m)), draw(_grid(entry, m, n)), draw(_grid(entry, k, m))


def _naive(field, value):
    return value % field.p if isinstance(field, PrimeField) else Fraction(value)


def _assert_reduced(field, matrix):
    for row in matrix.entries:
        for x in row:
            if isinstance(field, PrimeField):
                assert type(x) is int and 0 <= x < field.p
            else:
                assert type(x) is Fraction
                assert x.denominator > 0 and gcd(x.numerator, x.denominator) == 1


@settings(max_examples=200, deadline=None)
@given(operands())
def test_matrix_arithmetic_matches_naive_oracle(ops):
    field, a, b, c = ops
    ma, mb, mc = (ExactMatrix(field, x) for x in (a, b, c))
    product = [[_naive(field, sum(a[i][t] * b[t][j] for t in range(len(b))))
                for j in range(len(b[0]))] for i in range(len(a))]
    results = {
        "product": (ma * mb, product),
        "sum": (ma + mc, [[_naive(field, x + y) for x, y in zip(r, s)] for r, s in zip(a, c)]),
        "difference": (ma - mc, [[_naive(field, x - y) for x, y in zip(r, s)] for r, s in zip(a, c)]),
        "scaled": (ma.scaled(-3), [[_naive(field, -3 * x) for x in r] for r in a]),
        "transpose": (ma.transpose(), [[_naive(field, r[j]) for r in a] for j in range(len(a[0]))]),
        "submatrix": (ma.submatrix(range(len(a)), range(1)), [[_naive(field, r[0])] for r in a]),
    }
    for name, (got, expected) in results.items():
        assert [list(row) for row in got.entries] == expected, name
        assert (got.rows, got.cols) == (len(expected), len(expected[0])), name
        _assert_reduced(field, got)
        # a computed result is the same key as the matrix built from scratch
        direct = ExactMatrix(field, expected)
        assert got == direct and hash(got) == hash(direct), name
        assert len({got, direct}) == 1 and {direct: name}[got] == name
        assert hash(got) == hash((field, direct.entries))


@settings(max_examples=50, deadline=None)
@given(field=st.sampled_from(PRODUCT_FIELDS),
       widths=st.lists(st.integers(1, 4), min_size=2, max_size=4).filter(lambda w: len(set(w)) > 1))
def test_constructor_rejects_ragged_rows(field, widths):
    with pytest.raises(ValueError, match="ragged"):
        ExactMatrix(field, [[1] * w for w in widths])


def test_constructor_and_arithmetic_reject_bad_shapes():
    for field in PRODUCT_FIELDS:
        for empty in ([], [[]], [[], []]):
            with pytest.raises(ValueError, match="non-empty"):
                ExactMatrix(field, empty)
        m = ExactMatrix(field, [[1, 2], [3, 4]])
        with pytest.raises(ValueError, match="non-empty"):
            m.submatrix(range(0), range(2))
        wide = ExactMatrix(field, [[1, 2, 3], [4, 5, 6]])
        for op in (m.__add__, m.__sub__):
            with pytest.raises(ValueError, match="shape mismatch"):
                op(wide)
        with pytest.raises(ValueError, match="shape mismatch"):
            wide * m


# ---------------------------------------------------------------------------
# the integer form of each field against determinant and minor oracles

FORM_FIELDS = (QQ, GF(2), GF(7))
# odd and prime to 7, so nonzero in every field of FORM_FIELDS
SCALES = st.sampled_from([1, -1, 3, -5, 9, 2**31 - 1])


def _leibniz(field, rows):
    # the determinant as a sum over permutations, reduced in the field
    n = len(rows)
    return _naive(field, sum(
        (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        * prod(rows[i][perm[i]] for i in range(n))
        for perm in itertools.permutations(range(n))))


def _minor_rank(field, rows):
    # the largest k with a nonzero k x k minor
    return max((k for k in range(1, min(len(rows), len(rows[0])) + 1)
                if any(_leibniz(field, [[rows[i][j] for j in cols] for i in rws])
                       for rws in itertools.combinations(range(len(rows)), k)
                       for cols in itertools.combinations(range(len(rows[0])), k))), default=0)


@st.composite
def integer_forms(draw):
    """A field of FORM_FIELDS, a k x m matrix over it and a scale nonzero in it."""
    field = draw(st.sampled_from(FORM_FIELDS))
    k, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return field, ExactMatrix(field, draw(_grid(_entries(field), k, m))), draw(SCALES)


@settings(max_examples=200, deadline=None)
@given(integer_forms())
def test_the_integer_form_keeps_each_value(case):
    field, m, c = case
    forms = [field.integers(row) for row in m.entries]
    for row, (v, d) in zip(m.entries, forms):
        assert [field.quotient(x, d) for x in v] == list(row)
        # normalized keeps v / d, from a scaled copy too, in a reduced form
        for w, e in (field.normalized(v, d), field.normalized([c * x for x in v], c * d)):
            assert [field.quotient(x, e) for x in w] == list(row)
            if field == QQ:
                assert gcd(e, *w) == 1
            else:
                assert all(0 <= x < field.p for x in (*w, e))
            # cross-multiplied integers agree exactly where the entries do
            assert [[field.same(x * e, y * d) for y in w] for x in v] == [
                [a == b for b in row] for a in row]
    rows = [v for v, _ in forms]
    rank, det, pivots = field.echelon(rows)
    assert rank == len(pivots) == _minor_rank(field, m.entries) == m.rank()
    if m.is_square():
        assert field.quotient(det, prod(d for _, d in forms)) == _leibniz(field, m.entries) == m.det()
    # the reduced pass: the same rank, det and pivots, and each pivot column
    # holds the scale at its pivot row and zero above and below it
    *forward, reduced, scale = field.reduced_echelon(rows)
    assert forward == [rank, det, pivots]
    assert [[row[c] for row in reduced] for c in pivots] == [
        [scale if i == k else 0 for i in range(len(reduced))] for k in range(rank)]
    # one nullspace vector per free column, 1 there and 0 at the other free
    # columns, solving each row of m
    free = [j for j in range(m.cols) if j not in pivots]
    basis = field.nullspace(rows)
    assert [[x[f] for f in free] for x in basis] == [
        [field.one if f == g else field.zero for f in free] for g in free]
    assert all(_naive(field, sum(a * b for a, b in zip(row, x))) == field.zero
               for row in m.entries for x in basis)
    if m.is_square() and det:
        assert m * m.inverse() == m.inverse() * m == ExactMatrix.identity(field, m.rows)
    elif m.is_square():
        # the error names the first column j whose leading block has rank below j
        with pytest.raises(SingularMatrixError) as info:
            m.inverse()
        assert info.value.column == next(
            j for j in range(1, m.cols + 1) if _minor_rank(field, [row[:j] for row in m.entries]) < j)


# ---------------------------------------------------------------------------
# QQ.coerce reads strings as Fraction does

PARSE_CORPUS = [
    " 3/4 ", "+3", "--3", "-0/5", "1_000", "٣", "3/-4", "1/0", "0.5", "1e3", "", "/", "3/",
    "-", "-3/0", "0/0", "-0", "007", "-007/014", "1.5e-3", ".5e1", "5.", "1e", "1e+", "1e_5",
    "1e5_", "1 e5", "3/4e5", "1e5e5", "1__0", "_1", "inf", "nan", "١/٢", "1²", "3 / 4",
    "\t-12/8\n", "1/2/3", "0x10", "1" * 4300, "-" + "1" * 4300, "1" * 4301, "1/" + "1" * 4301,
]


def _parse_outcome(parse, text):
    """The value parse gives for text, or the type and message it raises."""
    try:
        value = parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return type(value), value


def _bounded(text):
    """Fraction(text), or the refusal of a value over the int string digit limit."""
    outcome = _parse_outcome(Fraction, text)
    bound = 10 ** sys.get_int_max_str_digits()
    if outcome[0] is Fraction and max(abs(outcome[1].numerator), outcome[1].denominator) >= bound:
        return ValueError, (f"{text!r} has more than {sys.get_int_max_str_digits()} digits in its "
                            f"numerator or denominator (sys.get_int_max_str_digits())")
    return outcome


@pytest.mark.parametrize("text", PARSE_CORPUS)
def test_coerce_reads_the_corpus_as_fraction_does(text):
    assert _parse_outcome(QQ.coerce, text) == _parse_outcome(Fraction, text)


# decimal-looking text, with exponents short enough for Fraction to build
_NUMERIC_TEXT = st.from_regex(r"\A\s?[-+]{0,2}[0-9_٣]{0,6}([./][0-9_]{0,6})?([eE][-+]?[0-9_]{0,4})?\s?\Z")


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), _NUMERIC_TEXT))
def test_coerce_reads_any_text_as_fraction_does(text):
    assert _parse_outcome(QQ.coerce, text) == _bounded(text)


@pytest.fixture
def digit_limit():
    limit = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(limit)


def test_coerce_bounds_the_digits_of_a_value(digit_limit):
    limit = sys.get_int_max_str_digits()
    assert QQ.coerce(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert QQ.coerce(f"5e-{limit}") == Fraction(1, 2 * 10 ** (limit - 1))
    # the exponent alone decides these, before any power of 10 is made
    for text in (f"1e{limit}", f"1e-{limit}", "1e50000000", "-2.5E-50000000", " 1_0e+5_0000_000 "):
        with pytest.raises(ValueError, match="digits in its numerator or denominator") as info:
            QQ.coerce(text)
        assert repr(text) in str(info.value)
    # a value of 0 has no digits to bound, however large its exponent
    assert QQ.coerce("0.00e99999999") == 0
    # a long decimal without an exponent is checked on its value
    with pytest.raises(ValueError, match="digits in its numerator or denominator"):
        QQ.coerce("1" * 3000 + "." + "1" * 3000)
    digit_limit(640)  # the smallest limit Python accepts, besides 0
    assert QQ.coerce("1e639") == 10**639
    with pytest.raises(ValueError, match="more than 640 digits"):
        QQ.coerce("1e640")
    digit_limit(0)  # Python's "no limit" lifts the bound too
    assert QQ.coerce("1e5000") == 10**5000
