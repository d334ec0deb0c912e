"""Exact scalars and dense matrices over Q and over prime fields GF(p).

Rationals are Python Fractions (always reduced, positive denominator);
GF(p) elements are plain residues 0..p-1 with the modulus carried by the
field descriptor.  Nothing here ever touches floating point.

Products reduce once per entry.  Over GF(p) an entry is the plain integer
dot product of a row and a column, taken mod p once.  Over Q each row of
the left factor and each column of the right factor is scaled by the lcm
of its denominators, and an entry is one integer dot product over the
product of the two scalings, normalized by one Fraction(num, den).
Results of matrix arithmetic (products, sums, differences, scalings,
transposes, submatrices) hold reduced entries already, so they are built
without the entry coercion and shape checks of ExactMatrix(field, entries),
which every other matrix still passes through.

Each field also owns its integer form, so that exact elimination is
written once for both fields.  A vector of field elements is held as an
integer vector v over one denominator d, standing for v / d:
  integers(xs)      (v, d) for the elements xs: over Q v = d * xs with d
                    the lcm of their denominators, over GF(p) the residues
                    over d = 1;
  normalized(v, d)  the same value with smaller integers: over Q the gcd of
                    v and d divided out, over GF(p) everything reduced mod p;
  quotient(x, d)    the field element x / d: Fraction(x, d) over Q,
                    x * d^-1 mod p over GF(p); quotients(v, d) does a whole
                    vector, over GF(p) with one inverse;
  same(a, b)        whether the integers a and b stand for the same element:
                    a == b over Q, a = b mod p over GF(p);
  echelon(rows)     (rank, det, pivots) of integer rows, read in the field;
  reduced_echelon(rows)
                    (rank, det, pivots, rows, scale) of the reduced pass;
  nullspace(rows)   a basis of the solutions x of rows . x = 0.
All three are one fraction-free pass, _echelon, given the field's modulus:
Bareiss's elimination over Q, and over GF(p) the pivot rows scaled to 1.
The reduced pass clears the rows above each pivot too, leaving each pivot
equal to one scale, so the nullspace and ExactMatrix.inverse (of the rows
[v_i | d_i e_i]) are read off with quotients(x, scale).  Scaling a row by a
nonzero number keeps the rank of every submatrix.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from .errors import SingularMatrixError

_MAX_PRIME = 2**31


# the first 12 primes as Miller-Rabin witnesses; the least composite that
# passes all of them is 318_665_857_834_031_151_167_461 (OEIS A014233)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_TEST_BOUND = 318_665_857_834_031_151_167_461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the first 12 primes, exact for
    n < PRIME_TEST_BOUND (about 3.2e23)."""
    if n < 2:
        return False
    for small in _WITNESSES:
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in _WITNESSES:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def integer_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0 and k >= 1, in exact integer arithmetic."""
    if n < 2 or k == 1:
        return n
    # Newton's iteration from above, starting at a power of two >= the root
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


class _Field:
    """The elimination both fields share: each passes its modulus, None over Q."""

    modulus = None

    def echelon(self, rows) -> tuple[int, int, list[int]]:
        return _echelon(rows, self.modulus)[:3]

    def reduced_echelon(self, rows):
        return _echelon(rows, self.modulus, reduced=True)

    def nullspace(self, rows) -> list[list]:
        """One solution x of rows . x = 0 per free column f, in order of f:
        x_f = 1, 0 at the other free columns, and at the pivot column of
        reduced row i minus that row's entry f over the scale."""
        _, _, pivots, m, scale = self.reduced_echelon(rows)
        basis = []
        for f in sorted(set(range(len(m[0]))) - set(pivots)):
            x = [0] * len(m[0])
            x[f] = scale
            for row, c in zip(m, pivots):
                x[c] = -row[f]
            basis.append(self.quotients(x, scale))
        return basis


class RationalField(_Field):
    """The field of rationals; a stateless singleton (see QQ)."""

    name = "Q"

    def coerce(self, x) -> Fraction:
        """x as a Fraction: a Fraction itself, an int, or a string.

        A string in the wire form -?[0-9]+(/[0-9]+)? (ASCII digits, at most
        one leading -) is read with int and Fraction(int, int), which raises
        ZeroDivisionError for x/0 as Fraction does.  Any other string goes
        to Fraction(x), so values and error messages are Fraction's, with
        one bound: a value whose numerator or denominator in lowest terms
        has more than sys.get_int_max_str_digits() digits is refused with a
        ValueError naming the string (_bounded_fraction).  A wire-form
        string longer than that limit is refused by int, with int's message.
        """
        if isinstance(x, str):
            num, slash, den = x.partition("/")
            if x.isascii() and num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
                return Fraction(int(num), int(den)) if slash else Fraction(int(num))
            return _bounded_fraction(x)
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / a

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"

    def format(self, a) -> str:
        return str(a)

    def entry_to_json(self, a):
        num, den = a.as_integer_ratio()
        return num if den == 1 else f"{num}/{den}"

    def to_json(self):
        return "Q"

    # the integer form (module docstring)
    def integers(self, xs) -> tuple[list[int], int]:
        """(v, d) for the Fractions xs: d the lcm of their denominators and
        v = d * xs, from each one's as_integer_ratio()."""
        ratios = [x.as_integer_ratio() for x in xs]
        d = lcm(*[b for _, b in ratios])
        if d == 1:
            return [a for a, _ in ratios], 1
        return [a * (d // b) for a, b in ratios], d

    def normalized(self, v, d) -> tuple[list[int], int]:
        k = gcd(d, *v)
        return ([x // k for x in v], d // k) if k != 1 else (v, d)

    quotient = Fraction

    def quotients(self, v, d) -> list[Fraction]:
        return [Fraction(x, d) for x in v]

    def same(self, a: int, b: int) -> bool:
        return a == b


class PrimeField(_Field):
    """GF(p) for a prime p < 2^31; elements are residues 0..p-1."""

    def __init__(self, p: int):
        if not isinstance(p, int) or p >= _MAX_PRIME or not is_prime(p):
            raise ValueError(f"p must be a prime below 2^31, got {p}")
        self.p = self.modulus = p
        self.name = f"GF({p})"
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x) -> int:
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, str):
            return int(x) % self.p
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"

    def format(self, a) -> str:
        return str(a)

    def entry_to_json(self, a):
        return int(a)

    def to_json(self):
        return {"p": self.p}

    # the integer form (module docstring)
    def integers(self, xs) -> tuple[list[int], int]:
        return list(xs), 1

    def normalized(self, v, d) -> tuple[list[int], int]:
        p = self.p
        return [x % p for x in v], d % p

    def quotient(self, x: int, d: int) -> int:
        return x * pow(d, -1, self.p) % self.p

    def quotients(self, v, d) -> list[int]:
        p = self.p
        inv = pow(d, -1, p)
        return [x * inv % p for x in v]

    def same(self, a: int, b: int) -> bool:
        return (a - b) % self.p == 0


QQ = RationalField()


def _bounded_fraction(text: str) -> Fraction:
    """Fraction(text), refused with a ValueError naming text when the value's
    numerator or denominator has more than sys.get_int_max_str_digits()
    digits, the bound Python puts on its int and str conversions.  A limit
    of 0, Python's "no limit", lifts this bound too.

    A decimal exponent is bounded before Fraction raises 10 to it.  Let m
    be the length of the text before the exponent e.  When e >= 0 a value
    other than 0 is at least 10^(e - m), and when e < 0 its denominator
    exceeds 10^(-e - m); so |e| - m >= limit refuses the text outright.  Any
    other text costs Fraction no more than its length and the limit allow,
    and its value is checked.
    """
    limit = sys.get_int_max_str_digits()
    if not limit:
        return Fraction(text)
    body = text.strip()
    e = max(body.rfind("e"), body.rfind("E"))
    if e > 0:
        head, exponent = body[:e], body[e + 1:]
        digits = exponent[1:] if exponent[:1] in ("+", "-") else exponent
        # Fraction's grammar: a decimal head, then E[-+]?\d+(_\d+)* at the end
        if ("/" not in head and "e" not in head and "E" not in head and head == head.rstrip()
                and all(map(str.isdecimal, digits.split("_")))):
            try:
                mantissa, power = Fraction(head), int(exponent)
            except ValueError:
                pass  # Fraction(text) raises its own error
            else:
                if not mantissa:
                    return Fraction(0)
                if abs(power) - len(head) >= limit:
                    raise _too_many_digits(text, limit)
    value = Fraction(text)
    bound = 10**limit
    if abs(value.numerator) >= bound or value.denominator >= bound:
        raise _too_many_digits(text, limit)
    return value


def _too_many_digits(text: str, limit: int) -> ValueError:
    return ValueError(f"{text!r} has more than {limit} digits in its numerator or denominator "
                      f"(sys.get_int_max_str_digits())")


def GF(p: int) -> PrimeField:
    return PrimeField(p)


class ExactMatrix:
    """An immutable dense matrix over QQ or GF(p)."""

    __slots__ = ("field", "rows", "cols", "entries", "_hash")

    def __init__(self, field, entries):
        rows = tuple(tuple(field.coerce(x) for x in row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("matrix must be non-empty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        self.field = field
        self.rows = len(rows)
        self.cols = width
        self.entries = rows
        self._hash = None

    @classmethod
    def _reduced(cls, field, rows: tuple) -> "ExactMatrix":
        """A matrix from a non-empty rectangular tuple of row tuples whose
        entries are already reduced elements of the field."""
        m = cls.__new__(cls)
        m.field = field
        m.rows = len(rows)
        m.cols = len(rows[0])
        m.entries = rows
        m._hash = None
        return m

    @classmethod
    def identity(cls, field, n: int) -> "ExactMatrix":
        one, zero = field.one, field.zero
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def permutation(cls, field, window) -> "ExactMatrix":
        """The 0/1 matrix sending e_j to e_{window[j]} (family-A window)."""
        n = len(window)
        mat = [[field.zero] * n for _ in range(n)]
        for j, image in enumerate(window):
            mat[image - 1][j] = field.one
        return cls._reduced(field, tuple(map(tuple, mat)))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.field == other.field and self.entries == other.entries

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self.entries))
        return self._hash

    def __repr__(self):
        return f"ExactMatrix({self.field!r}, {self.rows}x{self.cols})"

    def __str__(self):
        fmt = self.field.format
        widths = [max(len(fmt(self.entries[i][j])) for i in range(self.rows)) for j in range(self.cols)]
        lines = []
        for row in self.entries:
            lines.append("[" + "  ".join(fmt(x).rjust(w) for x, w in zip(row, widths)) + "]")
        return "\n".join(lines)

    def _require_same_field(self, other):
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field!r} vs {other.field!r}")

    def _require_same_shape(self, other):
        self._require_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._require_same_field(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        f = self.field
        if isinstance(f, PrimeField):
            p = f.p
            cols = list(zip(*other.entries))
            out = tuple([tuple([sum(map(mul, row, col)) % p for col in cols]) for row in self.entries])
        else:
            cols = [f.integers(col) for col in zip(*other.entries)]
            out = tuple(
                tuple(Fraction(sum(map(mul, row, col)), den * col_den) for col, col_den in cols)
                for row, den in map(f.integers, self.entries)
            )
        return ExactMatrix._reduced(f, out)

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._require_same_shape(other)
        f = self.field
        return ExactMatrix._reduced(
            f, tuple(tuple(map(f.add, r1, r2)) for r1, r2 in zip(self.entries, other.entries))
        )

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._require_same_shape(other)
        f = self.field
        return ExactMatrix._reduced(
            f, tuple(tuple(map(f.sub, r1, r2)) for r1, r2 in zip(self.entries, other.entries))
        )

    def scaled(self, c) -> "ExactMatrix":
        f = self.field
        c = f.coerce(c)
        return ExactMatrix._reduced(f, tuple(tuple(f.mul(c, x) for x in row) for row in self.entries))

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix._reduced(self.field, tuple(zip(*self.entries)))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_upper_triangular(self) -> bool:
        return all(
            self.entries[i][j] == self.field.zero
            for i in range(self.rows)
            for j in range(min(i, self.cols))
        )

    def submatrix(self, row_range, col_range) -> "ExactMatrix":
        rows = tuple(tuple(self.entries[i][j] for j in col_range) for i in row_range)
        if not rows or not rows[0]:
            raise ValueError("matrix must be non-empty")
        return ExactMatrix._reduced(self.field, rows)

    def det(self):
        if not self.is_square():
            raise ValueError("determinant needs a square matrix")
        f = self.field
        rows, dens = zip(*map(f.integers, self.entries))
        return f.quotient(f.echelon(rows)[1], prod(dens))

    def rank(self) -> int:
        f = self.field
        return f.echelon([f.integers(row)[0] for row in self.entries])[0]

    def inverse(self) -> "ExactMatrix":
        """The reduced pass over the rows [v_i | d_i e_i], which are the rows
        of [self | 1] in the integer form, leaves scale * [1 | self^-1];
        raises SingularMatrixError, naming the first column without a
        pivot, on singular input."""
        if not self.is_square():
            raise ValueError("inverse needs a square matrix")
        f = self.field
        n = self.rows
        rows = [v + [d if j == i else 0 for j in range(n)]
                for i, (v, d) in enumerate(map(f.integers, self.entries))]
        _, _, pivots, m, scale = f.reduced_echelon(rows)
        col = next((j for j, c in enumerate(pivots) if c != j), n)
        if col < n:
            raise SingularMatrixError(
                f"matrix is singular: no nonzero pivot in column {col + 1}", column=col + 1
            )
        return ExactMatrix._reduced(f, tuple(tuple(f.quotients(row[n:], scale)) for row in m))

    def to_json(self):
        return {
            "field": self.field.to_json(),
            "rows": self.rows,
            "cols": self.cols,
            "entries": [list(map(self.field.entry_to_json, row)) for row in self.entries],
        }


def matrix_from_json(obj) -> ExactMatrix:
    """Parse the shared wire format:
    {"field": "Q" | {"p": prime}, "rows": n, "cols": n, "entries": [[...], ...]}
    with rationals as "a/b" strings (plain ints accepted) and GF(p) entries
    as integers."""
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    try:
        field_spec = obj["field"]
        rows, cols = obj["rows"], obj["cols"]
        entries = obj["entries"]
    except KeyError as missing:
        raise ValueError(f"matrix JSON lacks key {missing}") from None
    if field_spec == "Q":
        field = QQ
    elif isinstance(field_spec, dict) and "p" in field_spec:
        field = PrimeField(field_spec["p"])
    else:
        raise ValueError(f"unknown field spec {field_spec!r}")
    if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
        raise ValueError("matrix JSON entries must be a list of rows")
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise ValueError("entries do not match the declared shape")
    for row in entries:
        for x in row:
            # JSON true/false arrive as bool, a subclass of int
            if isinstance(x, bool) or not isinstance(x, (int, str)):
                raise ValueError(f"matrix entry {x!r} is neither an integer nor a string")
    try:
        return ExactMatrix(field, entries)
    except ZeroDivisionError:
        raise ValueError("a matrix entry has denominator 0") from None


# ---------------------------------------------------------------------------
# the exact elimination


def _echelon(rows, p: int | None = None, reduced: bool = False):
    """(rank, det, pivots, rows, scale) of integer rows over Q (p None) or
    GF(p): det is 0 unless the matrix is square and of full rank, pivots
    are the pivot columns from left to right (the rank of the leading j
    columns is the number of pivots below j), and row i of rows holds pivot
    column pivots[i].  Over Q a step is Bareiss's m[i][j] <- (m[i][j] *
    pivot - m[i][c] * m[r][j]) / prev, prev the pivot before, each division
    exact (Sylvester's identity) and det the last pivot up to sign; over
    GF(p) det is the signed product of the pivots.  With ``reduced`` the
    rows above each pivot are cleared too, and every pivot entry equals
    ``scale``: the last pivot over Q, 1 over GF(p)."""
    m = [[x % p for x in row] for row in rows] if p else [list(row) for row in rows]
    nr, nc = len(m), len(m[0])
    r, sign, det, prev = 0, 1, 1, 1
    pivots = []
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        top = m[r]
        pivot = top[c]
        rest = range(0 if reduced else r + 1, nr)
        if p:
            det = det * pivot % p
            if pivot != 1:
                inv = pow(pivot, -1, p)
                top[c:] = [x * inv % p for x in top[c:]]
            # the pivot row is 0 left of column c, so only columns c.. change
            tail = top[c:] if c else top
            for i in rest:
                row = m[i]
                factor = row[c]
                if factor and i != r:
                    row[c:] = [(x - factor * y) % p for x, y in zip(row[c:] if c else row, tail)]
        else:
            for i in rest:
                if i == r:
                    continue
                row = m[i]
                factor = row[c]
                # a row above the pivot is scaled by pivot / prev from column 0
                for j in range(c + 1 if i > r else 0, nc):
                    q, rem = divmod(row[j] * pivot - factor * top[j], prev)
                    assert rem == 0
                    row[j] = q
                row[c] = 0
        prev = pivot
        pivots.append(c)
        r += 1
        if r == nr:
            break
    det = (sign * det % p if p else sign * prev) if r == nr == nc else 0
    return r, det, pivots, m, 1 if p else prev


def random_invertible(field, n: int, rng, entry_pool=None) -> ExactMatrix:
    """A uniformly-sampled-enough invertible matrix for randomized checks."""
    while True:
        if isinstance(field, PrimeField):
            entries = [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)]
        else:
            pool = entry_pool or [Fraction(a, b) for a in range(-5, 6) for b in range(1, 4)]
            entries = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
        m = ExactMatrix(field, entries)
        if m.det() != field.zero:
            return m


def enumerate_matrices(field, n: int):
    """All n x n matrices over a prime field (tiny cases only)."""
    if not isinstance(field, PrimeField):
        raise ValueError("enumeration needs a finite field")
    values = range(field.p)
    for flat in itertools.product(values, repeat=n * n):
        yield ExactMatrix(field, [flat[i * n:(i + 1) * n] for i in range(n)])
