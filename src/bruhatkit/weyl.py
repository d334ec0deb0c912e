"""Classical Weyl groups realized as (signed) permutation groups.

Families and ranks
------------------
* ``A`` rank n: the symmetric group on n+1 letters.
* ``BC`` rank n: the hyperoctahedral group of signed permutations of n letters
  (the Weyl group of Sp_2n and SO_2n+1; the two root systems share one group).
* ``D`` rank n (n >= 2): signed permutations with an even number of sign changes.

Conventions, used everywhere in this package
--------------------------------------------
* Window notation: an element w is stored as the tuple ``(w(1), ..., w(d))``
  of signed images, extended to negatives by w(-i) = -w(i).  Family A windows
  are plain permutations (all entries positive).
* Composition: ``(a * b)(i) = a(b(i))`` -- b acts first.
* Simple reflections: s_1 .. s_{d-1} are the adjacent transpositions.  For BC
  the extra generator s_n flips the sign of the last coordinate; for D it is
  the sign-flipping swap of the last two coordinates.
* Matrices act on column vectors; the matrix of w has e_i in column i mapped
  to sign(w(i)) * e_{|w(i)|}.

Signed permutations through S_2n
--------------------------------
The window of a BC or D element w of rank n embeds in the symmetric group
on 2n letters (_embed, behind embed_in_symmetric): signed letter i goes to
position i and -i to position 2n+1-i.  Facts about signed permutations are
read off the embedded window w~, as type A reads its own window:

* Lengths: l_BC(w) = inv(w~(1..n)) + sum over w(i) < 0 of (n + 1 - |w(i)|),
  and l_D(w) = l_BC(w) - neg(w), with inv the type-A inversion count of the
  first n letters of w~ and neg(w) the number of negative entries of the
  window.  The inversions count the roots e_i - e_j (i < j) that w sends
  negative.  A root e_i + e_j is sent negative exactly when its letter of
  smaller absolute value is negative, which gives n - |w(i)| roots for each
  w(i) < 0, and the long root 2e_i (absent in D) when w(i) < 0.
* Inverted roots: a positive root of C_n is inverted by w exactly when the
  window of the embedding of w^-1 puts its first position pair (r, c)
  out of order (cells.inverted_roots).

Classes
-------
A class is keyed by one walk of the cycles of w (_class_key; Carter,
"Conjugacy classes in the Weyl group", Compositio Math. 25, 1972): its cycle
type in A, and in BC the pair (positive, negative cycle lengths), where a
cycle is negative when the product of the signs of w along it is -1.  A BC
class in D is one D class, except that a class of only even, positive
cycles splits in two, told apart by the parity of the sign changes e that
make e w e^-1 unsigned.  Each class must have |W| / |Z_W(w)| elements, with
|Z_W(w)| = prod k^m_k m_k! over the m_k k-cycles in A and prod (2k)^a_k a_k!
(2k)^b_k b_k! over the a_k positive and b_k negative k-cycles in BC; a D
class has the size of its BC class, halved when it splits.  phimap.map_i
takes the cycle type of w~ as the Jordan type of a BC class.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from math import factorial, prod

from .errors import IntegrityError
from .exact import PRIME_TEST_BOUND, QQ, integer_root, is_prime
from .partitions import Partition
from .polynomial import Poly

DEFAULT_RANK_CAP = 7

FAMILIES = ("A", "BC", "D")


@dataclass(frozen=True)
class GroupSpec:
    """A classical Weyl group: family A, BC or D, plus the rank."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.family == "D" and self.rank < 2:
            raise ValueError("family D needs rank >= 2")

    @property
    def degree(self) -> int:
        """Number of letters the group permutes (the window length)."""
        return self.rank + 1 if self.family == "A" else self.rank

    def order(self) -> int:
        n = self.rank
        if self.family == "A":
            return factorial(n + 1)
        if self.family == "BC":
            return 2**n * factorial(n)
        return 2 ** (n - 1) * factorial(n)

    def degrees(self) -> list[int]:
        """The invariant degrees (exponents + 1); their product is the order."""
        n = self.rank
        if self.family == "A":
            return list(range(2, n + 2))
        if self.family == "BC":
            return list(range(2, 2 * n + 1, 2))
        return list(range(2, 2 * n - 1, 2)) + [n]

    def num_positive_roots(self) -> int:
        return sum(d - 1 for d in self.degrees())

    def identity(self) -> "WeylElement":
        return WeylElement._make(self, tuple(range(1, self.degree + 1)))

    def generators(self) -> list["WeylElement"]:
        """The simple reflections s_1 .. s_rank, each of length 1."""
        d = self.degree
        windows = [list(range(1, d + 1)) for _ in range(self.rank)]
        for i in range(d - 1):
            windows[i][i:i + 2] = i + 2, i + 1
        if self.family == "BC":
            windows[-1][-1] = -d
        elif self.family == "D":
            windows[-1][-2:] = -d, 1 - d
        return [WeylElement._make(self, tuple(window)) for window in windows]

    def longest_element(self) -> "WeylElement":
        d = self.degree
        if self.family == "A":
            window = tuple(range(d, 0, -1))
        elif self.family == "BC" or d % 2 == 0:
            window = tuple(-i for i in range(1, d + 1))
        else:
            window = tuple(-i for i in range(1, d)) + (d,)
        return WeylElement._make(self, window)

    def element(self, window) -> "WeylElement":
        return WeylElement(self, tuple(window))

    def elements(self):
        """Iterate over the whole group (use the rank-capped callers for safety)."""
        for window in _all_windows(self):
            yield WeylElement._make(self, window)

    def __str__(self):
        return f"{self.family}{self.rank}"


class WeylElement:
    """A group element in window notation.  Immutable and hashable."""

    __slots__ = ("spec", "window", "_hash")

    def __init__(self, spec: GroupSpec, window: tuple[int, ...]):
        window = tuple(window)
        _validate_window(spec, window)
        self.spec = spec
        self.window = window
        self._hash = hash((spec, window))

    @classmethod
    def _make(cls, spec, window):
        # construction bypassing validation, for products of valid elements
        self = object.__new__(cls)
        self.spec = spec
        self.window = window
        self._hash = hash((spec, window))
        return self

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.spec == other.spec and self.window == other.window

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"WeylElement({self.spec}, {list(self.window)})"

    def __str__(self):
        return "[" + ",".join(map(str, self.window)) + "]"

    def __call__(self, i: int) -> int:
        """Signed action on letters: w(-i) = -w(i)."""
        if i > 0:
            return self.window[i - 1]
        return -self.window[-i - 1]

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if not isinstance(other, WeylElement):
            return NotImplemented
        if self.spec != other.spec:
            raise ValueError(f"spec mismatch: {self.spec} vs {other.spec}")
        return WeylElement._make(self.spec, _compose(self.window, other.window))

    def inverse(self) -> "WeylElement":
        return WeylElement._make(self.spec, _invert(self.window))

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.window, start=1))

    def length(self) -> int:
        """Coxeter length: the number of positive roots sent negative."""
        return _window_length(self.window, self.spec.family)

    def reduced_word(self) -> tuple[int, ...]:
        """A reduced word in generator indices (1-based), greedy on descents.

        Deterministic: each step takes the smallest i with l(s_i w) < l(w),
        so the word multiplies back to w as s_{i1} * s_{i2} * ... * s_{ik}.
        """
        gens = self.spec.generators()
        w = self
        lw = w.length()
        word = []
        while lw:
            for idx, s in enumerate(gens, start=1):
                sw = s * w
                lsw = sw.length()
                if lsw < lw:
                    word.append(idx)
                    w, lw = sw, lsw
                    break
            else:
                raise IntegrityError(f"no descent found for {self} at {w}")
        return tuple(word)

    def reflection_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Integer matrix of w in the reflection representation.

        BC/D: the d x d signed permutation matrix.  A: the action on the
        sum-zero subspace in the basis e_i - e_{i+1}, a (d-1) x (d-1) matrix.
        """
        d = len(self.window)
        if self.spec.family != "A":
            mat = [[0] * d for _ in range(d)]
            for i, v in enumerate(self.window):
                mat[abs(v) - 1][i] = 1 if v > 0 else -1
            return tuple(map(tuple, mat))
        mat = [[0] * (d - 1) for _ in range(d - 1)]
        for i in range(1, d):
            a, b = self.window[i - 1], self.window[i]
            for k in range(min(a, b), max(a, b)):
                mat[k - 1][i - 1] += 1 if a < b else -1
        return tuple(map(tuple, mat))

    def is_elliptic(self) -> bool:
        """True iff w has no fixed vector in the reflection representation,
        decided by an exact integer determinant of (matrix - identity)."""
        mat = self.reflection_matrix()
        rows = [list(row) for row in mat]
        for i in range(len(rows)):
            rows[i][i] -= 1
        return QQ.echelon(rows)[1] != 0

    def cycle_type(self) -> Partition:
        """Cycle type of a family-A element, as a partition of the degree."""
        if self.spec.family != "A":
            raise ValueError("cycle_type is for family A; see signed_cycle_type")
        return Partition(_class_key(self.window, "A"))

    def signed_cycle_type(self) -> tuple[Partition, Partition]:
        """For family BC: (positive-cycle lengths, negative-cycle lengths).

        A cycle of the underlying permutation is negative when the product of
        the signs of w along it is -1.
        """
        if self.spec.family != "BC":
            raise ValueError("signed_cycle_type is for family BC")
        return _class_label(_class_key(self.window, "BC"), "BC")

    def embed_in_symmetric(self) -> "WeylElement":
        """The image of a BC element in the symmetric group on 2n letters.

        Signed letter i maps to position i, and -i to position 2n+1-i, so the
        image commutes with the pairing j <-> 2n+1-j.  This is the embedding
        matching the symplectic conventions in the cells module.
        """
        if self.spec.family != "BC":
            raise ValueError("embedding is defined for family BC")
        return WeylElement._make(GroupSpec("A", 2 * len(self.window) - 1), _embed(self.window))


def signed_window_from_symmetric(window: tuple[int, ...]) -> tuple[int, ...] | None:
    """Invert embed_in_symmetric on windows; None when the permutation is
    not compatible with the pairing j <-> 2n+1-j."""
    n = len(window) // 2
    signed = tuple(v if v <= n else v - 2 * n - 1 for v in window[:n])
    return signed if _embed(signed) == tuple(window) else None


def symplectic_signed_window(window: tuple[int, ...]) -> tuple[int, ...]:
    """The signed window of a symplectic matrix's GL_2n cell window.  The
    GL cell of a symplectic matrix always lies in the embedded group, so a
    window outside it falsifies the setup and raises IntegrityError."""
    signed = signed_window_from_symmetric(window)
    if signed is None:
        raise IntegrityError(f"symplectic element in GL cell {window}, outside the embedded group")
    return signed


class ConjugacyClass:
    """A conjugacy class of a Weyl group, with its length and type data.
    ``min_elements`` holds its minimal-length elements in window order; the
    elliptic flag is read off the first of them, and the label (cycle type
    for A, signed cycle type for BC, none for D) comes from the class key."""

    __slots__ = ("spec", "elements", "min_length", "min_elements", "elliptic", "label")

    def __init__(self, spec, elements, min_length, min_elements, label):
        self.spec = spec
        self.elements = frozenset(elements)
        self.min_length = min_length
        self.min_elements = tuple(sorted(min_elements, key=lambda w: w.window))
        self.elliptic = self.min_elements[0].is_elliptic()
        self.label = label

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def representative(self) -> WeylElement:
        """The minimal-length element with lexicographically least window."""
        return self.min_elements[0]

    def label_json(self):
        if isinstance(self.label, tuple):
            return [part.to_json() for part in self.label]
        return None if self.label is None else self.label.to_json()

    def __repr__(self):
        return (
            f"ConjugacyClass({self.spec}, size={self.size}, "
            f"min_length={self.min_length}, label={self.label})"
        )


def conjugacy_classes(spec: GroupSpec, rank_cap: int = DEFAULT_RANK_CAP) -> list[ConjugacyClass]:
    """Partition the group into conjugacy classes by (signed) cycle type.

    See "Classes" in the module docstring; a class whose size is not
    |W| / |Z_W(w)| raises IntegrityError.  Classes come back sorted by (min
    length, least window) and carry labels for families A (cycle type) and
    BC (signed cycle type); D classes are label-free.
    """
    if spec.rank > rank_cap:
        raise ValueError(f"rank {spec.rank} exceeds cap {rank_cap}")
    family = spec.family
    groups: dict[tuple, list[tuple[int, ...]]] = {}
    for w in _all_windows(spec):
        groups.setdefault(_class_key(w, family), []).append(w)
    classes = []
    for key, windows in groups.items():
        expected = _class_size(key, spec)
        if len(windows) != expected:
            raise IntegrityError(f"class {key} of {spec} has {len(windows)} elements, "
                                 f"not |W|/|Z_W(w)| = {expected}")
        lengths = [_window_length(w, family) for w in windows]
        d_min = min(lengths)
        elements = [WeylElement._make(spec, w) for w in windows]
        min_elements = [e for e, l in zip(elements, lengths) if l == d_min]
        classes.append(ConjugacyClass(spec, elements, d_min, min_elements,
                                      _class_label(key, family)))
    classes.sort(key=lambda c: (c.min_length, c.representative.window))
    return classes


def poincare_polynomial(spec: GroupSpec, rank_cap: int = DEFAULT_RANK_CAP) -> Poly:
    """Sum of q^length(w) over the group, by direct enumeration."""
    if spec.rank > rank_cap:
        raise ValueError(f"rank {spec.rank} exceeds cap {rank_cap}")
    counts = [0] * (spec.num_positive_roots() + 1)
    family = spec.family
    for w in _all_windows(spec):
        counts[_window_length(w, family)] += 1
    return Poly(counts)


def poincare_from_degrees(spec: GroupSpec) -> Poly:
    """The closed product form prod_i (q^{d_i}-1)/(q-1) of the same polynomial."""
    out = Poly.const(1)
    for d in spec.degrees():
        out = out * Poly((1,) * d)
    return out


def chevalley_order(spec: GroupSpec, q: int) -> int:
    """Order of the Chevalley group of this type over GF(q):
    q^N * prod_i (q^{d_i} - 1) with N the number of positive roots.

    For family A and rank n-1 this is |SL_n(GF(q))|; see gl_order for GL_n.
    """
    _check_prime_power(q)
    order = q ** spec.num_positive_roots()
    for d in spec.degrees():
        order *= q**d - 1
    return order


def gl_order(n: int, q: int) -> int:
    """|GL_n(GF(q))| = q^(n(n-1)/2) * prod_{i=1..n} (q^i - 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_prime_power(q)
    order = q ** (n * (n - 1) // 2)
    for i in range(1, n + 1):
        order *= q**i - 1
    return order


# ---------------------------------------------------------------------------
# window-level helpers (hot paths work on plain tuples)


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # (a o b)(i) = a(b(i)) with the signed convention
    return tuple(a[k - 1] if k > 0 else -a[-k - 1] for k in b)


def _invert(w: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(w)
    for i, v in enumerate(w, start=1):
        out[abs(v) - 1] = i if v > 0 else -i
    return tuple(out)


def _window_length(window: tuple[int, ...], family: str) -> int:
    n = len(window)
    if family != "A":
        # see "Signed permutations through S_2n" in the module docstring:
        # one pass builds the first n letters of _embed(window) and sums the
        # roots e_i + e_j and 2e_i that the negative entries send negative
        top = n + 1 if family == "BC" else n
        letters, negative = [], 0
        for v in window:
            if v > 0:
                letters.append(v)
            else:
                letters.append(2 * n + 1 + v)
                negative += top + v
        return _window_length(letters, "A") + negative
    total = 0
    for i in range(n):
        wi = window[i]
        for j in range(i + 1, n):
            if wi > window[j]:
                total += 1
    return total


def _embed(window: tuple[int, ...]) -> tuple[int, ...]:
    # signed letter i goes to position i, -i to 2n+1-i (embed_in_symmetric)
    big = 2 * len(window)
    img = [0] * big
    for i, v in enumerate(window, start=1):
        target = v if v > 0 else big + 1 + v
        img[i - 1] = target
        img[big - i] = big + 1 - target
    return tuple(img)


def _class_key(window: tuple[int, ...], family: str) -> tuple:
    # "Classes" in the module docstring.  Along a cycle, sign is the sign change
    # at letter i that makes w positive so far; flips counts those that are -1
    seen = [False] * (len(window) + 1)
    pos, neg, flips = [], [], 0
    for start in range(1, len(window) + 1):
        length, sign, i = 0, 1, start
        while not seen[i]:
            seen[i] = True
            length += 1
            flips += sign < 0
            i = window[i - 1]
            if i < 0:
                sign, i = -sign, -i
        if length:
            (pos if sign > 0 else neg).append(length)
    pos.sort(reverse=True)
    neg.sort(reverse=True)
    if family == "A":
        return tuple(pos)
    if family == "D" and _splits_in_d(pos, neg):
        return tuple(pos), (), flips % 2
    return tuple(pos), tuple(neg)


def _splits_in_d(pos, neg) -> bool:
    return not neg and all(k % 2 == 0 for k in pos)


def _class_label(key: tuple, family: str):
    if family == "A":
        return Partition(key)
    return (Partition(key[0]), Partition(key[1])) if family == "BC" else None


def _class_size(key: tuple, spec: GroupSpec) -> int:
    # |W| / |Z_W(w)| ("Classes" in the module docstring)
    def centralizer(parts, base):
        return prod((base * k) ** parts.count(k) * factorial(parts.count(k)) for k in set(parts))

    if spec.family == "A":
        return spec.order() // centralizer(key, 1)
    pos, neg = key[:2]
    size = 2**spec.rank * factorial(spec.rank) // (centralizer(pos, 2) * centralizer(neg, 2))
    return size // 2 if spec.family == "D" and _splits_in_d(pos, neg) else size


def _all_windows(spec: GroupSpec):
    """Every window of the group: the permutations in lexicographic order,
    and for BC and D each of them under every sign tuple in product order,
    D keeping only the tuples with an even number of -1s.  The sign tuples
    are built once per call."""
    d = spec.degree
    if spec.family == "A":
        yield from itertools.permutations(range(1, d + 1))
        return
    signings = [signs for signs in itertools.product((1, -1), repeat=d)
                if spec.family != "D" or signs.count(-1) % 2 == 0]
    for perm in itertools.permutations(range(1, d + 1)):
        for signs in signings:
            yield tuple(map(operator.mul, signs, perm))


def _validate_window(spec: GroupSpec, window: tuple[int, ...]):
    d = spec.degree
    if len(window) != d:
        raise ValueError(f"window length {len(window)} != degree {d} of {spec}")
    if sorted(abs(v) for v in window) != list(range(1, d + 1)):
        raise ValueError(f"window {window} is not a signed permutation of 1..{d}")
    negatives = sum(1 for v in window if v < 0)
    if spec.family == "A" and negatives:
        raise ValueError("family A windows must be positive")
    if spec.family == "D" and negatives % 2:
        raise ValueError("family D windows need an even number of sign changes")


def _check_prime_power(q: int):
    if q < 2:
        raise ValueError("q must be at least 2")
    # q = p^k exactly when the root of q of the largest exact degree is prime
    for k in range(q.bit_length(), 0, -1):
        root = integer_root(q, k)
        if root**k == q:
            break
    if root >= PRIME_TEST_BOUND:
        raise ValueError(f"q = {q}: its root {root} is beyond the exact primality test "
                         f"(below {PRIME_TEST_BOUND})")
    if not is_prime(root):
        raise ValueError(f"q = {q} is not a prime power")
