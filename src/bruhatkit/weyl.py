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
* Classes of BC: the class-to-unipotent map takes the cycle type of w~ as
  the Jordan type (phimap.map_i).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial

from .errors import IntegrityError
from .exact import PRIME_TEST_BOUND, int_echelon, integer_root, is_prime
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
        gens = []
        for i in range(1, d):
            window = list(range(1, d + 1))
            window[i - 1], window[i] = window[i], window[i - 1]
            gens.append(WeylElement._make(self, tuple(window)))
        if self.family == "BC":
            window = list(range(1, d + 1))
            window[-1] = -d
            gens.append(WeylElement._make(self, tuple(window)))
        elif self.family == "D":
            window = list(range(1, d + 1))
            window[-2], window[-1] = -d, -(d - 1)
            gens.append(WeylElement._make(self, tuple(window)))
        return gens

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
            if a < b:
                for k in range(a, b):
                    mat[k - 1][i - 1] += 1
            else:
                for k in range(b, a):
                    mat[k - 1][i - 1] -= 1
        return tuple(map(tuple, mat))

    def is_elliptic(self) -> bool:
        """True iff w has no fixed vector in the reflection representation,
        decided by an exact integer determinant of (matrix - identity)."""
        mat = self.reflection_matrix()
        rows = [list(row) for row in mat]
        for i in range(len(rows)):
            rows[i][i] -= 1
        return int_echelon(rows)[1] != 0

    def cycle_type(self) -> Partition:
        """Cycle type of a family-A element, as a partition of the degree."""
        if self.spec.family != "A":
            raise ValueError("cycle_type is for family A; see signed_cycle_type")
        return Partition(len(c) for c in _cycles(self.window))

    def signed_cycle_type(self) -> tuple[Partition, Partition]:
        """For family BC: (positive-cycle lengths, negative-cycle lengths).

        A cycle of the underlying permutation is negative when the product of
        the signs of w along it is -1.
        """
        if self.spec.family != "BC":
            raise ValueError("signed_cycle_type is for family BC")
        pos, neg = [], []
        for cycle in _cycles(tuple(abs(v) for v in self.window)):
            sign = 1
            for i in cycle:
                if self.window[i - 1] < 0:
                    sign = -sign
            (pos if sign > 0 else neg).append(len(cycle))
        return Partition(pos), Partition(neg)

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


class ConjugacyClass:
    """A conjugacy class of a Weyl group, with its length and type data.
    ``min_elements`` holds its minimal-length elements in window order; the
    elliptic flag and the label (cycle type for A, signed cycle type for BC,
    none for D) are read off the first of them."""

    __slots__ = ("spec", "elements", "min_length", "min_elements", "elliptic", "label")

    def __init__(self, spec, elements, min_length, min_elements):
        self.spec = spec
        self.elements = frozenset(elements)
        self.min_length = min_length
        self.min_elements = tuple(sorted(min_elements, key=lambda w: w.window))
        rep = self.min_elements[0]
        self.elliptic = rep.is_elliptic()
        if spec.family == "A":
            self.label = rep.cycle_type()
        elif spec.family == "BC":
            self.label = rep.signed_cycle_type()
        else:
            self.label = None

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def representative(self) -> WeylElement:
        """The minimal-length element with lexicographically least window."""
        return self.min_elements[0]

    def label_json(self):
        if self.label is None:
            return None
        if isinstance(self.label, Partition):
            return self.label.to_json()
        lam, mu = self.label
        return [lam.to_json(), mu.to_json()]

    def __repr__(self):
        return (
            f"ConjugacyClass({self.spec}, size={self.size}, "
            f"min_length={self.min_length}, label={self.label})"
        )


def conjugacy_classes(spec: GroupSpec, rank_cap: int = DEFAULT_RANK_CAP) -> list[ConjugacyClass]:
    """Partition the group into conjugacy classes by generator-conjugation.

    Pure orbit closure: conjugate by each simple reflection until stable.
    Classes come back sorted by (min length, least window) and carry labels
    for families A (cycle type) and BC (signed cycle type); D classes are
    label-free.
    """
    if spec.rank > rank_cap:
        raise ValueError(f"rank {spec.rank} exceeds cap {rank_cap}")
    gen_windows = [g.window for g in spec.generators()]
    seen: set[tuple[int, ...]] = set()
    class_window_sets: list[list[tuple[int, ...]]] = []
    for start in _all_windows(spec):
        if start in seen:
            continue
        seen.add(start)
        orbit = [start]
        frontier = [start]
        while frontier:
            new_frontier = []
            for w in frontier:
                for s in gen_windows:
                    c = _compose(s, _compose(w, s))
                    if c not in seen:
                        seen.add(c)
                        orbit.append(c)
                        new_frontier.append(c)
            frontier = new_frontier
        class_window_sets.append(orbit)

    classes = []
    for windows in class_window_sets:
        lengths = [_window_length(w, spec.family) for w in windows]
        d_min = min(lengths)
        elements = [WeylElement._make(spec, w) for w in windows]
        min_elements = [e for e, l in zip(elements, lengths) if l == d_min]
        classes.append(ConjugacyClass(spec, elements, d_min, min_elements))
    classes.sort(key=lambda c: (c.min_length, c.representative.window))
    total = sum(c.size for c in classes)
    if total != spec.order():
        raise IntegrityError(f"classes of {spec} cover {total} of {spec.order()} elements")
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
        if v > 0:
            out[v - 1] = i
        else:
            out[-v - 1] = -i
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


def _cycles(window: tuple[int, ...]) -> list[list[int]]:
    # cycles of the underlying (unsigned) permutation, on letters 1..n
    n = len(window)
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cycle = []
        i = start
        while not seen[i]:
            seen[i] = True
            cycle.append(i)
            i = abs(window[i - 1])
        cycles.append(cycle)
    return cycles


def _all_windows(spec: GroupSpec):
    d = spec.degree
    if spec.family == "A":
        yield from itertools.permutations(range(1, d + 1))
        return
    even_only = spec.family == "D"
    for perm in itertools.permutations(range(1, d + 1)):
        for signs in itertools.product((1, -1), repeat=d):
            if even_only and signs.count(-1) % 2:
                continue
            yield tuple(s * v for s, v in zip(signs, perm))


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
